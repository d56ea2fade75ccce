"""Per-layer metrics from the span records of one traced workload repeat.

Every span name gets ``.calls``, ``.total_s`` (summed duration) and
``.self_s`` (duration minus the time covered by its child spans); METRICS
lists the ones reported.  Objective calls are split by their
nearest solver or estimator ancestor into ``.solve.*`` and ``.estimate.*``.
Shares divide by the time spent inside ``greedymin.cli.main``.
"""
from __future__ import annotations

from collections import defaultdict

SOLVE_SPANS = ("solvers.greedy", "solvers.restricted_minimize")
ESTIMATE_SPANS = ("objectives.estimate_condition_constants",
                  "objectives.estimate_gradient_bound",
                  "objectives.estimate_level_set_diameter",
                  "analysis.estimate_moduli")
OBJECTIVE_CALLS = ("value", "gradient", "hessian_diag")

# name -> (unit, hooks it needs).  Order is the order of BENCHMARK.json.
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli.startup_s": ("s", ()),
    "cli.main.total_s": ("s", ()),
    "config.load_config.total_s": ("s", ("config.load_config",)),
    "harness.build_dictionary.total_s": ("s", ("harness.build_dictionary",)),
    "harness.build_objective.total_s": ("s", ("harness.build_objective",)),
    "harness.derive_constants.self_s": ("s", ("harness.derive_constants",)),
    "harness.command.self_s": ("s", ("harness.command",)),
    "harness.output_bytes": ("bytes", ()),
    "solvers.greedy.calls": ("count", ("solvers.greedy",)),
    "solvers.greedy.total_s": ("s", ("solvers.greedy",)),
    "solvers.greedy.self_s": ("s", ("solvers.greedy",)),
    "solvers.steps": ("count", ("solvers.greedy",)),
    "solvers.restricted_minimize.calls": ("count", ("solvers.restricted_minimize",)),
    "solvers.restricted_minimize.self_s": ("s", ("solvers.restricted_minimize",)),
    "solvers.restricted_minimize.exact_ratio": (
        "ratio", ("solvers.restricted_minimize", "objectives.argmin_in_span")),
    **{f"solvers.restricted_minimize.{c}_calls": (
        "count", ("solvers.restricted_minimize", f"objectives.{c}"))
       for c in OBJECTIVE_CALLS},
    "dictionaries.analyze.calls": ("count", ("dictionaries.analyze",)),
    "dictionaries.analyze.self_s": ("s", ("dictionaries.analyze",)),
    "dictionaries.subset.calls": ("count", ("dictionaries.subset",)),
    "dictionaries.subset.self_s": ("s", ("dictionaries.subset",)),
    "dictionaries.subset.cols": ("count", ("dictionaries.subset",)),
    "dictionaries.subset.bytes_computed": ("bytes", ("dictionaries.subset",)),
    **{f"objectives.{c}.{where}.{stat}": (
        "count" if stat == "calls" else "s",
        (f"objectives.{c}",) + (SOLVE_SPANS if where == "solve" else ESTIMATE_SPANS))
       for c in OBJECTIVE_CALLS for where in ("solve", "estimate")
       for stat in ("calls", "self_s")},
    "objectives.argmin_in_span.calls": ("count", ("objectives.argmin_in_span",)),
    "objectives.argmin_in_span.self_s": ("s", ("objectives.argmin_in_span",)),
    "objectives.argmin_in_span.flops_computed": ("flop", ("objectives.argmin_in_span",)),
    **{f"{name}.total_s": ("s", (name,)) for name in ESTIMATE_SPANS[:3]},
    "core.as_point.calls": ("count", ("core.as_point",)),
    "core.to_csv.total_s": ("s", ("core.to_csv",)),
    "core.trace_bytes_computed": ("bytes", ("solvers.greedy",)),
    "analysis.estimate_moduli.total_s": ("s", ("analysis.estimate_moduli",)),
    "analysis.estimate_moduli.self_s": ("s", ("analysis.estimate_moduli",)),
    "analysis.check_moduli_equivalence.total_s": ("s", ("analysis.check_moduli_equivalence",)),
    "analysis.rate_constants.total_s": ("s", ("analysis.rate_constants",)),
    "analysis.check_error_recursion.calls": ("count", ("analysis.check_error_recursion",)),
    "analysis.check_error_recursion.total_s": ("s", ("analysis.check_error_recursion",)),
    "analysis.error_bound.calls": ("count", ("analysis.error_bound",)),
    "analysis.error_bound.total_s": ("s", ("analysis.error_bound",)),
    "analysis.fit_rate.total_s": ("s", ("analysis.fit_rate",)),
    "share.restricted_solve": ("ratio", ("solvers.restricted_minimize",)),
    "share.estimate": ("ratio", ESTIMATE_SPANS),
    "share.command_self": ("ratio", ("harness.command",)),
    "host.calib_s": ("s", ()),
    "host.numpy_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def argmin_flops(n: int, k: int, m: int) -> float:
    """Dense flop count of one exact restricted solve, from the operand shapes.

    Weighted normal equations (m == 0): B^T W B, B^T W c and a k x k solve.
    Least squares (m rows): A B, then an SVD-based lstsq on the m x k system.
    """
    if m == 0:
        return 2.0 * n * k * k + 3.0 * n * k + 2.0 * k ** 3 / 3.0
    return 2.0 * m * n * k + 4.0 * m * k * k + 8.0 * k ** 3


def span_metrics(record: dict, spans) -> dict[str, float]:
    """Layer metrics of one command from its record and span arrays."""
    codes, parents, starts, ends = spans
    names = record["names"]
    count = len(codes)
    dur = [ends[i] - starts[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    # nearest solver/estimator ancestor category, and nearest restricted solve
    category: list[str | None] = [None] * count
    rm_owner = [-1] * count
    exact_rm: set[int] = set()
    extras = {int(e[0]): e[1:] for e in record["extras"]}

    for i in range(count):
        name = names[codes[i]]
        p = parents[i]
        calls[name] += 1
        total[name] += dur[i]
        self_s[name] += dur[i] - child[i]
        if name in SOLVE_SPANS:
            category[i] = "solve"
        elif name in ESTIMATE_SPANS:
            category[i] = "estimate"
        elif p >= 0:
            category[i] = category[p]
        rm_owner[i] = i if name == "solvers.restricted_minimize" else (
            rm_owner[p] if p >= 0 else -1)

        short = name.removeprefix("objectives.")
        if short in OBJECTIVE_CALLS:
            if category[i] is not None:
                out[f"{name}.{category[i]}.calls"] += 1
                out[f"{name}.{category[i]}.self_s"] += dur[i] - child[i]
            if rm_owner[i] >= 0:
                out[f"solvers.restricted_minimize.{short}_calls"] += 1
        elif name == "objectives.argmin_in_span" and i in extras:
            n, k, m, solved = extras[i]
            if solved:
                out["objectives.argmin_in_span.flops_computed"] += argmin_flops(n, k, m)
                if rm_owner[i] >= 0:
                    exact_rm.add(rm_owner[i])
        elif name == "solvers.greedy" and i in extras:
            steps, n = extras[i]
            out["solvers.steps"] += steps
            out["core.trace_bytes_computed"] += (steps + 1) * n * 8
        elif name == "dictionaries.subset" and i in extras:
            k, n = extras[i]
            out["dictionaries.subset.cols"] += k
            out["dictionaries.subset.bytes_computed"] += n * k * 8

    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    out["solvers.restricted_minimize.exact_calls"] = len(exact_rm)
    out["core.as_point.calls"] = record["counts"].get("core.as_point", 0)
    return out


def workload_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Sum the commands of one repeat and derive the ratios."""
    summed: dict[str, float] = defaultdict(float)
    for metrics in per_command:
        for key, value in metrics.items():
            summed[key] += value

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    main = summed["cli.main.total_s"]
    summed["solvers.restricted_minimize.exact_ratio"] = ratio(
        summed["solvers.restricted_minimize.exact_calls"],
        summed["solvers.restricted_minimize.calls"])
    summed["share.restricted_solve"] = ratio(
        summed["solvers.restricted_minimize.total_s"], main)
    summed["share.estimate"] = ratio(
        sum(summed[f"{name}.total_s"] for name in ESTIMATE_SPANS), main)
    summed["share.command_self"] = ratio(summed["harness.command.self_s"], main)
    return dict(summed)
