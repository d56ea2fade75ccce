"""Experiment orchestration: build problems from configs, run, check, report.

All randomness flows from the single config seed through named sub-seeds
(objective, dictionary, solver, analysis) derived by adding a CRC32 of the
component name, so each component is independently reproducible.
"""
from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (MODULI_SLACK, Check, RateConstants, check_moduli_equivalence,
                       estimate_moduli, fit_rate, rate_constants, verify_trace)
from .config import ConfigError, ExperimentConfig, sub_seed
from .core import CurvatureParams, norm, support_of, write_csv
from .dictionaries import CanonicalBasis, Dictionary, RotatedBasis
from .objectives import (DiagonalQuadratic, LeastSquares, Objective, PowerSum,
                         estimate_condition_constants)
from .solvers import SolverConfig, WeaknessSchedule, run_wcga

BOUND_TOL = 1e-9

# Sampling biases the curvature estimates toward stronger claims, so the
# bounds stay sound only after relaxing the sampled alpha up and beta down.
ALPHA_SAFETY = 1.1
BETA_SAFETY = 0.9


def build_dictionary(cfg: ExperimentConfig) -> Dictionary:
    if cfg.dictionary_type == "canonical":
        return CanonicalBasis(cfg.dimension)
    return RotatedBasis(cfg.dimension, sub_seed(cfg.seed, "dictionary"))


def _sparse_center(cfg: ExperimentConfig, dictionary: Dictionary,
                   rng: np.random.Generator) -> np.ndarray:
    """Point with seeded sparse dictionary coefficients, or an explicit one."""
    spec = cfg.objective
    if "center" in spec:
        return np.asarray(spec["center"], dtype=np.float64)
    n = cfg.dimension
    s = spec["center_sparsity"]
    low, high = spec["center_low"], spec["center_high"]
    coeffs = np.zeros(n)
    idx = np.sort(rng.choice(n, size=s, replace=False))
    coeffs[idx] = rng.uniform(low, high, size=s) * rng.choice((-1.0, 1.0), size=s)
    return dictionary.synthesize(coeffs)


def _weights(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    spec = cfg.objective
    n = cfg.dimension
    if "weights" in spec:
        # a number or an n-tuple; np.full broadcasts either
        return np.full(n, spec["weights"], dtype=np.float64)
    low, high = spec["weights_low"], spec["weights_high"]
    if spec["weights_log"]:
        return 10.0 ** rng.uniform(np.log10(low), np.log10(high), size=n)
    return rng.uniform(low, high, size=n)


def build_objective(cfg: ExperimentConfig, dictionary: Dictionary) -> Objective:
    rng = np.random.default_rng(sub_seed(cfg.seed, "objective"))
    spec = cfg.objective
    if spec["type"] == "diagonal_quadratic":
        return DiagonalQuadratic(_sparse_center(cfg, dictionary, rng), _weights(cfg, rng))
    if spec["type"] == "power_sum":
        return PowerSum(_sparse_center(cfg, dictionary, rng), spec["exponent"],
                        _weights(cfg, rng))
    # least squares: files, or a seeded Gaussian sensing matrix
    if "matrix_file" in spec:
        obj = LeastSquares.from_files(spec["matrix_file"], spec["b_file"])
        if obj.dimension != cfg.dimension:
            raise ConfigError(f"objective.matrix_file: {obj.dimension} columns, "
                              f"config dimension {cfg.dimension}")
        return obj
    rows = spec["rows"]
    A = rng.standard_normal((rows, cfg.dimension))
    A /= np.sqrt(rows)  # in place: no second m x n array
    return LeastSquares.planted(A, _sparse_center(cfg, dictionary, rng))


# ---------------------------------------------------------------------------


def _effective_radius(objective: Objective) -> float | None:
    """Ball radius (around the origin) certified to contain the level set."""
    diam = objective.level_set_diameter
    return None if diam is None else 1.1 * (norm(objective.known_minimizer) + diam / 2.0)


def derive_constants(cfg: ExperimentConfig, objective: Objective,
                     dictionary: Dictionary) -> tuple[RateConstants | None, str | None]:
    """Rate constants for the configured problem, or a reason they don't exist.

    The theory needs a bounded level set, so without a closed-form level-set
    diameter there are no constants.  q defaults to 2 and p to the
    objective's exponent, for an override and for estimated parameters;
    closed-form parameters carry their own and take that diameter as their
    radius.  Estimated parameters sample pairs spanning twice the
    bounding-ball radius, which also covers every level-set pair, and are
    relaxed by ``ALPHA_SAFETY`` and ``BETA_SAFETY``.
    """
    if objective.level_set_diameter is None:
        return None, "level set not known to be bounded"
    xbar = objective.known_minimizer
    if xbar is None:
        return None, "minimizer unknown"
    coeffs = dictionary.analyze(xbar)
    support = support_of(coeffs, 1e-10)
    if support.size == 0:
        return None, "minimizer is the origin"
    ana = cfg.analysis
    q = ana.q if ana.q is not None else 2.0
    p = ana.p if ana.p is not None else objective.exponent
    if ana.alpha is not None:
        params = CurvatureParams(ana.alpha, q, ana.beta, p, ana.radius, ana.grad_bound)
    elif objective.known_params is not None:
        params = objective.known_params
    else:
        radius = _effective_radius(objective)
        pair_radius = 2.0 * radius
        alpha_hat, beta_hat = estimate_condition_constants(
            objective, q, p, radius, 10 * ana.sample_count, sub_seed(cfg.seed, "analysis"),
            pair_radius=pair_radius)
        alpha = ALPHA_SAFETY * alpha_hat
        beta = BETA_SAFETY * beta_hat
        if not beta > 0:
            return None, "estimated convexity constant is not positive"
        params = CurvatureParams(alpha, q, beta, p, pair_radius,
                                 objective.gradient_sup_bound)
    return rate_constants(objective, support.size, params), None


# ---------------------------------------------------------------------------


def _write_report(path: Path, name: str, checks: tuple[Check, ...], lines: list[str],
                  quiet: bool) -> str:
    """Write a text report headed by its STATUS and name; echo it unless quiet.

    STATUS is VIOLATION when any of the command's ``checks`` has a
    violation, else OK.  Returns the STATUS, which each command returns in
    turn.
    """
    status = "VIOLATION" if any(check.violations for check in checks) else "OK"
    text = "\n".join([f"STATUS: {status}", f"name: {name}", *lines]) + "\n"
    path.write_text(text)
    if not quiet:
        print(text, end="")
    return status


def _constants_lines(rc: RateConstants) -> list[str]:
    cp = rc.params
    lines = [
        f"alpha: {cp.alpha:.6g}  q: {cp.q:g}  beta: {cp.beta:.6g}  p: {cp.p:g}",
        f"radius: {cp.radius:.6g}  grad_bound: {cp.grad_bound:.6g}  "
        f"diameter_ratio: {rc.diameter_ratio:.6g}",
        f"support_size: {rc.support_size}  beta_global: {rc.beta_global:.6g}  "
        f"initial_gap: {rc.initial_gap:.6g}",
        f"gain: {rc.gain:.6g}  scale: {rc.scale:.6g}",
    ]
    if rc.is_exponential:
        lines.append(f"contraction_gain: {rc.contraction_gain:.6g}  "
                     f"contraction_factor: {rc.contraction_factor:.6g}")
    else:
        lines.append(f"poly_scale: {rc.poly_scale:.6g}  poly_offset: {rc.poly_offset:.6g}")
    return lines


def run_experiment(cfg: ExperimentConfig, output_dir=None, quiet: bool = False) -> str:
    t0 = time.perf_counter()
    dictionary = build_dictionary(cfg)
    objective = build_objective(cfg, dictionary)
    trace = run_wcga(objective, dictionary, cfg.solver)

    outdir = Path(cfg.output_dir if output_dir is None else output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(outdir / f"{cfg.name}.trace.csv")

    rc, reason = derive_constants(cfg, objective, dictionary)
    checks = () if rc is None else verify_trace(trace, rc, cfg.solver.weakness, BOUND_TOL)
    write_csv(outdir / f"{cfg.name}.bounds.csv", ("k", "e_k", "bound_k", "margin"),
              checks[1].rows if checks else [])

    final = trace.final
    lines = ["config: " + "; ".join(f"{k}={v}" for k, v in sorted(cfg.raw.items())),
             f"algorithm: {cfg.solver.algorithm}",
             f"objective: {cfg.objective['type']} (dimension {cfg.dimension})",
             f"dictionary: {cfg.dictionary_type}",
             f"steps: {final.k}  stopped: {'true' if final.stopped else 'false'}",
             f"E_final: {final.value:.12g}"]
    if final.error is not None:
        lines.append(f"error_final: {final.error:.12g}  dist_final: {final.dist:.12g}")
    if rc is None:
        lines.append(f"constants: skipped ({reason})")
    else:
        lines.extend(_constants_lines(rc))
        for check, label in zip(checks, ("recursion: pairs", "bounds: rows")):
            low = check.min_margin
            lines.append(f"{label}={len(check.ks)} violations={check.violations} "
                         f"min_margin={'' if low is None else format(low, '.6g')}")
        try:
            fit = fit_rate(trace, cfg.analysis.tail_fraction)
        except ValueError as exc:
            lines.append(f"rate_fit: skipped ({exc})")
        else:
            lines.append(f"rate_fit: slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
                         f"residual={fit.residual:.6g}")
        if rc.is_exponential:
            lines.append(f"theoretical_rate: exponential "
                         f"(factor {rc.contraction_factor:.6g}; decays faster than "
                         f"any fixed power)")
        else:
            lines.append(f"theoretical_rate: k^{rc.theoretical_slope:.6g}")
    lines.append(f"wall_time_s: {time.perf_counter() - t0:.3f}")
    return _write_report(outdir / f"{cfg.name}.report.txt", cfg.name, checks, lines, quiet)


# ---------------------------------------------------------------------------


def run_moduli(cfg: ExperimentConfig, output_dir=None, quiet: bool = False) -> str:
    dictionary = build_dictionary(cfg)
    objective = build_objective(cfg, dictionary)
    radius = _effective_radius(objective)
    if radius is None:
        raise ConfigError(f"moduli: a {cfg.objective['type']} objective without a "
                          "closed-form level-set radius has no bounded region to sample")
    if radius == 0:
        raise ConfigError("moduli: the minimizer is the origin, so the level set "
                          "{E <= E(0)} is the single point 0 and has no region to sample")
    est = estimate_moduli(objective, radius, cfg.analysis.u_grid,
                          cfg.analysis.sample_count, cfg.analysis.lambda_grid_size,
                          sub_seed(cfg.seed, "analysis"))
    right, left = check_moduli_equivalence(est, MODULI_SLACK, BOUND_TOL)
    outdir = Path(cfg.output_dir if output_dir is None else output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / f"{cfg.name}.moduli.csv", ("u", "rho", "rho1", "delta1"),
              zip(est.u_grid, est.rho, est.rho1, est.delta1))
    lines = [f"samples: {est.sample_count}  seed: {est.seed}",
             f"two-sided comparison (slack {MODULI_SLACK:g}, tol {BOUND_TOL:g}):"]
    lefts = dict(zip(left.ks, left.margins))
    failing = set(right.failing) | set(left.failing)
    for i, _, _, margin in right.rows:
        left_margin = f"{lefts[i]:.6g}" if i in lefts else "n/a"
        lines.append(f"  u={est.u_grid[i]:.6g}  right_margin={margin:.6g}  "
                     f"left_margin={left_margin}  {'FAIL' if i in failing else 'pass'}")
    return _write_report(outdir / f"{cfg.name}.moduli.txt", cfg.name, (right, left),
                         lines, quiet)


# ---------------------------------------------------------------------------


def parse_variant(descriptor: str, base: SolverConfig) -> SolverConfig:
    """Solver variant from a descriptor like ``wcga:t=0.5,strategy=first_admissible``.

    ``omp`` is WCGA at t = 1 with the exact strategy; naming other settings fails.
    """
    name, _, rest = descriptor.partition(":")
    if name not in ("omp", "wcga"):
        raise ConfigError(f"--algs: unknown algorithm {name!r} in {descriptor!r}")
    kwargs: dict = {"algorithm": name}
    if name == "omp":
        kwargs |= {"weakness": WeaknessSchedule.constant(1.0), "selection_strategy": "exact"}
    try:
        if rest:
            for item in rest.split(","):
                key, sep, val = item.partition("=")
                if not sep:
                    raise ConfigError(f"--algs: expected key=value in {descriptor!r}")
                key = key.strip()
                val = val.strip()
                if key == "t":
                    kwargs["weakness"] = WeaknessSchedule.constant(float(val))
                elif key == "strategy":
                    kwargs["selection_strategy"] = val
                elif key == "seed":
                    kwargs["seed"] = int(val)
                else:
                    raise ConfigError(f"--algs: unknown variant key {key!r} in {descriptor!r}")
        return replace(base, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"--algs: {descriptor!r}: {exc}") from exc


def run_compare(cfg: ExperimentConfig, descriptors: list[str], output_dir=None,
                quiet: bool = False) -> str:
    if len(descriptors) < 2:
        raise ConfigError("--algs: need at least two solver variants")
    dictionary = build_dictionary(cfg)
    objective = build_objective(cfg, dictionary)
    variants = [parse_variant(d, cfg.solver) for d in descriptors]
    traces = [run_wcga(objective, dictionary, v) for v in variants]
    rc, reason = derive_constants(cfg, objective, dictionary)

    outdir = Path(cfg.output_dir if output_dir is None else output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / f"{cfg.name}.compare.csv", ["k"] + [f"e_k({d})" for d in descriptors],
              ([k] + [t[k].error if k < len(t) else None for t in traces]
               for k in range(max(len(t) for t in traces))))

    checks: tuple[Check, ...] = ()
    lines = [] if rc is not None else [f"constants: skipped ({reason})"]
    for d, v, t in zip(descriptors, variants, traces):
        lines += [f"variant: {d}",
                  f"  steps: {t.final.k} stopped: {'true' if t.final.stopped else 'false'}"]
        if t.has_errors:
            lines.append(f"  error_final: {t.final.error:.12g}")
        if rc is not None:
            rec, bound = verify_trace(t, rc, v.weakness, BOUND_TOL)
            checks += (rec, bound)
            lines.append(f"  recursion_violations: {rec.violations}  "
                         f"bound_violations: {bound.violations}")
        try:
            fit = fit_rate(t, cfg.analysis.tail_fraction)
        except ValueError as exc:
            lines.append(f"  fitted_slope: skipped ({exc})")
        else:
            lines.append(f"  fitted_slope: {fit.slope:.6g}")
    return _write_report(outdir / f"{cfg.name}.compare.txt", cfg.name, checks, lines, quiet)


# ---------------------------------------------------------------------------


def run_demo_cs(rows: int, cols: int, sparsity: int, seed: int,
                output_dir="runs", quiet: bool = False) -> str:
    """Compressed-sensing style demo: plant a sparse solution, recover with OMP.

    Also samples the near-isometry ratio ||Az||^2 / ||z||^2 over seeded
    random vectors of the planted sparsity.
    """
    if rows < 1 or cols < 1:
        raise ConfigError(f"--rows/--cols: must be positive, got {rows}x{cols}")
    if rows > cols:
        raise ConfigError(f"--rows: rows ({rows}) may not exceed cols ({cols})")
    if sparsity < 0 or 2 * sparsity > rows:
        raise ConfigError(f"--sparsity: must satisfy 0 <= 2*sparsity <= rows, "
                          f"got {sparsity}")
    if seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols))
    A /= np.sqrt(rows)  # in place: no second m x n array
    xbar = np.zeros(cols)
    if sparsity:
        idx = np.sort(rng.choice(cols, size=sparsity, replace=False))
        xbar[idx] = rng.uniform(1.0, 2.0, size=sparsity) * rng.choice((-1.0, 1.0), size=sparsity)
    objective = LeastSquares.planted(A, xbar)
    cfg = SolverConfig(algorithm="omp", max_steps=rows, seed=sub_seed(seed, "solver"))
    trace = run_wcga(objective, CanonicalBasis(cols), cfg)

    final = trace.final
    true_support = set(np.flatnonzero(np.abs(xbar) > 0.0))
    found_support = set(support_of(trace.x, 1e-8))
    recovered = found_support == true_support
    distance = norm(trace.x - xbar)

    rip_low = rip_high = None
    if sparsity:
        ratios = []
        for _ in range(1000):
            zi = rng.choice(cols, size=sparsity, replace=False)
            z = rng.standard_normal(sparsity)
            Az = A[:, zi] @ z
            ratios.append(float(np.dot(Az, Az) / np.dot(z, z)))
        rip_low, rip_high = min(ratios), max(ratios)

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = f"demo_cs_r{rows}_c{cols}_s{sparsity}_seed{seed}"
    trace.to_csv(outdir / f"{name}.trace.csv")
    lines = [f"matrix: {rows}x{cols} gaussian, scaled by 1/sqrt(rows)",
             f"planted sparsity: {sparsity}",
             f"steps: {final.k}  stopped: {'true' if final.stopped else 'false'}",
             f"support_recovered: {'true' if recovered else 'false'}",
             f"distance_to_planted: {distance:.12g}"]
    if rip_low is not None:
        lines.append(f"sampled_isometry_ratio: [{rip_low:.6g}, {rip_high:.6g}] "
                     f"over 1000 random {sparsity}-sparse vectors")
    return _write_report(outdir / f"{name}.report.txt", name, (), lines, quiet)
