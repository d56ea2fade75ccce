"""Span recorder that wraps greedymin's public functions from outside the package.

Nothing under ``src/`` is edited.  A function hook replaces the function
object in every ``greedymin.*`` module namespace that holds it, because
that is where callers look the name up (``from .solvers import run_omp``
binds a name in ``harness``).  A method hook replaces the method in every
class of the hierarchy that defines it.  Each wrapped call records one
span: name, start, end and parent span.  Spans stay in memory until
:meth:`Recorder.write`.

A hook whose target no longer exists is reported in ``missing``; the
per-layer metrics built on it are then marked absent instead of read as 0.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

MARK = "__perfbench_hook__"

# Entry points of the greedy solver, looked up in the harness and solvers
# namespaces.  ``setup_s`` ends at the first call into any of them.
GREEDY_NAMES = ("run_omp", "run_wcga")


def _greedy_extra(args, kwargs, result):
    objective = args[0] if args else kwargs["objective"]
    return (len(result) - 1, objective.dimension)


def _subset_extra(args, kwargs, result):
    n, k = result.shape
    return (k, n)


def _argmin_extra(args, kwargs, result):
    n, k = args[1].shape
    A = getattr(args[0], "A", None)
    return (n, k, 0 if A is None else A.shape[0], int(result is not None))


# (span name, module, attribute names, extra) for functions;
# (span name, module, class, method, extra) for methods.  The greedy entry
# points (span "solvers.greedy") are hooked by install() itself.
FUNCTION_HOOKS = [
    ("config.load_config", "greedymin.config", ("load_config",), None),
    ("harness.build_dictionary", "greedymin.harness", ("build_dictionary",), None),
    ("harness.build_objective", "greedymin.harness", ("build_objective",), None),
    ("harness.derive_constants", "greedymin.harness", ("derive_constants",), None),
    ("harness.command", "greedymin.harness",
     ("run_experiment", "run_compare", "run_moduli", "run_demo_cs"), None),
    ("solvers.restricted_minimize", "greedymin.solvers", ("restricted_minimize",), None),
    ("objectives.estimate_condition_constants", "greedymin.objectives",
     ("estimate_condition_constants",), None),
    ("objectives.estimate_gradient_bound", "greedymin.objectives",
     ("estimate_gradient_bound",), None),
    ("objectives.estimate_level_set_diameter", "greedymin.objectives",
     ("estimate_level_set_diameter",), None),
    ("analysis.estimate_moduli", "greedymin.analysis", ("estimate_moduli",), None),
    ("analysis.check_moduli_equivalence", "greedymin.analysis",
     ("check_moduli_equivalence",), None),
    ("analysis.rate_constants", "greedymin.analysis", ("rate_constants",), None),
    ("analysis.check_error_recursion", "greedymin.analysis",
     ("check_error_recursion",), None),
    ("analysis.error_bound", "greedymin.analysis", ("error_bound",), None),
    ("analysis.fit_rate", "greedymin.analysis", ("fit_rate",), None),
]

METHOD_HOOKS = [
    ("objectives.value", "greedymin.objectives", "Objective", "value", None),
    ("objectives.gradient", "greedymin.objectives", "Objective", "gradient", None),
    ("objectives.hessian_diag", "greedymin.objectives", "Objective", "hessian_diag", None),
    ("objectives.argmin_in_span", "greedymin.objectives", "Objective", "argmin_in_span",
     _argmin_extra),
    ("dictionaries.analyze", "greedymin.dictionaries", "Dictionary", "analyze", None),
    ("dictionaries.subset", "greedymin.dictionaries", "Dictionary", "subset",
     _subset_extra),
    ("core.to_csv", "greedymin.core", "IterateTrace", "to_csv", None),
]

# Counted, not timed: a span per call would cost more than the call.
COUNT_HOOKS = [("core.as_point", "greedymin.core", "as_point")]


class Recorder:
    """In-memory spans plus the two timestamps and outputs the benchmark needs."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extras: dict[int, tuple] = {}
        self.counts: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self.stack: list[int] = []
        self.first_solver: float | None = None
        self.solver_depth = 0
        self.supports: list[list[int]] = []

    def code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def write(self, path: str, meta: dict) -> None:
        """Write the record as JSON and the span arrays beside it."""
        record = dict(meta, names=self.names, span_count=len(self.code),
                      extras=[[i, *v] for i, v in self.extras.items()],
                      counts=self.counts, missing=self.missing,
                      first_solver=self.first_solver, supports=self.supports)
        with open(path + ".spans", "wb") as fh:
            for arr in (self.code, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path, "w") as fh:
            json.dump(record, fh)


def read_spans(path: str, count: int) -> tuple[array, array, array, array]:
    """Inverse of :meth:`Recorder.write` for the span arrays."""
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(path + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return arrays


def span_wrapper(rec: Recorder, name: str, fn, extra):
    code = rec.code_of(name)
    clock = time.perf_counter
    stack = rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = len(rec.code)
        rec.code.append(code)
        rec.parent.append(stack[-1] if stack else -1)
        rec.start.append(clock())
        rec.end.append(0.0)
        stack.append(i)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            rec.end[i] = clock()
        if extra is not None:
            try:
                rec.extras[i] = extra(args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError, ValueError) as exc:
                rec.missing.setdefault(name + ".extra", f"{type(exc).__name__}: {exc}")
        return result

    setattr(wrapper, MARK, True)
    return wrapper


def _greedy_entry_wrapper(rec: Recorder, fn, inner):
    """Solver entry: stamp the first call and keep the selected atoms.

    Only the outermost entry records: an entry point that calls another
    (``run_omp`` delegating to ``run_wcga``, say) is one solve, not two.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.solver_depth:
            return fn(*args, **kwargs)
        if rec.first_solver is None:
            rec.first_solver = time.monotonic()
        rec.solver_depth += 1
        try:
            result = inner(*args, **kwargs)
        finally:
            rec.solver_depth -= 1
        try:
            rec.supports.append([int(j) for j in result.support])
        except (AttributeError, TypeError) as exc:
            rec.missing.setdefault("solvers.greedy.support", f"{type(exc).__name__}: {exc}")
        return result

    setattr(wrapper, MARK, True)
    return wrapper


def _counting_wrapper(rec: Recorder, name: str, fn):
    counts = rec.counts
    counts[name] = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    setattr(wrapper, MARK, True)
    return wrapper


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "greedymin" or k.startswith("greedymin."))]


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` wherever a package module binds it."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def install(rec: Recorder, traced: bool) -> None:
    """Install the solver-entry hook, and with ``traced`` every span hook.

    Import ``greedymin.cli`` first: it imports every module whose names
    are rebound here.
    """
    greedy_found = False
    for mod_name in ("greedymin.harness", "greedymin.solvers"):
        mod = sys.modules.get(mod_name)
        for attr in GREEDY_NAMES:
            fn = getattr(mod, attr, None)
            if fn is None or getattr(fn, MARK, False):
                continue
            inner = span_wrapper(rec, "solvers.greedy", fn, _greedy_extra) if traced else fn
            _rebind(fn, _greedy_entry_wrapper(rec, fn, inner))
            greedy_found = True
    if not greedy_found:
        rec.missing["solvers.greedy"] = "no greedy solver entry point found"
    if not traced:
        return

    for name, mod_name, attrs, extra in FUNCTION_HOOKS:
        mod = sys.modules.get(mod_name)
        found = False
        for attr in attrs:
            fn = getattr(mod, attr, None)
            if fn is None or getattr(fn, MARK, False):
                continue
            _rebind(fn, span_wrapper(rec, name, fn, extra))
            found = True
        if not found:
            rec.missing[name] = f"{mod_name} has none of {', '.join(attrs)}"

    for name, mod_name, cls_name, meth, extra in METHOD_HOOKS:
        base = getattr(sys.modules.get(mod_name), cls_name, None)
        found = False
        for cls in _subclasses(base) if isinstance(base, type) else []:
            fn = cls.__dict__.get(meth)
            if (fn is None or not callable(fn) or getattr(fn, MARK, False)
                    or getattr(fn, "__isabstractmethod__", False)):
                continue
            setattr(cls, meth, span_wrapper(rec, name, fn, extra))
            found = True
        if not found:
            rec.missing[name] = f"no {mod_name}.{cls_name} class defines {meth}"

    for name, mod_name, attr in COUNT_HOOKS:
        fn = getattr(sys.modules.get(mod_name), attr, None)
        if fn is None:
            rec.missing[name] = f"{mod_name} has no {attr}"
            continue
        _rebind(fn, _counting_wrapper(rec, name, fn))
