"""Experiment configuration: flat ``key = value`` files with dotted sections.

Grammar (documented in the README): one ``key = value`` pair per line, keys
are dotted paths (``solver.max_steps``), values parse as JSON scalars or
lists and fall back to bare strings; ``#`` starts a comment.
"""
from __future__ import annotations

import json
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import halving_partner
from .solvers import SolverConfig, WeaknessSchedule

OBJECTIVE_TYPES = ("diagonal_quadratic", "least_squares", "power_sum")
DICTIONARY_TYPES = ("canonical", "rotated")


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the field."""


def parse_config_text(text: str) -> dict:
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if " #" in value:
            value = value.split(" #", 1)[0].rstrip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            data[key] = json.loads(value)
        except (json.JSONDecodeError, ValueError):
            data[key] = value
    return data


# moduli grid u = 2^-i, ascending, so every u has its half present
DEFAULT_U_GRID = tuple(1.0 / 2 ** i for i in reversed(range(10)))


def sub_seed(seed: int, component: str) -> int:
    """Stable per-component seed: (seed + crc32(name)) mod 2^32."""
    return (int(seed) + zlib.crc32(component.encode())) % 2 ** 32


@dataclass
class AnalysisSettings:
    u_grid: tuple[float, ...] = DEFAULT_U_GRID
    sample_count: int = 200
    lambda_grid_size: int = 9
    tail_fraction: float = 0.5
    q: float | None = None
    p: float | None = None
    # explicit curvature overrides; all four must be given together
    alpha: float | None = None
    beta: float | None = None
    radius: float | None = None
    grad_bound: float | None = None


@dataclass
class ExperimentConfig:
    name: str
    dimension: int
    seed: int
    output_dir: str
    objective: dict
    dictionary_type: str
    solver: SolverConfig
    analysis: AnalysisSettings
    raw: dict = field(repr=False, default_factory=dict)


def _is_number(v) -> bool:
    """A finite number; booleans are not numbers, NaN fails the comparison."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _take(left: dict, key: str, kind: type, default=None, required: bool = False):
    """Pop ``key`` from ``left`` as ``kind``; floats are finite numbers, ints widen to them."""
    if key not in left:
        if required:
            raise ConfigError(f"{key}: missing required field")
        return default
    v = left.pop(key)
    if kind is float:
        if _is_number(v):
            return float(v)
    elif isinstance(v, kind) and (kind is bool or not isinstance(v, bool)):
        return v
    name = "finite float" if kind is float else kind.__name__
    raise ConfigError(f"{key}: expected {name}, got {v!r}")


def _fields(left: dict, section: str, kinds: dict) -> dict:
    """The ``section.<name>`` keys present in ``left``, popped and typed, by name."""
    return {name: _take(left, f"{section}.{name}", kind)
            for name, kind in kinds.items() if f"{section}.{name}" in left}


def _vector(key: str, v, n: int) -> tuple[float, ...]:
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        raise ConfigError(f"{key}: expected a list of {n} finite numbers, got {v!r}")
    if len(v) != n:
        raise ConfigError(f"{key}: expected {n} entries, got {len(v)}")
    return tuple(float(x) for x in v)


def _center(left: dict, n: int) -> dict:
    """An explicit center, or the spec of a seeded sparse one."""
    if "objective.center" in left:
        if "objective.center_sparsity" in left:
            raise ConfigError("objective.center: conflicts with objective.center_sparsity")
        return {"center": _vector("objective.center", left.pop("objective.center"), n)}
    if "objective.center_sparsity" not in left:
        raise ConfigError("objective.center or objective.center_sparsity required")
    s = _take(left, "objective.center_sparsity", int)
    if not 0 <= s <= n:
        raise ConfigError(f"objective.center_sparsity: expected int in [0, {n}], got {s!r}")
    low = _take(left, "objective.center_low", float, 1.0)
    high = _take(left, "objective.center_high", float, 2.0)
    if not low <= high:
        raise ConfigError(f"objective.center_low/high: need low <= high, got {low}, {high}")
    return {"center_sparsity": s, "center_low": low, "center_high": high}


def _weights(left: dict, n: int) -> dict:
    """Explicit weights (a number or a list), or the range of seeded draws."""
    if "objective.weights_low" in left or "objective.weights_high" in left:
        if "objective.weights" in left:
            raise ConfigError("objective.weights: conflicts with objective.weights_low/high")
        low = _take(left, "objective.weights_low", float, 0.5)
        high = _take(left, "objective.weights_high", float, 2.0)
        if not 0 < low <= high:
            raise ConfigError(f"objective.weights_low/high: need 0 < low <= high, "
                              f"got {low}, {high}")
        return {"weights_low": low, "weights_high": high,
                "weights_log": _take(left, "objective.weights_log", bool, False)}
    w = left.pop("objective.weights", 1.0)
    if _is_number(w):
        w = float(w)
    elif isinstance(w, list):
        w = _vector("objective.weights", w, n)
    else:
        raise ConfigError(f"objective.weights: expected a number or list, got {w!r}")
    if min(w if isinstance(w, tuple) else (w,)) <= 0:
        raise ConfigError("objective.weights: weights must be positive")
    return {"weights": w}


def _objective(left: dict, n: int) -> dict:
    """The objective spec: the keys ``objective.type`` reads, checked against dimension n."""
    kind = _take(left, "objective.type", str, required=True)
    if kind not in OBJECTIVE_TYPES:
        raise ConfigError(f"objective.type: unknown type {kind!r}, "
                          f"expected one of {OBJECTIVE_TYPES}")
    spec = {"type": kind}
    if kind == "least_squares":
        if "objective.matrix_file" in left:
            spec["matrix_file"] = _take(left, "objective.matrix_file", str)
            spec["b_file"] = _take(left, "objective.b_file", str)
            if spec["b_file"] is None:
                raise ConfigError("objective.b_file: required with objective.matrix_file")
            return spec
        spec["rows"] = _take(left, "objective.rows", int, required=True)
        if spec["rows"] < 1:
            raise ConfigError(f"objective.rows: expected a positive int, got {spec['rows']}")
        return spec | _center(left, n)
    if kind == "power_sum":
        spec["exponent"] = _take(left, "objective.exponent", float, required=True)
        if spec["exponent"] < 2.0:
            raise ConfigError(f"objective.exponent: must be >= 2, got {spec['exponent']}")
    return spec | _center(left, n) | _weights(left, n)


def _weakness(v) -> WeaknessSchedule:
    ts = [v] if _is_number(v) else v
    if not isinstance(ts, list) or not all(_is_number(t) for t in ts):
        raise ConfigError(f"solver.weakness: expected a number or list, got {v!r}")
    try:
        return WeaknessSchedule(ts)
    except ValueError as exc:
        raise ConfigError(f"solver.weakness: {exc}") from exc


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Typed config from a parsed mapping.

    Each key is read once from a copy of ``data``; a key left over (unknown,
    removed, or not read by the chosen ``objective.type``) is an error.
    """
    left = dict(data)
    name = _take(left, "name", str, required=True)
    dimension = _take(left, "dimension", int, required=True)
    if dimension < 1:
        raise ConfigError(f"dimension: must be >= 1, got {dimension}")
    seed = _take(left, "seed", int, 0)
    output_dir = _take(left, "output_dir", str, "runs")
    objective = _objective(left, dimension)

    dict_type = _take(left, "dictionary.type", str, "canonical")
    if dict_type not in DICTIONARY_TYPES:
        raise ConfigError(f"dictionary.type: unknown type {dict_type!r}, "
                          f"expected one of {DICTIONARY_TYPES}")

    solver = _fields(left, "solver", {"algorithm": str, "max_steps": int, "stop_tol": float,
                                      "inner_tol": float, "max_inner_iters": int,
                                      "selection_strategy": str})
    if "solver.weakness" in left:
        solver["weakness"] = _weakness(left.pop("solver.weakness"))
    try:
        solver = SolverConfig(seed=sub_seed(seed, "solver"), **solver)
    except ValueError as exc:     # its messages start with the field name
        raise ConfigError(f"solver.{exc}") from exc

    analysis = _fields(left, "analysis", {
        "sample_count": int, "lambda_grid_size": int, "tail_fraction": float,
        "q": float, "p": float, "alpha": float, "beta": float, "radius": float,
        "grad_bound": float})
    q, p = analysis.get("q"), analysis.get("p")
    if q is not None and p is not None and p == q and p != 2.0:
        raise ConfigError(
            f"analysis.p/analysis.q: rate theory covers q < p or p = q = 2, "
            f"got p = q = {p}")
    if q is not None and not 1.0 < q <= 2.0:
        raise ConfigError(f"analysis.q: {q} outside (1, 2]")
    if p is not None and p < 2.0:
        raise ConfigError(f"analysis.p: {p} below 2")
    tail = analysis.get("tail_fraction")
    if tail is not None and not 0.0 < tail <= 1.0:
        raise ConfigError(f"analysis.tail_fraction: {tail} outside (0, 1]")
    for key, low in (("sample_count", 1), ("lambda_grid_size", 2)):
        if analysis.get(key, low) < low:
            raise ConfigError(f"analysis.{key}: must be >= {low}, got {analysis[key]}")
    overrides = [k for k in ("alpha", "beta", "radius", "grad_bound") if k in analysis]
    for key in overrides:
        if not analysis[key] > 0:
            raise ConfigError(f"analysis.{key}: must be positive, got {analysis[key]}")
    if 0 < len(overrides) < 4:
        raise ConfigError("analysis.alpha/beta/radius/grad_bound: "
                          "explicit curvature overrides must be given together")
    if "analysis.u_grid" in left:
        u_grid = left.pop("analysis.u_grid")
        if (not isinstance(u_grid, list) or not u_grid
                or any(not _is_number(v) or v <= 0 for v in u_grid)):
            raise ConfigError("analysis.u_grid: expected a non-empty list of positive numbers")
        if all(halving_partner(u_grid, u) is None for u in u_grid):
            raise ConfigError("analysis.u_grid: contains no halving pair u, u/2")
        analysis["u_grid"] = tuple(float(v) for v in u_grid)

    if left:
        raise ConfigError(f"{', '.join(sorted(left))}: unknown key, or one that "
                          f"objective.type {objective['type']!r} does not read")
    return ExperimentConfig(
        name=name, dimension=dimension, seed=seed, output_dir=output_dir,
        objective=objective, dictionary_type=dict_type, solver=solver,
        analysis=AnalysisSettings(**analysis), raw=data,
    )


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    return config_from_mapping(parse_config_text(text))
