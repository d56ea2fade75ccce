"""Experiment configuration: flat ``key = value`` files with dotted sections.

Grammar (documented in the README): one ``key = value`` pair per line, keys
are dotted paths (``solver.max_steps``), values parse as JSON scalars or
lists and fall back to bare strings; ``#`` starts a comment.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .solvers import InnerConfig, SolverConfig, WeaknessSchedule

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


@dataclass
class AnalysisSettings:
    u_grid: tuple[float, ...] | None = None
    u_max: float = 1.0
    u_points: int = 10
    sample_count: int = 200
    lambda_grid_size: int = 9
    tail_fraction: float = 0.5
    omega_radius: float | None = None
    q: float | None = None
    p: float | None = None
    alpha_safety: float = 1.1
    beta_safety: float = 0.9
    # explicit curvature overrides; all four must be given together
    alpha: float | None = None
    beta: float | None = None
    radius: float | None = None
    grad_bound: float | None = None

    def halving_u_grid(self) -> tuple[float, ...]:
        """Default grid u_max / 2^i, ascending, so every u has its half present."""
        if self.u_grid is not None:
            return self.u_grid
        return tuple(self.u_max / 2 ** i for i in reversed(range(self.u_points)))


@dataclass
class ExperimentConfig:
    name: str
    dimension: int
    seed: int
    output_dir: str
    objective: dict
    dictionary_type: str
    dictionary_seed: int | None
    solver: SolverConfig
    analysis: AnalysisSettings
    raw: dict = field(repr=False, default_factory=dict)


def _get(data: dict, key: str, kind, default=..., required: bool = False):
    if key not in data:
        if required:
            raise ConfigError(f"{key}: missing required field")
        return None if default is ... else default
    v = data[key]
    if kind is float and isinstance(v, int):
        v = float(v)
    if kind is not None and not isinstance(v, kind):
        raise ConfigError(f"{key}: expected {getattr(kind, '__name__', kind)}, got {v!r}")
    return v


def _weakness_from(data: dict) -> WeaknessSchedule:
    v = data.get("solver.weakness", 1.0)
    try:
        if isinstance(v, (int, float)):
            return WeaknessSchedule.constant(float(v))
        if isinstance(v, list):
            return WeaknessSchedule.from_sequence([float(t) for t in v])
    except ValueError as exc:
        raise ConfigError(f"solver.weakness: {exc}") from exc
    raise ConfigError(f"solver.weakness: expected a number or list, got {v!r}")


def config_from_mapping(data: dict) -> ExperimentConfig:
    name = _get(data, "name", str, required=True)
    dimension = _get(data, "dimension", int, required=True)
    if dimension < 1:
        raise ConfigError(f"dimension: must be >= 1, got {dimension}")
    seed = _get(data, "seed", int, default=0)
    output_dir = str(data.get("output_dir", "runs"))

    obj_type = _get(data, "objective.type", str, required=True)
    if obj_type not in OBJECTIVE_TYPES:
        raise ConfigError(f"objective.type: unknown type {obj_type!r}, "
                          f"expected one of {OBJECTIVE_TYPES}")
    objective = {"type": obj_type}
    for key, val in data.items():
        if key.startswith("objective.") and key != "objective.type":
            objective[key[len("objective."):]] = val
    if obj_type == "power_sum":
        expo = _get(data, "objective.exponent", (int, float), required=True)
        if float(expo) < 2.0:
            raise ConfigError(f"objective.exponent: must be >= 2, got {expo}")
        objective["exponent"] = float(expo)

    dict_type = _get(data, "dictionary.type", str, default="canonical")
    if dict_type not in DICTIONARY_TYPES:
        raise ConfigError(f"dictionary.type: unknown type {dict_type!r}, "
                          f"expected one of {DICTIONARY_TYPES}")
    dict_seed = _get(data, "dictionary.seed", int, default=None)

    algorithm = _get(data, "solver.algorithm", str, default="omp")
    if algorithm not in ("omp", "wcga"):
        raise ConfigError(f"solver.algorithm: expected omp or wcga, got {algorithm!r}")
    try:
        inner = InnerConfig(
            inner_tol=_get(data, "solver.inner_tol", (int, float), default=1e-10),
            max_inner_iters=_get(data, "solver.max_inner_iters", int, default=500),
            armijo_c=_get(data, "solver.armijo_c", (int, float), default=1e-4),
            backtrack_factor=_get(data, "solver.backtrack_factor", (int, float), default=0.5),
            initial_step=_get(data, "solver.initial_step", (int, float), default=1.0),
        )
        solver = SolverConfig(
            algorithm=algorithm,
            weakness=_weakness_from(data),
            max_steps=_get(data, "solver.max_steps", int, default=100),
            stop_tol=_get(data, "solver.stop_tol", (int, float), default=1e-8),
            inner=inner,
            selection_strategy=_get(data, "solver.selection_strategy", str, default="exact"),
            seed=_get(data, "solver.seed", int, default=None) or 0,
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    q = _get(data, "analysis.q", (int, float), default=None)
    p = _get(data, "analysis.p", (int, float), default=None)
    if q is not None and p is not None and float(p) == float(q) and float(p) != 2.0:
        raise ConfigError(
            f"analysis.p/analysis.q: rate theory covers q < p or p = q = 2, "
            f"got p = q = {p}")
    if q is not None and not 1.0 < float(q) <= 2.0:
        raise ConfigError(f"analysis.q: {q} outside (1, 2]")
    if p is not None and float(p) < 2.0:
        raise ConfigError(f"analysis.p: {p} below 2")
    u_grid = data.get("analysis.u_grid")
    if u_grid is not None:
        if not isinstance(u_grid, list) or any(not isinstance(v, (int, float)) or v <= 0
                                               for v in u_grid):
            raise ConfigError("analysis.u_grid: expected a list of positive numbers")
        u_grid = tuple(float(v) for v in u_grid)
    if "analysis.l_mode" in data:
        raise ConfigError("analysis.l_mode: no longer supported; the level-set diameter "
                          "is the objective's closed form, else a sampled estimate")
    tail = float(_get(data, "analysis.tail_fraction", (int, float), default=0.5))
    if not 0.0 < tail <= 1.0:
        raise ConfigError(f"analysis.tail_fraction: {tail} outside (0, 1]")
    overrides = [data.get(f"analysis.{k}") for k in ("alpha", "beta", "radius", "grad_bound")]
    if any(v is not None for v in overrides) and not all(v is not None for v in overrides):
        raise ConfigError("analysis.alpha/beta/radius/grad_bound: "
                          "explicit curvature overrides must be given together")
    analysis = AnalysisSettings(
        u_grid=u_grid,
        u_max=float(_get(data, "analysis.u_max", (int, float), default=1.0)),
        u_points=_get(data, "analysis.u_points", int, default=10),
        sample_count=_get(data, "analysis.sample_count", int, default=200),
        lambda_grid_size=_get(data, "analysis.lambda_grid_size", int, default=9),
        tail_fraction=tail,
        omega_radius=_get(data, "analysis.omega_radius", (int, float), default=None),
        q=None if q is None else float(q),
        p=None if p is None else float(p),
        alpha_safety=float(_get(data, "analysis.alpha_safety", (int, float), default=1.1)),
        beta_safety=float(_get(data, "analysis.beta_safety", (int, float), default=0.9)),
        alpha=None if overrides[0] is None else float(overrides[0]),
        beta=None if overrides[1] is None else float(overrides[1]),
        radius=None if overrides[2] is None else float(overrides[2]),
        grad_bound=None if overrides[3] is None else float(overrides[3]),
    )
    return ExperimentConfig(
        name=name, dimension=dimension, seed=seed, output_dir=output_dir,
        objective=objective, dictionary_type=dict_type, dictionary_seed=dict_seed,
        solver=solver, analysis=analysis, raw=data,
    )


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    return config_from_mapping(parse_config_text(text))
