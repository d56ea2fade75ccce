"""The greedy outer loop and the restricted inner minimizer.

``run_wcga`` is the one greedy loop: the weak Chebyshev greedy algorithm,
which picks an atom whose gradient coefficient is at least t_k times the
largest.  OMP is the same loop with every t_k = 1 and the exact strategy;
``SolverConfig(algorithm="omp")`` is held to those settings.

The inner solver re-minimizes the objective over the span of the selected
atoms, as basis columns in selection order, evaluating the restricted
gradient once per iterate.  It solves exactly when it is given a
``SpanFactor``, and ``run_wcga`` builds one when the objective has a
least-squares form (quadratics).  That thin QR is carried across the run,
so a step subsets and factors only the newly selected atom, synthesizes x
from the coefficients and certifies it from the analysis of one gradient,
which the next selection reads.  Without a factor, descent with Armijo
backtracking, preconditioned by the diagonal Hessian when available, runs
from the start coefficients until the restricted gradient coefficients
drop below ``inner_tol``.  ``inner_tol`` must stay well below ``stop_tol``
or selection could re-pick an already selected atom.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import IterateTrace, TraceStep, Vector, norm
from .dictionaries import SELECTION_STRATEGIES, Dictionary, weak_select
from .objectives import Objective, SpanFactor


@dataclass(frozen=True)
class WeaknessSchedule:
    """Per-step weakness parameters t_k in (0, 1] for WCGA selection.

    A finite explicit sequence is padded with its last value for later steps.
    """

    ts: tuple[float, ...]

    def __post_init__(self):
        if not self.ts:
            raise ValueError("weakness schedule must not be empty")
        ts = tuple(float(t) for t in self.ts)
        for t in ts:
            if not 0.0 < t <= 1.0:
                raise ValueError(f"weakness parameter t={t} outside (0, 1]")
        object.__setattr__(self, "ts", ts)

    @classmethod
    def constant(cls, t: float) -> "WeaknessSchedule":
        return cls((float(t),))

    @classmethod
    def from_sequence(cls, seq: Sequence[float]) -> "WeaknessSchedule":
        return cls(tuple(float(t) for t in seq))

    def t(self, k: int) -> float:
        """Weakness parameter for step k (1-based)."""
        if k < 1:
            raise ValueError("step index must be >= 1")
        return self.ts[min(k - 1, len(self.ts) - 1)]


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "omp"
    weakness: WeaknessSchedule = field(default_factory=lambda: WeaknessSchedule.constant(1.0))
    max_steps: int = 100
    stop_tol: float = 1e-8
    inner_tol: float = 1e-10
    max_inner_iters: int = 500
    selection_strategy: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("omp", "wcga"):
            raise ValueError(f"algorithm: expected omp or wcga, got {self.algorithm!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps: must be >= 1")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol: must be positive")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol: must be positive")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters: must be >= 1")
        if self.selection_strategy not in SELECTION_STRATEGIES:
            raise ValueError(f"selection_strategy: unknown strategy "
                             f"{self.selection_strategy!r}")
        # OMP is WCGA at t = 1 with the exact strategy; other settings would misname the run
        if self.algorithm == "omp" and self.weakness.ts != (1.0,):
            raise ValueError(f"weakness: omp selects at t = 1, got {self.weakness.ts}")
        if self.algorithm == "omp" and self.selection_strategy != "exact":
            raise ValueError(f"selection_strategy: omp selects exactly, "
                             f"got {self.selection_strategy!r}")


class InnerSolveError(RuntimeError):
    """Restricted minimization ran out of iterations.

    Carries the least residual gradient sup-norm reached; raised from a
    greedy run, also its step and support size (else None).
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
        self.step: int | None = None
        self.support_size: int | None = None


def restricted_minimize(objective: Objective, dictionary: Dictionary,
                        start: Mapping[int, float], cfg: SolverConfig,
                        factor: SpanFactor | None = None,
                        ) -> tuple[Vector, dict[int, float], Vector]:
    """Minimize the objective over the span of the atoms keyed in ``start``.

    ``start`` maps each atom to its starting coefficient; its keys, in their
    order (the selection order in a greedy run), are the basis columns on
    both solve paths and the keys of the returned coefficients.  Returns a
    point x whose restricted gradient coefficients are all at most
    ``cfg.inner_tol`` in magnitude, within ``cfg.max_inner_iters`` iterates,
    its coefficients, and the analysis D^T E'(x) of the gradient that
    certified it.  Restricted gradient coefficients are exactly <E'(x), phi_j>
    for the keyed atoms because the dictionary is orthonormal.

    The solve is exact exactly when ``factor`` is given: a
    :class:`SpanFactor` of the objective's least-squares form carried
    across calls, holding the leading atoms of ``start`` already.  Only the
    atoms after them are subset and appended; x is synthesized from the
    coefficients, and the analysis of its gradient certifies it.  A solve
    that fails that check continues by descent.  Without a factor, descent
    starts from the coefficients in ``start``.
    """
    if not start:
        raise ValueError("start must be nonempty")
    idx = list(start)
    if factor is None:
        z = np.array([float(v) for v in start.values()])
    else:
        if factor.size > len(idx):
            raise ValueError(f"start has {len(idx)} atoms, "
                             f"the factor already holds {factor.size}")
        z = objective.argmin_in_span(dictionary.subset(idx[factor.size:]), factor)
        dense = np.zeros(dictionary.size)
        dense[idx] = z
        x = dictionary.synthesize(dense)
        g = dictionary.analyze(objective.gradient(x))
        if float(np.max(np.abs(g[idx]))) <= cfg.inner_tol:
            return x, dict(zip(idx, (float(v) for v in z))), g
    basis = dictionary.subset(idx)

    # restricted gradient sup-norm at the point x = basis @ z
    def resid(x) -> float:
        return float(np.max(np.abs(basis.T @ objective.gradient(x))))

    eps = float(np.finfo(np.float64).eps)
    best_resid = np.inf
    for it in range(cfg.max_inner_iters):
        x = basis @ z
        grad = objective.gradient(x)
        g = basis.T @ grad
        r = float(np.max(np.abs(g)))
        best_resid = min(best_resid, r)
        if r <= cfg.inner_tol:
            return x, dict(zip(idx, (float(v) for v in z))), dictionary.analyze(grad)
        if it + 1 == cfg.max_inner_iters:
            break  # no iteration left to check a further step
        val = objective.value(x)
        direction = None
        hd = objective.hessian_diag(x)
        if hd is not None:
            h = basis.T @ (hd[:, None] * basis)
            h[np.diag_indices_from(h)] += 1e-12 * max(1.0, float(np.max(h.diagonal())))
            try:
                direction = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                direction = None
        if direction is None or float(np.dot(g, direction)) <= 0.0:
            direction = g
        slope = float(np.dot(g, direction))
        # Armijo (c = 1e-4, halving from a unit step) on the value while the
        # decrease is resolvable in double precision; below that floor accept
        # on gradient-norm decrease, which damped Newton keeps shrinking long
        # after value changes fall under roundoff.
        floor = 16.0 * eps * max(1.0, abs(val))
        step = 1.0
        accepted = False
        while step > 1e-20:
            z_new = z - step * direction
            decrease = 1e-4 * step * slope
            if objective.value(basis @ z_new) <= val - decrease:
                accepted = True
                break
            if decrease <= floor and resid(basis @ z_new) < r:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no resolvable progress in any direction
        z = z_new
    raise InnerSolveError(
        f"restricted minimization did not reach tol {cfg.inner_tol:g} "
        f"within {cfg.max_inner_iters} iterations (residual {best_resid:g})", best_resid)


def run_wcga(objective: Objective, dictionary: Dictionary, cfg: SolverConfig) -> IterateTrace:
    """Greedy run: each step selects by ``weak_select`` at t_k, then re-minimizes.

    Selection reads the analysis of the gradient that certified the
    previous iterate.  This is the one place a :class:`SpanFactor` is
    built: with a least-squares form every restricted solve of the run
    takes the exact path, without one every solve descends.

    The one greedy entry point; an OMP config (t_k = 1, exact strategy) runs OMP.
    """
    n = objective.dimension
    if dictionary.size != n:
        raise ValueError(f"dictionary size {dictionary.size} != objective dimension {n}")
    xbar = objective.known_minimizer
    e_min = objective.value(xbar) if xbar is not None else None

    def error_of(val: float) -> float | None:
        if e_min is None:
            return None
        gap = val - e_min
        if gap < -1e-8 * (1.0 + abs(e_min)):
            warnings.warn("iterate beat the supplied minimizer; error clamped to 0",
                          RuntimeWarning)
        return max(gap, 0.0)

    def dist_of(x: Vector) -> float | None:
        return norm(x - xbar) if xbar is not None else None

    form = objective.least_squares_form()
    factor = None if form is None else SpanFactor(*form, capacity=min(cfg.max_steps, n))
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(n)
    coeffs: dict[int, float] = {}
    g = dictionary.analyze(objective.gradient(x))
    g_sup = float(np.max(np.abs(g)))
    stopped = g_sup <= cfg.stop_tol
    val = objective.value(x)
    steps = [TraceStep(0, val, error_of(val), dist_of(x), None, None, g_sup, stopped)]

    for m in range(1, cfg.max_steps + 1):
        if stopped:
            break
        j, coeff = weak_select(g, cfg.weakness.t(m), cfg.selection_strategy, rng)
        if j in coeffs:
            raise RuntimeError(
                f"atom {j} reselected at step {m}; stop_tol ({cfg.stop_tol:g}) "
                f"must stay above inner_tol ({cfg.inner_tol:g})")
        start = {**coeffs, j: 0.0}
        try:
            x, coeffs, g = restricted_minimize(objective, dictionary, start, cfg, factor)
        except InnerSolveError as exc:
            err = InnerSolveError(f"step {m}: {exc}", exc.residual)
            err.step, err.support_size = m, len(start)
            raise err from exc
        val = objective.value(x)
        sel_sup = g_sup
        g_sup = float(np.max(np.abs(g)))
        stopped = g_sup <= cfg.stop_tol
        steps.append(TraceStep(m, val, error_of(val), dist_of(x), j, coeff, sel_sup, stopped))
    return IterateTrace(steps, x)
