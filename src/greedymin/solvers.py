"""The greedy outer loop and the restricted inner minimizer.

``run_wcga`` is the one greedy loop: the weak Chebyshev greedy algorithm,
which picks an atom whose gradient coefficient is at least t_k times the
largest.  OMP is the same loop with every t_k = 1 and the exact strategy;
``SolverConfig(algorithm="omp")`` is held to those settings.

The loop carries its support as the list of selected atoms in selection
order and one coefficient vector over them.  The inner solver re-minimizes
the objective over the span of those atoms, as basis columns in that order,
and returns on both paths the coefficient vector, the selection vector
D^T E' and E at its point; x is synthesized once, when the run ends.  It
solves exactly when it is given a ``SpanFactor``, and ``run_wcga`` builds
one when the objective has a least-squares form E(x) = c ||S x - y||^2
(quadratics), which it checks against the objective at both ends of the
run.  The factor is of that form composed with the dictionary,
z -> c ||S D z - y||^2, so an exact step works in coefficient space: it
hands the factor the column S D e_j of the newly selected atom j and then
j itself, and takes E_k and the selection vector D^T E' off the factor
(see ``SpanFactor``, which also owns the Gram route).  The exact step
returns the factor's answer and never falls through to descent; a wrong
form, its G included, fails the check at the end of the run.
Without a factor, descent with Armijo backtracking, evaluating the
restricted gradient once per iterate and preconditioned by the diagonal
Hessian when available, runs from the previous step's coefficients, the
new atom's at 0, until the restricted gradient coefficients drop below
``inner_tol``.
``inner_tol`` must stay well below ``stop_tol`` or selection could re-pick
an already selected atom.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import IterateTrace, TraceStep, Vector, norm
from .dictionaries import SELECTION_STRATEGIES, Dictionary, weak_select
from .objectives import Objective, SpanFactor


@dataclass(frozen=True)
class WeaknessSchedule:
    """Per-step weakness parameters t_k in (0, 1] for WCGA selection.

    Any sequence of numbers is taken, and kept as a tuple of floats.  A
    finite explicit sequence is padded with its last value for later steps.
    """

    ts: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.ts)
        if not ts:
            raise ValueError("weakness schedule must not be empty")
        for t in ts:
            if not 0.0 < t <= 1.0:
                raise ValueError(f"weakness parameter t={t} outside (0, 1]")
        object.__setattr__(self, "ts", ts)

    @classmethod
    def constant(cls, t: float) -> "WeaknessSchedule":
        return cls((float(t),))

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
                        idx: Sequence[int], cfg: SolverConfig,
                        factor: SpanFactor | None = None, start: Sequence[float] = (),
                        ) -> tuple[Vector, Vector, float]:
    """Minimize the objective over the span of the atoms ``idx``.

    The atoms of ``idx``, in their order (the selection order in a greedy
    run), are the basis columns on both solve paths.  Returns the array z
    of their coefficients, the analysis D^T E'(x) of the gradient at its
    point x = B z, and E(x).  Restricted gradient coefficients are exactly
    <E'(x), phi_j> for the atoms of ``idx`` because the dictionary is
    orthonormal.  ``start`` holds the starting coefficients of the leading
    ``len(start)`` atoms, the others starting at 0; it may not be longer
    than ``idx``.

    The solve is exact exactly when ``factor`` is given: a
    :class:`SpanFactor` built on this ``dictionary`` (the same object, else
    ValueError naming both), whose form is ``dictionary.compose(form)``, the
    objective's least-squares form in the atoms' coefficients, carried
    across calls and holding the leading atoms of ``idx`` already as its
    ``atoms`` (else ValueError naming both lists), so ``start`` is not
    read.  The atoms after them are appended, as the composed form's
    columns, then handed to the factor, and x is not formed: the analysis
    is the factor's gradient -2c D^T S^T r (see :class:`SpanFactor`) and
    E(x) is c ||r||^2.  Its answer is returned as it is, z being the
    factor's own read-only array, with no check against ``cfg.inner_tol``
    and no descent after it: its restricted gradient sits at the factor's
    round-off, which grows with the scale of the problem, and ``run_wcga``
    checks the form against the objective instead.  Without a factor,
    descent starts from ``start`` and returns the first iterate whose
    restricted gradient coefficients are all at most ``cfg.inner_tol`` in
    magnitude, within ``cfg.max_inner_iters`` iterates, evaluating E there.
    """
    if not len(idx):
        raise ValueError("idx must be nonempty")
    if len(start) > len(idx):
        raise ValueError(f"start has {len(start)} coefficients for {len(idx)} atoms")
    if factor is not None:
        if factor.dictionary is not dictionary:
            raise ValueError(f"the factor's atoms are those of {factor.dictionary!r}, "
                             f"not of {dictionary!r}")
        if list(idx[:factor.size]) != factor.atoms:
            raise ValueError(f"idx leads with atoms {list(idx[:factor.size])}, "
                             f"the factor holds atoms {factor.atoms}")
        new = idx[factor.size:]
        z = objective.argmin_in_span(factor.form.columns(new), factor)
        factor.record_atoms(new)
        return z, factor.gradient(), factor.value()
    z = np.zeros(len(idx))
    z[:len(start)] = start
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
            return z, dictionary.analyze(grad), objective.value(x)
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


# A correct least-squares form and the objective compute E and E' as
# different roundings of the same sums of at most max(m, n) terms, and the
# carried residual stays within a few eps ||y|| of y - S B z, so they agree to
# about max(m, n) * eps relative to the sizes of the summed terms, which are
# those of E(0) and, unless S^T y cancels, of E'(0).  1e-8 leaves room for
# dimensions in the millions, while a wrong c, y or S is off by a factor of
# order one.
FORM_RTOL = 1e-8


def _check_form(objective: Objective, k: int, e_form: float, g_form: Vector,
                g: Vector, g0: Vector, e0: float | None = None) -> None:
    """Raise unless the factor's D^T E' is the objective's ``g`` and, at 0, its E is E(0).

    Both to ``FORM_RTOL``, of ||D^T E'(0)|| = ||g0|| and of |E(0)|.
    """
    g_gap = norm(g_form - g)
    if g_gap > FORM_RTOL * norm(g0) or (e0 is not None
                                         and abs(e_form - e0) > FORM_RTOL * abs(e0)):
        at = "0" if k == 0 else f"step {k}"
        against = "" if e0 is None else f" against E(0) = {e0:.12g}"
        raise ValueError(
            f"{type(objective).__name__}: least-squares form disagrees with the "
            f"objective at {at}: c*||r||^2 = {e_form:.12g}{against}, "
            f"gradient coefficients differ by {g_gap:.3g} in norm")


def run_wcga(objective: Objective, dictionary: Dictionary, cfg: SolverConfig) -> IterateTrace:
    """Greedy run: each step selects by ``weak_select`` at t_k, then re-minimizes.

    Selection reads the analysis D^T E' at the previous iterate that the
    restricted solve returned.  This is the one place a :class:`SpanFactor` is
    built, on the objective's least-squares form composed with the
    dictionary: with a form every restricted solve of the run takes the
    exact path, without one every solve descends.

    Every row is recorded one way: E_k comes from the restricted solve, and
    dist_k from its coefficients against those of the known minimizer; x
    is synthesized once, when the run ends.  An exact step calls neither
    ``objective.value`` nor ``gradient``, so the objective checks the form
    at both ends of the run: at step 0 the empty factor must reproduce E(0)
    and D^T E'(0), and at the last step its D^T E' must be the objective's
    at the synthesized x, each to ``FORM_RTOL``, else the run raises.

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

    form = objective.least_squares_form()
    factor = (None if form is None
              else SpanFactor(dictionary, form, capacity=min(cfg.max_steps, n)))
    # distances are read off the coefficients against the minimizer's: by
    # orthonormality ||x - xbar||^2 = ||z - abar_I||^2 + ||abar off I||^2,
    # the second sum taken directly since ||abar||^2 - ||abar_I||^2 cancels;
    # abar_I is gathered at idx, in the order of z
    abar = None if xbar is None else dictionary.analyze(xbar)
    idx: list[int] = []
    z = np.zeros(0)
    outside = np.ones(n, dtype=bool)

    def dist_of(z: Vector) -> float | None:
        if abar is None:
            return None
        d = z - abar[idx]
        tail = abar[outside]
        return float(np.sqrt(np.dot(d, d) + np.dot(tail, tail)))

    rng = np.random.default_rng(cfg.seed)
    g0 = g = dictionary.analyze(objective.gradient(np.zeros(n)))
    g_sup = float(np.max(np.abs(g)))
    stopped = g_sup <= cfg.stop_tol
    val = objective.value(np.zeros(n))
    if factor is not None and not stopped:
        _check_form(objective, 0, factor.value(), factor.gradient(), g0, g0, val)
    steps = [TraceStep(0, val, error_of(val), dist_of(z), None, None, g_sup, stopped)]

    for m in range(1, cfg.max_steps + 1):
        if stopped:
            break
        j, coeff = weak_select(g, cfg.weakness.t(m), cfg.selection_strategy, rng)
        if not outside[j]:
            cause = ("the exact solve's round-off at this problem's scale exceeds stop_tol"
                     if factor is not None
                     else f"stop_tol must stay above inner_tol ({cfg.inner_tol:g})")
            raise RuntimeError(f"atom {j} reselected at step {m}: |g_{j}| = {abs(g[j]):.3g} "
                               f"> stop_tol ({cfg.stop_tol:g}); {cause}")
        outside[j] = False
        idx.append(j)
        try:
            z, g, val = restricted_minimize(objective, dictionary, idx, cfg, factor, z)
        except InnerSolveError as exc:
            err = InnerSolveError(f"step {m}: {exc}", exc.residual)
            err.step, err.support_size = m, len(idx)
            raise err from exc
        sel_sup = g_sup
        g_sup = float(np.max(np.abs(g)))
        stopped = g_sup <= cfg.stop_tol
        steps.append(TraceStep(m, val, error_of(val), dist_of(z), j, coeff, sel_sup, stopped))

    dense = np.zeros(n)
    dense[idx] = z
    x = dictionary.synthesize(dense)
    if factor is not None and idx:
        _check_form(objective, steps[-1].k, factor.value(), g,
                    dictionary.analyze(objective.gradient(x)), g0)
    return IterateTrace(steps, x)
