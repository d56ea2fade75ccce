"""Convergence analysis toolkit: moduli estimators, rate constants, bounds.

The quantities here connect the curvature of the objective to the decay of
the greedy error sequence e_k = E(x_k) - E(xbar):

* sampled moduli of smoothness / uniform convexity of E on a ball,
* the constants of the per-step error recursion
  e_k <= e_{k-1} * (1 - (gain/scale) * t_k^(q/(q-1)) * e_{k-1}^ell),
  stated once by ``RateConstants.recursion``,
* a closed-form bound for any sequence satisfying such a recursion; the
  greedy bounds are this generic bound at ``rc.recursion``,
* empirical rate fitting for comparing observed and guaranteed decay.

Each inequality is checked row by row into one :class:`Check` record.

Sup-type estimates (rho, rho1) are lower bounds of the true suprema and
inf-type estimates (delta1) upper bounds, but only up to the rounding of the
sampled differences: each is a difference of computed values of E, whose
rounding errors can put it on either side of the exact difference.  Every
check is phrased to stay sound under the sampling bias; against the rounding
it has only its absolute tolerance.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import CurvatureParams, IterateTrace, Vector
from .objectives import Objective
from .solvers import WeaknessSchedule


#: samples whose stencil values ``estimate_moduli`` reduces as one block
MODULI_BLOCK = 64

#: factor on rho1(u) in the left side of the moduli comparison
MODULI_SLACK = 1.05


@dataclass(frozen=True)
class Check:
    """One inequality lhs <= rhs checked on the rows ``ks``.

    A row fails when its margin rhs - lhs falls below ``floor`` or is NaN.  An
    absolute tolerance is either folded into ``rhs`` with floor 0 or left
    out of it with floor -tol.
    """

    name: str
    ks: tuple[int, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    floor: float = 0.0

    @property
    def margins(self) -> list[float]:
        return [r - l for l, r in zip(self.lhs, self.rhs)]

    @property
    def rows(self) -> list[tuple[int, float, float, float]]:
        """One (k, lhs, rhs, margin) tuple per row."""
        return list(zip(self.ks, self.lhs, self.rhs, self.margins))

    @property
    def failing(self) -> list[int]:
        """The ks of the rows whose margin falls below the floor or is NaN."""
        return [k for k, m in zip(self.ks, self.margins) if not m >= self.floor]

    @property
    def violations(self) -> int:
        return len(self.failing)

    @property
    def min_margin(self) -> float | None:
        return min(self.margins, default=None)


@dataclass
class ModulusEstimate:
    """Sampled moduli on a grid of displacement sizes u."""

    u_grid: Vector
    rho: Vector          # half second difference, sup over samples
    rho1: Vector         # divided three-point difference, sup over samples and lambda
    delta1: Vector       # same expression, inf over samples and lambda
    sample_count: int
    seed: int


def estimate_moduli(objective: Objective, s_radius: float, u_grid,
                    sample_count: int, lambda_grid_size: int, seed: int,
                    ) -> ModulusEstimate:
    """Monte Carlo moduli over x in a centered ball and y on the unit sphere.

    For each u:
      rho    = max over samples of (E(x+uy) + E(x-uy) - 2E(x)) / 2
      rho1   = max over samples and lambda of
               ((1-l)E(x-l*u*y) + l*E(x+(1-l)*u*y) - E(x)) / (l(1-l))
      delta1 = min of the same expression.
    The lambda grid always includes 1/2 so the classical two-sided
    comparison between rho1 and rho holds sample-by-sample.

    The stencil offsets c of every u are tabulated once, and each sample
    makes one ``value`` call on x and the rows x + c*y of the distinct c, in
    one reused buffer, so a call stacks the distinct-offset count plus one
    rows however many samples are drawn; the extrema are taken per
    ``MODULI_BLOCK`` samples.  On a halving grid many offsets coincide bit
    for bit (0.5*u is the next u, and (2l)*(u/2) is l*u when 2l is on the
    lambda grid too), so those rows are evaluated once.  A sampled E that is
    not finite, E overflowing on the ball, raises ValueError.
    """
    u = np.asarray([float(v) for v in u_grid], dtype=np.float64)
    if u.size == 0:
        raise ValueError("u_grid must be non-empty")
    if not np.all(np.isfinite(u) & (u > 0)):
        raise ValueError(f"u_grid entries must be positive and finite, got {u.tolist()}")
    u = np.sort(u)
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if lambda_grid_size < 2:
        raise ValueError("lambda_grid_size must be >= 2")
    if not (s_radius > 0 and math.isfinite(s_radius)):
        raise ValueError(f"s_radius must be positive and finite, got {s_radius}")
    lambdas = sorted({i / (lambda_grid_size + 1.0)
                      for i in range(1, lambda_grid_size + 1)} | {0.5})
    lam = np.asarray(lambdas)
    # offsets c = u, -u, -l*u..., (1-l)*u... per row of u; x + (-(l*u))*y has
    # the bits of x - l*u*y
    col = u[:, None]
    offsets = np.concatenate((col, -col, -(lam * col), (1.0 - lam) * col), axis=1)
    cs, where = np.unique(offsets, return_inverse=True)
    where = where.reshape(offsets.shape) + 1          # row 0 of each stack is x
    rng = np.random.default_rng(seed)
    n = objective.dimension
    points, y = np.empty((cs.size + 1, n)), np.empty(n)
    x, vals = points[0], np.empty((min(MODULI_BLOCK, sample_count), cs.size + 1))
    rho = np.full_like(u, -np.inf)
    rho1 = np.full_like(u, -np.inf)
    delta1 = np.full_like(u, np.inf)
    for start in range(0, sample_count, MODULI_BLOCK):
        block = vals[:min(MODULI_BLOCK, sample_count - start)]
        for row in block:
            # the draws of uniform_ball, then y; x + c*y is c*y + x
            rng.standard_normal(out=x)
            x /= math.sqrt(x.dot(x))
            x *= s_radius * rng.random() ** (1.0 / n)
            rng.standard_normal(out=y)
            y /= math.sqrt(y.dot(y))
            np.multiply(cs[:, None], y, out=points[1:])
            points[1:] += x
            row[:] = objective.value(points)
        if not np.isfinite(block).all():
            raise ValueError(f"a sampled E is {block.max()}: E overflows on the ball "
                             f"of radius {s_radius:g}")
        ex, stencil = block[:, :1], block[:, where]
        second = 0.5 * (stencil[..., 0] + stencil[..., 1] - 2.0 * ex)
        a, b = stencil[..., 2:2 + lam.size], stencil[..., 2 + lam.size:]
        q = ((1.0 - lam) * a + lam * b - ex[:, :, None]) / (lam * (1.0 - lam))
        np.maximum(rho, second.max(axis=0), out=rho)
        np.maximum(rho1, q.max(axis=(0, 2)), out=rho1)
        np.minimum(delta1, q.min(axis=(0, 2)), out=delta1)
    return ModulusEstimate(u, rho, rho1, delta1, sample_count, int(seed))


def check_moduli_equivalence(est: ModulusEstimate, slack: float = MODULI_SLACK,
                             tol: float = 1e-9) -> tuple[Check, Check]:
    """Two-sided comparison of the sampled moduli of smoothness.

    Returns the (right, left) checks, whose rows are indices i into
    ``est.u_grid``.  Right side rho1(u) <= 2*rho(u) + tol holds per sample
    by convexity; left side 4*rho(u/2) <= slack*rho1(u) + tol carries a
    slack factor because both sides are sup-estimates, and has a row only
    where u/2 is on the grid.  The grid must contain at least one halving
    pair u, u/2.
    """
    u = est.u_grid
    pairs = [(i, h) for i, h in enumerate(halving_partner(u, ui) for ui in u) if h is not None]
    if not pairs:
        raise ValueError("u_grid contains no halving pair u, u/2")
    right = Check("right", tuple(range(u.size)), tuple(est.rho1.tolist()),
                  tuple((2.0 * est.rho + tol).tolist()))
    ks, halves = (list(ix) for ix in zip(*pairs))
    left = Check("left", tuple(ks), tuple((4.0 * est.rho[halves]).tolist()),
                 tuple((slack * est.rho1[ks] + tol).tolist()))
    return right, left


def halving_partner(u_grid, u: float) -> int | None:
    """Index of u/2 in ``u_grid`` (to 1e-9 relative), or None."""
    half = np.flatnonzero(np.abs(np.asarray(u_grid, dtype=np.float64) - 0.5 * u) <= 1e-9 * u)
    return int(half[0]) if half.size else None


# ---------------------------------------------------------------------------
# rate constants


def decrement_gain(grad_bound: float, radius: float, alpha: float, q: float) -> float:
    """Optimal coefficient of the one-step decrease extracted from a selection.

    Equals the maximum of g(mu) = (mu - 1) * mu^(-q/(q-1)) over admissible
    mu > max(1, grad_bound * radius^(1-q) / alpha): the unconstrained
    maximizer mu = q when admissible, otherwise the boundary value.  The
    arguments are fields of a :class:`CurvatureParams`, which checked them.
    """
    ratio = grad_bound * radius ** (1.0 - q) / alpha
    mu = q if ratio < q else ratio
    return (mu - 1.0) * mu ** (-q / (q - 1.0))


@dataclass(frozen=True)
class RateConstants:
    """The curvature record and the per-step error recursion it implies.

    Every bound on the greedy errors is the sequence bound at ``recursion``.
    The report also prints the closed-form constants of that bound: the
    contraction properties for p = q = 2, the poly properties for q < p.
    """

    params: CurvatureParams
    support_size: int
    diameter_ratio: float
    beta_global: float
    initial_gap: float
    gain: float
    scale: float

    @property
    def ell(self) -> float:
        """Exponent (p-q)/(p(q-1)) of e_{k-1} in the recursion, 0 for p = q = 2."""
        p, q = self.params.p, self.params.q
        return (p - q) / (p * (q - 1.0))

    @property
    def is_exponential(self) -> bool:
        return self.ell == 0.0

    @property
    def theoretical_slope(self) -> float | None:
        """Guaranteed power-law exponent of e_k, None in the geometric case."""
        return None if self.is_exponential else -1.0 / self.ell

    def recursion(self, k: int, schedule: WeaknessSchedule | None = None
                  ) -> SequenceBoundInput:
        """The recursion through step k; ``schedule`` gives t_j, t = 1 without one."""
        qq = self.params.q / (self.params.q - 1.0)
        weights = tuple((1.0 if schedule is None else schedule.t(j)) ** qq
                        for j in range(2, k + 1))
        return SequenceBoundInput(self.initial_gap, self.scale / self.gain, self.ell, weights)

    @property
    def contraction_gain(self) -> float:
        return self.support_size * self.gain / self.scale

    @property
    def contraction_factor(self) -> float:
        return 1.0 - self.gain / self.scale

    @property
    def poly_scale(self) -> float:
        return max(1.0, self.ell ** (-1.0 / self.ell)) * self._per_atom ** (1.0 / self.ell)

    @property
    def poly_offset(self) -> float:
        return self._per_atom * self.initial_gap ** (-self.ell)

    @property
    def _per_atom(self) -> float:
        q = self.params.q
        return self.scale / self.support_size ** (q / (2.0 * (q - 1.0)))


def rate_constants(objective: Objective, support_size: int,
                   params: CurvatureParams) -> RateConstants:
    """Derive every recursion and bound constant from the curvature parameters.

    The minimizer and the level-set diameter are the objective's own.  Pairs
    in the level set can be up to L = max(1, diameter / radius) times the
    record's radius apart, so beta degrades to beta * L^(1-p) there.  A
    :class:`CurvatureParams` has q <= 2 <= p, so q < p or p = q = 2.  Valid
    constants give gain <= scale when p = q = 2 (beta <= alpha), with
    equality when one step reaches the minimum; a gain above scale beyond
    round-off raises "bound vacuous".
    """
    alpha, q, beta, p = params.alpha, params.q, params.beta, params.p
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    minimizer, diam = objective.known_minimizer, objective.level_set_diameter
    if minimizer is None:
        raise ValueError("objective has no known minimizer")
    if diam is None:
        raise ValueError("objective has no closed-form level-set diameter")
    diameter_ratio = max(1.0, diam / params.radius)
    beta_global = beta * min(1.0, diameter_ratio ** (1.0 - p))
    initial_gap = objective.value(np.zeros(objective.dimension)) - objective.value(minimizer)
    if not initial_gap > 0:
        raise ValueError("objective is already minimized at the origin")
    gain = decrement_gain(params.grad_bound, params.radius, alpha, q)
    # weighted mean inequality constant tying the gap to the distance
    geom = p * beta_global ** (1.0 / p) * (p - 1.0) ** ((1.0 - p) / p)
    qq = q / (q - 1.0)
    per_atom = alpha ** (1.0 / (q - 1.0)) * geom ** (-qq)
    scale = support_size ** (qq / 2.0) * per_atom
    if p == q == 2.0:
        if gain > scale * (1.0 + 4.0 * np.finfo(np.float64).eps):
            raise ValueError(
                f"bound vacuous: contraction factor {1.0 - gain / scale:g} not in [0, 1)")
        gain = min(gain, scale)
    return RateConstants(params, int(support_size), float(diameter_ratio), beta_global,
                         initial_gap, gain, scale)


# ---------------------------------------------------------------------------
# sequence recursion bound


@dataclass(frozen=True)
class SequenceBoundInput:
    """A nonnegative sequence with a_1 <= start_bound and
    a_{m+1} <= a_m * (1 - (gains[m+1]/scale) * a_m^exponent)."""

    start_bound: float
    scale: float
    exponent: float
    gains: tuple[float, ...]     # gains[i] applies at step i+2

    def __post_init__(self):
        if not self.start_bound > 0:
            raise ValueError("start_bound must be positive")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not self.exponent >= 0:
            raise ValueError("exponent must be nonnegative")
        if any(g < 0 for g in self.gains):
            raise ValueError("gains must be nonnegative")


def recursive_sequence_bound(inp: SequenceBoundInput, m: int) -> float:
    """Closed-form bound on the m-th term of the recursive sequence.

    max(1, ell^(-1/ell)) * scale^(1/ell)
        * (scale * start_bound^(-ell) + sum of gains through step m)^(-1/ell),
    or start_bound * prod (1 - gain/scale) when the exponent ell is 0.
    """
    if m < 2:
        raise ValueError("bound applies from the second term on")
    if len(inp.gains) < m - 1:
        raise ValueError(f"need gains through step {m}, got {len(inp.gains) + 1}")
    ell = inp.exponent
    if ell == 0.0:
        factors = (1.0 - g / inp.scale for g in inp.gains[:m - 1])
        return math.prod(factors, start=inp.start_bound)
    acc = inp.scale * inp.start_bound ** (-ell) + math.fsum(inp.gains[:m - 1])
    return max(1.0, ell ** (-1.0 / ell)) * inp.scale ** (1.0 / ell) * acc ** (-1.0 / ell)


# ---------------------------------------------------------------------------
# trace checks and bounds


def check_error_recursion(trace: IterateTrace, rc: RateConstants,
                          schedule: WeaknessSchedule | None = None,
                          tol: float = 1e-9) -> Check:
    """Check every consecutive error pair against the one-step recursion.

    One row per step k >= 2 with lhs e_k and rhs e_{k-1} * factor_k + tol,
    floor 0.  ``schedule`` supplies the weakness parameters of a WCGA run;
    omit it for OMP (t = 1).  Violations are reported, not raised.
    """
    rec = rc.recursion(trace.final.k, schedule)
    ks: list[int] = []
    lhs: list[float] = []
    rhs: list[float] = []
    prev = None
    for step in trace:
        if step.error is None:
            raise ValueError("recursion check needs error data (known minimizer)")
        if prev is not None and step.k >= 2:
            factor = 1.0 - (rec.gains[step.k - 2] / rec.scale) * prev ** rec.exponent
            ks.append(step.k)
            lhs.append(step.error)
            rhs.append(prev * factor + tol)
        prev = step.error
    return Check("recursion", tuple(ks), tuple(lhs), tuple(rhs))


def error_bound(rc: RateConstants, k: int,
                schedule: WeaknessSchedule | None = None) -> float:
    """Guaranteed bound on e_k for k >= 2: the sequence bound at rc.recursion.

    ``schedule`` supplies the weakness parameters of a WCGA run; omit it for
    OMP (t = 1).
    """
    if k < 2:
        raise ValueError("bound applies from step 2 on")
    return recursive_sequence_bound(rc.recursion(k, schedule), k)


def verify_trace(trace: IterateTrace, rc: RateConstants,
                 schedule: WeaknessSchedule | None, tol: float) -> tuple[Check, Check]:
    """Check a trace against the recursion and the e_k bound of the constants.

    Returns the (recursion, bound) checks.  The bound check has one
    (k, e_k, bound_k, bound_k - e_k) row per step k >= 2 and floor -tol.
    ``schedule`` supplies the weakness parameters of a WCGA run; pass None
    for OMP (t = 1).  Needs error data (a known minimizer).
    """
    recursion = check_error_recursion(trace, rc, schedule, tol=tol)
    rec = rc.recursion(trace.final.k, schedule)
    rows = [step for step in trace if step.k >= 2]
    if rec.exponent == 0.0:
        # one running product, multiplied left to right as math.prod does in
        # recursive_sequence_bound, so entry k - 1 is bound_k to the bit
        running = list(itertools.accumulate((1.0 - g / rec.scale for g in rec.gains),
                                            operator.mul, initial=rec.start_bound))
        bs = [running[step.k - 1] for step in rows]
    else:
        bs = [recursive_sequence_bound(rec, step.k) for step in rows]
    bound = Check("bound", tuple(step.k for step in rows),
                  tuple(step.error for step in rows), tuple(bs), -tol)
    return recursion, bound


def distance_bound(rc: RateConstants, error: float) -> float:
    """Bound on the distance to the minimizer implied by an error value."""
    if error < 0:
        raise ValueError("error must be nonnegative")
    return (error / rc.beta_global) ** (1.0 / rc.params.p)


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float              # RMS residual of the log-log fit


def fit_rate(trace: IterateTrace, tail_fraction: float) -> RateFit:
    """Least-squares power-law fit of the trailing positive-error steps.

    Fits log e_k against log k over the last ``tail_fraction`` of steps with
    positive error (step 0 excluded); needs at least 5 usable points.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    ks = []
    es = []
    for step in trace:
        if step.k >= 1 and step.error is not None and step.error > 0.0:
            ks.append(step.k)
            es.append(step.error)
    n_fit = int(math.ceil(tail_fraction * len(ks)))
    if n_fit < 5:
        raise ValueError(f"need at least 5 positive-error steps in the tail, have {n_fit}")
    lk = np.log(np.array(ks[-n_fit:], dtype=np.float64))
    le = np.log(np.array(es[-n_fit:], dtype=np.float64))
    slope, intercept = np.polyfit(lk, le, 1)
    resid = float(np.sqrt(np.mean((le - (slope * lk + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), resid)
