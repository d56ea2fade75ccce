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

Sup-type estimates (rho, rho1) are certified lower bounds of the true
suprema and inf-type estimates (delta1) certified upper bounds; every check
is phrased to stay sound under that bias.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConvexityParams, IterateTrace, SmoothnessParams, Vector
from .objectives import Objective, uniform_ball
from .solvers import WeaknessSchedule


@dataclass
class ModulusEstimate:
    """Sampled moduli on a grid of displacement sizes u."""

    u_grid: Vector
    rho: Vector          # half second difference, sup over samples
    rho1: Vector         # divided three-point difference, sup over samples and lambda
    delta1: Vector       # same expression, inf over samples and lambda
    sample_count: int
    seed: int


@dataclass
class EquivalenceRow:
    u: float
    right_margin: float            # 2*rho(u) + tol - rho1(u)
    left_margin: float | None      # slack*rho1(u) + tol - 4*rho(u/2)

    @property
    def passed(self) -> bool:
        ok = self.right_margin >= 0.0
        if self.left_margin is not None:
            ok = ok and self.left_margin >= 0.0
        return ok


@dataclass
class ModuliEquivalenceReport:
    rows: list[EquivalenceRow]
    slack: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


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
    """
    u = np.asarray(sorted(float(v) for v in u_grid), dtype=np.float64)
    if u.size == 0 or u[0] <= 0:
        raise ValueError("u_grid must contain positive values")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if lambda_grid_size < 2:
        raise ValueError("lambda_grid_size must be >= 2")
    if not s_radius > 0:
        raise ValueError("s_radius must be positive")
    lambdas = sorted({i / (lambda_grid_size + 1.0)
                      for i in range(1, lambda_grid_size + 1)} | {0.5})
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(sample_count):
        x = uniform_ball(rng, objective.dimension, s_radius)
        y = rng.standard_normal(objective.dimension)
        y /= np.linalg.norm(y)
        samples.append((x, y, objective.value(x)))

    # One value call per sample and u, on the stencil rows x + c*y with
    # c = u, -u, -l*u..., (1-l)*u...; x + (-(l*u))*y has the bits of x - l*u*y.
    lam = np.asarray(lambdas)
    rho = np.full_like(u, -np.inf)
    rho1 = np.full_like(u, -np.inf)
    delta1 = np.full_like(u, np.inf)
    for i, ui in enumerate(u):
        steps = np.concatenate(([ui, -ui], -(lam * ui), (1.0 - lam) * ui))[:, None]
        for x, y, ex in samples:
            vals = objective.value(x + steps * y)
            second = 0.5 * (vals[0] + vals[1] - 2.0 * ex)
            a, b = vals[2:].reshape(2, -1)
            q = ((1.0 - lam) * a + lam * b - ex) / (lam * (1.0 - lam))
            rho[i] = np.maximum(rho[i], second)
            rho1[i] = np.maximum(rho1[i], q.max())
            delta1[i] = np.minimum(delta1[i], q.min())
    return ModulusEstimate(u, rho, rho1, delta1, sample_count, int(seed))


def check_moduli_equivalence(est: ModulusEstimate, slack: float = 1.05,
                             tol: float = 1e-9) -> ModuliEquivalenceReport:
    """Two-sided comparison of the sampled moduli of smoothness.

    Right side rho1(u) <= 2*rho(u) holds per sample by convexity; the left
    side 4*rho(u/2) <= rho1(u) is checked with a slack factor because both
    sides are sup-estimates.  The grid must contain at least one halving
    pair u, u/2.
    """
    u = est.u_grid
    halves = [halving_partner(u, ui) for ui in u]
    if all(h is None for h in halves):
        raise ValueError("u_grid contains no halving pair u, u/2")
    rows: list[EquivalenceRow] = []
    for i, (ui, h) in enumerate(zip(u, halves)):
        right = 2.0 * est.rho[i] + tol - est.rho1[i]
        left = None if h is None else slack * est.rho1[i] + tol - 4.0 * est.rho[h]
        rows.append(EquivalenceRow(float(ui), float(right),
                                   None if left is None else float(left)))
    return ModuliEquivalenceReport(rows, slack, tol)


def halving_partner(u_grid, u: float) -> int | None:
    """Index of u/2 in ``u_grid`` (to 1e-9 relative), or None."""
    half = np.flatnonzero(np.abs(np.asarray(u_grid, dtype=np.float64) - 0.5 * u) <= 1e-9 * u)
    return int(half[0]) if half.size else None


# ---------------------------------------------------------------------------
# rate constants


def global_convexity_constant(beta: float, p: float, diameter_ratio: float) -> float:
    """Convexity constant valid for every pair in the level set.

    The radius-limited constant beta degrades to beta * L^(1-p) when pairs
    can be up to L times the condition radius apart (L >= 1).
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not p >= 2:
        raise ValueError("p must be >= 2")
    if diameter_ratio < 1.0:
        raise ValueError(f"diameter ratio {diameter_ratio} below 1")
    return beta * min(1.0, diameter_ratio ** (1.0 - p))


def decrement_gain(grad_bound: float, radius: float, alpha: float, q: float) -> float:
    """Optimal coefficient of the one-step decrease extracted from a selection.

    Equals the maximum of g(mu) = (mu - 1) * mu^(-q/(q-1)) over admissible
    mu > max(1, grad_bound * radius^(1-q) / alpha): the unconstrained
    maximizer mu = q when admissible, otherwise the boundary value.
    """
    for name, v in (("grad_bound", grad_bound), ("radius", radius), ("alpha", alpha)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    if not 1.0 < q <= 2.0:
        raise ValueError(f"q={q} outside (1, 2]")
    ratio = grad_bound * radius ** (1.0 - q) / alpha
    mu = q if ratio < q else ratio
    return (mu - 1.0) * mu ** (-q / (q - 1.0))


@dataclass(frozen=True)
class RateConstants:
    """The curvature constants and the per-step error recursion they imply.

    Every bound on the greedy errors is the sequence bound at ``recursion``.
    The report also prints the closed-form constants of that bound: the
    contraction properties for p = q = 2, the poly properties for q < p.
    """

    alpha: float
    smooth_exponent: float       # q in (1, 2]
    beta: float
    convex_exponent: float       # p >= 2
    radius: float
    grad_bound: float
    support_size: int
    diameter_ratio: float
    beta_global: float
    initial_gap: float
    gain: float
    scale: float

    @property
    def ell(self) -> float:
        """Exponent (p-q)/(p(q-1)) of e_{k-1} in the recursion, 0 for p = q = 2."""
        p, q = self.convex_exponent, self.smooth_exponent
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
        qq = self.smooth_exponent / (self.smooth_exponent - 1.0)
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
        q = self.smooth_exponent
        return self.scale / self.support_size ** (q / (2.0 * (q - 1.0)))


def rate_constants(objective: Objective, minimizer: Vector, support_size: int,
                   smoothness: SmoothnessParams, convexity: ConvexityParams,
                   diameter_ratio: float = 1.0) -> RateConstants:
    """Derive every recursion and bound constant from the curvature parameters.

    Covers q < p and p = q = 2; raises "bound vacuous" when the geometric
    contraction factor would leave (0, 1).
    """
    alpha, q = smoothness.alpha, smoothness.exponent
    beta, p = convexity.beta, convexity.exponent
    if abs(smoothness.radius - convexity.radius) > 1e-9 * max(smoothness.radius, 1.0):
        raise ValueError("smoothness and convexity radii disagree")
    if p == q and p != 2.0:
        raise ValueError("rate theory covers q < p or p = q = 2")
    if support_size < 1:
        raise ValueError("support_size must be >= 1")
    radius = smoothness.radius
    beta_global = global_convexity_constant(beta, p, diameter_ratio)
    initial_gap = objective.value(np.zeros(objective.dimension)) - objective.value(minimizer)
    if not initial_gap > 0:
        raise ValueError("objective is already minimized at the origin")
    gain = decrement_gain(smoothness.grad_bound, radius, alpha, q)
    # weighted mean inequality constant tying the gap to the distance
    geom = p * beta_global ** (1.0 / p) * (p - 1.0) ** ((1.0 - p) / p)
    qq = q / (q - 1.0)
    per_atom = alpha ** (1.0 / (q - 1.0)) * geom ** (-qq)
    scale = support_size ** (qq / 2.0) * per_atom
    if p == q == 2.0 and gain >= scale:
        raise ValueError(
            f"bound vacuous: contraction factor {1.0 - gain / scale:g} not in (0, 1)")
    return RateConstants(alpha=alpha, smooth_exponent=q, beta=beta,
                         convex_exponent=p, radius=radius,
                         grad_bound=smoothness.grad_bound,
                         support_size=int(support_size),
                         diameter_ratio=float(diameter_ratio),
                         beta_global=beta_global, initial_gap=initial_gap,
                         gain=gain, scale=scale)


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


@dataclass
class RecursionReport:
    """Per-step margins of the error recursion; negative margin = violation."""

    ks: list[int]
    margins: list[float]

    @property
    def violations(self) -> int:
        return sum(1 for m in self.margins if m < 0.0)

    @property
    def min_margin(self) -> float | None:
        return min(self.margins) if self.margins else None


def check_error_recursion(trace: IterateTrace, rc: RateConstants,
                          schedule: WeaknessSchedule | None = None,
                          tol: float = 1e-9) -> RecursionReport:
    """Check every consecutive error pair against the one-step recursion.

    ``schedule`` supplies the weakness parameters of a WCGA run; omit it for
    OMP (t = 1).  Violations are reported, not raised.
    """
    rec = rc.recursion(trace.final.k, schedule)
    ks: list[int] = []
    margins: list[float] = []
    prev = None
    for step in trace:
        if step.error is None:
            raise ValueError("recursion check needs error data (known minimizer)")
        if prev is not None and step.k >= 2:
            factor = 1.0 - (rec.gains[step.k - 2] / rec.scale) * prev ** rec.exponent
            ks.append(step.k)
            margins.append(prev * factor + tol - step.error)
        prev = step.error
    return RecursionReport(ks, margins)


def error_bound(rc: RateConstants, k: int,
                schedule: WeaknessSchedule | None = None) -> float:
    """Guaranteed bound on e_k for k >= 2: the sequence bound at rc.recursion.

    ``schedule`` supplies the weakness parameters of a WCGA run; omit it for
    OMP (t = 1).
    """
    if k < 2:
        raise ValueError("bound applies from step 2 on")
    return recursive_sequence_bound(rc.recursion(k, schedule), k)


@dataclass
class TraceVerification:
    """Both theory checks of one trace: the one-step recursion and the e_k bound.

    ``bounds`` holds one (k, e_k, bound_k, margin) row per step k >= 2, with
    margin = bound_k - e_k; ``bound_violations`` counts margins below -tol.
    """

    recursion: RecursionReport
    bounds: list[tuple[int, float, float, float]]
    bound_violations: int

    @property
    def passed(self) -> bool:
        return not (self.recursion.violations or self.bound_violations)


def verify_trace(trace: IterateTrace, rc: RateConstants,
                 schedule: WeaknessSchedule | None, tol: float) -> TraceVerification:
    """Check a trace against the recursion and the e_k bound of the constants.

    ``schedule`` supplies the weakness parameters of a WCGA run; pass None
    for OMP (t = 1).  Needs error data (a known minimizer).
    """
    recursion = check_error_recursion(trace, rc, schedule, tol=tol)
    rec = rc.recursion(trace.final.k, schedule)
    bounds = []
    for step in trace:
        if step.k >= 2:
            b = recursive_sequence_bound(rec, step.k)
            bounds.append((step.k, step.error, b, b - step.error))
    violations = sum(1 for row in bounds if row[3] < -tol)
    return TraceVerification(recursion, bounds, violations)


def distance_bound(rc: RateConstants, error: float) -> float:
    """Bound on the distance to the minimizer implied by an error value."""
    if error < 0:
        raise ValueError("error must be nonnegative")
    return (error / rc.beta_global) ** (1.0 / rc.convex_exponent)


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
