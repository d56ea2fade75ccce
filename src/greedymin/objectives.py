"""Convex objectives with known curvature parameters and sparse minimizers.

Each objective exposes ``value``/``gradient`` plus optional capability hooks
the solver and the experiment harness exploit when available: a diagonal
Hessian, an exact minimizer over a span, and closed-form geometry of the
level set {x : E(x) <= E(0)}.  ``value`` and ``gradient`` also take a stack
of points, one per row, and give each row exactly the bits of a call on that
row alone, so the Monte Carlo estimators evaluate a whole stencil per call.
"""
from __future__ import annotations

import warnings
from abc import ABC, abstractmethod

import numpy as np

from .core import ConvexityParams, SmoothnessParams, Vector, as_point, as_points, norm


class Objective(ABC):
    """A convex function on R^n with a computable gradient.

    ``value`` and ``gradient`` take one point of shape (n,) or a stack of
    shape (m, n).  ``value`` returns a Python float for a point and an (m,)
    array for a stack; ``gradient`` returns the shape it was given.  Row i of
    a stack result is bit-identical to the call on row i alone.  A subclass
    passed to ``estimate_moduli`` or ``estimate_condition_constants`` must
    honour the stack shape: both evaluate whole stencils in one call.

    ``exponent`` is the power type p of its uniform convexity, and
    ``curvature`` the closed-form (alpha, beta) on {E <= E(0)} for q = 2 and
    that p, or None when those constants must be sampled.
    """

    curvature: tuple[float, float] | None = None
    exponent = 2.0
    known_minimizer: Vector | None = None

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._dimension = int(dimension)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def known_params(self) -> tuple[SmoothnessParams, ConvexityParams] | None:
        """``curvature`` with the level-set geometry; None without it or on a point."""
        diam = self.level_set_diameter()
        if self.curvature is None or not diam:
            return None
        alpha, beta = self.curvature
        return (SmoothnessParams(alpha, 2.0, diam, self.gradient_sup_bound()),
                ConvexityParams(beta, self.exponent, diam))

    @abstractmethod
    def value(self, x: Vector) -> float | Vector:
        ...

    @abstractmethod
    def gradient(self, x: Vector) -> Vector:
        ...

    # -- optional capability hooks -------------------------------------

    def hessian_diag(self, x: Vector) -> Vector | None:
        """Diagonal of the Hessian when it is diagonal and cheap, else None."""
        return None

    def argmin_in_span(self, basis: np.ndarray) -> Vector | None:
        """Exact coefficients minimizing E over the span of ``basis`` columns, else None."""
        return None

    def level_set_diameter(self) -> float | None:
        """Diameter of a ball around ``known_minimizer`` containing {E <= E(0)}, else None."""
        return None

    def gradient_sup_bound(self) -> float | None:
        """Upper bound on ||E'(x)|| over {E <= E(0)}, else None."""
        return None


class DiagonalQuadratic(Objective):
    """E(x) = 1/2 * sum_i w_i (x_i - c_i)^2 with positive weights.

    The gap between E and its tangent plane is exactly the half weighted
    square of the displacement, so the curvature constants are the extreme
    half-weights and the level set is an ellipsoid with closed-form geometry.
    """

    def __init__(self, center, weights):
        center = as_point(center)
        super().__init__(center.shape[0])
        weights = as_point(weights, self.dimension)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        self.center = center
        self.weights = weights
        self.known_minimizer = center.copy()
        self._e0 = self.value(np.zeros(self.dimension))
        self.curvature = (float(weights.max()) / 2.0, float(weights.min()) / 2.0)

    def value(self, x: Vector) -> float | Vector:
        d = as_points(x, self.dimension) - self.center
        return _per_point(0.5 * np.vecdot(self.weights * d, d))

    def gradient(self, x: Vector) -> Vector:
        return self.weights * (as_points(x, self.dimension) - self.center)

    def hessian_diag(self, x: Vector) -> Vector:
        return self.weights

    def argmin_in_span(self, basis: np.ndarray) -> Vector:
        return _weighted_argmin(self.weights, self.center, basis)

    def level_set_diameter(self) -> float:
        return 2.0 * np.sqrt(2.0 * self._e0 / self.weights.min())

    def gradient_sup_bound(self) -> float:
        return float(np.sqrt(2.0 * self._e0 * self.weights.max()))


class LeastSquares(Objective):
    """E(x) = ||A x - b||^2; gradient is 2 A^T (A x - b).

    When A has full column rank the minimizer is unique and the curvature
    constants are the extreme squared singular values of A; for a wide A
    the objective is not strictly convex and carries no convexity params.
    """

    def __init__(self, matrix, rhs):
        A = np.ascontiguousarray(matrix, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("matrix must be 2-D")
        super().__init__(A.shape[1])
        self.A = A
        self.b = as_point(rhs, A.shape[0])
        s = np.linalg.svd(A, compute_uv=False)
        self._sigma_max = float(s[0]) if s.size else 0.0
        self._sigma_min = float(s[-1]) if s.size else 0.0
        full_rank = (A.shape[0] >= A.shape[1]
                     and self._sigma_min > self._sigma_max * 1e-12)
        self._rho = None
        if full_rank:
            xbar, *_ = np.linalg.lstsq(A, self.b, rcond=None)
            self.known_minimizer = xbar
            e0 = self.value(np.zeros(self.dimension))
            self._rho = float(np.sqrt(max(e0 - self.value(xbar), 0.0)))
            self.curvature = (self._sigma_max ** 2, self._sigma_min ** 2)

    @classmethod
    def from_files(cls, matrix_file, rhs_file) -> "LeastSquares":
        """Load A and b from header-free comma-separated files (row-major)."""
        A = np.loadtxt(matrix_file, delimiter=",", dtype=np.float64, ndmin=2)
        b = np.loadtxt(rhs_file, delimiter=",", dtype=np.float64).reshape(-1)
        return cls(A, b)

    # np.matvec gives each row of a stack the bits of A @ x; X @ A.T does not
    def value(self, x: Vector) -> float | Vector:
        r = np.matvec(self.A, as_points(x, self.dimension)) - self.b
        return _per_point(np.vecdot(r, r))

    def gradient(self, x: Vector) -> Vector:
        r = np.matvec(self.A, as_points(x, self.dimension)) - self.b
        return 2.0 * np.matvec(self.A.T, r)

    def argmin_in_span(self, basis: np.ndarray) -> Vector:
        z, _, rank, _ = np.linalg.lstsq(self.A @ basis, self.b, rcond=None)
        if rank < basis.shape[1]:
            warnings.warn("restricted minimizer is not unique "
                          "(rank-deficient restricted system)", RuntimeWarning)
        return z

    def level_set_diameter(self) -> float | None:
        if self._rho is None:
            return None
        return 2.0 * self._rho / self._sigma_min

    def gradient_sup_bound(self) -> float | None:
        if self._rho is None:
            return None
        return 2.0 * self._sigma_max * self._rho


class PowerSum(Objective):
    """E(x) = sum_i w_i |x_i - c_i|^p with p >= 2.

    Smooth with a locally bounded Hessian (quadratic-type upper growth on
    bounded sets) and uniformly convex of power type p, so its curvature
    constants are level-set dependent and are estimated numerically.
    """

    def __init__(self, center, exponent: float, weights):
        center = as_point(center)
        super().__init__(center.shape[0])
        if not exponent >= 2.0:
            raise ValueError("exponent must be >= 2")
        weights = as_point(weights, self.dimension)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        self.center = center
        self.exponent = float(exponent)
        self.weights = weights
        self.known_minimizer = center.copy()
        self._e0 = self.value(np.zeros(self.dimension))

    def value(self, x: Vector) -> float | Vector:
        d = as_points(x, self.dimension) - self.center
        return _per_point(np.sum(self.weights * np.abs(d) ** self.exponent, axis=-1))

    def gradient(self, x: Vector) -> Vector:
        d = as_points(x, self.dimension) - self.center
        p = self.exponent
        return p * self.weights * np.sign(d) * np.abs(d) ** (p - 1.0)

    def hessian_diag(self, x: Vector) -> Vector:
        d = as_point(x, self.dimension) - self.center
        p = self.exponent
        return p * (p - 1.0) * self.weights * np.abs(d) ** (p - 2.0)

    def argmin_in_span(self, basis: np.ndarray) -> Vector | None:
        if self.exponent != 2.0:
            return None
        return _weighted_argmin(self.weights, self.center, basis)

    def level_set_diameter(self) -> float:
        # ||x - c||_2 <= n^(1/2 - 1/p) ||x - c||_p on the level set
        n, p = self.dimension, self.exponent
        return 2.0 * n ** (0.5 - 1.0 / p) * (self._e0 / self.weights.min()) ** (1.0 / p)

    def gradient_sup_bound(self) -> float:
        p = self.exponent
        per_coord = p * self.weights ** (1.0 / p) * self._e0 ** ((p - 1.0) / p)
        return float(np.linalg.norm(per_coord))


# ---------------------------------------------------------------------------


def _per_point(values):
    """A Python float for the 0-d result of one point, the (m,) array of a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _weighted_argmin(weights: Vector, center: Vector, basis: np.ndarray) -> Vector:
    """Coefficients z minimizing sum_i w_i ((basis z)_i - c_i)^2 (normal equations)."""
    wb = weights[:, None] * basis
    return np.linalg.solve(basis.T @ wb, wb.T @ center)


def bregman_gap(objective: Objective, x: Vector, x_prime: Vector) -> float | Vector:
    """E(x') - E(x) - <E'(x), x' - x>; nonnegative exactly when E is convex.

    Stacks x, x' of shape (m, n) give the (m,) gaps of their rows.
    """
    x = as_points(x, objective.dimension)
    x_prime = as_points(x_prime, objective.dimension)
    return _per_point(objective.value(x_prime) - objective.value(x)
                      - np.vecdot(objective.gradient(x), x_prime - x))


def check_gradient(objective: Objective, x: Vector, step: float = 1e-5) -> float:
    """Max relative discrepancy between the gradient and central differences."""
    if not step > 0:
        raise ValueError("step must be positive")
    x = as_point(x, objective.dimension)
    g = objective.gradient(x)
    worst = 0.0
    for i in range(objective.dimension):
        e = np.zeros(objective.dimension)
        e[i] = step
        cd = (objective.value(x + e) - objective.value(x - e)) / (2.0 * step)
        worst = max(worst, abs(cd - g[i]) / (1.0 + abs(g[i])))
    return worst


def uniform_ball(rng: np.random.Generator, dimension: int, radius: float) -> Vector:
    """A point drawn uniformly from a centered ball."""
    d = rng.standard_normal(dimension)
    d /= np.linalg.norm(d)
    return radius * rng.uniform() ** (1.0 / dimension) * d


def estimate_condition_constants(objective: Objective, q: float, p: float,
                                 omega_radius: float, sample_count: int,
                                 seed: int, pair_radius: float | None = None,
                                 ) -> tuple[float, float]:
    """Sampled curvature constants for the given exponents.

    Draws pairs (x, x') with x uniform in the centered ball of omega_radius
    and ||x' - x|| at most pair_radius (defaults to omega_radius), and
    returns (max gap/||d||^q, min gap/||d||^p).  The max is a lower bound of
    the true upper constant and the min an upper bound of the lower one.

    Every fourth pair is displaced along a coordinate axis instead of a
    random direction: for anisotropic separable objectives the extreme
    curvature lives in single coordinates, which isotropic directions in
    high dimension essentially never hit.  The gaps of each such group of
    four draws are evaluated as one stack.
    """
    if not 1.0 < q <= 2.0:
        raise ValueError(f"q={q} outside (1, 2]")
    if not p >= 2.0:
        raise ValueError(f"p={p} below 2")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not omega_radius > 0:
        raise ValueError("omega_radius must be positive")
    pair_radius = omega_radius if pair_radius is None else float(pair_radius)
    rng = np.random.default_rng(seed)
    n = objective.dimension
    alpha_hat = -np.inf
    beta_hat = np.inf
    used = 0
    for group in range(0, sample_count, 4):
        pairs = []
        for i in range(group, min(group + 4, sample_count)):
            x = uniform_ball(rng, n, omega_radius)
            if i % 4 == 3:
                direction = np.zeros(n)
                direction[(i // 4) % n] = rng.choice((-1.0, 1.0))
            else:
                direction = rng.standard_normal(n)
                direction /= np.linalg.norm(direction)
            u = pair_radius * rng.uniform()
            if u < 1e-12:
                continue
            pairs.append((x, x + u * direction, u))
        if not pairs:
            continue
        xs, x_primes, us = zip(*pairs)
        gaps = bregman_gap(objective, np.stack(xs), np.stack(x_primes))
        for gap, u in zip(gaps, us):
            alpha_hat = max(alpha_hat, gap / u ** q)
            beta_hat = min(beta_hat, gap / u ** p)
        used += len(pairs)
    if used == 0:
        raise ValueError("all sampled pairs were degenerate")
    return float(alpha_hat), float(beta_hat)


def estimate_level_set_diameter(objective: Objective, seed: int,
                                directions: int = 64) -> float:
    """Monte Carlo outer estimate of the diameter of {E <= E(0)}.

    Shoots seeded rays from the known minimizer, bisects the level-set
    boundary along each, and inflates the largest reach by 10% so the
    estimate errs on the large side.
    """
    xbar = objective.known_minimizer
    if xbar is None:
        raise ValueError("diameter estimation needs a known minimizer")
    e0 = objective.value(np.zeros(objective.dimension))
    rng = np.random.default_rng(seed)
    reach = 0.0
    for _ in range(directions):
        d = rng.standard_normal(objective.dimension)
        d /= np.linalg.norm(d)
        hi = 1.0
        for _ in range(200):
            if objective.value(xbar + hi * d) > e0:
                break
            hi *= 2.0
        else:
            raise ValueError("level set appears unbounded along a sampled ray")
        lo = 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if objective.value(xbar + mid * d) > e0:
                hi = mid
            else:
                lo = mid
        reach = max(reach, hi)
    return 2.0 * 1.1 * reach


def estimate_gradient_bound(objective: Objective, omega_radius: float,
                            sample_count: int, seed: int) -> float:
    """Sampled bound on ||E'|| over a ball covering the level set, inflated 10%."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(sample_count):
        x = uniform_ball(rng, objective.dimension, omega_radius)
        best = max(best, norm(objective.gradient(x)))
    return 1.1 * best
