"""Convex objectives with known curvature parameters and sparse minimizers.

Each objective exposes ``value``/``gradient`` plus optional capability hooks
the solver and the experiment harness exploit when available: a diagonal
Hessian, a least-squares form that gives exact minimizers over a span, and
closed-form geometry of the level set {x : E(x) <= E(0)}.  ``value`` and
``gradient`` also take a stack of points, one per row, and give each row
exactly the bits of a call on that row alone, so the Monte Carlo estimators
evaluate a whole stencil per call.
"""
from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from .core import CurvatureParams, Vector, as_point, as_points, norm


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

    ``least_squares_form`` returns (S, y) with E(x) = c * ||S x - y||^2 +
    const for some c > 0, where S maps an (n, j) block of columns to an
    (m, j) block, or None when E has no such form.  ``run_wcga`` builds a
    :class:`SpanFactor` on it, and ``argmin_in_span`` extends that factor; a
    subclass provides the form, not the solve.
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
    def known_params(self) -> CurvatureParams | None:
        """``curvature`` with the level-set geometry; None without it or on a point."""
        diam = self.level_set_diameter()
        if self.curvature is None or not diam:
            return None
        alpha, beta = self.curvature
        return CurvatureParams(alpha, 2.0, beta, self.exponent, diam,
                               self.gradient_sup_bound())

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

    def least_squares_form(self) -> tuple[Callable[[np.ndarray], np.ndarray], Vector] | None:
        """(S, y) with E(x) = c * ||S x - y||^2 + const for some c > 0, else None."""
        return None

    def argmin_in_span(self, columns: np.ndarray, factor: SpanFactor) -> Vector:
        """Exact coefficients minimizing E over the span of a carried factor.

        ``factor`` is a :class:`SpanFactor` of this objective's least-squares
        form carried across calls: ``columns`` are appended to it and the
        coefficients are those of all its columns.  A pass-through, kept so
        that perfbench's tracer sees one call per exact step until its hook
        moves to ``SpanFactor.extend``.
        """
        factor.extend(columns)
        return factor.coefficients()

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

    def least_squares_form(self):
        return _weighted_form(self.weights, self.center)

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
        self._rho = None
        if A.shape[0] < A.shape[1]:
            return  # rank deficient by its shape; no singular value is read
        s = np.linalg.svd(A, compute_uv=False)
        self._sigma_max, self._sigma_min = float(s[0]), float(s[-1])
        if self._sigma_min > self._sigma_max * 1e-12:
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

    def least_squares_form(self):
        return (lambda block: self.A @ block), self.b

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

    def least_squares_form(self):
        if self.exponent != 2.0:
            return None
        return _weighted_form(self.weights, self.center)

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


def _weighted_form(weights: Vector, center: Vector):
    """(S, y) of sum_i w_i (x_i - c_i)^2: S scales rows by sqrt(w), y = sqrt(w) * c."""
    root = np.sqrt(weights)
    return (lambda block: root[:, None] * block), root * center


class SpanFactor:
    """Thin QR of S B for a least-squares form (S, y), grown a column at a time.

    Minimizing ||S B z - y|| over z is solved as z = R^-1 (Q^T y) from S B =
    Q R.  Each new column s = S b is orthogonalized against Q by classical
    Gram-Schmidt.  A second pass runs only when the first cancelled, leaving
    ||w|| < ||s|| / sqrt(2) (Daniel, Gragg, Kaufman & Stewart 1976); with it
    Q stays orthonormal to working precision, since twice is enough
    (Giraud, Langou & Rozloznik 2005).  This is the updating of Batch-OMP
    (Rubinstein, Zibulevsky & Elad 2008).  Q is stored
    column-contiguous (row j of ``_qt`` is column j), with R^-1 (upper
    triangular, grown by a column) and Q^T y, so appending a column costs
    O(m k) and the coefficients O(k^2); nothing already factored is touched.

    A column whose residual after the last pass is at most ``DEPENDENT_TOL``
    times ||s|| lies in the span of the earlier ones.  It takes no storage,
    gets coefficient 0 (the others still minimize over the whole span) and
    raises the "not unique" RuntimeWarning.  The storage for ``capacity``
    independent columns, at most m, is allocated once.
    """

    # a column in the span keeps a residual near eps * ||s|| after the second pass;
    # 1e-12 drops only columns that would push cond(S B) past about 1e12,
    # close to the eps * max(m, k) cutoff of lstsq
    DEPENDENT_TOL = 1e-12

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray], rhs: Vector,
                 capacity: int):
        self._apply = apply
        self._y = rhs
        capacity = min(int(capacity), rhs.shape[0])
        self._qt = np.empty((capacity, rhs.shape[0]))
        self._rinv = np.zeros((capacity, capacity))
        self._qty = np.empty(capacity)
        self._independent: list[int] = []
        self.size = 0

    def extend(self, columns: np.ndarray) -> None:
        """Append the columns of an (n, j) block, applying S to it once."""
        for s in self._apply(columns).T:
            self._append(s)

    def _append(self, s: Vector) -> None:
        r = len(self._independent)
        q = self._qt[:r]
        s_norm = norm(s)
        h = q @ s
        w = s - h @ q
        rho = norm(w)
        if rho < s_norm / np.sqrt(2.0):
            h2 = q @ w
            w -= h2 @ q
            h += h2
            rho = norm(w)
        if rho <= self.DEPENDENT_TOL * s_norm:
            warnings.warn("restricted minimizer is not unique "
                          "(rank-deficient restricted system)", RuntimeWarning)
        else:
            self._qt[r] = w / rho
            self._qty[r] = self._qt[r] @ self._y
            self._rinv[:r, r] = (self._rinv[:r, :r] @ h) / -rho
            self._rinv[r, r] = 1.0 / rho
            self._independent.append(self.size)
        self.size += 1

    def coefficients(self) -> Vector:
        """Least-squares coefficients of the columns appended so far."""
        r = len(self._independent)
        z = np.zeros(self.size)
        z[self._independent] = self._rinv[:r, :r] @ self._qty[:r]
        return z


def bregman_gap(objective: Objective, x: Vector, x_prime: Vector) -> float | Vector:
    """E(x') - E(x) - <E'(x), x' - x>; nonnegative exactly when E is convex.

    Stacks x, x' of shape (m, n) give the (m,) gaps of their rows.
    """
    x = as_points(x, objective.dimension)
    x_prime = as_points(x_prime, objective.dimension)
    return _per_point(objective.value(x_prime) - objective.value(x)
                      - np.vecdot(objective.gradient(x), x_prime - x))


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
