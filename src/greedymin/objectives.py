"""Convex objectives with known curvature parameters and sparse minimizers.

Each objective exposes ``value``/``gradient``, the closed-form geometry of
the level set {x : E(x) <= E(0)} as attributes set at construction, and
optional capability hooks the solver exploits when available: a diagonal
Hessian and a least-squares form that gives exact minimizers over a span.
``value`` and ``gradient`` also take a stack of points, one per row, and
give each row exactly the bits of a call on that row alone, so the Monte
Carlo estimators batch their points: ``estimate_moduli`` a sample's distinct
stencil rows per call, ``estimate_condition_constants`` the gaps of
``GAP_CHUNK`` draws.
"""
from __future__ import annotations

import math
import warnings
from abc import ABC, abstractmethod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import CurvatureParams, Vector, as_point, as_points, norm


class LeastSquaresForm(NamedTuple):
    """(S, S's columns, S^T, y, c[, G, S^T y]) with E(x) = c * ||S x - y||^2 exactly, c > 0.

    ``apply`` maps an (n, j) block B to the (m, j) block S B.  ``columns``
    reads S's columns at a list of j indices, the (m, j) block S[:, idx],
    with the bits of ``apply`` on the unit block of those indices: the
    image of canonical atoms without a product.  ``adjoint`` maps an (m,)
    vector v to the (n,) vector S^T v.  ``rhs`` is the (m,) vector y and
    ``scale`` is c, which must be exact, not just positive: a
    :class:`SpanFactor` reads E and E' of an exact step off the form.  The
    one record an objective hands the solver, which factors its composition
    with a dictionary (``Dictionary.compose``): the form of z -> E(D z).

    ``gram`` is the (n, n) Gram matrix G = S^T S and ``adjoint_rhs`` the
    (n,) vector S^T y, both or neither (the default).  On the canonical
    basis, whose composition is the form itself, a form that carries them
    has its selection vector read off G in O(n k) per step instead of from
    S^T r, at the cost of keeping n^2 floats; only a tall
    :class:`LeastSquares` does, whose G is formed for its curvature anyway.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    columns: Callable[[Sequence[int]], np.ndarray]
    adjoint: Callable[[Vector], Vector]
    rhs: Vector
    scale: float
    gram: np.ndarray | None = None
    adjoint_rhs: Vector | None = None


class Objective(ABC):
    """A convex function on R^n with a computable gradient.

    ``value`` and ``gradient`` take one point of shape (n,) or a stack of
    shape (m, n).  ``value`` returns a Python float for a point and an (m,)
    array for a stack; ``gradient`` returns the shape it was given.  Row i of
    a stack result is bit-identical to the call on row i alone.  A subclass
    passed to ``estimate_moduli`` or ``estimate_condition_constants`` must
    honour the stack shape: the first stacks x and a sample's distinct
    stencil rows, the second up to ``GAP_CHUNK`` draws, in one call.

    ``exponent`` is the power type p of its uniform convexity.  What E
    knows without being given a point is set once, in ``__init__``, each
    None when unknown: ``known_minimizer``; ``level_set_diameter``, of a
    ball around it containing {E <= E(0)}; ``gradient_sup_bound``, on ||E'||
    over that set; and ``known_params``, the :class:`CurvatureParams` of a
    closed-form (alpha, beta) for q = 2 and that p on that diameter, None
    when those constants must be sampled or the level set is a point.

    ``least_squares_form`` returns a :class:`LeastSquaresForm`, or None
    when E has no such form.  ``run_wcga`` builds a :class:`SpanFactor` on
    that record composed with its dictionary, and ``argmin_in_span``
    extends the factor with the composed form's columns of the new atoms; a
    subclass provides the form, not the solve.
    """

    exponent = 2.0
    known_minimizer: Vector | None = None
    level_set_diameter: float | None = None
    gradient_sup_bound: float | None = None
    known_params: CurvatureParams | None = None

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)

    def _set_geometry(self, diameter: float, grad_bound: float,
                      curvature: tuple[float, float] | None = None) -> None:
        """Set the level-set geometry, and ``known_params`` from a closed-form
        (alpha, beta) unless the level set is a point.  Raises ValueError when
        the diameter or the gradient bound is not finite."""
        for name, bound in (("level-set diameter", diameter), ("gradient bound", grad_bound)):
            if not math.isfinite(bound):
                raise ValueError(f"{type(self).__name__}: the {name} overflows: {bound}")
        self.level_set_diameter, self.gradient_sup_bound = diameter, grad_bound
        if curvature is not None and diameter:
            (alpha, beta), p = curvature, self.exponent
            self.known_params = CurvatureParams(alpha, 2.0, beta, p, diameter, grad_bound)

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

    def least_squares_form(self) -> LeastSquaresForm | None:
        """E's :class:`LeastSquaresForm`, else None."""
        return None

    def argmin_in_span(self, image: np.ndarray, factor: SpanFactor) -> Vector:
        """Exact coefficients minimizing E over the span of a carried factor.

        ``factor`` is a :class:`SpanFactor` of this objective's least-squares
        form composed with a dictionary, carried across calls: ``image``, the
        (m, j) block S B of the new atoms B, is appended to it and the
        coefficients are those of all its columns.  A pass-through, kept so
        that perfbench's tracer sees one call per exact step until its hook
        moves to ``SpanFactor.extend``.
        """
        factor.extend(image)
        return factor.coefficients()


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
        e0 = self.value(np.zeros(self.dimension))
        self._set_geometry(2.0 * np.sqrt(2.0 * e0 / weights.min()),
                           float(np.sqrt(2.0 * e0 * weights.max())),
                           (float(weights.max()) / 2.0, float(weights.min()) / 2.0))

    def value(self, x: Vector) -> float | Vector:
        d = as_points(x, self.dimension) - self.center
        return _per_point(0.5 * np.vecdot(self.weights * d, d))

    def gradient(self, x: Vector) -> Vector:
        return self.weights * (as_points(x, self.dimension) - self.center)

    def least_squares_form(self):
        return _weighted_form(self.weights, self.center, 0.5)


class LeastSquares(Objective):
    """E(x) = ||A x - b||^2; gradient is 2 A^T (A x - b).

    The curvature constants are the extreme eigenvalues of A^T A, the squared
    extreme singular values of A.  They are computed from the rounded Gram
    matrix, so ``known_params`` holds a certified bracket: alpha at or above
    sigma_max^2 and beta at or below sigma_min^2, each moved outward by the
    rounding bound of forming A^T A and of its eigensolver.  A positive beta
    certifies full column rank, so the minimizer is unique; only then are
    ``known_minimizer``, the level-set geometry and ``known_params`` set.  A
    wide A, or one whose beta is not positive, is not known to be strictly
    convex and carries none of them.

    A tall A keeps that G = A^T A, n^2 floats, and A^T b for its
    least-squares form, so exact steps on the canonical basis read their
    selection vectors off G (see :class:`SpanFactor`); a wide A forms no G
    and its form carries none.
    """

    def __init__(self, matrix, rhs):
        A = np.ascontiguousarray(matrix, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix has non-finite entries")
        b = np.asarray(rhs, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise ValueError("rhs has non-finite entries")
        m, n = A.shape
        if b.size != m:
            raise ValueError(f"rhs has {b.size} entries, matrix has {m} rows")
        super().__init__(n)
        self.A = A
        self.b = as_point(b, m)
        self._gram = self._aty = None
        if m < n:
            return  # rank deficient by its shape; no eigenvalue is read
        G = A.T @ A
        self._gram, self._aty = G, A.T @ self.b
        lam = np.linalg.eigvalsh(G)
        # Each computed eigenvalue lies within delta of the exact one, to first
        # order in the unit roundoff u = eps/2 (Higham, Accuracy and Stability
        # of Numerical Algorithms, 2nd ed.): forming G moves every eigenvalue by
        # at most ||dG||_2 <= gamma_m ||A||_F^2 (Thm 3.5, gamma_m = m u/(1 - m u),
        # ||A||_F^2 = trace(A^T A)), and the backward-stable symmetric eigensolver
        # by at most c n eps lambda_max (Weyl's theorem), taken here with c = 1.
        eps = float(np.finfo(np.float64).eps)
        u = eps / 2.0
        delta = m * u / (1.0 - m * u) * float(np.trace(G)) + n * eps * float(lam[-1])
        alpha, beta = float(lam[-1]) + delta, float(lam[0]) - delta
        if beta > 0.0:
            # normal equations with one step of iterative refinement
            xbar = np.linalg.solve(G, self._aty)
            xbar += np.linalg.solve(G, A.T @ (self.b - A @ xbar))
            self.known_minimizer = xbar
            e0 = self.value(np.zeros(self.dimension))
            rho = float(np.sqrt(max(e0 - self.value(xbar), 0.0)))
            # sqrt(beta) <= sigma_min and sqrt(alpha) >= sigma_max keep both bounds sound
            self._set_geometry(2.0 * rho / beta ** 0.5, 2.0 * alpha ** 0.5 * rho, (alpha, beta))

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

    # A @ e_j equals A[:, j] (up to the sign of a zero entry): every other
    # term is a finite entry times 0
    def least_squares_form(self):
        return LeastSquaresForm(lambda block: self.A @ block, lambda idx: self.A[:, idx],
                                lambda v: self.A.T @ v, self.b, 1.0, self._gram, self._aty)


class PowerSum(Objective):
    """E(x) = sum_i w_i |x_i - c_i|^p with p >= 2.

    Smooth with a locally bounded Hessian (quadratic-type upper growth on
    bounded sets) and uniformly convex of power type p, so its curvature
    constants are level-set dependent and are estimated numerically.  At
    p = 2 the gap is exactly sum_i w_i d_i^2, so they are the extreme weights.

    With d = x - c, the kernels evaluate E as the dot of w with (d^2)^(p/2),
    E' as |d|^(p-2) * (p w) * d and the Hessian diagonal as
    |d|^(p-2) * (p (p-1) w).  Each term of E is within about (p/2 + 2) eps of
    w_i |d_i|^p and the dot of nonnegative terms adds at most n eps of E;
    each entry of E' and of the Hessian is within about 4 eps of the exact
    one.  Where an exact term or entry is below the normal range, the error
    is instead a few subnormal units times p max(w).
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
        n, p = self.dimension, self.exponent
        e0 = self.value(np.zeros(n))
        if not math.isfinite(e0):
            raise ValueError(f"E(0) = sum_i w_i |c_i|^{p:g} overflows: {e0}")
        # ||x - c||_2 <= n^(1/2 - 1/p) ||x - c||_p on the level set; the scalar
        # stays outside the norm, whose squares would overflow first
        self._set_geometry(2.0 * n ** (0.5 - 1.0 / p) * (e0 / weights.min()) ** (1.0 / p),
                           float(p * e0 ** ((p - 1.0) / p)
                                 * np.linalg.norm(weights ** (1.0 / p))),
                           (float(weights.max()), float(weights.min())) if p == 2.0 else None)

    # In place on the fresh d = x - c.  numpy's scalar power squares at an
    # exponent of 2, copies at 1 and fills ones at 0, so at p = 2 and p = 4
    # no kernel calls libm's pow, and at p = 3 only ``value`` does.  The
    # gradient takes |d|^(p-2), not (d^2)^(p/2-1): d^2 underflows below
    # |d| ~ 1e-154, where |d|^(p-1) may still be normal.  Each step is
    # elementwise and np.vecdot reduces each row by itself, so row i of a
    # stack has the bits of row i alone.
    def value(self, x: Vector) -> float | Vector:
        s = as_points(x, self.dimension) - self.center
        s *= s
        s **= 0.5 * self.exponent
        return _per_point(np.vecdot(s, self.weights))

    def gradient(self, x: Vector) -> Vector:
        d = as_points(x, self.dimension) - self.center
        u = np.abs(d)
        u **= self.exponent - 2.0
        u *= self.exponent * self.weights
        u *= d
        return u

    def hessian_diag(self, x: Vector) -> Vector:
        d = as_point(x, self.dimension) - self.center
        np.abs(d, out=d)
        d **= self.exponent - 2.0
        d *= self.exponent * (self.exponent - 1.0) * self.weights
        return d

    def least_squares_form(self):
        if self.exponent != 2.0:
            return None
        return _weighted_form(self.weights, self.center, 1.0)


# ---------------------------------------------------------------------------


def _per_point(values):
    """A Python float for the 0-d result of one point, the (m,) array of a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _weighted_form(weights: Vector, center: Vector, scale: float) -> LeastSquaresForm:
    """The form of scale * sum_i w_i (x_i - c_i)^2: S = S^T = diag(sqrt(w)), y = sqrt(w) * c.

    Column j of S is sqrt(w_j) e_j, so S's column read scatters sqrt(w) into
    zeros: the bits of sqrt(w) times a unit block, as sqrt(w) is finite.
    """
    root = np.sqrt(weights)

    def columns(idx: Sequence[int]) -> np.ndarray:
        block = np.zeros((root.shape[0], len(idx)))
        block[idx, np.arange(len(idx))] = root[idx]
        return block

    return LeastSquaresForm(lambda block: root[:, None] * block, columns,
                            lambda v: root * v, root * center, scale)


class SpanFactor:
    """Thin QR of S B for a :class:`LeastSquaresForm`, grown a column at a time.

    For the form E(x) = c * ||S x - y||^2, minimizing over x = B z is solved
    as z = R^-1 (Q^T y) from S B = Q R.  The factor applies no S: it is
    given the image s = S b of each new atom b, which a composed form reads
    (``Dictionary.compose``: S's columns on the canonical basis, else S
    applied to the atoms), and orthogonalizes s against Q by classical
    Gram-Schmidt.  A second pass runs only when the first cancelled, leaving
    ||w|| < ||s|| / sqrt(2) (Daniel, Gragg, Kaufman & Stewart 1976); with it
    Q stays orthonormal to working precision, since twice is enough (Giraud,
    Langou & Rozloznik 2005).  Q is kept with R^-1 (upper triangular, grown
    by a column) and Q^T y, so appending a column costs O(m k) and the
    coefficients O(k^2); nothing already factored is touched.

    A boolean mask marks the rows that any stored column of Q touches.  A new
    column with no nonzero on those rows (a diagonal S on the canonical
    basis) has Q^T s = 0 exactly, each term having a zero factor, so it is
    stored without either product with Q: its append costs O(m), for the
    same bits the projection would give.  Until a column needs the
    projection, Q is kept sparse, each column as the indices and values of
    its nonzeros (the mask's test), so a diagonal S on the canonical basis
    holds O(m + k) floats of Q where a dense block holds k m.  The first
    column that touches a stored row forms the dense (capacity, m) block,
    column-contiguous (row j of ``_qt`` is column j), writes the sparse
    columns into it and is projected against it; every later column is
    stored densely.  A dense S forms the block at its second column, and
    every later append pays O(m) for the test on top of the O(m k)
    projection.  Either way an append does the same dense O(m) arithmetic
    on the new column, in the same order, so the storage changes no bit.

    The factor also carries the residual r = y - Q Q^T y = y - S B z of the
    span minimizer, updated by r -= (q^T y) q for each new column q in O(m),
    and its coefficients z, taken once per ``extend``.  So ``value`` gives
    E = c ||r||^2 and ``gradient`` gives the form's E' = -2c S^T r with no
    product with S; for a composed form, S^T is D^T S^T and E' is in the
    atoms' coefficients.  Without a Gram in the form, S^T r is one adjoint
    product.  With one, the factor keeps the (n, k) block S^T S B, grown by
    ``extend_gram`` with G's columns of the new atoms, and takes
    S^T r = S^T y - (S^T S B) z in O(n k) with no product with S^T either:
    the update of Batch-OMP (Rubinstein, Zibulevsky & Elad 2008), for k n
    floats beside the form's n^2.  Its round-off
    scales with ||S^T y|| rather than with ||S^T r||: at most about
    max(m, n) eps ||S^T y||, a relative max(m, n) eps of ||E'(0)|| =
    2c ||S^T y||, which ``solvers.FORM_RTOL`` covers.  On
    ``configs/least_squares.cfg`` and the benchmark's 1200 x 600 problem
    (||S^T y|| of 4 to 16) that is under 1e-11, three orders below the
    default ``stop_tol``; measured, it is a few eps ||S^T y||.  A factor
    extended without its Gram columns (``extend`` alone) keeps the adjoint.

    A column whose residual after the last pass is at most ``DEPENDENT_TOL``
    times ||s|| lies in the span of the earlier ones.  It takes no storage,
    gets coefficient 0 (the others still minimize over the whole span), leaves
    r alone and raises the "not unique" RuntimeWarning.  The storage for
    ``capacity`` independent columns, at most m, is allocated once: R^-1 and
    Q^T y at construction, the dense Q when a column first needs projecting,
    and the block of ``capacity`` Gram columns at construction iff the form
    carries G, which a form composed off the canonical basis does not.
    """

    # a column in the span keeps a residual near eps * ||s|| after the second pass;
    # 1e-12 drops only columns that would push cond(S B) past about 1e12,
    # close to the eps * max(m, k) cutoff of lstsq
    DEPENDENT_TOL = 1e-12

    def __init__(self, form: LeastSquaresForm, capacity: int):
        """An empty factor of ``form``, kept whole as ``self.form``, for ``capacity`` columns."""
        self.form = form
        m = form.rhs.shape[0]
        self._r = np.array(form.rhs, dtype=np.float64)
        self.capacity = capacity = min(int(capacity), m)
        self._qt = None  # (capacity, m), formed when a column first needs projecting
        self._sparse: list[tuple[np.ndarray, np.ndarray]] = []  # Q's columns until then
        self._rinv = np.zeros((capacity, capacity))
        self._qty = np.empty(capacity)
        self._rows = np.zeros(m, dtype=bool)
        self._independent: list[int] = []
        self._z = np.zeros(0)
        self.size = 0
        # row i is S^T S b_i; the Gram route holds while every column has one
        self._gram = None if form.gram is None else np.empty((capacity, form.gram.shape[0]))
        self._grams = 0

    def extend(self, image: np.ndarray) -> None:
        """Append the columns of the (m, j) image S B of j new atoms B."""
        for s in image.T:
            self._append(s)
        r = len(self._independent)
        self._z = np.zeros(self.size)
        self._z[self._independent] = self._rinv[:r, :r] @ self._qty[:r]
        self._z.flags.writeable = False  # shared with the caller and read by gradient

    def extend_gram(self, gram_columns: np.ndarray) -> None:
        """Append the (n, j) block S^T S B of the j atoms B whose image was appended last."""
        j = gram_columns.shape[1]
        self._gram[self._grams:self._grams + j] = gram_columns.T
        self._grams += j

    def _append(self, s: Vector) -> None:
        r = len(self._independent)
        s_norm = norm(s)
        if np.any(s[self._rows]):
            if self._qt is None:
                self._qt = np.empty((self.capacity, s.shape[0]))
                for row, (nz, values) in zip(self._qt, self._sparse):
                    row.fill(0.0)
                    row[nz] = values
                self._sparse = None
            q = self._qt[:r]
            h = q @ s
            w = s - h @ q
            rho = norm(w)
            if rho < s_norm / np.sqrt(2.0):
                h2 = q @ w
                w -= h2 @ q
                h += h2
                rho = norm(w)
        else:  # Q^T s = 0: R gains no entry above the diagonal
            h, w, rho = None, s, s_norm
        if rho <= self.DEPENDENT_TOL * s_norm:
            warnings.warn("restricted minimizer is not unique "
                          "(rank-deficient restricted system)", RuntimeWarning)
        else:
            q = w / rho
            touched = q != 0.0
            self._rows |= touched
            if self._qt is None:  # Q is still sparse: keep q's nonzeros
                nz = touched.nonzero()[0]
                self._sparse.append((nz, q[nz]))
            else:
                self._qt[r] = q
            self._qty[r] = q @ self.form.rhs
            self._r -= self._qty[r] * q
            if h is not None:
                self._rinv[:r, r] = (self._rinv[:r, :r] @ h) / -rho
            self._rinv[r, r] = 1.0 / rho
            self._independent.append(self.size)
        self.size += 1

    def coefficients(self) -> Vector:
        """Least-squares coefficients of the columns appended so far (the factor's own z)."""
        return self._z

    def value(self) -> float:
        """E at the span minimizer, c ||r||^2."""
        return float(self.form.scale) * float(self._r @ self._r)

    def gradient(self) -> Vector:
        """The ambient gradient E' = -2c S^T r at the span minimizer."""
        if self._gram is not None and self._grams == self.size:
            st_r = self.form.adjoint_rhs - self._z @ self._gram[:self.size]
        else:
            st_r = self.form.adjoint(self._r)
        return (-2.0 * float(self.form.scale)) * st_r


def bregman_gap(objective: Objective, x: Vector, x_prime: Vector) -> float | Vector:
    """E(x') - E(x) - <E'(x), x' - x>; nonnegative exactly when E is convex.

    Stacks x, x' of shape (m, n) give the (m,) gaps of their rows.
    """
    x = as_points(x, objective.dimension)
    x_prime = as_points(x_prime, objective.dimension)
    return _per_point(objective.value(x_prime) - objective.value(x)
                      - np.vecdot(objective.gradient(x), x_prime - x))


def uniform_ball(rng: np.random.Generator, dimension: int, radius: float) -> Vector:
    """A uniform point of a centered ball; the estimators make its draws in
    place, and it is kept as their tests' oracle, which replays those draws."""
    d = rng.standard_normal(dimension)
    d /= np.linalg.norm(d)
    return radius * rng.uniform() ** (1.0 / dimension) * d


#: draws whose Bregman gaps ``estimate_condition_constants`` evaluates as one
#: stack, so its memory is a few GAP_CHUNK x n arrays whatever the sample count
GAP_CHUNK = 64


def estimate_condition_constants(objective: Objective, q: float, p: float,
                                 omega_radius: float, sample_count: int,
                                 seed: int, pair_radius: float | None = None,
                                 ) -> tuple[float, float]:
    """Sampled curvature constants for the given exponents.

    Draws pairs (x, x') with x uniform in the centered ball of omega_radius
    and ||x' - x|| at most pair_radius (defaults to omega_radius), and
    returns (max gap/||d||^q, min gap/||d||^p).  Up to the rounding of the
    sampled gaps, the max is a lower bound of the true upper constant and
    the min an upper bound of the lower one: a gap computed in floating
    point can fall below the exact one, so the min can land slightly under
    the true lower constant.

    Every fourth pair is displaced along a coordinate axis instead of a
    random direction: for anisotropic separable objectives the extreme
    curvature lives in single coordinates, which isotropic directions in
    high dimension essentially never hit.  Each chunk of ``GAP_CHUNK`` draws
    fills two preallocated blocks, x and x' - x, and its gaps are evaluated
    as one stack, so a call stacks at most ``GAP_CHUNK`` rows.  A
    pair_radius ** p or a sampled gap that overflows raises ValueError.
    """
    if not 1.0 < q <= 2.0:
        raise ValueError(f"q={q} outside (1, 2]")
    if not p >= 2.0:
        raise ValueError(f"p={p} below 2")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not (omega_radius > 0 and math.isfinite(omega_radius)):
        raise ValueError(f"omega_radius must be positive and finite, got {omega_radius}")
    pair_radius = omega_radius if pair_radius is None else float(pair_radius)
    if not (pair_radius > 0 and math.isfinite(pair_radius)):
        raise ValueError(f"pair_radius must be positive and finite, got {pair_radius}")
    try:  # every pair length u is at most pair_radius, so u ** p and u ** q stay finite
        pair_radius ** p
    except OverflowError:
        raise ValueError(f"pair_radius ** p overflows: {pair_radius:g} ** {p:g}") from None
    rng = np.random.default_rng(seed)
    n = objective.dimension
    points, steps = np.empty((2, min(GAP_CHUNK, sample_count), n))
    alpha_hat = -np.inf
    beta_hat = np.inf
    used = 0
    for start in range(0, sample_count, GAP_CHUNK):
        # per draw only the generator calls of uniform_ball, a direction and
        # a length, in that order; the rows are scaled once per chunk, their
        # norms taken by np.vecdot, which runs the BLAS dot of np.linalg.norm
        size = min(GAP_CHUNK, sample_count - start)
        x, step, radial, us = points[:size], steps[:size], [], []
        for i, xi, di in zip(range(start, start + size), x, step):
            rng.standard_normal(out=xi)
            radial.append(omega_radius * rng.random() ** (1.0 / n))
            if i % 4 == 3:  # an axis direction, of norm 1 exactly
                di[:] = 0.0
                di[(i // 4) % n] = (-1.0, 1.0)[rng.integers(2)]
            else:
                rng.standard_normal(out=di)
            us.append(pair_radius * rng.random())
        x /= np.sqrt(np.vecdot(x, x))[:, None]
        x *= np.array(radial)[:, None]
        step /= np.sqrt(np.vecdot(step, step))[:, None]
        step *= np.array(us)[:, None]
        if min(us) < 1e-12:  # too short to divide by: drop those draws
            keep = np.array(us) >= 1e-12
            x, step, us = x[keep], step[keep], [u for u in us if u >= 1e-12]
            if not us:
                continue
        gaps = bregman_gap(objective, x, x + step)
        if not np.isfinite(gaps).all():
            raise ValueError(f"a sampled gap is {gaps.max()}: E overflows within "
                             f"{omega_radius + pair_radius:g} of the origin")
        # Python's max and min skip a NaN ratio and keep the first of equal ones
        alpha_hat = max(alpha_hat, *(gaps / [u ** q for u in us]).tolist())
        beta_hat = min(beta_hat, *(gaps / [u ** p for u in us]).tolist())
        used += len(us)
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
