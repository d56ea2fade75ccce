import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import greedymin as gm
from greedymin.core import as_points
from greedymin.objectives import (GAP_CHUNK, LeastSquaresForm, SpanFactor, bregman_gap,
                                  estimate_condition_constants)

from conftest import (CountingObjective, check_gradient, conditioned_matrix, stack_library,
                      unit_columns)


def _library(seed=0, n=8):
    rng = np.random.default_rng(seed)
    quad = gm.DiagonalQuadratic(rng.standard_normal(n), rng.uniform(0.5, 2.0, n))
    A = rng.standard_normal((n + 4, n))
    ls = gm.LeastSquares(A, rng.standard_normal(n + 4))
    ps = gm.PowerSum(rng.standard_normal(n), 4.0, rng.uniform(0.5, 2.0, n))
    return quad, ls, ps


def test_gap_unit_quadratic_exact():
    rng = np.random.default_rng(1)
    E = gm.DiagonalQuadratic(rng.standard_normal(6), np.ones(6))
    for _ in range(10):
        x = rng.standard_normal(6)
        xp = rng.standard_normal(6)
        expected = 0.5 * gm.norm(xp - x) ** 2
        assert abs(bregman_gap(E, x, xp) - expected) <= 1e-10 * (1 + expected)


def test_gap_least_squares_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k, n = rng.integers(3, 10), rng.integers(2, 8)
        A = rng.standard_normal((k, n))
        E = gm.LeastSquares(A, rng.standard_normal(k))
        x = rng.standard_normal(n)
        xp = rng.standard_normal(n)
        expected = gm.norm(A @ (xp - x)) ** 2
        assert abs(bregman_gap(E, x, xp) - expected) <= 1e-10 * (1 + expected)


def test_gap_at_same_point_is_zero():
    for E in _library():
        x = np.full(E.dimension, 0.3)
        assert bregman_gap(E, x, x) == 0.0


def test_gap_dimension_mismatch():
    E = gm.DiagonalQuadratic([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        bregman_gap(E, np.zeros(2), np.zeros(3))


def test_gap_nonnegative_for_convex():
    rng = np.random.default_rng(3)
    for E in _library():
        for _ in range(50):
            x = rng.standard_normal(E.dimension)
            xp = rng.standard_normal(E.dimension)
            assert bregman_gap(E, x, xp) >= -1e-10


def test_value_convexity_sampled():
    rng = np.random.default_rng(4)
    for E in _library():
        for _ in range(30):
            x = rng.standard_normal(E.dimension)
            xp = rng.standard_normal(E.dimension)
            lam = rng.uniform(0.05, 0.95)
            mid = E.value(lam * x + (1 - lam) * xp)
            assert mid <= lam * E.value(x) + (1 - lam) * E.value(xp) + 1e-10


def test_check_gradient_quadratic():
    rng = np.random.default_rng(5)
    E = gm.DiagonalQuadratic(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
    for _ in range(5):
        assert check_gradient(E, rng.standard_normal(5)) < 1e-6


def test_check_gradient_least_squares():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((8, 5))
    E = gm.LeastSquares(A, rng.standard_normal(8))
    for _ in range(5):
        assert check_gradient(E, rng.standard_normal(5)) < 1e-5


def test_check_gradient_power_sum():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(5)
    E = gm.PowerSum(c, 4.0, rng.uniform(0.5, 2.0, 5))
    for _ in range(5):
        x = c + rng.choice((-1.0, 1.0), 5) * rng.uniform(0.1, 1.5, 5)
        assert check_gradient(E, x) < 1e-5


def test_check_gradient_rejects_bad_step():
    E = gm.DiagonalQuadratic([1.0], [1.0])
    with pytest.raises(ValueError):
        check_gradient(E, np.zeros(1), step=0.0)


def test_quadratic_minimizer_has_zero_gradient():
    rng = np.random.default_rng(8)
    E = gm.DiagonalQuadratic(rng.standard_normal(6), rng.uniform(0.5, 2.0, 6))
    assert np.all(E.gradient(E.known_minimizer) == 0.0)


def test_quadratic_known_params():
    E = gm.DiagonalQuadratic([2.0, 0.0], [1.0, 4.0])
    params = E.known_params
    assert params.alpha == 2.0 and params.beta == 0.5
    assert params.q == params.p == 2.0
    # degenerate level set: center at the origin carries no params
    assert gm.DiagonalQuadratic([0.0, 0.0], [1.0, 1.0]).known_params is None


GEOMETRY_KINDS = ["quadratic_planted", "quadratic_origin", "least_squares_tall",
                  "least_squares_wide", "least_squares_kappa1e9", "powersum2", "powersum4"]


def _geometry_case(kind: str) -> gm.Objective:
    rng = np.random.default_rng(31)
    c, w = rng.standard_normal(6), rng.uniform(0.5, 2.0, 6)
    if kind.startswith("quadratic"):
        return gm.DiagonalQuadratic(c if kind == "quadratic_planted" else np.zeros(6), w)
    if kind.startswith("powersum"):
        return gm.PowerSum(c, float(kind[-1]), w)
    if kind == "least_squares_kappa1e9":
        A = conditioned_matrix(np.random.default_rng(4), 20, 8, 1e9)
    else:
        A = rng.standard_normal((10, 6) if kind == "least_squares_tall" else (4, 6))
    m, n = A.shape
    return gm.LeastSquares(A, A @ rng.standard_normal(n) + rng.standard_normal(m))


def _closed_form_geometry(E):
    """(diameter, gradient bound, (alpha, beta) or None), each formula restated."""
    zero = np.zeros(E.dimension)
    if isinstance(E, gm.DiagonalQuadratic):
        e0, w = E.value(zero), E.weights
        return (2.0 * np.sqrt(2.0 * e0) / np.sqrt(w.min()),
                float(np.sqrt(2.0 * e0) * np.sqrt(w.max())),
                (float(w.max()) / 2.0, float(w.min()) / 2.0))
    if isinstance(E, gm.PowerSum):
        e0, w, n, p = E.value(zero), E.weights, E.dimension, E.exponent
        return (2.0 * n ** (0.5 - 1.0 / p) * e0 ** (1.0 / p) / w.min() ** (1.0 / p),
                float(p * e0 ** ((p - 1.0) / p) * np.linalg.norm(w ** (1.0 / p))),
                (float(w.max()), float(w.min())) if p == 2.0 else None)
    m, n = E.A.shape
    if m < n:
        return None, None, None
    G = E.A.T @ E.A
    lam = np.linalg.eigvalsh(G)
    eps = float(np.finfo(np.float64).eps)
    u = eps / 2.0
    delta = m * u / (1.0 - m * u) * float(np.trace(G)) + n * eps * float(lam[-1])
    alpha, beta = float(lam[-1]) + delta, float(lam[0]) - delta
    if not beta > 0.0:
        return None, None, None
    rho = float(np.sqrt(max(E.value(zero) - E.value(E.known_minimizer), 0.0)))
    return 2.0 * rho / beta ** 0.5, 2.0 * alpha ** 0.5 * rho, (alpha, beta)


def _bits(v):
    return None if v is None else np.float64(v).tobytes()


@pytest.mark.parametrize("kind", GEOMETRY_KINDS)
def test_closed_form_geometry_is_set_once(kind):
    # every value is the closed form's, bit for bit, read as a plain attribute;
    # known_params is None without a closed-form (alpha, beta) or on a point
    E = _geometry_case(kind)
    diameter, grad_bound, curvature = _closed_form_geometry(E)
    assert _bits(E.level_set_diameter) == _bits(diameter)
    assert _bits(E.gradient_sup_bound) == _bits(grad_bound)
    unbounded = kind in ("least_squares_wide", "least_squares_kappa1e9")
    assert (E.level_set_diameter is None) == (E.gradient_sup_bound is None) == unbounded
    assert (E.known_minimizer is None) == unbounded
    assert (E.known_params is None) == (kind in ("quadratic_origin", "powersum4") or unbounded)
    if E.known_params is not None:
        alpha, beta = curvature
        assert E.known_params == gm.CurvatureParams(alpha, 2.0, beta, E.exponent, diameter,
                                                    grad_bound)
    assert E.known_params is E.known_params


def test_powersum_gradient_bound_is_finite_where_its_terms_square_past_overflow():
    # at p = 200, center [10, 0, 0, 2]: the bound p E(0)^((p-1)/p) ||w^(1/p)|| is
    # about 4e201, finite, though each per-coordinate term squared is not
    p, w = 200.0, np.array([1.0, 1.5, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = gm.PowerSum([10.0, 0.0, 0.0, 2.0], p, w)
    with localcontext(prec=50):
        P = Decimal(p)
        e0 = sum(Decimal(wi) * Decimal(ci) ** 200 for wi, ci in zip(w, [10, 0, 0, 2]))
        ref = P * e0 ** ((P - 1) / P) * sum(Decimal(wi) ** (2 / P) for wi in w).sqrt()
    assert E.gradient_sup_bound == pytest.approx(float(ref), rel=1e-13)


def test_non_finite_geometry_names_the_class_and_the_quantity():
    # at p = 200, E(0) = 1e300 * 1.09^200 ~ 3e307 is finite, but the gradient bound
    # p E(0)^(199/200) w^(1/200) ~ 6e309 is not
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="^PowerSum: the gradient bound "
                                             "overflows: inf$"):
            gm.PowerSum([1.09], 200.0, [1e300])
        # E(0) = 5e307, so the diameter 2 sqrt(2 E(0) / min(w)) = 2e308 overflows
        with pytest.raises(ValueError, match="^DiagonalQuadratic: the level-set diameter "
                                             "overflows: inf$"):
            gm.DiagonalQuadratic([1e154, 0.0], [1.0, 1e-308])


def test_quadratic_gradient_bound_is_finite_where_its_product_overflows():
    # 2 E(0) max(w) = 1e300 * 1e300 overflows, but the bound sqrt(2 E(0) max(w))
    # is 1e300: its roots are taken first, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = gm.DiagonalQuadratic([1e150, 0.0], [1.0, 1e300])
    assert E.gradient_sup_bound == pytest.approx(1e300, rel=4e-16)
    assert E.level_set_diameter == 2e150


@pytest.mark.parametrize("make, diameter", [
    (lambda: gm.DiagonalQuadratic([1e150, 0.0], [1.0, 1e-300]), 2e300),
    (lambda: gm.PowerSum([1e100, 0.0], 2.0, [1.0, 1e-300]), 2e250),
    (lambda: gm.PowerSum([1e60, 0.0], 4.0, [1.0, 1e-300]), 2.0 * 2.0 ** 0.25 * 1e135),
], ids=["quadratic", "powersum2", "powersum4"])
def test_diameter_is_finite_where_its_quotient_overflows(make, diameter):
    # E(0) / min(w) overflows, but the diameter, a quotient of roots, does
    # not: it is set with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = make()
    assert E.level_set_diameter == pytest.approx(diameter, rel=1e-15)


def test_powersum_p2_known_params_are_the_extreme_weights():
    # at p = 2 the gap is sum_i w_i d_i^2, so alpha = max w and beta = min w exactly
    rng = np.random.default_rng(10)
    w = 10.0 ** rng.uniform(-3.0, 3.0, 8)
    E = gm.PowerSum(rng.standard_normal(8), 2.0, w)
    params = E.known_params
    assert params.alpha == w.max() and params.beta == w.min()
    assert params.q == params.p == 2.0
    # the sampler's axis draws reach both, up to the round-off of the sums in each gap
    alpha_hat, beta_hat = estimate_condition_constants(
        E, 2.0, 2.0, E.level_set_diameter, 400, seed=0)
    assert alpha_hat <= params.alpha * (1 + 1e-9) and beta_hat >= params.beta * (1 - 1e-9)
    assert alpha_hat >= 0.99 * params.alpha and beta_hat <= 1.01 * params.beta


def test_least_squares_known_params_match_svd_oracle():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 4))
    E = gm.LeastSquares(A, rng.standard_normal(10))
    params = E.known_params
    eigs = np.linalg.eigvalsh(A.T @ A)
    assert np.isclose(params.alpha, eigs[-1], rtol=1e-10)
    assert np.isclose(params.beta, eigs[0], rtol=1e-10)
    # gradient of the minimizer vanishes
    assert gm.norm(E.gradient(E.known_minimizer)) < 1e-10
    # wide matrix: not strictly convex, no params
    wide = gm.LeastSquares(rng.standard_normal((3, 6)), rng.standard_normal(3))
    assert wide.known_params is None and wide.known_minimizer is None


def test_wide_least_squares_takes_no_svd(monkeypatch):
    # a tall A takes one eigvalsh of its (n, n) Gram matrix and no SVD or lstsq;
    # a wide A fails the full-rank test on its shape and takes none of them
    calls = []

    def recording(name):
        routine = getattr(np.linalg, name)

        def record(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return routine(a, *args, **kwargs)
        return record

    for name in ("svd", "lstsq", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    rng = np.random.default_rng(10)
    wide = gm.LeastSquares(rng.standard_normal((3, 6)), rng.standard_normal(3))
    assert calls == [] and wide.level_set_diameter is None
    tall = gm.LeastSquares(rng.standard_normal((6, 3)), rng.standard_normal(6))
    assert calls == [("eigvalsh", (3, 3))] and tall.known_params is not None


@pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6])
def test_least_squares_curvature_brackets_squared_singular_values(kappa):
    rng = np.random.default_rng(11)
    A = conditioned_matrix(rng, 40, 12, kappa)
    b = A @ rng.standard_normal(A.shape[1]) + 1e-3 * rng.standard_normal(A.shape[0])
    E = gm.LeastSquares(A, b)
    s = np.linalg.svd(A, compute_uv=False)
    alpha, beta = E.known_params.alpha, E.known_params.beta
    # the bracket widens by the eigenvalue error, which scales with ||A||_2^2
    tol = 1e-8 * s[0] ** 2
    assert s[0] ** 2 <= alpha <= s[0] ** 2 + tol
    assert s[-1] ** 2 - tol <= beta <= s[-1] ** 2
    ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert gm.norm(E.known_minimizer - ref) <= 1e-9 * gm.norm(ref)
    # the origin lies in the level set, so the certified ball reaches it
    assert E.level_set_diameter >= 2.0 * gm.norm(E.known_minimizer)


def test_least_squares_from_files(tmp_path):
    A = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    b = np.array([1.0, -1.0, 0.5])
    ma = tmp_path / "a.csv"
    vb = tmp_path / "b.csv"
    np.savetxt(ma, A, delimiter=",")
    np.savetxt(vb, b, delimiter=",")
    E = gm.LeastSquares.from_files(ma, vb)
    assert np.allclose(E.A, A) and np.allclose(E.b, b)


def _refined_normal_equations(A, b):
    """The normal-equation solve with one step of refinement, restated."""
    G = A.T @ A
    x = np.linalg.solve(G, A.T @ b)
    x += np.linalg.solve(G, A.T @ (b - A @ x))
    return x


def test_least_squares_given_b_keeps_the_refined_normal_equation_minimizer(tmp_path):
    rng = np.random.default_rng(41)
    A, b = rng.standard_normal((12, 5)), rng.standard_normal(12)
    ma, vb = tmp_path / "a.csv", tmp_path / "b.csv"
    np.savetxt(ma, A, delimiter=",")
    np.savetxt(vb, b, delimiter=",")
    for E in (gm.LeastSquares(A, b), gm.LeastSquares.from_files(ma, vb)):
        assert np.array_equal(E.A, A) and np.array_equal(E.b, b)
        assert np.array_equal(E.known_minimizer, _refined_normal_equations(A, b))


@pytest.mark.parametrize("shape", [(12, 5), (6, 6), (4, 9)])
def test_planted_least_squares_keeps_its_minimizer(shape):
    rng = np.random.default_rng(42)
    A, xbar = rng.standard_normal(shape), rng.standard_normal(shape[1])
    given = xbar.copy()
    E = gm.LeastSquares.planted(A, xbar)
    assert np.array_equal(E.b, A @ xbar) and np.array_equal(xbar, given)
    assert E.known_minimizer.tobytes() == xbar.tobytes() and E.known_minimizer is not xbar
    assert E.value(E.known_minimizer) == 0.0
    # the same bracket and geometry as the problem given b, measured from E(xbar) = 0
    solved = gm.LeastSquares(A, A @ xbar)
    assert E.known_params == solved.known_params
    assert (E.level_set_diameter is None) == (shape[0] < shape[1])


class ExactResidual(gm.LeastSquares):
    """Least squares whose E sums each residual row exactly (``math.fsum``)."""

    def value(self, x):
        r = [math.fsum([*(a * xi for a, xi in zip(row, x)), -bi])
             for row, bi in zip(self.A, self.b)]
        return math.fsum(ri * ri for ri in r)


def test_planted_refuses_a_minimizer_that_does_not_solve_exactly():
    # b = fl(1 + 2^-60) = 1, so the exact residual at xbar is 2^-60, not 0
    A, xbar = [[1.0, 1.0]], [1.0, 2.0 ** -60]
    assert gm.LeastSquares.planted(A, xbar).value(xbar) == 0.0
    with pytest.raises(ValueError, match=r"^planted minimizer does not solve A x = b "
                                         r"exactly: E = 7\.52e-37$"):
        ExactResidual.planted(A, xbar)
    with pytest.raises(ValueError, match="dimension mismatch: expected 2, got 3"):
        gm.LeastSquares.planted(A, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        gm.LeastSquares.planted(A, [1.0, np.nan])
    with pytest.raises(ValueError, match="matrix must be 2-D"):
        gm.LeastSquares.planted([1.0, 1.0], [1.0])


def test_power_sum_validation():
    with pytest.raises(ValueError, match="exponent"):
        gm.PowerSum([1.0], 1.5, [1.0])
    with pytest.raises(ValueError, match="weights"):
        gm.PowerSum([1.0], 2.0, [0.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match=r"E\(0\) = .* overflows: inf"):
            gm.PowerSum([1e90, 2.0], 4.0, [1.0, 1.0])


def test_estimate_constants_unit_quadratic():
    E = gm.DiagonalQuadratic(np.array([3.0, 0.0, 1.0]), np.ones(3))
    a_hat, b_hat = estimate_condition_constants(E, 2.0, 2.0, 4.0, 50, seed=11)
    assert abs(a_hat - 0.5) <= 1e-9
    assert abs(b_hat - 0.5) <= 1e-9


def test_estimate_constants_eigenvalue_extremes():
    E = gm.DiagonalQuadratic(np.array([1.0, 1.0]), np.array([1.0, 4.0]))
    small = estimate_condition_constants(E, 2.0, 2.0, 3.0, 50, seed=12)
    large = estimate_condition_constants(E, 2.0, 2.0, 3.0, 2000, seed=12)
    assert small[0] <= 2.0 + 1e-12 and small[1] >= 0.5 - 1e-12
    # same seed: the first draws coincide, so more samples only tighten
    assert large[0] >= small[0] and large[1] <= small[1]
    assert large[0] > 1.9 and large[1] < 0.55


def test_estimate_constants_power_sum_regression():
    E = gm.PowerSum(np.array([0.5, -0.25, 0.1]), 4.0, np.ones(3))
    a_hat, b_hat = estimate_condition_constants(E, 2.0, 4.0, 1.0, 1000, seed=13)
    assert b_hat > 0 and np.isfinite(a_hat)
    # frozen regression values for the seeded sweep
    assert np.isclose(a_hat, 15.423415935847702, rtol=1e-9)
    assert np.isclose(b_hat, 0.21603866777438568, rtol=1e-9)


def test_estimate_constants_sandwich():
    rng = np.random.default_rng(14)
    E = gm.DiagonalQuadratic(rng.standard_normal(4), rng.uniform(0.5, 2.0, 4))
    a_hat, b_hat = estimate_condition_constants(E, 2.0, 2.0, 2.0, 500, seed=15)
    # re-draw the same pairs and confirm both constants sandwich every gap
    probe = np.random.default_rng(15)
    for i in range(500):
        x = gm.uniform_ball(probe, 4, 2.0)
        if i % 4 == 3:
            d = np.zeros(4)
            d[(i // 4) % 4] = probe.choice((-1.0, 1.0))
        else:
            d = probe.standard_normal(4)
            d /= np.linalg.norm(d)
        u = 2.0 * probe.uniform()
        if u < 1e-12:
            continue
        gap = bregman_gap(E, x, x + u * d)
        assert b_hat * u ** 2 - 1e-9 <= gap <= a_hat * u ** 2 + 1e-9


def test_estimate_constants_argument_validation():
    E = gm.DiagonalQuadratic([1.0], [1.0])
    with pytest.raises(ValueError):
        estimate_condition_constants(E, 2.5, 2.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_condition_constants(E, 2.0, 1.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_condition_constants(E, 2.0, 2.0, 1.0, 0, seed=0)
    with pytest.raises(ValueError, match=r"pair_radius \*\* p overflows: 100 \*\* 200"):
        estimate_condition_constants(E, 2.0, 200.0, 1.0, 10, seed=0, pair_radius=100.0)


def test_estimate_constants_names_an_overflowing_gap():
    # E(0) = 34^200 is finite, E at 38 is not
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        E = gm.PowerSum([34.0], 200.0, [1.0])
        with pytest.raises(ValueError, match="a sampled gap is .*: E overflows within 4 of"):
            estimate_condition_constants(E, 2.0, 200.0, 2.0, 50, seed=0, pair_radius=2.0)


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0])
def test_estimate_constants_names_bad_omega_radius(radius):
    E = gm.DiagonalQuadratic([1.0, 1.0], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega_radius must be positive and finite"):
            estimate_condition_constants(E, 2.0, 2.0, radius, 10, seed=0)


@pytest.mark.parametrize("radius", [np.inf, np.nan, -1.0])
def test_estimate_constants_names_bad_pair_radius(radius):
    E = gm.DiagonalQuadratic([1.0, 1.0], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pair_radius must be positive and finite"):
            estimate_condition_constants(E, 2.0, 2.0, 1.0, 10, seed=0, pair_radius=radius)


def test_estimate_constants_all_pairs_degenerate():
    E = gm.DiagonalQuadratic([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="degenerate"):
        estimate_condition_constants(E, 2.0, 2.0, 1.0, 20, seed=0,
                                     pair_radius=1e-15)


def test_least_squares_flags_ambiguous_restricted_minimizer():
    # duplicated column: the restricted system over both copies is singular
    col = np.array([1.0, 2.0, 3.0])
    A = np.column_stack([col, col, np.array([0.0, 1.0, 0.0])])
    E = gm.LeastSquares(A, np.array([1.0, 0.0, 1.0]))
    basis = np.eye(3)[:, :2]
    with pytest.warns(RuntimeWarning, match="not unique"):
        E.argmin_in_span(_image(E, basis), _fresh_factor(E, 2))


def test_level_set_geometry_bounds():
    rng = np.random.default_rng(16)
    for E in _library(seed=17):
        if E.known_minimizer is None or E.level_set_diameter is None:
            continue
        r = E.level_set_diameter / 2.0
        e0 = E.value(np.zeros(E.dimension))
        m0 = E.gradient_sup_bound
        for _ in range(200):
            x = gm.uniform_ball(rng, E.dimension, 3.0)
            if E.value(x) <= e0:
                assert gm.norm(x - E.known_minimizer) <= r + 1e-9
                assert gm.norm(E.gradient(x)) <= m0 + 1e-9


def test_monte_carlo_diameter_vs_closed_form():
    rng = np.random.default_rng(18)
    E = gm.DiagonalQuadratic(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
    est = gm.estimate_level_set_diameter(E, seed=19)
    exact = E.level_set_diameter
    # inflated outer estimate: above the true reach along sampled rays,
    # below the closed-form bound times the inflation
    assert est <= 1.1 * exact * (1 + 1e-9)
    assert est >= 0.5 * exact


def test_monte_carlo_gradient_bound():
    rng = np.random.default_rng(20)
    E = gm.DiagonalQuadratic(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
    r = gm.norm(E.known_minimizer) + E.level_set_diameter / 2.0
    est = gm.estimate_gradient_bound(E, r, 500, seed=21)
    for _ in range(200):
        x = gm.uniform_ball(rng, 5, r)
        if E.value(x) <= E.value(np.zeros(5)):
            assert gm.norm(E.gradient(x)) <= est * 1.05


# -- stacks of points -----------------------------------------------------------

STACK_KINDS = ["quadratic", "least_squares", "powersum4", "powersum2"]


@pytest.mark.parametrize("n", [8, 200])
@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_stack_rows_bit_identical_to_points(kind, m, n):
    E = stack_library(n)[kind]
    rng = np.random.default_rng(m * n)
    X = 3.0 * rng.standard_normal((m, n))
    values = E.value(X)
    assert isinstance(values, np.ndarray) and values.shape == (m,)
    assert np.array_equal(values, [E.value(row) for row in X])
    grads = E.gradient(X)
    assert grads.shape == (m, n)
    assert np.array_equal(grads, np.stack([E.gradient(row) for row in X]))
    assert type(E.value(X[0])) is float
    assert E.gradient(X[0]).shape == (n,)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
def test_powersum_kernels_keep_input_and_formula_bits(p):
    # the kernels work in place on x - c: the input, which as_points passes
    # through uncopied, stays as it was, and the bits are the formulas'
    rng = np.random.default_rng(int(p))
    c, w = rng.standard_normal(9), rng.uniform(0.5, 2.0, 9)
    E = gm.PowerSum(c, p, w)
    X = 3.0 * rng.standard_normal((5, 9))
    X[:, 4] = c[4]                       # d = 0 exactly in one coordinate
    kept = X.copy()
    D = X - c
    assert as_points(X) is X
    values, grads = E.value(X), E.gradient(X)
    assert values.tobytes() == np.vecdot((D * D) ** (p / 2.0), w).tobytes()
    assert grads.tobytes() == (np.abs(D) ** (p - 2.0) * (p * w) * D).tobytes()
    assert np.array_equal(values, [E.value(row) for row in X])
    assert np.array_equal(grads, np.stack([E.gradient(row) for row in X]))
    for row, d in zip(X, D):
        assert as_points(row) is row
        hess = E.hessian_diag(row)
        assert hess.tobytes() == (p * (p - 1.0) * w * np.abs(d) ** (p - 2.0)).tobytes()
    assert X.tobytes() == kept.tobytes()


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_powersum_kernels_match_exact_arithmetic(p):
    # against 60-digit decimal arithmetic on |d| from 1e-150 to 1e30 and
    # d = 0, with c = 0 so that d = x exactly: E within 2 n eps relative
    # (at most n eps from the sum of nonnegative terms, p/2 + 2 eps per
    # term), E' and the Hessian within 8 eps per entry, plus a few
    # subnormal units times p max(w) where an exact entry underflows
    n, eps, sub = 64, np.finfo(np.float64).eps, Decimal(2) ** -1074
    rng = np.random.default_rng(int(4 * p))
    w = rng.uniform(0.5, 2.0, n)
    X = 10.0 ** rng.uniform(-150.0, 30.0, (3, n)) * rng.choice((-1.0, 1.0), (3, n))
    X[:, 0], X[0, 1], X[1, 2] = 0.0, 1e-150, 1e30
    E = gm.PowerSum(np.zeros(n), p, w)
    values, grads = E.value(X), E.gradient(X)
    floor = 8 * Decimal(p * w.max()) * sub
    P = Decimal(p)
    with localcontext(prec=60):
        for x, value, grad in zip(X, values, grads):
            hess = E.hessian_diag(x)
            a = [abs(Decimal(v)) for v in x]
            exact = sum(Decimal(wi) * ai ** P for wi, ai in zip(w, a))
            assert abs(Decimal(value) - exact) <= 2 * n * Decimal(eps) * exact
            for wi, xi, ai, g, h in zip(w, x, a, grad, hess):
                power = ai ** (P - 2) if p != 2.0 else Decimal(1)  # 0^0 = 1
                want = (P * Decimal(wi) * power * Decimal(xi),
                        P * (P - 1) * Decimal(wi) * power)
                for got, exact_entry in zip((g, h), want):
                    err = abs(Decimal(got) - exact_entry)
                    assert err <= 8 * Decimal(eps) * abs(exact_entry) + floor


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_gap_stack_bit_identical_to_pairs(kind, m):
    E = stack_library(9, seed=1)[kind]
    rng = np.random.default_rng(m)
    X, XP = rng.standard_normal((2, m, 9))
    gaps = bregman_gap(E, X, XP)
    assert gaps.shape == (m,)
    assert np.array_equal(gaps, [bregman_gap(E, x, xp) for x, xp in zip(X, XP)])
    assert type(bregman_gap(E, X[0], XP[0])) is float


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_stack_validation(kind):
    E = stack_library(5, seed=2)[kind]
    X = np.ones((3, 5))
    X[1, 2] = np.nan
    for method in (E.value, E.gradient):
        with pytest.raises(ValueError, match="non-finite"):
            method(X)
        with pytest.raises(ValueError, match="or a stack"):
            method(np.ones((2, 3, 5)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            method(np.ones((3, 6)))


def _constants_oracle(objective, q, p, omega_radius, sample_count, seed, pair_radius):
    """The per-pair loop of estimate_condition_constants, one point per call.

    Returns the constants and the indices of the draws it skipped.
    """
    rng = np.random.default_rng(seed)
    n = objective.dimension
    alpha_hat = -np.inf
    beta_hat = np.inf
    skipped = []
    for i in range(sample_count):
        x = gm.uniform_ball(rng, n, omega_radius)
        if i % 4 == 3:
            direction = np.zeros(n)
            direction[(i // 4) % n] = rng.choice((-1.0, 1.0))
        else:
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
        u = pair_radius * rng.uniform()
        if u < 1e-12:
            skipped.append(i)
            continue
        gap = bregman_gap(objective, x, x + u * direction)
        alpha_hat = max(alpha_hat, gap / u ** q)
        beta_hat = min(beta_hat, gap / u ** p)
    return (float(alpha_hat), float(beta_hat)), skipped


GAP_KINDS = [("quadratic", 2.0), ("least_squares", 2.0), ("powersum4", 4.0)]


@pytest.mark.parametrize("pair_radius", [1.5, 2e-11])
@pytest.mark.parametrize("kind,p", GAP_KINDS)
def test_estimate_constants_matches_pairwise_oracle(kind, p, pair_radius):
    E = stack_library(6, seed=3)[kind]
    counted = CountingObjective(E)
    got = estimate_condition_constants(counted, 2.0, p, 2.0, 37, seed=22,
                                       pair_radius=pair_radius)
    expected, skipped = _constants_oracle(E, 2.0, p, 2.0, 37, 22, pair_radius)
    assert got == expected
    assert (2 in skipped) == (pair_radius < 1e-10)
    # the 37 draws fit in one chunk: one stacked bregman_gap, which takes the
    # value at x' and at x and the gradient at x
    assert counted.value_calls == 2 and counted.gradient_calls == 1


@pytest.mark.parametrize("pair_radius", [1.5, 1.5e-11])
@pytest.mark.parametrize("kind,p", GAP_KINDS)
def test_estimate_constants_chunks_match_pairwise_oracle(kind, p, pair_radius):
    # two whole chunks and a partial one; at seed 20 the small radius skips
    # the last draw of the first chunk and the first draw of the second
    count = 2 * GAP_CHUNK + 5
    E = stack_library(6, seed=3)[kind]
    counted = CountingObjective(E)
    got = estimate_condition_constants(counted, 2.0, p, 2.0, count, seed=20,
                                       pair_radius=pair_radius)
    expected, skipped = _constants_oracle(E, 2.0, p, 2.0, count, 20, pair_radius)
    assert got == expected
    assert ({GAP_CHUNK - 1, GAP_CHUNK} <= set(skipped)) == (pair_radius < 1e-10)
    assert counted.value_calls == 2 * 3 and counted.gradient_calls == 3
    assert counted.max_rows <= GAP_CHUNK


# -- exact restricted solves through the least-squares form --------------------

LSQ_FORMS = ("quadratic", "least_squares", "powersum2")


def _bases(n: int, k: int) -> dict[str, np.ndarray]:
    """k canonical columns out of order and k columns of a rotated basis."""
    cols = [5, 1, 6, 3, 0, 7, 2, 4][:k]
    return {"canonical": gm.CanonicalBasis(n).subset(cols),
            "rotated": gm.RotatedBasis(n, seed=9).subset(cols)}


def _fresh_factor(E, k):
    """An empty factor of E's least-squares form with room for k columns."""
    return SpanFactor(gm.CanonicalBasis(E.dimension), E.least_squares_form(), capacity=k)


def _image(E, basis):
    """S B for E's least-squares form: what a step hands the factor."""
    return E.least_squares_form().apply(basis)


def _identity_form(y):
    """The form of ||x - y||^2: S = S^T = I, so a block is its own image."""
    def identity(a):
        return a

    return LeastSquaresForm(identity, unit_columns(identity, y.shape[0]), identity, y, 1.0)


def _lstsq(E, basis):
    form = E.least_squares_form()
    return np.linalg.lstsq(form.apply(basis), form.rhs, rcond=None)[0]


@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_least_squares_form_matches_objective(kind):
    # E(x) = c ||S x - y||^2 with the form's own c, not just up to a factor,
    # and S^T is the adjoint of S: the factor reads E and E' off them
    E = stack_library(8, seed=4)[kind]
    form = E.least_squares_form()
    S, St, y, c = form.apply, form.adjoint, form.rhs, form.scale
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((4, 8)):
        r = S(x[:, None])[:, 0] - y
        assert abs(E.value(x) - c * float(r @ r)) <= 1e-12 * E.value(x)
        v = rng.standard_normal(y.shape[0])
        Sx, Stv = S(x[:, None])[:, 0], St(v)
        assert Stv.shape == (8,)
        assert abs(Sx @ v - x @ Stv) <= 1e-12 * gm.norm(Sx) * gm.norm(v)


def test_no_least_squares_form_without_quadratic_structure():
    E = stack_library(8)["powersum4"]
    assert E.least_squares_form() is None


@pytest.mark.parametrize("kind", [*LSQ_FORMS, "least_squares_wide"])
def test_every_shipped_form_is_one_record(kind):
    # the factor keeps the form whole, so each shipped form is the record itself
    lib = stack_library(8, seed=4)
    A = np.random.default_rng(7).standard_normal((5, 8))
    E = gm.LeastSquares(A, A[:, 0]) if kind == "least_squares_wide" else lib[kind]
    form = E.least_squares_form()
    assert isinstance(form, LeastSquaresForm)
    assert LeastSquaresForm._fields == ("apply", "columns", "adjoint", "rhs", "scale", "gram")
    # only a tall A carries a Gram: the G = A^T A it forms in __init__, the
    # same array on every call rather than a copy
    if kind == "least_squares":
        assert np.array_equal(form.gram, E.A.T @ E.A)
        assert E.least_squares_form().gram is form.gram
    else:
        assert form.gram is None


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
@pytest.mark.parametrize("k", [1, 5, 8])
@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_argmin_in_span_matches_lstsq(kind, k, basis_kind):
    E = stack_library(8, seed=6)[kind]
    basis = _bases(8, k)[basis_kind]
    z = E.argmin_in_span(_image(E, basis), _fresh_factor(E, k))
    ref = _lstsq(E, basis)
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
    # and it is E's own restricted minimizer: the restricted gradient vanishes
    g = basis.T @ E.gradient(basis @ z)
    assert np.max(np.abs(g)) <= 1e-10 * (1.0 + np.max(np.abs(E.gradient(np.zeros(8)))))


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_grown_factor_matches_fresh_factor(kind, basis_kind):
    E = stack_library(8, seed=7)[kind]
    basis = _bases(8, 8)[basis_kind]
    grown = _fresh_factor(E, 8)
    # argmin_in_span appends the columns it is given
    for j in range(1, 9):
        z = E.argmin_in_span(_image(E, basis[:, j - 1:j]), grown)
        assert grown.size == j and z.shape == (j,)
        ref = _lstsq(E, basis[:, :j])
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
    fresh = E.argmin_in_span(_image(E, basis), _fresh_factor(E, 8))
    assert np.linalg.norm(z - fresh) <= 1e-12 * np.linalg.norm(fresh)


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_duplicated_column_warns_and_still_minimizes(kind, basis_kind):
    E = stack_library(8, seed=8)[kind]
    basis = _bases(8, 4)[basis_kind]
    basis = np.column_stack([basis[:, :3], basis[:, 1], basis[:, 3]])
    with pytest.warns(RuntimeWarning, match="not unique"):
        z = E.argmin_in_span(_image(E, basis), _fresh_factor(E, 5))
    assert z[3] == 0.0
    best = E.value(basis @ _lstsq(E, basis))
    assert abs(E.value(basis @ z) - best) <= 1e-12 * (1.0 + abs(best))


def test_span_factor_reorthogonalizes_an_ill_conditioned_block():
    # monomials t^0..t^7 on [0, 1], cond about 1.1e5: one Gram-Schmidt pass
    # loses orthogonality near eps * cond^2, the selective second pass keeps it
    t = np.linspace(0.0, 1.0, 60)
    block = t[:, None] ** np.arange(8)
    y = np.cos(3.0 * t)
    factor = SpanFactor(gm.CanonicalBasis(60), _identity_form(y), capacity=8)
    for j in range(8):
        factor.extend(block[:, j:j + 1])
    q = factor._qt[:8]
    assert np.max(np.abs(q @ q.T - np.eye(8))) <= 1e-13
    ref = np.linalg.lstsq(block, y, rcond=None)[0]
    assert np.linalg.norm(factor.coefficients() - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_factor_value_and_gradient_match_the_objective(kind, basis_kind):
    # the carried residual gives E and E' at the span minimizer x = B z
    E = stack_library(8, seed=10)[kind]
    basis = _bases(8, 5)[basis_kind]
    factor = _fresh_factor(E, 5)
    assert factor.value() == pytest.approx(E.value(np.zeros(8)), rel=1e-12)
    for j in range(5):
        z = E.argmin_in_span(_image(E, basis[:, j:j + 1]), factor)
        x = basis[:, :j + 1] @ z
        assert factor.value() == pytest.approx(E.value(x), rel=1e-10)
        g = E.gradient(x)
        assert gm.norm(factor.gradient() - g) <= 1e-12 * gm.norm(E.gradient(np.zeros(8)))


@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_factor_shares_its_coefficients(kind):
    # z is solved once per extend: argmin_in_span hands out the factor's own
    # array, which the Gram route reads too, so it is read-only
    E = stack_library(8, seed=10)[kind]
    factor = _fresh_factor(E, 3)
    z = E.argmin_in_span(_image(E, _bases(8, 3)["rotated"]), factor)
    assert z is factor.coefficients() and not z.flags.writeable


@pytest.mark.parametrize("kind", ["quadratic", "powersum2", "least_squares",
                                  "least_squares_wide"])
def test_composed_factor_gradient_is_the_analysis_of_the_ambient_one(kind):
    # a factor of D.compose(form) gives (-2c) (D^T S^T r), one of the form
    # itself D^T((-2c) S^T r): equal bit for bit because every shipped c is
    # 1/2 or 1, so -2c is a power of two and scaling commutes with D^T exactly
    n = 8
    lib = stack_library(n, seed=12)
    A = np.random.default_rng(13).standard_normal((5, n))
    E = gm.LeastSquares(A, A @ np.arange(n)) if kind == "least_squares_wide" else lib[kind]
    D = gm.RotatedBasis(n, seed=14)
    form = E.least_squares_form()
    assert -2.0 * form.scale in (-1.0, -2.0)
    atoms = [5, 1, 6, 3, 0, 7, 2, 4][:min(n, form.rhs.shape[0])]
    composed = SpanFactor(D, form, capacity=len(atoms))
    ambient = SpanFactor(gm.CanonicalBasis(n), form, capacity=len(atoms))
    for j in atoms:
        z = E.argmin_in_span(composed.form.columns([j]), composed)
        assert np.array_equal(z, E.argmin_in_span(form.apply(D.subset([j])), ambient))
        assert composed.value() == ambient.value()
        assert np.array_equal(composed.gradient(), D.analyze(ambient.gradient()))


def _overlapping_atoms(n: int) -> np.ndarray:
    """e3 and e1, out of order, then (e1 + e3 + e5)/sqrt(3), which overlaps both, then e6."""
    atoms = np.zeros((n, 4))
    atoms[[3, 1, 6], [0, 1, 3]] = 1.0
    atoms[[1, 3, 5], 2] = 1.0 / np.sqrt(3.0)
    return atoms


@pytest.mark.parametrize("kind", ["quadratic", "powersum2"])
def test_disjoint_column_skips_the_projection_bit_for_bit(kind):
    # a diagonal S on canonical columns: each new column misses every row
    # the stored ones touch, so skipping Q^T s = 0 must change no bit; the
    # skipping factor keeps such columns sparse and forms its dense Q only at
    # the first column that overlaps them, which must change no bit either
    E = stack_library(8, seed=11)[kind]
    y = E.least_squares_form().rhs
    for atoms, overlap in ((_bases(8, 8)["canonical"], None), (_overlapping_atoms(8), 2)):
        k = atoms.shape[1]
        skipping, dense = _fresh_factor(E, k), _fresh_factor(E, k)
        dense._rows[:] = True                 # every append takes the projection
        for j in range(k):
            skipping.extend(_image(E, atoms[:, j:j + 1]))
            dense.extend(_image(E, atoms[:, j:j + 1]))
            assert np.array_equal(skipping._rows, np.any(atoms[:, :j + 1] != 0.0, axis=1))
            assert (skipping._qt is None) == (overlap is None or j < overlap)
            assert (skipping._rinv is None) == (skipping._qt is None)
            assert np.array_equal(skipping.coefficients(), dense.coefficients())
            assert skipping.value() == dense.value()
            assert np.array_equal(skipping.gradient(), dense.gradient())
            ref = np.linalg.lstsq(_image(E, atoms[:, :j + 1]), y, rcond=None)[0]
            assert np.linalg.norm(skipping.coefficients() - ref) <= 1e-12 * np.linalg.norm(ref)
        if overlap is not None:
            assert np.array_equal(skipping._qt[:k], dense._qt[:k])


def test_canonical_columns_of_a_diagonal_form_keep_q_sparse():
    # 300 canonical columns of a diagonal S with m = 3000 never need the
    # projection, so the factor forms no dense (300, 3000) Q (7.2 MB) and no
    # dense 300 x 300 R^-1 (0.69 MiB): it holds the columns' nonzeros, r,
    # the row mask and R^-1's diagonal
    n, k = 3000, 300
    rng = np.random.default_rng(5)
    E = gm.DiagonalQuadratic(rng.standard_normal(n), rng.uniform(0.5, 2.0, n))
    form = E.least_squares_form()
    cols = rng.permutation(n)[:k]
    tracemalloc.start()
    try:
        factor = SpanFactor(gm.CanonicalBasis(n), form, capacity=k)
        for j in cols:
            factor.extend(form.columns([j]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * k * 8
    assert factor._qt is None and factor._rinv is None and factor.size == k
    x = np.zeros(n)
    x[cols] = factor.coefficients()
    assert factor.value() == pytest.approx(E.value(x), rel=1e-12)


def test_overlapping_columns_take_the_projection():
    # e0+e1, e1+e2, e3, e0+e3: each shares a row with an earlier column but
    # not always with the last one, so the mask must hold every stored row
    cols = np.zeros((5, 4))
    for j, rows in enumerate(((0, 1), (1, 2), (3,), (0, 3))):
        cols[rows, j] = 1.0
    y = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
    factor = SpanFactor(gm.CanonicalBasis(5), _identity_form(y), capacity=4)
    for j in range(4):
        factor.extend(cols[:, j:j + 1])
    q = factor._qt[:4]
    assert np.max(np.abs(q @ q.T - np.eye(4))) <= 1e-13
    ref = np.linalg.lstsq(cols, y, rcond=None)[0]
    assert np.linalg.norm(factor.coefficients() - ref) <= 1e-12 * np.linalg.norm(ref)
