import numpy as np
import pytest

import greedymin as gm
from greedymin.objectives import SpanFactor, bregman_gap, estimate_condition_constants

from conftest import CountingObjective, check_gradient, stack_library


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
    # a wide A fails the full-rank test on its shape; its singular values go unread
    shapes, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    rng = np.random.default_rng(10)
    wide = gm.LeastSquares(rng.standard_normal((3, 6)), rng.standard_normal(3))
    assert shapes == [] and wide.level_set_diameter() is None
    gm.LeastSquares(rng.standard_normal((6, 3)), rng.standard_normal(6))
    assert shapes == [(6, 3)]


def test_least_squares_from_files(tmp_path):
    A = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    b = np.array([1.0, -1.0, 0.5])
    ma = tmp_path / "a.csv"
    vb = tmp_path / "b.csv"
    np.savetxt(ma, A, delimiter=",")
    np.savetxt(vb, b, delimiter=",")
    E = gm.LeastSquares.from_files(ma, vb)
    assert np.allclose(E.A, A) and np.allclose(E.b, b)


def test_power_sum_validation():
    with pytest.raises(ValueError, match="exponent"):
        gm.PowerSum([1.0], 1.5, [1.0])
    with pytest.raises(ValueError, match="weights"):
        gm.PowerSum([1.0], 2.0, [0.0])


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
        E.argmin_in_span(basis, _fresh_factor(E, 2))


def test_level_set_geometry_bounds():
    rng = np.random.default_rng(16)
    for E in _library(seed=17):
        if E.known_minimizer is None or E.level_set_diameter() is None:
            continue
        r = E.level_set_diameter() / 2.0
        e0 = E.value(np.zeros(E.dimension))
        m0 = E.gradient_sup_bound()
        for _ in range(200):
            x = gm.uniform_ball(rng, E.dimension, 3.0)
            if E.value(x) <= e0:
                assert gm.norm(x - E.known_minimizer) <= r + 1e-9
                assert gm.norm(E.gradient(x)) <= m0 + 1e-9


def test_monte_carlo_diameter_vs_closed_form():
    rng = np.random.default_rng(18)
    E = gm.DiagonalQuadratic(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
    est = gm.estimate_level_set_diameter(E, seed=19)
    exact = E.level_set_diameter()
    # inflated outer estimate: above the true reach along sampled rays,
    # below the closed-form bound times the inflation
    assert est <= 1.1 * exact * (1 + 1e-9)
    assert est >= 0.5 * exact


def test_monte_carlo_gradient_bound():
    rng = np.random.default_rng(20)
    E = gm.DiagonalQuadratic(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
    r = gm.norm(E.known_minimizer) + E.level_set_diameter() / 2.0
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
    """The per-pair loop of estimate_condition_constants, one point per call."""
    rng = np.random.default_rng(seed)
    n = objective.dimension
    alpha_hat = -np.inf
    beta_hat = np.inf
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
            continue
        gap = bregman_gap(objective, x, x + u * direction)
        alpha_hat = max(alpha_hat, gap / u ** q)
        beta_hat = min(beta_hat, gap / u ** p)
    return float(alpha_hat), float(beta_hat)


@pytest.mark.parametrize("pair_radius", [1.5, 2e-11])
@pytest.mark.parametrize("kind,p", [("quadratic", 2.0), ("least_squares", 2.0),
                                    ("powersum4", 4.0)])
def test_estimate_constants_matches_pairwise_oracle(kind, p, pair_radius):
    E = stack_library(6, seed=3)[kind]
    counted = CountingObjective(E)
    got = estimate_condition_constants(counted, 2.0, p, 2.0, 37, seed=22,
                                       pair_radius=pair_radius)
    assert got == _constants_oracle(E, 2.0, p, 2.0, 37, 22, pair_radius)
    # one stacked bregman_gap per group of four draws (value at x' and x, gradient
    # at x); with the small pair radius draw 2 is skipped, but no whole group
    groups = -(-37 // 4)
    assert counted.value_calls == 2 * groups and counted.gradient_calls == groups


# -- exact restricted solves through the least-squares form --------------------

LSQ_FORMS = ("quadratic", "least_squares", "powersum2")


def _bases(n: int, k: int) -> dict[str, np.ndarray]:
    """k canonical columns out of order and k columns of a rotated basis."""
    cols = [5, 1, 6, 3, 0, 7, 2, 4][:k]
    return {"canonical": gm.CanonicalBasis(n).subset(cols),
            "rotated": gm.RotatedBasis(n, seed=9).subset(cols)}


def _fresh_factor(E, k):
    """An empty factor of E's least-squares form with room for k columns."""
    return SpanFactor(*E.least_squares_form(), capacity=k)


def _lstsq(E, basis):
    S, y = E.least_squares_form()
    return np.linalg.lstsq(S(basis), y, rcond=None)[0]


@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_least_squares_form_matches_objective(kind):
    # E(x) - E(x0) = c * (f(x) - f(x0)) with one c > 0, f(x) = ||S x - y||^2
    E = stack_library(8, seed=4)[kind]
    S, y = E.least_squares_form()
    rng = np.random.default_rng(5)
    x0, *xs = rng.standard_normal((5, 8))
    f = lambda x: float(np.sum((S(x[:, None])[:, 0] - y) ** 2))  # noqa: E731
    ratios = [(E.value(x) - E.value(x0)) / (f(x) - f(x0)) for x in xs]
    assert ratios[0] > 0
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_no_least_squares_form_without_quadratic_structure():
    E = stack_library(8)["powersum4"]
    assert E.least_squares_form() is None


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
@pytest.mark.parametrize("k", [1, 5, 8])
@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_argmin_in_span_matches_lstsq(kind, k, basis_kind):
    E = stack_library(8, seed=6)[kind]
    basis = _bases(8, k)[basis_kind]
    z = E.argmin_in_span(basis, _fresh_factor(E, k))
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
        z = E.argmin_in_span(basis[:, j - 1:j], grown)
        assert grown.size == j and z.shape == (j,)
        ref = _lstsq(E, basis[:, :j])
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
    fresh = E.argmin_in_span(basis, _fresh_factor(E, 8))
    assert np.linalg.norm(z - fresh) <= 1e-12 * np.linalg.norm(fresh)


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
@pytest.mark.parametrize("kind", LSQ_FORMS)
def test_duplicated_column_warns_and_still_minimizes(kind, basis_kind):
    E = stack_library(8, seed=8)[kind]
    basis = _bases(8, 4)[basis_kind]
    basis = np.column_stack([basis[:, :3], basis[:, 1], basis[:, 3]])
    with pytest.warns(RuntimeWarning, match="not unique"):
        z = E.argmin_in_span(basis, _fresh_factor(E, 5))
    assert z[3] == 0.0
    best = E.value(basis @ _lstsq(E, basis))
    assert abs(E.value(basis @ z) - best) <= 1e-12 * (1.0 + abs(best))


def test_span_factor_reorthogonalizes_an_ill_conditioned_block():
    # monomials t^0..t^7 on [0, 1], cond about 1.1e5: one Gram-Schmidt pass
    # loses orthogonality near eps * cond^2, the selective second pass keeps it
    t = np.linspace(0.0, 1.0, 60)
    block = t[:, None] ** np.arange(8)
    y = np.cos(3.0 * t)
    factor = SpanFactor(lambda cols: cols, y, capacity=8)
    for j in range(8):
        factor.extend(block[:, j:j + 1])
    q = factor._qt[:8]
    assert np.max(np.abs(q @ q.T - np.eye(8))) <= 1e-13
    ref = np.linalg.lstsq(block, y, rcond=None)[0]
    assert np.linalg.norm(factor.coefficients() - ref) <= 1e-10 * np.linalg.norm(ref)
