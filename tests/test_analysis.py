import itertools
import warnings

import numpy as np
import pytest

import greedymin as gm
from greedymin import harness
from greedymin.analysis import (MODULI_BLOCK, Check, SequenceBoundInput, check_error_recursion,
                                check_moduli_equivalence, decrement_gain,
                                distance_bound, error_bound, estimate_moduli,
                                fit_rate, rate_constants, recursive_sequence_bound,
                                verify_trace)
from greedymin.cli import main
from greedymin.config import DEFAULT_U_GRID
from greedymin.objectives import Objective

from conftest import (CountingObjective, make_rotated_powersum, make_sparse_quadratic,
                      powersum_constants, stack_library, synth_trace)


class ConstantObjective(Objective):
    def __init__(self, dimension):
        super().__init__(dimension)

    def value(self, x):
        ones = np.ones(np.shape(x)[:-1])
        return float(ones) if ones.ndim == 0 else ones

    def gradient(self, x):
        return np.zeros(self.dimension)


class ConcaveObjective(Objective):
    """E = -||x||^2, so rho1(u) = rho(u) = -u^2 and both comparisons fail.

    The minimizer and diameter are stand-ins that give ``moduli`` a ball to
    sample.
    """

    def __init__(self, dimension):
        super().__init__(dimension)
        self.known_minimizer = np.ones(dimension)
        self.level_set_diameter = 1.0

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return -np.sum(x * x, axis=-1) if x.ndim == 2 else -float(x @ x)

    def gradient(self, x):
        return -2.0 * np.asarray(x, dtype=np.float64)


HALVING_GRID = [1.0 / 2 ** i for i in reversed(range(6))]


# -- moduli -------------------------------------------------------------------


def test_moduli_unit_quadratic_exact():
    E = gm.DiagonalQuadratic([3.0, 0.0, 1.0], np.ones(3))
    est = estimate_moduli(E, 2.0, HALVING_GRID, 30, 5, seed=0)
    for i, u in enumerate(est.u_grid):
        assert abs(est.rho[i] - u * u / 2) <= 1e-10
        assert abs(est.rho1[i] - u * u / 2) <= 1e-10
        assert abs(est.delta1[i] - u * u / 2) <= 1e-10


def test_moduli_nonnegative_and_ordered():
    E, _, _ = make_rotated_powersum(seed=2)
    est = estimate_moduli(E, 2.0, HALVING_GRID, 40, 5, seed=1)
    assert np.all(est.delta1 >= -1e-9)
    assert np.all(est.delta1 <= est.rho1 + 1e-9)
    # power type: rho(u)/u nondecreasing in u
    ratio = est.rho / est.u_grid
    assert np.all(np.diff(ratio) >= -1e-12)


def test_moduli_power_sum_regression():
    E = gm.PowerSum(np.array([0.5, -0.25, 0.1]), 4.0, np.ones(3))
    est = estimate_moduli(E, 1.0, HALVING_GRID, 60, 5, seed=2)
    lower = np.min(est.delta1 / est.u_grid ** 4)
    assert lower > 0
    assert np.isclose(lower, PS_DELTA1_LOWER, rtol=1e-9)


def test_moduli_condition_consistency_known_alpha():
    rng = np.random.default_rng(3)
    for E in (gm.DiagonalQuadratic(rng.standard_normal(4), rng.uniform(0.5, 2, 4)),
              gm.LeastSquares(rng.standard_normal((7, 4)), rng.standard_normal(7))):
        alpha = E.known_params.alpha
        est = estimate_moduli(E, 2.0, HALVING_GRID, 50, 5, seed=4)
        assert np.all(est.rho <= alpha * est.u_grid ** 2 + 1e-9)


def test_moduli_condition2_consistency():
    rng = np.random.default_rng(5)
    E = gm.DiagonalQuadratic(rng.standard_normal(4), rng.uniform(0.5, 2, 4))
    _, b_hat = gm.estimate_condition_constants(E, 2.0, 2.0, 2.0, 2000, seed=6)
    est = estimate_moduli(E, 2.0, HALVING_GRID, 50, 5, seed=7)
    # exponent 2: the classical lambda factor 2^(2-p) is 1
    assert np.all(est.delta1 >= b_hat * est.u_grid ** 2 - 1e-9)


def test_equivalence_quadratic_tight():
    E = gm.DiagonalQuadratic([1.0, -2.0], np.ones(2))
    est = estimate_moduli(E, 1.5, HALVING_GRID, 20, 5, seed=8)
    right, left = check_moduli_equivalence(est)
    assert right.violations == 0 and left.violations == 0
    assert left.ks == tuple(range(1, len(HALVING_GRID)))
    # left side is an equality for the pure quadratic: 4*(u/2)^2/2 == u^2/2
    for i in left.ks:
        u = est.u_grid[i]
        assert abs(4 * (u / 2) ** 2 / 2 - est.rho1[i]) <= 1e-10


def test_equivalence_least_squares():
    rng = np.random.default_rng(9)
    E = gm.LeastSquares(rng.standard_normal((8, 5)), rng.standard_normal(8))
    est = estimate_moduli(E, 2.0, HALVING_GRID, 60, 7, seed=10)
    assert not any(check.violations for check in check_moduli_equivalence(est))


def _moduli_oracle(objective, s_radius, u_grid, sample_count, lambda_grid_size, seed):
    """The per-point loops of estimate_moduli, one value call per point."""
    u = np.asarray(sorted(float(v) for v in u_grid), dtype=np.float64)
    lambdas = sorted({i / (lambda_grid_size + 1.0)
                      for i in range(1, lambda_grid_size + 1)} | {0.5})
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(sample_count):
        x = gm.uniform_ball(rng, objective.dimension, s_radius)
        y = rng.standard_normal(objective.dimension)
        y /= np.linalg.norm(y)
        samples.append((x, y, objective.value(x)))
    rho = np.empty_like(u)
    rho1 = np.empty_like(u)
    delta1 = np.empty_like(u)
    for i, ui in enumerate(u):
        second_best = -np.inf
        hi = -np.inf
        lo = np.inf
        for x, y, ex in samples:
            second = 0.5 * (objective.value(x + ui * y)
                            + objective.value(x - ui * y) - 2.0 * ex)
            second_best = max(second_best, second)
            for lam in lambdas:
                a = objective.value(x - lam * ui * y)
                b = objective.value(x + (1.0 - lam) * ui * y)
                q = ((1.0 - lam) * a + lam * b - ex) / (lam * (1.0 - lam))
                hi = max(hi, q)
                lo = min(lo, q)
        rho[i] = second_best
        rho1[i] = hi
        delta1[i] = lo
    return rho, rho1, delta1


# (grid, lambda grid size, rows per value call): the distinct stencil offsets
# plus x itself.  The default halving grid shares 72 of its 200 offsets, the
# second grid 6 of 48 through its pair 0.05, 0.1, and the third none.
MODULI_GRIDS = [(list(DEFAULT_U_GRID), 9, 128 + 1),
                ([0.05, 0.1, 0.3, 1.0], 4, 42 + 1),
                ([0.3, 0.7, 0.45], 4, 3 * (2 + 2 * 5) + 1)]


# sample counts on both sides of the block the extrema are taken over
MODULI_COUNTS = [1, 12, MODULI_BLOCK - 1, MODULI_BLOCK, MODULI_BLOCK + 1, 2 * MODULI_BLOCK + 5]


@pytest.mark.parametrize("kind", ["quadratic", "least_squares", "powersum4"])
def test_moduli_match_per_point_oracle(kind):
    E = stack_library(6, seed=4)[kind]
    for (grid, lambda_size, rows), count in itertools.product(MODULI_GRIDS, MODULI_COUNTS):
        counted = CountingObjective(E)
        est = estimate_moduli(counted, 1.5, grid, count, lambda_size, seed=23)
        rho, rho1, delta1 = _moduli_oracle(E, 1.5, grid, count, lambda_size, 23)
        assert np.array_equal(est.rho, rho)
        assert np.array_equal(est.rho1, rho1)
        assert np.array_equal(est.delta1, delta1)
        # one value call per sample, on x and its distinct stencil rows
        assert counted.value_calls == count
        assert counted.max_rows == rows


def test_equivalence_constant_objective():
    est = estimate_moduli(ConstantObjective(3), 1.0, HALVING_GRID, 10, 5, seed=11)
    assert np.all(est.rho == 0.0) and np.all(est.rho1 == 0.0) and np.all(est.delta1 == 0.0)
    assert not any(check.violations for check in check_moduli_equivalence(est))


def test_equivalence_concave_objective_fails():
    est = estimate_moduli(ConcaveObjective(3), 1.0, HALVING_GRID, 10, 5, seed=11)
    right, left = check_moduli_equivalence(est)
    assert right.violations == len(HALVING_GRID)
    assert left.violations == len(HALVING_GRID) - 1


def test_check_fails_a_nan_margin():
    check = Check("c", (1, 2, 3), (0.0, np.nan, 2.0), (1.0, 1.0, 1.0))
    assert check.failing == [2, 3] and check.violations == 2


def test_moduli_names_a_non_finite_sampled_value():
    # E(0) = 34^200 is finite, but E overflows on most of the ball of radius 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        E = gm.PowerSum([34.0], 200.0, [1.0])
        with pytest.raises(ValueError, match="a sampled E is inf: E overflows on the ball "
                                             "of radius 10"):
            estimate_moduli(E, 10.0, HALVING_GRID, 20, 5, seed=0)


def test_moduli_command_reports_a_failing_comparison(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "build_objective",
                        lambda cfg, dictionary: ConcaveObjective(cfg.dimension))
    out = tmp_path / "out"
    cfg = tmp_path / "concave.cfg"
    cfg.write_text(f"name = concave\ndimension = 5\noutput_dir = {out}\n"
                   "objective.type = diagonal_quadratic\nobjective.center_sparsity = 2\n"
                   "analysis.sample_count = 10\n")
    assert main(["--quiet", "moduli", str(cfg)]) == 2
    lines = (out / "concave.moduli.txt").read_text().splitlines()
    assert lines[0] == "STATUS: VIOLATION"
    assert any(line.endswith("  FAIL") for line in lines)


def test_equivalence_requires_halving_pair():
    E = gm.DiagonalQuadratic([1.0], [1.0])
    est = estimate_moduli(E, 1.0, [0.3, 0.5, 0.7], 5, 5, seed=12)
    with pytest.raises(ValueError, match="halving pair"):
        check_moduli_equivalence(est)


def test_moduli_validation():
    E = gm.DiagonalQuadratic([1.0], [1.0])
    with pytest.raises(ValueError):
        estimate_moduli(E, 1.0, [], 5, 5, seed=0)
    with pytest.raises(ValueError):
        estimate_moduli(E, 1.0, [0.5], 0, 5, seed=0)
    with pytest.raises(ValueError):
        estimate_moduli(E, 1.0, [0.5], 5, 1, seed=0)


@pytest.mark.parametrize("grid", [[np.nan, 0.5, 1.0], [0.5, 1.0, np.inf], [0.5, -1.0]])
def test_moduli_names_bad_u_grid(grid):
    E = gm.DiagonalQuadratic([1.0], [1.0])
    with pytest.raises(ValueError, match="u_grid entries must be positive and finite"):
        estimate_moduli(E, 1.0, grid, 5, 5, seed=0)


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0])
def test_moduli_names_bad_s_radius(radius):
    E = gm.DiagonalQuadratic([1.0], [1.0])
    with pytest.raises(ValueError, match="s_radius must be positive and finite"):
        estimate_moduli(E, radius, [0.5, 1.0], 5, 5, seed=0)


# -- constants ------------------------------------------------------------------


def test_decrement_gain_examples():
    # ratio below q: the unconstrained maximum (q-1) q^(-q/(q-1))
    assert decrement_gain(1.0, 2.0, 0.5, 2.0) == 0.25
    assert np.isclose(decrement_gain(1.0, 1.0, 1.0, 1.5), 0.5 * 1.5 ** -3.0, rtol=1e-12)
    # ratio 4 >= q=2: boundary value (ratio-1) * ratio^(-2)
    assert np.isclose(decrement_gain(4.0, 1.0, 1.0, 2.0), 0.1875, rtol=1e-12)


def test_rate_constants_quadratic_example(unit_quadratic4):
    radius = unit_quadratic4.level_set_diameter
    params = gm.CurvatureParams(0.5, 2.0, 0.5, 2.0, radius, 1.0)   # gain ratio 0.32 < 2
    rc = rate_constants(unit_quadratic4, 2, params)
    assert rc.is_exponential and rc.diameter_ratio == 1.0
    assert np.isclose(rc.contraction_gain, 1.0, rtol=1e-12)
    assert np.isclose(rc.contraction_factor, 0.5, rtol=1e-12)
    assert np.isclose(rc.initial_gap, 5.0, rtol=1e-12)
    # contraction_gain/support equals gain/scale by construction
    assert np.isclose(rc.gain / rc.scale, rc.contraction_gain / rc.support_size,
                      rtol=1e-12)


def test_rate_constants_degrade_beta_beyond_the_record_radius(unit_quadratic4):
    # pairs up to L = diameter / radius radii apart: beta * L^(1-p)
    diam = unit_quadratic4.level_set_diameter
    rc = rate_constants(unit_quadratic4, 2, gm.CurvatureParams(0.5, 2.0, 0.5, 2.0, 2.0, 1.0))
    assert np.isclose(diam, 6.32, atol=0.01)
    assert rc.diameter_ratio == diam / 2.0
    assert np.isclose(rc.beta_global, 0.158, atol=1e-3)
    E = gm.DiagonalQuadratic([2.0], [1.0])         # level-set diameter 4
    for beta, p, radius, want in ((0.5, 2.0, 1.0, 0.125), (1.0, 3.0, 2.0, 0.25),
                                  (0.5, 2.0, 8.0, 0.5)):   # radius beyond: L = 1
        rc = rate_constants(E, 1, gm.CurvatureParams(0.5, 2.0, beta, p, radius, 1.0))
        assert rc.diameter_ratio == max(1.0, 4.0 / radius)
        assert rc.beta_global == want


def test_rate_constants_polynomial_fixture():
    E = gm.PowerSum([1.0, 1.0], 4.0, [1.0, 1.0])
    params = gm.CurvatureParams(1.0, 2.0, 1.0, 4.0, 4.0, 1.0)
    rc = rate_constants(E, 1, params)
    # direct substitution as its own oracle
    expected_scale = (4.0 * 1.0 ** 0.25 * 3.0 ** -0.75) ** -2.0
    assert np.isclose(rc.scale, expected_scale, rtol=1e-12)
    assert not rc.is_exponential
    assert rc.poly_scale > 0 and rc.theoretical_slope == -2.0


def test_rate_constants_vacuous():
    E = gm.DiagonalQuadratic([2.0], [1.0])
    radius = E.level_set_diameter
    # beta > alpha overstates the convexity: gain = 2 * scale
    with pytest.raises(ValueError, match=r"bound vacuous: .* not in \[0, 1\)"):
        rate_constants(E, 1, gm.CurvatureParams(0.5, 2, 1.0, 2, radius, 1))
    # alpha = beta on one atom: one step reaches the minimum, gain = scale up to round-off
    rc = rate_constants(E, 1, gm.CurvatureParams(0.5, 2, 0.5, 2, radius, 1))
    assert rc.contraction_factor == 0.0


def test_rate_constants_validation():
    params = gm.CurvatureParams(0.5, 2.0, 0.5, 2.0, 2.0, 1.0)
    origin = gm.DiagonalQuadratic([0.0], [1.0])
    with pytest.raises(ValueError, match="minimized at the origin"):
        rate_constants(origin, 1, params)
    # a planted wide problem: xbar is a minimizer, but the level set holds
    # A's null space, so there is no closed-form diameter
    rng = np.random.default_rng(0)
    A, xbar = rng.standard_normal((3, 6)), np.array([1.0, 0, 0, -2.0, 0, 0])
    wide = gm.LeastSquares(A, A @ xbar)
    wide.known_minimizer = xbar
    assert wide.level_set_diameter is None
    with pytest.raises(ValueError, match="no closed-form level-set diameter"):
        rate_constants(wide, 1, params)
    with pytest.raises(ValueError, match="no known minimizer"):
        rate_constants(ConstantObjective(2), 1, params)


# -- sequence bound --------------------------------------------------------------


def test_sequence_bound_reciprocal():
    inp = SequenceBoundInput(1.0, 1.0, 1.0, tuple([1.0] * 2000))
    for m in (2, 7, 100, 2000):
        assert np.isclose(recursive_sequence_bound(inp, m), 1.0 / m, rtol=1e-12)


def test_sequence_bound_half_exponent():
    inp = SequenceBoundInput(1.0, 1.0, 0.5, tuple([1.0] * 100))
    for m in (2, 5, 50):
        assert np.isclose(recursive_sequence_bound(inp, m), 4.0 / m ** 2, rtol=1e-12)


def test_sequence_bound_dominates_logistic_iteration():
    for a1 in (1.0, 0.9, 0.5):
        inp = SequenceBoundInput(1.0, 1.0, 1.0, tuple([1.0] * 10000))
        a = a1
        for m in range(2, 10001):
            a = a * (1.0 - a)
            assert a <= 1.0 / m + 1e-15


def test_sequence_bound_soundness_random():
    violations = 0
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        ell = rng.uniform(1.0, 3.0) if trial % 2 else rng.uniform(0.01, 1.0)
        scale = rng.uniform(0.05, 3.0)
        gains = rng.uniform(0.0, 1.0, size=1000)
        start = scale ** (1.0 / ell) * rng.uniform(0.05, 1.0)
        inp = SequenceBoundInput(start, scale, ell, tuple(gains))
        a = start
        for m in range(2, 1001):
            a = a * (1.0 - (gains[m - 2] / scale) * a ** ell)
            assert 0.0 <= a
            if a > recursive_sequence_bound(inp, m) * (1 + 1e-12):
                violations += 1
    assert violations == 0


def test_sequence_bound_validation():
    inp = SequenceBoundInput(1.0, 1.0, 1.0, (1.0,))
    with pytest.raises(ValueError, match="second term"):
        recursive_sequence_bound(inp, 1)
    with pytest.raises(ValueError, match="gains"):
        recursive_sequence_bound(inp, 3)
    with pytest.raises(ValueError):
        SequenceBoundInput(0.0, 1.0, 1.0, ())
    with pytest.raises(ValueError, match="exponent"):
        SequenceBoundInput(1.0, 1.0, -0.5, ())
    # exponent 0: the geometric recursion, bounded by its product of factors
    rng = np.random.default_rng(77)
    start, scale = 3.0, 2.5
    gains = rng.uniform(0.0, 2.0, size=60)
    inp = SequenceBoundInput(start, scale, 0.0, tuple(gains))
    a = start * rng.uniform(0.5, 1.0)
    for m in range(2, 61):
        expected = start * np.prod(1.0 - gains[:m - 1] / scale)
        assert np.isclose(recursive_sequence_bound(inp, m), expected,
                          rtol=1e-13, atol=0.0)
        a = a * (1.0 - gains[m - 2] / scale) * rng.uniform(0.5, 1.0)
        assert a <= recursive_sequence_bound(inp, m) * (1 + 1e-12)


# -- recursion / bounds on traces ------------------------------------------------


def _quad_run(seed=0, n=30, s=4):
    E, D = make_sparse_quadratic(seed, n=n, s=s)
    tr = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=n))
    rc = rate_constants(E, s, E.known_params)
    return E, tr, rc


def test_recursion_check_quadratic():
    _, tr, rc = _quad_run()
    report = check_error_recursion(tr, rc)
    assert report.violations == 0
    assert report.ks == tuple(range(2, len(tr)))
    assert report.min_margin >= 0


def test_recursion_check_unit_quadratic_halves():
    E = gm.DiagonalQuadratic([3.0, 0.0, 1.0, 0.0], np.ones(4))
    tr = gm.run_wcga(E, gm.CanonicalBasis(4), gm.SolverConfig(algorithm="omp"))
    rc = rate_constants(E, 2, E.known_params)
    errs = [s.error for s in tr]
    for k in range(2, len(errs)):
        assert errs[k] <= 0.5 * errs[k - 1] + 1e-12
    assert check_error_recursion(tr, rc).violations == 0


def test_recursion_check_short_trace_empty():
    report = check_error_recursion(synth_trace([1.0, 0.4]),
                                   _quad_run()[2])
    assert report.ks == () and report.violations == 0
    assert report.min_margin is None


def test_recursion_check_power_sum_fixture():
    E, D, coeffs = make_rotated_powersum(seed=16)
    tr = gm.run_wcga(E, D, gm.SolverConfig(
        algorithm="omp", max_steps=200,
        max_inner_iters=3000))
    rc = powersum_constants(E, D, 16)
    report = check_error_recursion(tr, rc)
    assert report.violations == 0 and report.min_margin >= 0


def test_verify_trace_matches_direct_checks():
    from dataclasses import replace
    E, D = make_sparse_quadratic(3, n=30, s=4)
    rc = rate_constants(E, 4, E.known_params)
    # overstated constants: the recursion factor 1 - 4 t^2 is at most 0 for
    # every t used here, and every bound stays below 1e-6
    hot = replace(rc, gain=4.0 * rc.scale, initial_gap=1e-6)
    omp = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=30))
    sched = gm.WeaknessSchedule([1.0, 0.5, 0.8])
    wcga = gm.run_wcga(E, D, gm.SolverConfig(
        algorithm="wcga", weakness=sched, selection_strategy="random_admissible",
        max_steps=30, seed=5))
    for tr, schedule in ((omp, None), (wcga, sched)):
        for constants in (rc, hot):
            recursion, bound = verify_trace(tr, constants, schedule, 1e-9)
            rec = check_error_recursion(tr, constants, schedule, tol=1e-9)
            assert recursion == rec
            want = []
            for step in tr:
                if step.k >= 2:
                    b = error_bound(constants, step.k, schedule)
                    want.append((step.k, step.error, b, b - step.error))
            assert bound.rows == want and len(want) == len(tr) - 2
            violations = sum(1 for row in want if row[3] < -1e-9)
            assert bound.violations == violations
            assert (recursion.violations == 0 and bound.violations == 0) == (constants is rc)
            if constants is hot:
                assert rec.violations > 0 and violations > 0


def _poly_constants():
    E = gm.PowerSum([1.0, 1.0], 4.0, [1.0, 1.0])
    return rate_constants(E, 1, gm.CurvatureParams(1.0, 2.0, 1.0, 4.0, 4.0, 1.0))


@pytest.mark.parametrize("kind", ["omp", "wcga", "polynomial"])
def test_verify_trace_bound_rows_keep_the_bits_of_each_bound(kind):
    # geometric rows come from one running product, polynomial rows from a
    # sum per row; either way each bound_k is recursive_sequence_bound's
    rc = _poly_constants() if kind == "polynomial" else _quad_run(seed=5)[2]
    schedule = gm.WeaknessSchedule([1.0, 0.5, 0.8]) if kind == "wcga" else None
    tr = synth_trace(rc.initial_gap * 0.9 ** np.arange(301))
    rec = rc.recursion(300, schedule)
    assert (rec.exponent == 0.0) == (kind != "polynomial")
    _, bound = verify_trace(tr, rc, schedule, 1e-9)
    assert bound.ks == tuple(range(2, 301))
    assert bound.rhs == tuple(recursive_sequence_bound(rec, k) for k in range(2, 301))
    assert bound.rhs[-1] > 0.0


def test_error_bound_exponential_example():
    _, _, rc = _quad_run()
    from dataclasses import replace
    rc2 = replace(rc, initial_gap=4.5, gain=0.5 * rc.scale)
    assert np.isclose(error_bound(rc2, 3), 1.125, rtol=1e-12)
    with pytest.raises(ValueError, match="step 2"):
        error_bound(rc2, 1)


def test_error_bound_schedule_identity():
    _, _, rc = _quad_run(seed=2)
    ones = gm.WeaknessSchedule.constant(1.0)
    for k in range(2, 12):
        assert np.isclose(error_bound(rc, k), error_bound(rc, k, ones), rtol=1e-14)
    E = gm.PowerSum([1.0, 1.0], 4.0, [1.0, 1.0])
    rc_poly = rate_constants(E, 1, gm.CurvatureParams(1.0, 2.0, 1.0, 4.0, 4.0, 1.0))
    for k in range(2, 12):
        assert np.isclose(error_bound(rc_poly, k), error_bound(rc_poly, k, ones),
                          rtol=1e-14)


def test_error_bound_polynomial_shape():
    E = gm.PowerSum([1.0, 1.0], 4.0, [1.0, 1.0])
    rc = rate_constants(E, 1, gm.CurvatureParams(1.0, 2.0, 1.0, 4.0, 4.0, 1.0))
    ks = np.arange(2, 10001)
    vals = np.array([error_bound(rc, int(k)) for k in ks])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    tail = slice(-2000, None)
    slope = np.polyfit(np.log(ks[tail]), np.log(vals[tail]), 1)[0]
    assert abs(slope - (-2.0)) < 0.05


def test_error_bound_matches_generic_sequence_bound():
    # the closed-form polynomial bound must agree with the generic
    # recursive-sequence bound under the defining substitutions
    E = gm.PowerSum([1.0, 2.0, 1.0], 4.0, [1.0, 0.5, 2.0])
    rc = rate_constants(E, 2, gm.CurvatureParams(3.0, 2.0, 0.1, 4.0, 6.0, 2.0))
    p, q = rc.params.p, rc.params.q
    ell = (p - q) / (p * (q - 1.0))
    inp = SequenceBoundInput(rc.initial_gap, rc.scale, ell,
                             tuple([rc.gain] * 200))
    for k in (2, 3, 10, 100):
        assert np.isclose(error_bound(rc, k), recursive_sequence_bound(inp, k),
                          rtol=1e-12)
    # schedule-weighted variant: gains scale with t^(q/(q-1))
    sched = gm.WeaknessSchedule([1.0, 0.7, 0.4, 0.9])
    gains = tuple(rc.gain * sched.t(j) ** (q / (q - 1.0)) for j in range(2, 202))
    inp_w = SequenceBoundInput(rc.initial_gap, rc.scale, ell, gains)
    for k in (2, 3, 10, 100):
        assert np.isclose(error_bound(rc, k, sched),
                          recursive_sequence_bound(inp_w, k), rtol=1e-12)
    # p = q = 2: the geometric closed form, contraction 4*beta_global*gain/(alpha*s)
    # per step, scaled by t_j^2 under a schedule
    _, _, rc = _quad_run(seed=5)
    shrink = 4.0 * rc.beta_global * rc.gain / (rc.params.alpha * rc.support_size)
    assert 0.0 < shrink < 1.0
    for k in (2, 3, 10, 30):
        assert np.isclose(error_bound(rc, k), rc.initial_gap * (1.0 - shrink) ** (k - 1),
                          rtol=1e-13)
        product = rc.initial_gap
        for j in range(2, k + 1):
            product *= 1.0 - shrink * sched.t(j) ** 2
        assert np.isclose(error_bound(rc, k, sched), product, rtol=1e-13)


def test_distance_bound_power_sum_fixture():
    E, D, coeffs = make_rotated_powersum(seed=16)
    tr = gm.run_wcga(E, D, gm.SolverConfig(
        algorithm="omp", max_steps=200, max_inner_iters=3000))
    rc = powersum_constants(E, D, 16)
    for step in tr:
        assert step.dist <= distance_bound(rc, step.error) + 1e-8


def test_error_bound_schedule_weights():
    _, _, rc = _quad_run(seed=3)
    half = gm.WeaknessSchedule.constant(0.5)
    base = rc.contraction_gain / rc.support_size
    expected = rc.initial_gap * (1 - base * 0.25) ** 2
    assert np.isclose(error_bound(rc, 3, half), expected, rtol=1e-12)


def test_distance_bound_examples():
    _, tr, rc = _quad_run(seed=4)
    assert distance_bound(rc, 0.0) == 0.0
    from dataclasses import replace
    rc_unit = replace(rc, beta_global=0.5, params=replace(rc.params, p=2.0))
    assert np.isclose(distance_bound(rc_unit, 0.5), 1.0, rtol=1e-12)
    for step in tr:
        if step.error is not None and step.dist is not None:
            assert step.dist <= distance_bound(rc, step.error) + 1e-8
    with pytest.raises(ValueError):
        distance_bound(rc, -1.0)


def test_fit_rate_exact_power_law():
    ks = np.arange(0, 40)
    errors = [1.0] + [float(k) ** -2.0 for k in ks[1:]]
    fit = fit_rate(synth_trace(errors), 1.0)
    assert abs(fit.slope + 2.0) <= 1e-9
    assert fit.residual <= 1e-9


def test_fit_rate_exponential_is_super_polynomial():
    errors = [4.5 * 0.5 ** max(k - 1, 0) for k in range(40)]
    full = fit_rate(synth_trace(errors), 1.0)
    tail = fit_rate(synth_trace(errors), 0.25)
    assert tail.slope < full.slope < -2.0   # steepens with the window


def test_fit_rate_needs_points():
    with pytest.raises(ValueError, match="at least 5"):
        fit_rate(synth_trace([1.0, 0.5, 0.25]), 1.0)
    with pytest.raises(ValueError):
        fit_rate(synth_trace([1.0] * 20), 0.0)


PS_DELTA1_LOWER = 0.1659920537235571   # frozen seeded sweep value
