import csv

import numpy as np
import pytest

import greedymin as gm
import greedymin.solvers as solvers
from greedymin.objectives import Objective, SpanFactor
from greedymin.solvers import InnerSolveError, restricted_minimize

from conftest import make_rotated_powersum, make_sparse_quadratic


class Stripped(Objective):
    """Wrapper exposing only value/gradient (forces the plain descent path)."""

    def __init__(self, base):
        super().__init__(base.dimension)
        self.base = base
        self.known_minimizer = base.known_minimizer

    def value(self, x):
        return self.base.value(x)

    def gradient(self, x):
        return self.base.gradient(x)


class Conjugated(Objective):
    """The base objective seen through an orthogonal change of coordinates."""

    def __init__(self, base, q):
        super().__init__(base.dimension)
        self.base = base
        self.q = q
        if base.known_minimizer is not None:
            self.known_minimizer = q.T @ base.known_minimizer

    def value(self, z):
        return self.base.value(self.q @ z)

    def gradient(self, z):
        return self.q.T @ self.base.gradient(self.q @ z)

    def least_squares_form(self):
        S, y = self.base.least_squares_form()
        return (lambda block: S(self.q @ block)), y


# -- restricted minimization -------------------------------------------------


def test_restricted_single_coordinate(unit_quadratic4):
    D = gm.CanonicalBasis(4)
    factor = SpanFactor(*unit_quadratic4.least_squares_form(), capacity=1)
    x, coeffs, _ = restricted_minimize(unit_quadratic4, D, {0: 0.0}, gm.SolverConfig(), factor)
    assert np.allclose(x, [3.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert abs(unit_quadratic4.gradient(x)[0]) <= 1e-10
    assert coeffs == {0: 3.0}


def test_restricted_warm_start_already_optimal(unit_quadratic4):
    D = gm.CanonicalBasis(4)
    warm = {0: 3.0, 2: 1.0}
    x, coeffs, _ = restricted_minimize(unit_quadratic4, D, warm, gm.SolverConfig())
    assert coeffs == warm
    assert np.allclose(x, unit_quadratic4.known_minimizer)


def test_restricted_full_support_matches_normal_equations():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 6))
    b = rng.standard_normal(10)
    E = gm.LeastSquares(A, b)
    D = gm.CanonicalBasis(6)
    factor = SpanFactor(*E.least_squares_form(), capacity=6)
    x, _, _ = restricted_minimize(E, D, {j: 0.0 for j in range(6)}, gm.SolverConfig(), factor)
    oracle = np.linalg.solve(A.T @ A, A.T @ b)
    assert np.allclose(x, oracle, atol=1e-8)


def test_restricted_descent_path_matches_oracle():
    rng = np.random.default_rng(1)
    E = Stripped(gm.DiagonalQuadratic(rng.standard_normal(5),
                                      rng.uniform(0.5, 2.0, 5)))
    D = gm.CanonicalBasis(5)
    x, _, _ = restricted_minimize(E, D, {j: 0.0 for j in (0, 2, 4)},
                                  gm.SolverConfig(inner_tol=1e-9, max_inner_iters=5000))
    expected = np.zeros(5)
    expected[[0, 2, 4]] = E.base.center[[0, 2, 4]]
    assert np.allclose(x, expected, atol=1e-8)


def test_restricted_never_worse_than_warm_start():
    E, D, _ = make_rotated_powersum(seed=1)
    rng = np.random.default_rng(2)
    warm = {3: rng.uniform(), 10: rng.uniform(), 17: rng.uniform()}
    dense = np.zeros(D.size)
    dense[list(warm)] = list(warm.values())
    start_val = E.value(D.synthesize(dense))
    x, _, _ = restricted_minimize(E, D, warm, gm.SolverConfig(max_inner_iters=3000))
    assert E.value(x) <= start_val + 1e-12 * (1 + abs(start_val))


def test_restricted_exhaustion_carries_best_residual():
    E = Stripped(gm.DiagonalQuadratic([5.0, 0.0], [1.0, 1.0]))
    D = gm.CanonicalBasis(2)
    with pytest.raises(InnerSolveError) as err:
        restricted_minimize(E, D, {0: 0.0}, gm.SolverConfig(max_inner_iters=1))
    assert err.value.residual == 5.0        # |E'(0)| at the start, the only point checked


class ValueCounted(Stripped):
    """A stripped objective counting its value calls."""

    value_calls = 0

    def value(self, x):
        self.value_calls += 1
        return super().value(x)


def test_restricted_last_iteration_takes_no_unchecked_step():
    # the one allowed iteration checks the start and stops: no value, no line search
    E = ValueCounted(gm.DiagonalQuadratic([5.0, 0.0], [1.0, 1.0]))
    with pytest.raises(InnerSolveError) as err:
        restricted_minimize(E, gm.CanonicalBasis(2), {0: 0.5},
                            gm.SolverConfig(max_inner_iters=1))
    assert E.value_calls == 0
    assert err.value.residual == 4.5


def test_restricted_validation(unit_quadratic4):
    D = gm.CanonicalBasis(4)
    with pytest.raises(ValueError, match="nonempty"):
        restricted_minimize(unit_quadratic4, D, {}, gm.SolverConfig())
    factor = SpanFactor(*unit_quadratic4.least_squares_form(), capacity=4)
    restricted_minimize(unit_quadratic4, D, {0: 0.0, 1: 0.0}, gm.SolverConfig(), factor)
    with pytest.raises(ValueError, match="start has 1 atoms, the factor already holds 2"):
        restricted_minimize(unit_quadratic4, D, {0: 0.0}, gm.SolverConfig(), factor)


def test_restricted_with_factor_orders_atoms_by_warm_start():
    E = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    D = gm.RotatedBasis(6, seed=3)
    factor = SpanFactor(*E.least_squares_form(), capacity=6)
    start = {4: 0.0, 1: 0.0, 2: 0.0}
    x, coeffs, _ = restricted_minimize(E, D, start, gm.SolverConfig(), factor)
    assert list(coeffs) == [4, 1, 2] and factor.size == 3
    fresh = SpanFactor(*E.least_squares_form(), capacity=3)
    x_plain, coeffs_plain, _ = restricted_minimize(E, D, start, gm.SolverConfig(), fresh)
    assert list(coeffs_plain) == [4, 1, 2]
    assert np.allclose(x, x_plain, rtol=0, atol=1e-12)


class GradientCounted(gm.DiagonalQuadratic):
    """A diagonal quadratic counting its gradient calls."""

    gradient_calls = 0

    def gradient(self, x):
        self.gradient_calls += 1
        return super().gradient(x)


class EvalCounted(GradientCounted):
    """A diagonal quadratic counting its value and gradient calls."""

    value_calls = 0

    def value(self, x):
        self.value_calls += 1
        return super().value(x)


def test_restricted_one_gradient_per_call_with_factor():
    # the exact path trusts the solve: one gradient certifies it, no value is taken
    E = EvalCounted(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    D = gm.RotatedBasis(6, seed=3)
    factor = SpanFactor(*E.least_squares_form(), capacity=6)
    coeffs, E.value_calls = {}, 0
    for j in (4, 1, 2, 5):
        start = {**coeffs, j: 0.0}
        E.gradient_calls = 0
        _, coeffs, _ = restricted_minimize(E, D, start, gm.SolverConfig(), factor)
        assert E.gradient_calls == 1 and factor.size == len(start)
    assert E.value_calls == 0


@pytest.mark.parametrize("path", ["exact", "descent"])
def test_restricted_returns_the_gradient_at_its_point(path):
    base = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    E = base if path == "exact" else Stripped(base)
    D = gm.RotatedBasis(6, seed=3)
    factor = SpanFactor(*base.least_squares_form(), capacity=2) if path == "exact" else None
    x, _, g = restricted_minimize(E, D, {4: 0.0, 1: 0.0},
                                  gm.SolverConfig(max_inner_iters=3000), factor)
    assert np.array_equal(g, D.analyze(E.gradient(x)))


class ShiftedForm(gm.DiagonalQuadratic):
    """A diagonal quadratic whose least-squares form has the wrong right-hand side."""

    def least_squares_form(self):
        S, y = super().least_squares_form()
        return S, y + 1.0


def test_restricted_descends_from_an_exact_solve_that_fails_its_check():
    # the shifted form's coefficients miss the restricted minimizer, so the
    # selection-vector check fails and descent finishes from them
    base = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    E = ShiftedForm(base.center, base.weights)
    D = gm.RotatedBasis(6, seed=3)
    factor = SpanFactor(*E.least_squares_form(), capacity=2)
    x, coeffs, g = restricted_minimize(E, D, {4: 0.0, 1: 0.0}, gm.SolverConfig(), factor)
    assert factor.size == 2 and list(coeffs) == [4, 1]
    assert np.max(np.abs(g[[4, 1]])) <= 1e-10
    x_ref, _, _ = restricted_minimize(base, D, {4: 0.0, 1: 0.0}, gm.SolverConfig())
    assert np.allclose(x, x_ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("iters", [1, 3, 8])
def test_restricted_descent_one_gradient_per_iteration(iters):
    # the residual check opens each iteration; nothing is evaluated before the loop
    base = GradientCounted([40.0, -30.0, 20.0, 0.0], [0.5, 1.0, 2.0, 1.0])
    with pytest.raises(InnerSolveError):
        restricted_minimize(Stripped(base), gm.CanonicalBasis(4), {0: 0.0, 1: 0.0, 2: 0.0},
                            gm.SolverConfig(max_inner_iters=iters))
    assert base.gradient_calls == iters
    # unit weights: one full gradient step lands on the minimizer, the second check returns
    base = GradientCounted([5.0, -2.0], [1.0, 1.0])
    x, _, _ = restricted_minimize(Stripped(base), gm.CanonicalBasis(2), {0: 0.0, 1: 0.0},
                                  gm.SolverConfig(max_inner_iters=iters + 1))
    assert np.array_equal(x, [5.0, -2.0]) and base.gradient_calls == 2


# -- greedy runs ---------------------------------------------------------------


def test_omp_hand_computed_trace(unit_quadratic4):
    D = gm.CanonicalBasis(4)
    tr = gm.run_wcga(unit_quadratic4, D, gm.SolverConfig(algorithm="omp", max_steps=10))
    assert tr.support == [0, 2]
    assert [s.k for s in tr] == [0, 1, 2]
    assert abs(tr[1].error - 0.5) <= 1e-12
    assert tr[2].error <= 1e-12
    assert tr.final.stopped
    assert np.allclose(tr.x, unit_quadratic4.known_minimizer, atol=1e-10)
    # selection data: gradient at 0 is (-3, 0, -1, 0)
    assert tr[1].grad_coeff == -3.0 and tr[1].grad_sup == 3.0


def test_omp_stops_at_step_zero_when_centered():
    E = gm.DiagonalQuadratic([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    tr = gm.run_wcga(E, gm.CanonicalBasis(3), gm.SolverConfig(algorithm="omp"))
    assert len(tr) == 1 and tr[0].stopped and tr[0].k == 0


def test_omp_orthonormal_rows_two_sparse_recovery():
    rng = np.random.default_rng(3)
    n, k = 40, 20
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    A = q.T                                    # k x n with orthonormal rows
    xbar = np.zeros(n)
    xbar[[5, 17]] = [1.5, -2.0]
    E = gm.LeastSquares(A, A @ xbar)
    E.known_minimizer = xbar
    # oracle: brute force over all supports of size <= 2
    best = (np.inf, None)
    for i in range(n):
        for j in range(i, n):
            cols = [i] if i == j else [i, j]
            z, *_ = np.linalg.lstsq(A[:, cols], A @ xbar, rcond=None)
            r = float(np.linalg.norm(A[:, cols] @ z - A @ xbar) ** 2)
            if r < best[0]:
                best = (r, tuple(cols))
    assert best[1] == (5, 17)
    tr = gm.run_wcga(E, gm.CanonicalBasis(n), gm.SolverConfig(algorithm="omp", max_steps=10))
    assert sorted(tr.support) == [5, 17]
    assert tr.final.k == 2 and tr[2].error <= 1e-10


def test_wcga_t1_exact_matches_omp():
    for seed in range(3):
        E, D = make_sparse_quadratic(seed, n=30, s=4)
        omp = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=30))
        wcga = gm.run_wcga(E, D, gm.SolverConfig(algorithm="wcga", max_steps=30,
                                      weakness=gm.WeaknessSchedule.constant(1.0)))
        assert omp.support == wcga.support
        for a, b in zip(omp, wcga):
            assert abs(a.error - b.error) <= 1e-10


def test_wcga_first_admissible_picks_lower_index():
    E = gm.DiagonalQuadratic([2.0, 3.0, 0.0], np.ones(3))
    tr = gm.run_wcga(E, gm.CanonicalBasis(3),
                     gm.SolverConfig(algorithm="wcga", weakness=gm.WeaknessSchedule.constant(0.5),
                          selection_strategy="first_admissible", max_steps=5))
    assert tr[1].selected == 0        # argmax would be index 1


def test_wcga_random_admissible_deterministic():
    E, D = make_sparse_quadratic(4, n=25, s=5)
    cfg = gm.SolverConfig(algorithm="wcga", weakness=gm.WeaknessSchedule.constant(0.4),
               selection_strategy="random_admissible", max_steps=25, seed=99)
    a = gm.run_wcga(E, D, cfg)
    b = gm.run_wcga(E, D, cfg)
    assert a.support == b.support
    assert all(x.error == y.error for x, y in zip(a, b))


def test_algorithm_config_mismatch():
    # OMP is WCGA at t = 1 with the exact strategy; any other setting is refused
    with pytest.raises(ValueError, match=r"^weakness: omp selects at t = 1, got \(0.5,\)"):
        gm.SolverConfig(algorithm="omp", weakness=gm.WeaknessSchedule.constant(0.5))
    with pytest.raises(ValueError, match="^weakness: "):
        gm.SolverConfig(algorithm="omp", weakness=gm.WeaknessSchedule.from_sequence([1.0, 0.5]))
    with pytest.raises(ValueError, match="^selection_strategy: omp selects exactly"):
        gm.SolverConfig(algorithm="omp", selection_strategy="first_admissible")
    assert gm.SolverConfig(algorithm="omp", weakness=gm.WeaknessSchedule.constant(1.0),
                selection_strategy="exact") == gm.SolverConfig(algorithm="omp")
    with pytest.raises(ValueError, match="^algorithm: expected omp or wcga"):
        gm.SolverConfig(algorithm="sgd")


def test_dimension_mismatch_raises(unit_quadratic4):
    with pytest.raises(ValueError, match="dictionary size"):
        gm.run_wcga(unit_quadratic4, gm.CanonicalBasis(5), gm.SolverConfig(algorithm="omp"))


def test_greedy_one_value_per_step_and_no_second_gradient():
    # K exact steps: E at the minimizer and at the origin, then one value per step;
    # the gradient at the origin, then the one each restricted solve certified
    E = EvalCounted(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    E.value_calls = E.gradient_calls = 0
    tr = gm.run_wcga(E, gm.RotatedBasis(6, seed=3), gm.SolverConfig(algorithm="omp", max_steps=4))
    K = tr.final.k
    assert K == 4
    assert E.value_calls == K + 2 and E.gradient_calls == K + 1


def test_monotonicity_orthogonality_freshness(monkeypatch):
    solve, iterates = solvers.restricted_minimize, []

    def recording_solve(*args, **kwargs):
        x, coeffs, g = solve(*args, **kwargs)
        iterates.append(x)
        return x, coeffs, g

    monkeypatch.setattr(solvers, "restricted_minimize", recording_solve)
    problems = [make_sparse_quadratic(seed, n=30, s=6)
                + (gm.SolverConfig(algorithm="omp", max_steps=30),) for seed in range(3)]
    E, D, _ = make_rotated_powersum(seed=16)
    problems.append((E, D, gm.SolverConfig(algorithm="omp", max_steps=60, max_inner_iters=3000)))
    for E, D, cfg in problems:
        iterates.clear()
        tr = gm.run_wcga(E, D, cfg)
        vals = np.array([s.value for s in tr])
        assert np.all(np.diff(vals) <= 1e-10 * (1 + np.abs(vals[:-1])))
        # distinct selections
        sel = tr.support
        assert len(sel) == len(set(sel))
        # restricted gradient vanishes at every iterate over its support
        assert len(iterates) == tr.final.k and np.array_equal(iterates[-1], tr.x)
        for k, x in enumerate(iterates, start=1):
            g = D.analyze(E.gradient(x))
            assert max(abs(g[j]) for j in sel[:k]) <= 1e-9


def test_finite_recovery_sparse_quadratic():
    for seed in range(5):
        E, D = make_sparse_quadratic(seed, n=60, s=7)
        tr = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=60))
        assert tr.final.k == 7 and tr.final.stopped
        assert gm.norm(tr.x - E.known_minimizer) <= 1e-8


def test_padding_independence():
    E, D = make_sparse_quadratic(1, n=6, s=2, w_low=1.0, w_high=1.0)
    padded_center = np.concatenate([E.center, np.zeros(6)])
    E2 = gm.DiagonalQuadratic(padded_center, np.ones(12))
    tr1 = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=10))
    tr2 = gm.run_wcga(E2, gm.CanonicalBasis(12), gm.SolverConfig(algorithm="omp", max_steps=10))
    assert tr1.support == tr2.support
    for a, b in zip(tr1, tr2):
        assert abs(a.error - b.error) <= 1e-12


def test_rotation_invariance():
    rng = np.random.default_rng(7)
    basis = gm.RotatedBasis(12, seed=3)
    coeffs = np.zeros(12)
    coeffs[[2, 5, 9]] = [1.5, -2.0, 1.0]
    center = basis.synthesize(coeffs)
    E = gm.DiagonalQuadratic(center, rng.uniform(0.5, 2.0, 12))
    rotated_run = gm.run_wcga(E, basis, gm.SolverConfig(algorithm="omp", max_steps=20))
    conj_run = gm.run_wcga(Conjugated(E, basis.q), gm.CanonicalBasis(12),
                           gm.SolverConfig(algorithm="omp", max_steps=20))
    assert rotated_run.support == conj_run.support
    for a, b in zip(rotated_run, conj_run):
        assert abs(a.error - b.error) <= 1e-8


def test_per_step_recursion_invariant_quadratic():
    E = gm.DiagonalQuadratic([3.0, 0.0, 1.0, 0.0, 2.0], np.ones(5))
    D = gm.CanonicalBasis(5)
    tr = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=10))
    rc = gm.rate_constants(E, E.known_minimizer, 3, E.known_params)
    errs = [s.error for s in tr]
    factor = 1.0 - rc.contraction_gain / rc.support_size
    for k in range(2, len(errs)):
        assert errs[k] <= errs[k - 1] * factor + 1e-9


def test_inner_failure_reports_step_index():
    E, D, _ = make_rotated_powersum(seed=16)
    with pytest.raises(InnerSolveError, match="^step 1: restricted minimization") as err:
        gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=5, max_inner_iters=1))
    assert err.value.step == 1 and err.value.support_size == 1


def test_weakness_schedule():
    s = gm.WeaknessSchedule.from_sequence([0.5, 0.8])
    assert s.t(1) == 0.5 and s.t(2) == 0.8 and s.t(9) == 0.8
    with pytest.raises(ValueError):
        gm.WeaknessSchedule.constant(0.0)
    with pytest.raises(ValueError):
        gm.WeaknessSchedule.from_sequence([])
    with pytest.raises(ValueError):
        s.t(0)


def test_trace_csv_contents(tmp_path):
    E, D = make_sparse_quadratic(2, n=20, s=3)
    tr = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=20))
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(tr)
    for row, step in zip(rows, tr):
        assert int(row["k"]) == step.k
        assert float(row["E_k"]) == step.value
        if step.selected is None:
            assert row["selected_index"] == ""
        else:
            assert int(row["selected_index"]) == step.selected


class CountedForm(Objective):
    """The base objective, counting the columns its least-squares S is applied to."""

    def __init__(self, base):
        super().__init__(base.dimension)
        self.base = base
        self.known_minimizer = base.known_minimizer
        self.columns = 0

    def value(self, x):
        return self.base.value(x)

    def gradient(self, x):
        return self.base.gradient(x)

    def least_squares_form(self):
        S, y = self.base.least_squares_form()

        def counted(block):
            self.columns += block.shape[1]
            return S(block)

        return counted, y


class SubsetCounted(gm.RotatedBasis):
    """A rotated basis counting the columns it subsets."""

    columns = 0

    def subset(self, indices):
        self.columns += len(indices)
        return super().subset(indices)


@pytest.mark.parametrize("algorithm", ["omp", "wcga"])
@pytest.mark.parametrize("kind", ["quadratic", "least_squares"])
def test_greedy_factors_each_atom_once(kind, algorithm):
    # the factor is carried across steps: S meets each selected atom once,
    # and the dictionary subsets it once, k columns over k steps, where a
    # per-step rebuild would need k(k+1)/2
    rng = np.random.default_rng(11)
    n = 30
    base = (gm.DiagonalQuadratic(rng.standard_normal(n), rng.uniform(0.5, 2.0, n))
            if kind == "quadratic"
            else gm.LeastSquares(rng.standard_normal((40, n)), rng.standard_normal(40)))
    E = CountedForm(base)
    D = SubsetCounted(n, seed=12)
    weak = {"weakness": gm.WeaknessSchedule.constant(0.6),
            "selection_strategy": "first_admissible"}
    cfg = gm.SolverConfig(algorithm=algorithm, max_steps=12,
                          **(weak if algorithm == "wcga" else {}))
    tr = gm.run_wcga(E, D, cfg)
    assert len(tr) - 1 == 12 and E.columns == 12 and D.columns == 12
    # and each e_k is E at a fresh lstsq solve over the first k selected atoms
    S, y = base.least_squares_form()
    e_min = base.value(base.known_minimizer)
    for k in range(1, len(tr)):
        basis = D.subset(tr.support[:k])
        ref = base.value(basis @ np.linalg.lstsq(S(basis), y, rcond=None)[0]) - e_min
        assert abs(tr[k].error - ref) <= 1e-9 * (1.0 + ref)


class FormCounted(gm.PowerSum):
    """A power sum counting its least-squares form requests and exact solves."""

    form_calls = solve_calls = 0

    def least_squares_form(self):
        self.form_calls += 1
        return super().least_squares_form()

    def argmin_in_span(self, columns, factor):
        self.solve_calls += 1
        return super().argmin_in_span(columns, factor)


@pytest.mark.parametrize("p", [4.0, 2.0])
def test_greedy_decides_exactness_once(p):
    # run_wcga asks for the form once; at p = 4 there is none and no step
    # solves exactly, at p = 2 (a quadratic) each step solves exactly once
    E4, D, _ = make_rotated_powersum(seed=16)
    E = FormCounted(E4.center, p, E4.weights)
    tr = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=3, max_inner_iters=3000))
    assert tr.final.k == 3
    assert E.form_calls == 1
    assert E.solve_calls == (0 if p == 4.0 else 3)


def test_greedy_creates_one_factor_only_with_a_least_squares_form(monkeypatch):
    made = []

    class Recording(SpanFactor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self._qt.shape)

    monkeypatch.setattr(solvers, "SpanFactor", Recording)
    E4, D, _ = make_rotated_powersum(seed=16)
    gm.run_wcga(E4, D, gm.SolverConfig(algorithm="omp", max_steps=3, max_inner_iters=3000))
    assert made == []
    E2 = gm.PowerSum(E4.center, 2.0, E4.weights)
    tr = gm.run_wcga(E2, D, gm.SolverConfig(algorithm="omp", max_steps=7))
    assert len(tr) - 1 == 7
    assert made == [(7, 50)]      # min(rows of S, max_steps, n) columns of length 50
    A = np.random.default_rng(13).standard_normal((5, 50))
    gm.run_wcga(gm.LeastSquares(A, A @ D.subset([4])[:, 0]), D,
                gm.SolverConfig(algorithm="omp", max_steps=9))
    assert made[1] == (5, 5)      # a wide A caps the factor at its 5 rows
