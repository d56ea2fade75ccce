import csv

import numpy as np
import pytest

import greedymin as gm
import greedymin.solvers as solvers
from greedymin.objectives import Objective, SpanFactor
from greedymin.solvers import InnerSolveError, restricted_minimize

from conftest import make_rotated_powersum, make_sparse_quadratic, stack_library, unit_columns


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
        form = self.base.least_squares_form()

        def conjugated(block):
            return form.apply(self.q @ block)

        return form._replace(apply=conjugated, columns=unit_columns(conjugated, self.dimension),
                             adjoint=lambda v: self.q.T @ form.adjoint(v))


def point_of(D, idx, z):
    """x = B z, B the atoms idx in order and z their coefficients (descent's iterate)."""
    return D.subset(idx) @ z


# -- restricted minimization -------------------------------------------------


def test_restricted_single_coordinate(unit_quadratic4):
    D = gm.CanonicalBasis(4)
    factor = SpanFactor(unit_quadratic4.least_squares_form(), capacity=1)
    z, g, e = restricted_minimize(unit_quadratic4, D, [0], gm.SolverConfig(), factor)
    assert z.tolist() == [3.0]
    assert abs(g[0]) <= 1e-10
    x = np.array([3.0, 0.0, 0.0, 0.0])
    assert abs(unit_quadratic4.gradient(x)[0]) <= 1e-10
    assert abs(e - unit_quadratic4.value(x)) <= 1e-12


def test_restricted_warm_start_already_optimal(unit_quadratic4):
    D = gm.CanonicalBasis(4)
    idx, warm = [0, 2], [3.0, 1.0]
    z, _, e = restricted_minimize(unit_quadratic4, D, idx, gm.SolverConfig(), start=warm)
    assert z.tolist() == warm
    assert np.allclose(point_of(D, idx, z), unit_quadratic4.known_minimizer)
    assert e == unit_quadratic4.value(unit_quadratic4.known_minimizer)


def test_restricted_full_support_matches_normal_equations():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 6))
    b = rng.standard_normal(10)
    E = gm.LeastSquares(A, b)
    D = gm.CanonicalBasis(6)
    factor = SpanFactor(E.least_squares_form(), capacity=6)
    x, _, _ = restricted_minimize(E, D, list(range(6)), gm.SolverConfig(), factor)
    oracle = np.linalg.solve(A.T @ A, A.T @ b)
    assert np.allclose(x, oracle, atol=1e-8)


def test_restricted_descent_path_matches_oracle():
    rng = np.random.default_rng(1)
    E = Stripped(gm.DiagonalQuadratic(rng.standard_normal(5),
                                      rng.uniform(0.5, 2.0, 5)))
    D = gm.CanonicalBasis(5)
    idx = [0, 2, 4]
    z, _, _ = restricted_minimize(E, D, idx,
                                  gm.SolverConfig(inner_tol=1e-9, max_inner_iters=5000))
    expected = np.zeros(5)
    expected[idx] = E.base.center[idx]
    assert np.allclose(point_of(D, idx, z), expected, atol=1e-8)


def test_restricted_never_worse_than_warm_start():
    E, D, _ = make_rotated_powersum(seed=1)
    rng = np.random.default_rng(2)
    idx, warm = [3, 10, 17], [rng.uniform(), rng.uniform(), rng.uniform()]
    dense = np.zeros(D.size)
    dense[idx] = warm
    start_val = E.value(D.synthesize(dense))
    z, _, e = restricted_minimize(E, D, idx, gm.SolverConfig(max_inner_iters=3000), start=warm)
    assert e == E.value(point_of(D, idx, z))
    assert e <= start_val + 1e-12 * (1 + abs(start_val))


def test_restricted_exhaustion_carries_best_residual():
    E = Stripped(gm.DiagonalQuadratic([5.0, 0.0], [1.0, 1.0]))
    D = gm.CanonicalBasis(2)
    with pytest.raises(InnerSolveError) as err:
        restricted_minimize(E, D, [0], gm.SolverConfig(max_inner_iters=1))
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
        restricted_minimize(E, gm.CanonicalBasis(2), [0], gm.SolverConfig(max_inner_iters=1),
                            start=[0.5])
    assert E.value_calls == 0
    assert err.value.residual == 4.5


def test_restricted_validation(unit_quadratic4):
    D = gm.CanonicalBasis(4)
    with pytest.raises(ValueError, match="nonempty"):
        restricted_minimize(unit_quadratic4, D, [], gm.SolverConfig())
    with pytest.raises(ValueError, match="start has 2 coefficients for 1 atoms"):
        restricted_minimize(unit_quadratic4, D, [0], gm.SolverConfig(), start=[3.0, 0.0])
    factor = SpanFactor(unit_quadratic4.least_squares_form(), capacity=4)
    restricted_minimize(unit_quadratic4, D, [0, 1], gm.SolverConfig(), factor)
    with pytest.raises(ValueError, match="idx has 1 atoms, the factor already holds 2"):
        restricted_minimize(unit_quadratic4, D, [0], gm.SolverConfig(), factor)


def test_restricted_with_factor_orders_atoms_by_warm_start():
    E = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    D = gm.RotatedBasis(6, seed=3)
    factor = SpanFactor(D.compose(E.least_squares_form()), capacity=6)
    idx = [4, 1, 2]
    z, _, _ = restricted_minimize(E, D, idx, gm.SolverConfig(), factor)
    # the coefficients are those of the atoms in idx order: B^T W B z = B^T W c
    B = D.subset(idx)
    oracle = np.linalg.solve(B.T @ (E.weights[:, None] * B), B.T @ (E.weights * E.center))
    assert np.allclose(z, oracle, rtol=0, atol=1e-12) and factor.size == 3
    fresh = SpanFactor(D.compose(E.least_squares_form()), capacity=3)
    z_plain, _, _ = restricted_minimize(E, D, idx, gm.SolverConfig(), fresh)
    assert np.allclose(z, z_plain, rtol=0, atol=1e-12)


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


def test_restricted_with_factor_calls_neither_value_nor_gradient():
    # the exact path reads the selection vector off the factor's residual
    E = EvalCounted(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    D = gm.RotatedBasis(6, seed=3)
    factor = SpanFactor(D.compose(E.least_squares_form()), capacity=6)
    idx, z, E.value_calls, E.gradient_calls = [], np.zeros(0), 0, 0
    for j in (4, 1, 2, 5):
        idx.append(j)
        z, _, _ = restricted_minimize(E, D, idx, gm.SolverConfig(), factor, z)
        assert factor.size == len(idx) == len(z)
    assert E.value_calls == 0 and E.gradient_calls == 0


@pytest.mark.parametrize("path", ["exact", "descent"])
def test_restricted_returns_the_gradient_at_its_point(path):
    base = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    E = base if path == "exact" else Stripped(base)
    D = gm.RotatedBasis(6, seed=3)
    factor = (SpanFactor(D.compose(base.least_squares_form()), capacity=2)
              if path == "exact" else None)
    z, g, e = restricted_minimize(E, D, [4, 1], gm.SolverConfig(max_inner_iters=3000), factor)
    x = point_of(D, [4, 1], z)
    if path == "descent":
        assert np.array_equal(g, D.analyze(E.gradient(x))) and e == E.value(x)
    else:
        # the factor's residual gives both; x = D z is formed here only to compare
        assert gm.norm(g - D.analyze(E.gradient(x))) <= 1e-13 * gm.norm(E.gradient(0 * x))
        assert abs(e - E.value(x)) <= 1e-13 * E.value(0 * x)


class SkewedAdjoint(gm.DiagonalQuadratic):
    """A diagonal quadratic whose form's S^T is not the adjoint of its S."""

    def least_squares_form(self):
        form = super().least_squares_form()
        return form._replace(adjoint=lambda v: form.adjoint(v) + v[::-1])


def test_restricted_returns_an_exact_solve_that_fails_its_check():
    # the skewed adjoint puts the factor's selection vector off zero on the
    # support; the exact step returns it as it is, without descending, and
    # the greedy run refuses the form
    base = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    E = SkewedAdjoint(base.center, base.weights)
    D = gm.RotatedBasis(6, seed=3)
    factor = SpanFactor(D.compose(E.least_squares_form()), capacity=2)
    z, g, e = restricted_minimize(E, D, [4, 1], gm.SolverConfig(), factor)
    # the factor's own coefficients, read-only, and its coefficient-space gradient
    assert factor.size == 2 and z is factor.coefficients() and not z.flags.writeable
    assert np.array_equal(g, factor.gradient()) and e == factor.value()
    assert np.max(np.abs(g[[4, 1]])) > 1e-10
    with pytest.raises(ValueError, match="^SkewedAdjoint: least-squares form disagrees "
                                         "with the objective at 0"):
        gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp"))


@pytest.mark.parametrize("iters", [1, 3, 8])
def test_restricted_descent_one_gradient_per_iteration(iters):
    # the residual check opens each iteration; nothing is evaluated before the loop
    base = GradientCounted([40.0, -30.0, 20.0, 0.0], [0.5, 1.0, 2.0, 1.0])
    with pytest.raises(InnerSolveError):
        restricted_minimize(Stripped(base), gm.CanonicalBasis(4), [0, 1, 2],
                            gm.SolverConfig(max_inner_iters=iters))
    assert base.gradient_calls == iters
    # unit weights: one full gradient step lands on the minimizer, the second check returns
    base = GradientCounted([5.0, -2.0], [1.0, 1.0])
    z, _, _ = restricted_minimize(Stripped(base), gm.CanonicalBasis(2), [0, 1],
                                  gm.SolverConfig(max_inner_iters=iters + 1))
    assert z.tolist() == [5.0, -2.0] and base.gradient_calls == 2


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
        gm.SolverConfig(algorithm="omp", weakness=gm.WeaknessSchedule([1.0, 0.5]))
    with pytest.raises(ValueError, match="^selection_strategy: omp selects exactly"):
        gm.SolverConfig(algorithm="omp", selection_strategy="first_admissible")
    assert gm.SolverConfig(algorithm="omp", weakness=gm.WeaknessSchedule.constant(1.0),
                selection_strategy="exact") == gm.SolverConfig(algorithm="omp")
    with pytest.raises(ValueError, match="^algorithm: expected omp or wcga"):
        gm.SolverConfig(algorithm="sgd")


def test_dimension_mismatch_raises(unit_quadratic4):
    with pytest.raises(ValueError, match="dictionary size"):
        gm.run_wcga(unit_quadratic4, gm.CanonicalBasis(5), gm.SolverConfig(algorithm="omp"))


@pytest.mark.parametrize("K", [1, 4, 6])
def test_greedy_exact_run_evaluates_the_objective_a_fixed_number_of_times(K):
    # E at the minimizer and at the origin, the gradient at the origin and at
    # the final x, which certifies the run: none of it grows with K
    E = EvalCounted(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    E.value_calls = E.gradient_calls = 0
    tr = gm.run_wcga(E, gm.RotatedBasis(6, seed=3), gm.SolverConfig(algorithm="omp", max_steps=K))
    assert tr.final.k == K
    assert E.value_calls == 2 and E.gradient_calls == 2


def test_monotonicity_orthogonality_freshness(monkeypatch):
    solve, iterates = solvers.restricted_minimize, []

    def recording_solve(objective, dictionary, idx, cfg, factor=None, start=()):
        z, g, e = solve(objective, dictionary, idx, cfg, factor, start)
        dense = np.zeros(dictionary.size)
        dense[idx] = z
        iterates.append(dictionary.synthesize(dense))
        return z, g, e

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
        # each distance, read off the coefficients, is that of the iterate
        xbar = E.known_minimizer
        for step, x in zip(tr, [np.zeros(D.size)] + iterates):
            assert abs(step.dist - gm.norm(x - xbar)) <= 1e-12 * (1 + gm.norm(xbar))


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
    rc = gm.rate_constants(E, 3, E.known_params)
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
    s = gm.WeaknessSchedule([0.5, 0.8])
    assert s.t(1) == 0.5 and s.t(2) == 0.8 and s.t(9) == 0.8
    with pytest.raises(ValueError):
        gm.WeaknessSchedule.constant(0.0)
    with pytest.raises(ValueError):
        gm.WeaknessSchedule([])
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
    """The base objective, counting the columns its least-squares S is applied
    to (``columns``) and the columns of S it reads (``read``)."""

    def __init__(self, base):
        super().__init__(base.dimension)
        self.base = base
        self.known_minimizer = base.known_minimizer
        self.columns = self.read = 0

    def value(self, x):
        return self.base.value(x)

    def gradient(self, x):
        return self.base.gradient(x)

    def least_squares_form(self):
        form = self.base.least_squares_form()

        def counted(block):
            self.columns += block.shape[1]
            return form.apply(block)

        def counted_read(indices):
            self.read += len(indices)
            return form.columns(indices)

        return form._replace(apply=counted, columns=counted_read)


class CountsSubset:
    """A dictionary mixin counting the columns it subsets."""

    columns = 0

    def subset(self, indices):
        self.columns += len(indices)
        return super().subset(indices)


class SubsetCounted(CountsSubset, gm.RotatedBasis):
    """A rotated basis counting the columns it subsets."""


class CanonicalSubsetCounted(CountsSubset, gm.CanonicalBasis):
    """The canonical basis counting the columns it subsets."""


def _counted_run(kind, algorithm, D):
    """A 12-step run on a counted form in dimension 30, and the form's base objective."""
    rng = np.random.default_rng(11)
    n = 30
    base = (gm.DiagonalQuadratic(rng.standard_normal(n), rng.uniform(0.5, 2.0, n))
            if kind == "quadratic"
            else gm.LeastSquares(rng.standard_normal((40, n)), rng.standard_normal(40)))
    E = CountedForm(base)
    weak = {"weakness": gm.WeaknessSchedule.constant(0.6),
            "selection_strategy": "first_admissible"}
    cfg = gm.SolverConfig(algorithm=algorithm, max_steps=12,
                          **(weak if algorithm == "wcga" else {}))
    return E, base, gm.run_wcga(E, D, cfg)


def _assert_errors_match_fresh_lstsq(base, D, tr):
    """Each e_k is E at a fresh lstsq solve over the first k selected atoms."""
    form = base.least_squares_form()
    S, y = form.apply, form.rhs
    e_min = base.value(base.known_minimizer)
    for k in range(1, len(tr)):
        basis = D.subset(tr.support[:k])
        ref = base.value(basis @ np.linalg.lstsq(S(basis), y, rcond=None)[0]) - e_min
        assert abs(tr[k].error - ref) <= 1e-9 * (1.0 + ref)


@pytest.mark.parametrize("algorithm", ["omp", "wcga"])
@pytest.mark.parametrize("kind", ["quadratic", "least_squares"])
def test_greedy_factors_each_atom_once(kind, algorithm):
    # the factor is carried across steps: S meets each selected atom once,
    # and the dictionary subsets it once, k columns over k steps, where a
    # per-step rebuild would need k(k+1)/2
    D = SubsetCounted(30, seed=12)
    E, base, tr = _counted_run(kind, algorithm, D)
    assert len(tr) - 1 == 12 and E.columns == 12 and D.columns == 12 and E.read == 0
    _assert_errors_match_fresh_lstsq(base, D, tr)


@pytest.mark.parametrize("algorithm", ["omp", "wcga"])
@pytest.mark.parametrize("kind", ["quadratic", "least_squares"])
def test_canonical_greedy_reads_each_atom_column_once(kind, algorithm):
    # on the canonical basis a step reads its atom's column of S: S is
    # applied to no block and the dictionary subsets nothing
    D = CanonicalSubsetCounted(30)
    E, base, tr = _counted_run(kind, algorithm, D)
    assert len(tr) - 1 == 12 and E.columns == 0 and D.columns == 0 and E.read == 12
    _assert_errors_match_fresh_lstsq(base, D, tr)


class AppliedCanonical(gm.CanonicalBasis):
    """The canonical basis forming the columns of a form as other bases do: S on the unit
    block.  The form keeps its G, which the base composition drops, so only the column
    read differs from the canonical basis's."""

    def compose(self, form):
        return form._replace(columns=gm.Dictionary.compose(self, form).columns)


@pytest.mark.parametrize("algorithm", ["omp", "wcga"])
@pytest.mark.parametrize("rows", [60, 25])
def test_canonical_column_read_gives_the_run_of_the_product(rows, algorithm):
    # reading A's columns instead of multiplying A by unit blocks changes no bit
    rng = np.random.default_rng(17)
    n = 40
    A = rng.standard_normal((rows, n))
    A /= np.sqrt(rows)
    xbar = np.zeros(n)
    xbar[rng.choice(n, size=6, replace=False)] = rng.uniform(1.0, 2.0, 6)
    E = gm.LeastSquares(A, A @ xbar)
    weak = {"weakness": gm.WeaknessSchedule.constant(0.7),
            "selection_strategy": "random_admissible", "seed": 3}
    cfg = gm.SolverConfig(algorithm=algorithm, max_steps=20,
                          **(weak if algorithm == "wcga" else {}))
    tr = gm.run_wcga(E, gm.CanonicalBasis(n), cfg)
    ref = gm.run_wcga(E, AppliedCanonical(n), cfg)
    assert len(tr) > 6 and tr.steps == ref.steps
    assert np.array_equal(tr.x, ref.x)


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
            made.append((self.capacity, self.form.rhs.shape[0]))

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


class FormKept(gm.DiagonalQuadratic):
    """A diagonal quadratic keeping the last least-squares form it returned."""

    def least_squares_form(self):
        self.form = super().least_squares_form()
        return self.form


def test_greedy_factor_holds_the_objective_form_itself(monkeypatch):
    made = []

    class Recording(SpanFactor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(solvers, "SpanFactor", Recording)
    E = FormKept(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    # the canonical basis composes to the form itself; a rotated one to the
    # form of z -> E(D z), whose y and c are the form's
    gm.run_wcga(E, gm.CanonicalBasis(6), gm.SolverConfig(algorithm="omp"))
    assert len(made) == 1 and made[0].form is E.form
    D = gm.RotatedBasis(6, seed=3)
    gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp"))
    composed = made[1].form
    assert len(made) == 2 and composed is not E.form
    assert composed.rhs is E.form.rhs and composed.scale == E.form.scale
    v = np.random.default_rng(2).standard_normal(6)
    assert np.array_equal(composed.adjoint(v), D.analyze(E.form.adjoint(v)))
    assert np.array_equal(composed.columns([4, 1]), E.form.apply(D.subset([4, 1])))


# -- the exact path against the objective -------------------------------------


class ShiftedForm(gm.DiagonalQuadratic):
    """A diagonal quadratic whose least-squares form has the wrong right-hand side."""

    def least_squares_form(self):
        form = super().least_squares_form()
        return form._replace(rhs=form.rhs + 1.0)


class HalvedScale(gm.PowerSum):
    """A power sum at p = 2 whose form claims the quadratic's c = 1/2 instead of 1."""

    def least_squares_form(self):
        return super().least_squares_form()._replace(scale=0.5)


@pytest.mark.parametrize("cls", [ShiftedForm, HalvedScale])
def test_greedy_refuses_a_form_that_disagrees_at_zero(cls):
    # the empty factor must give E(0) and D^T E'(0) before any exact step
    base = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    E = (cls(base.center, base.weights) if cls is ShiftedForm
         else cls(base.center, 2.0, base.weights))
    with pytest.raises(ValueError, match=f"^{cls.__name__}: least-squares form disagrees "
                                         "with the objective at 0"):
        gm.run_wcga(E, gm.RotatedBasis(6, seed=3), gm.SolverConfig(algorithm="omp"))


class RankOneSkew(gm.DiagonalQuadratic):
    """A diagonal quadratic whose form's S is off by u v^T with u orthogonal to y.

    E(0) and S^T y are unchanged, so the form passes the check at 0, but every
    exact solve minimizes the wrong function.
    """

    def __init__(self, center, weights, u, v):
        super().__init__(center, weights)
        self.u, self.v = u, v

    def least_squares_form(self):
        form = super().least_squares_form()
        u, v = self.u, self.v
        assert abs(u @ form.rhs) <= 1e-12 * gm.norm(u) * gm.norm(form.rhs)

        def skewed(block):
            return form.apply(block) + np.outer(u, v @ block)

        return form._replace(apply=skewed, columns=unit_columns(skewed, self.dimension),
                             adjoint=lambda w: form.adjoint(w) + v * (u @ w))


def _record_exact_solves(monkeypatch) -> list[bool]:
    """Record, per restricted solve of a run, whether it was given a factor."""
    exact = []
    solve = solvers.restricted_minimize

    def recording_solve(objective, dictionary, idx, cfg, factor=None, start=()):
        exact.append(factor is not None)
        return solve(objective, dictionary, idx, cfg, factor, start)

    monkeypatch.setattr(solvers, "restricted_minimize", recording_solve)
    return exact


def _rank_one_skew(construction: str) -> tuple[RankOneSkew, int]:
    """A skewed form that passes the check at 0, and the step its run ends on.

    "wrong_solves": u, v random, so every exact solve lands off the true
    restricted minimizer and the run ends after its 3 steps.  "early_stop":
    S' x_wrong = y with x_wrong on the first selected atom, so the factor's
    selection vector vanishes after one step and calls the run stopped.
    """
    base = gm.DiagonalQuadratic(np.arange(1.0, 7.0), np.linspace(0.5, 2.0, 6))
    w, c = base.weights, base.center
    if construction == "wrong_solves":
        y = np.sqrt(w) * c
        u, v = np.random.default_rng(4).standard_normal((2, 6))
        return RankOneSkew(c, w, u - (u @ y) / (y @ y) * y, v), 3
    D = gm.RotatedBasis(6, seed=3)
    j = int(np.argmax(np.abs(D.analyze(base.gradient(np.zeros(6))))))
    d = D.subset([j])[:, 0]
    x_wrong = d * (w * c @ c) / (w * c @ d)      # so that u below is orthogonal to y
    # S x_wrong + u (v . x_wrong) = y
    return RankOneSkew(c, w, np.sqrt(w) * (c - x_wrong), x_wrong / (x_wrong @ x_wrong)), 1


@pytest.mark.parametrize("construction", ["wrong_solves", "early_stop"])
def test_greedy_refuses_a_form_that_disagrees_at_the_end(construction, monkeypatch):
    # the form passes at 0 and every step solves exactly with it; the last
    # selection vector is not the objective's at the synthesized x, so the
    # run raises rather than descending
    E, k = _rank_one_skew(construction)
    exact = _record_exact_solves(monkeypatch)
    with pytest.raises(ValueError, match=f"^RankOneSkew: least-squares form disagrees with "
                                         f"the objective at step {k}: "):
        gm.run_wcga(E, gm.RotatedBasis(6, seed=3), gm.SolverConfig(algorithm="omp", max_steps=3))
    assert exact == [True] * k


def test_greedy_stays_exact_on_a_correct_form_at_scale(monkeypatch):
    # a center near 1e6 puts the objective's gradient at the synthesized x
    # above inner_tol on the support by round-off alone; the form is right,
    # so the run stays on the exact path to the end
    rng = np.random.default_rng(21)
    n = 40
    c = np.zeros(n)
    c[rng.choice(n, size=8, replace=False)] = 1e6 * rng.uniform(1.0, 2.0, 8)
    E = gm.DiagonalQuadratic(c, rng.uniform(0.5, 2.0, n))
    exact = _record_exact_solves(monkeypatch)
    tr = gm.run_wcga(E, gm.CanonicalBasis(n), gm.SolverConfig(algorithm="omp"))
    assert tr.final.stopped and len(exact) == tr.final.k and all(exact)
    assert gm.norm(tr.x - c) <= 1e-14 * gm.norm(c)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
def test_greedy_recovers_a_planted_support_at_scale_with_exact_steps(basis_kind, scale,
                                                                     monkeypatch):
    # the exact step's restricted gradient sits at round-off of the problem's
    # scale, above inner_tol at 1e6 on a rotated basis; the step still
    # returns the factor's answer and never descends
    n = 100
    rng = np.random.default_rng(11)
    D = gm.CanonicalBasis(n) if basis_kind == "canonical" else gm.RotatedBasis(n, seed=4)
    a = np.zeros(n)
    support = rng.choice(n, size=8, replace=False)
    a[support] = scale * rng.uniform(1.0, 2.0, 8) * rng.choice((-1.0, 1.0), 8)
    E = gm.DiagonalQuadratic(D.synthesize(a), rng.uniform(0.5, 2.0, n))
    exact = _record_exact_solves(monkeypatch)
    tr = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp"))
    assert tr.final.stopped and sorted(tr.support) == sorted(support.tolist())
    assert exact == [True] * 8


def _reselecting_run(path):
    """An objective, dictionary and config whose greedy run reselects an atom.

    On the exact path, the planted support of the scale test above at 1e9:
    the selection vector's round-off on the support passes stop_tol.  On the
    descent path, an inner_tol above stop_tol.
    """
    if path == "descent":
        E, D, _ = make_rotated_powersum(seed=16)
        return E, D, gm.SolverConfig(algorithm="omp", stop_tol=1e-12, inner_tol=1e-6,
                                     max_inner_iters=3000)
    n = 100
    rng = np.random.default_rng(11)
    D = gm.RotatedBasis(n, seed=4)
    a = np.zeros(n)
    support = rng.choice(n, size=8, replace=False)
    a[support] = 1e9 * rng.uniform(1.0, 2.0, 8) * rng.choice((-1.0, 1.0), 8)
    return gm.DiagonalQuadratic(D.synthesize(a), rng.uniform(0.5, 2.0, n)), D, gm.SolverConfig()


@pytest.mark.parametrize("path,step,atom,cause", [
    ("exact", 9, 2, "the exact solve's round-off at this problem's scale exceeds stop_tol"),
    ("descent", 13, 40, "stop_tol must stay above inner_tol (1e-06)"),
], ids=["exact", "descent"])
def test_reselection_names_its_cause(path, step, atom, cause):
    E, D, cfg = _reselecting_run(path)
    with pytest.raises(RuntimeError) as err:
        gm.run_wcga(E, D, cfg)
    head = f"atom {atom} reselected at step {step}: |g_{atom}| = "
    tail = f" > stop_tol ({cfg.stop_tol:g}); {cause}"
    message = str(err.value)
    assert message.startswith(head) and message.endswith(tail)
    assert float(message[len(head):-len(tail)]) > 30.0 * cfg.stop_tol


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
@pytest.mark.parametrize("kind", ["quadratic", "least_squares", "powersum2"])
def test_carried_residual_stays_the_span_residual(kind, basis_kind, monkeypatch):
    # over a full run, the factor's r stays within round-off of y - S B z
    deviations = []

    class Checked(SpanFactor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.images = []

        def extend(self, image):
            super().extend(image)
            self.images.append(image)
            y = self.form.rhs
            span_residual = y - np.hstack(self.images) @ self.coefficients()
            deviations.append(gm.norm(self._r - span_residual) / gm.norm(y))

    monkeypatch.setattr(solvers, "SpanFactor", Checked)
    n = 30
    E = stack_library(n, seed=3)[kind]
    D = gm.CanonicalBasis(n) if basis_kind == "canonical" else gm.RotatedBasis(n, seed=5)
    tr = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=n))
    assert tr.final.k == n and len(deviations) == n
    assert max(deviations) <= 1e-13


# -- the selection vector off the Gram matrix ---------------------------------


class AdjointCounted(gm.LeastSquares):
    """A least squares counting the vectors its form's S^T is applied to.

    With ``gram=False`` its form drops G and S^T y, so its runs take the
    residual adjoint route.
    """

    def __init__(self, matrix, rhs, gram=True):
        super().__init__(matrix, rhs)
        self.gram = gram
        self.adjoint_calls = 0

    def least_squares_form(self):
        form = super().least_squares_form()

        def counted(v):
            self.adjoint_calls += 1
            return form.adjoint(v)

        counted_form = form._replace(adjoint=counted)
        return counted_form if self.gram else counted_form._replace(gram=None, adjoint_rhs=None)


def _tall_problem(noise: float):
    """A seeded 60 x 40 A with a 6-sparse x_bar and b = A x_bar + noise * a Gaussian."""
    rng = np.random.default_rng(23)
    m, n = 60, 40
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    xbar = np.zeros(n)
    xbar[rng.choice(n, size=6, replace=False)] = rng.uniform(1.0, 2.0, 6)
    return A, A @ xbar + noise * rng.standard_normal(m)


GRAM_VARIANTS = [
    gm.SolverConfig(algorithm="omp", max_steps=25),
    gm.SolverConfig(algorithm="wcga", max_steps=25, weakness=gm.WeaknessSchedule.constant(0.5),
                    selection_strategy="first_admissible"),
    gm.SolverConfig(algorithm="wcga", max_steps=25, weakness=gm.WeaknessSchedule.constant(0.7),
                    selection_strategy="random_admissible", seed=3),
]


@pytest.mark.parametrize("cfg", GRAM_VARIANTS, ids=["omp", "wcga_first", "wcga_random"])
@pytest.mark.parametrize("noise", [0.0, 0.1], ids=["planted", "noisy"])
@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
def test_gram_selection_vector_is_the_residual_adjoint(basis_kind, noise, cfg, monkeypatch):
    # at every step the selection vector read off the Gram block agrees with
    # D^T(-2c A^T r) from the carried residual, and the run selects what the
    # residual route selects, with the same E_k; on noisy data r stays far
    # from round-off, so the agreement is not that of two small vectors; a
    # rotated basis appends no Gram column and takes the residual adjoint
    gaps, grams = [], []

    class Compared(SpanFactor):
        def gradient(self):
            g = super().gradient()
            ref = (-2.0 * self.form.scale) * (A.T @ self._r)
            gaps.append(gm.norm(g - D.analyze(ref)))
            grams.append((self._grams, self.size))
            return g

    monkeypatch.setattr(solvers, "SpanFactor", Compared)
    A, b = _tall_problem(noise)
    n = A.shape[1]
    D = gm.CanonicalBasis(n) if basis_kind == "canonical" else gm.RotatedBasis(n, seed=5)
    E, residual = AdjointCounted(A, b), AdjointCounted(A, b, gram=False)
    g0 = D.analyze(E.gradient(np.zeros(n)))
    tr = gm.run_wcga(E, D, cfg)
    assert len(gaps) == len(tr) and max(gaps) <= 1e-12 * gm.norm(g0)
    assert all(kept == (size if basis_kind == "canonical" else 0) for kept, size in grams)
    ref = gm.run_wcga(residual, D, cfg)
    assert len(tr) > 6 and tr.support == ref.support
    assert [s.value for s in tr] == [s.value for s in ref]
    if noise:
        assert tr.final.value > 1e-4 * tr[0].value
    # S^T never meets r on the canonical basis, which reads G's columns; a
    # rotated one composes a form without G or S^T y, so it applies S^T to r
    # once per step and once more for the empty factor
    assert E.adjoint_calls == (0 if basis_kind == "canonical" else len(tr))
    assert residual.adjoint_calls == len(ref)


@pytest.mark.parametrize("basis_kind", ["canonical", "rotated"])
def test_gram_block_is_allocated_only_where_steps_fill_it(basis_kind, monkeypatch):
    # the canonical basis appends one Gram column per step; a rotated one
    # composes a form without G, so its factor holds no block beside G
    made = []

    class Recording(SpanFactor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(solvers, "SpanFactor", Recording)
    A, b = _tall_problem(0.1)
    n, k = A.shape[1], 12
    D = gm.CanonicalBasis(n) if basis_kind == "canonical" else gm.RotatedBasis(n, seed=5)
    tr = gm.run_wcga(gm.LeastSquares(A, b), D, gm.SolverConfig(algorithm="omp", max_steps=k))
    assert len(tr) - 1 == k and len(made) == 1
    if basis_kind == "canonical":
        assert made[0]._gram.shape == (k, n) and made[0]._grams == k
    else:
        assert made[0]._gram is None


class SkewedGram(gm.LeastSquares):
    """A tall least squares whose form's G is off by a rank-one u v^T.

    S, S^T and S^T y are right, so the form passes the check at 0 and every
    exact solve is right, but the selection vectors read off G are not.
    """

    def least_squares_form(self):
        form = super().least_squares_form()
        u, v = np.random.default_rng(6).standard_normal((2, self.dimension))
        return form._replace(gram=form.gram + 1e-3 * np.outer(u, v))


def test_greedy_refuses_a_wrong_gram_at_the_end(monkeypatch):
    # the end-of-run check compares the Gram route's last selection vector
    # with the objective's gradient at the synthesized x
    A, b = _tall_problem(0.0)
    E = SkewedGram(A, b)
    exact = _record_exact_solves(monkeypatch)
    with pytest.raises(ValueError, match="^SkewedGram: least-squares form disagrees with "
                                         "the objective at step 4: "):
        gm.run_wcga(E, gm.CanonicalBasis(40), gm.SolverConfig(algorithm="omp", max_steps=4))
    assert exact == [True] * 4
