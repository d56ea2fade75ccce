"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""
import time

import numpy as np
import pytest

import greedymin as gm
from greedymin.cli import main

from conftest import (check_gradient, make_rotated_powersum, make_sparse_quadratic,
                      powersum_constants)


def _report(num, text):
    print(f"criterion {num:2d}: PASS — {text}")


def test_criterion_01_exact_sparse_recovery():
    t0 = time.perf_counter()
    E, D = make_sparse_quadratic(seed=1, n=100, s=5, w_low=1.0, w_high=1.0)
    trace = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=100))
    elapsed = time.perf_counter() - t0
    assert trace.final.k == 5 and trace.final.stopped
    assert gm.norm(trace.x - E.known_minimizer) <= 1e-8
    assert elapsed < 1.0
    _report(1, f"5-sparse center recovered in exactly 5 steps ({elapsed:.3f}s)")


def test_criterion_02_exponential_rate_20_seeds():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(20):
        E, D = make_sparse_quadratic(seed, n=100, s=5, w_low=0.5, w_high=2.0)
        trace = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=100))
        rc = gm.rate_constants(E, 5, E.known_params)
        dist_scale = np.sqrt(rc.initial_gap / rc.beta_global)
        for step in trace:
            power = max(step.k - 1, 0)
            if step.error > rc.initial_gap * rc.contraction_factor ** power + 1e-9:
                violations += 1
            if step.dist > dist_scale * rc.contraction_factor ** (power / 2) + 1e-8:
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 10.0
    _report(2, f"20 seeds obey the geometric error and distance bounds ({elapsed:.2f}s)")


def test_criterion_03_per_step_recursion_fixture_suite():
    checked = 0
    for seed in range(20):
        E, D = make_sparse_quadratic(seed, n=100, s=5, w_low=0.5, w_high=2.0)
        trace = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=100))
        rc = gm.rate_constants(E, 5, E.known_params)
        report = gm.check_error_recursion(trace, rc, tol=1e-9)
        assert report.violations == 0
        checked += len(report.ks)
    E, D, coeffs = make_rotated_powersum(seed=16)
    trace = gm.run_wcga(E, D, gm.SolverConfig(
        algorithm="omp", max_steps=200, max_inner_iters=3000))
    rc = powersum_constants(E, D, 16)
    report = gm.check_error_recursion(trace, rc, tol=1e-9)
    assert report.violations == 0
    checked += len(report.ks)
    _report(3, f"zero recursion violations across {checked} step pairs")


def test_criterion_04_polynomial_rate_power_sum():
    t0 = time.perf_counter()
    E, D, coeffs = make_rotated_powersum(seed=16, n=50, s=3)
    trace = gm.run_wcga(E, D, gm.SolverConfig(
        algorithm="omp", max_steps=200, max_inner_iters=3000))
    rc = powersum_constants(E, D, 16)
    assert rc.params.p == 4.0 and rc.params.q == 2.0
    for step in trace:
        if step.k >= 2:
            assert step.error <= gm.error_bound(rc, step.k) + 1e-9
    fit = gm.fit_rate(trace, 1.0)
    assert fit.slope <= -2.0 + 0.3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"{trace.final.k}-step run under the polynomial bound, "
               f"tail slope {fit.slope:.2f} <= -1.7 ({elapsed:.2f}s)")


def test_criterion_05_wcga_consistency():
    # t = 1 with exact selection reproduces the pure greedy trace
    for seed in range(10):
        E, D = make_sparse_quadratic(seed, n=60, s=5, w_low=0.5, w_high=2.0)
        omp = gm.run_wcga(E, D, gm.SolverConfig(algorithm="omp", max_steps=60))
        wcga = gm.run_wcga(E, D, gm.SolverConfig(
            algorithm="wcga", weakness=gm.WeaknessSchedule.constant(1.0),
            selection_strategy="exact", max_steps=60))
        assert omp.support == wcga.support
        for a, b in zip(omp, wcga):
            assert abs(a.error - b.error) <= 1e-10
    # weakened selection obeys the schedule-weighted bounds
    half = gm.WeaknessSchedule.constant(0.5)
    violations = 0
    for seed in range(10):
        E, D = make_sparse_quadratic(seed, n=60, s=5, w_low=0.5, w_high=2.0)
        trace = gm.run_wcga(E, D, gm.SolverConfig(
            algorithm="wcga", weakness=half, selection_strategy="first_admissible",
            max_steps=60))
        rc = gm.rate_constants(E, 5, E.known_params)
        violations += gm.check_error_recursion(trace, rc, half, tol=1e-9).violations
        for step in trace:
            if step.k >= 2 and step.error > gm.error_bound(rc, step.k, half) + 1e-9:
                violations += 1
    assert violations == 0
    _report(5, "wcga(t=1) == omp on 10 seeds; t=0.5 runs obey the weighted bounds")


def test_criterion_06_moduli_oracles():
    rng = np.random.default_rng(33)
    E = gm.DiagonalQuadratic(rng.standard_normal(20), np.ones(20))
    grid = [1.0 / 2 ** i for i in reversed(range(10))]
    est = gm.estimate_moduli(E, 2.0, grid, 50, 7, seed=34)
    assert len(est.u_grid) == 10
    for i, u in enumerate(est.u_grid):
        assert abs(est.rho[i] - u * u / 2) <= 1e-9
        assert abs(est.rho1[i] - u * u / 2) <= 1e-9
        assert abs(est.delta1[i] - u * u / 2) <= 1e-9
    fixtures = [
        E,
        gm.DiagonalQuadratic(rng.standard_normal(8), rng.uniform(0.5, 2.0, 8)),
        gm.LeastSquares(rng.standard_normal((12, 8)), rng.standard_normal(12)),
        gm.PowerSum(rng.standard_normal(8), 4.0, rng.uniform(0.5, 2.0, 8)),
    ]
    for fixture in fixtures:
        fest = gm.estimate_moduli(fixture, 1.5, grid, 50, 7, seed=35)
        checks = gm.check_moduli_equivalence(fest, slack=1.05, tol=1e-9)
        assert not any(check.violations for check in checks)
    _report(6, "quadratic moduli equal u^2/2; two-sided comparison holds on all fixtures")


def test_criterion_07_bregman_gap_identity():
    rng = np.random.default_rng(44)
    for _ in range(100):
        k = int(rng.integers(3, 12))
        n = int(rng.integers(2, 10))
        A = rng.standard_normal((k, n))
        E = gm.LeastSquares(A, rng.standard_normal(k))
        x = rng.standard_normal(n)
        xp = rng.standard_normal(n)
        expected = gm.norm(A @ (xp - x)) ** 2
        assert abs(gm.bregman_gap(E, x, xp) - expected) <= 1e-10 * (1.0 + expected)
    _report(7, "gap equals the quadratic residual identity on 100 seeded draws")


def test_criterion_08_sequence_bound_soundness():
    inp = gm.SequenceBoundInput(1.0, 1.0, 1.0, tuple([1.0] * 1000))
    for m in range(2, 1001):
        assert gm.recursive_sequence_bound(inp, m) == pytest.approx(1.0 / m, rel=1e-13)
    for trial in range(200):
        rng = np.random.default_rng(5000 + trial)
        ell = rng.uniform(1.0, 3.0) if trial % 2 else rng.uniform(0.01, 1.0)
        scale = rng.uniform(0.05, 3.0)
        gains = rng.uniform(0.0, 1.0, size=1000)
        start = scale ** (1.0 / ell) * rng.uniform(0.05, 1.0)
        bound_inp = gm.SequenceBoundInput(start, scale, ell, tuple(gains))
        a = start
        for m in range(2, 1001):
            a = a * (1.0 - (gains[m - 2] / scale) * a ** ell)
            assert a <= gm.recursive_sequence_bound(bound_inp, m) * (1 + 1e-12)
    _report(8, "200 seeded recursions stay under the closed-form bound; 1/m case exact")


def test_criterion_09_gradient_correctness():
    rng = np.random.default_rng(55)
    n = 12
    objectives = [
        gm.DiagonalQuadratic(rng.standard_normal(n), rng.uniform(0.5, 2.0, n)),
        gm.LeastSquares(rng.standard_normal((2 * n, n)), rng.standard_normal(2 * n)),
        gm.PowerSum(rng.standard_normal(n), 4.0, rng.uniform(0.5, 2.0, n)),
        gm.PowerSum(rng.standard_normal(n), 2.0, rng.uniform(0.5, 2.0, n)),
    ]
    worst = 0.0
    for E in objectives:
        for _ in range(50):
            x = rng.standard_normal(n) * 2.0
            worst = max(worst, check_gradient(E, x))
    assert worst < 1e-5
    _report(9, f"central differences agree on every objective, worst {worst:.2e}")


def test_criterion_10_trace_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "name = det\ndimension = 50\nseed = 9\n"
        "objective.type = power_sum\nobjective.exponent = 4\n"
        "objective.center_sparsity = 3\n"
        "objective.weights_low = 0.001\nobjective.weights_high = 1000\n"
        "objective.weights_log = true\n"
        "dictionary.type = rotated\n"
        "solver.algorithm = omp\nsolver.max_steps = 200\n"
        "solver.max_inner_iters = 3000\n"
        "analysis.tail_fraction = 1.0\n")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--quiet", "--output-dir", str(d1), "run", str(cfg)]) == 0
    assert main(["--quiet", "--output-dir", str(d2), "run", str(cfg)]) == 0
    assert (d1 / "det.trace.csv").read_bytes() == (d2 / "det.trace.csv").read_bytes()
    _report(10, "repeated runs produce byte-identical trace files")
