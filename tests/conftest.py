"""Shared problem builders for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

import greedymin as gm
from greedymin.core import IterateTrace, TraceStep


def make_sparse_quadratic(seed: int, n: int = 100, s: int = 5,
                          w_low: float = 0.5, w_high: float = 2.0):
    """Seeded diagonal quadratic with an s-sparse center, canonical dictionary."""
    rng = np.random.default_rng(gm.sub_seed(seed, "objective"))
    center = np.zeros(n)
    idx = np.sort(rng.choice(n, size=s, replace=False))
    center[idx] = rng.uniform(1.0, 2.0, s) * rng.choice((-1.0, 1.0), s)
    weights = np.ones(n) if w_low == w_high == 1.0 else rng.uniform(w_low, w_high, n)
    return gm.DiagonalQuadratic(center, weights), gm.CanonicalBasis(n)


def make_rotated_powersum(seed: int = 16, n: int = 50, s: int = 3,
                          decades: float = 6.0):
    """Rotated power-sum fixture whose greedy run has a long positive-error tail."""
    dictionary = gm.RotatedBasis(n, seed=gm.sub_seed(seed, "dictionary"))
    rng = np.random.default_rng(gm.sub_seed(seed, "objective"))
    coeffs = np.zeros(n)
    idx = np.sort(rng.choice(n, size=s, replace=False))
    coeffs[idx] = rng.uniform(1.0, 2.0, s) * rng.choice((-1.0, 1.0), s)
    center = dictionary.synthesize(coeffs)
    weights = 10.0 ** rng.uniform(-decades / 2, decades / 2, n)
    return gm.PowerSum(center, 4.0, weights), dictionary, coeffs


def powersum_constants(objective: gm.PowerSum, dictionary: gm.Dictionary,
                       seed: int) -> gm.RateConstants:
    """The rate constants the CLI derives for this problem under config ``seed``."""
    cfg = gm.config_from_mapping({
        "name": "fixture", "dimension": objective.dimension, "seed": seed,
        "objective.type": "power_sum", "objective.exponent": objective.exponent,
        "objective.center_sparsity": 0})
    rc, reason = gm.derive_constants(cfg, objective, dictionary)
    assert rc is not None, reason
    return rc


def conditioned_matrix(rng, m: int, n: int, kappa: float) -> np.ndarray:
    """A tall (m, n) matrix U diag(s) V^T with singular values log-spaced in [1/kappa, 1]."""
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * np.logspace(0.0, -np.log10(kappa), n)) @ V.T


def check_gradient(objective: gm.Objective, x, step: float = 1e-5) -> float:
    """Max relative discrepancy between the gradient and central differences."""
    if not step > 0:
        raise ValueError("step must be positive")
    x = gm.as_point(x, objective.dimension)
    g = objective.gradient(x)
    worst = 0.0
    for i in range(objective.dimension):
        e = np.zeros(objective.dimension)
        e[i] = step
        cd = (objective.value(x + e) - objective.value(x - e)) / (2.0 * step)
        worst = max(worst, abs(cd - g[i]) / (1.0 + abs(g[i])))
    return worst


class CountingObjective(gm.Objective):
    """Delegates to ``inner``, counts the ``value``/``gradient`` calls and
    keeps the most rows any one call stacked (a point counts as one row)."""

    def __init__(self, inner: gm.Objective):
        super().__init__(inner.dimension)
        self.inner = inner
        self.value_calls = 0
        self.gradient_calls = 0
        self.max_rows = 0

    def _rows(self, x):
        self.max_rows = max(self.max_rows, np.shape(x)[0] if np.ndim(x) == 2 else 1)

    def value(self, x):
        self.value_calls += 1
        self._rows(x)
        return self.inner.value(x)

    def gradient(self, x):
        self.gradient_calls += 1
        self._rows(x)
        return self.inner.gradient(x)


def stack_library(n: int, seed: int = 0) -> dict[str, gm.Objective]:
    """The three objective types, the power sum at p = 4 and p = 2, in dimension n."""
    rng = np.random.default_rng(seed)
    return {
        "quadratic": gm.DiagonalQuadratic(rng.standard_normal(n), rng.uniform(0.5, 2.0, n)),
        "least_squares": gm.LeastSquares(rng.standard_normal((n + 4, n)),
                                         rng.standard_normal(n + 4)),
        "powersum4": gm.PowerSum(rng.standard_normal(n), 4.0, rng.uniform(0.5, 2.0, n)),
        "powersum2": gm.PowerSum(rng.standard_normal(n), 2.0, rng.uniform(0.5, 2.0, n)),
    }


def unit_columns(S, n: int):
    """A column read of the map S derived from S itself: S on the unit block of the indices.

    A test form that rebuilds S gives it this read, so a deliberately wrong S
    drives the canonical basis's image as well as every other product.
    """
    return lambda indices: S(np.eye(n)[:, list(indices)])


def synth_trace(errors, dim: int = 2) -> IterateTrace:
    """Trace with prescribed error values and a placeholder final iterate."""
    steps = []
    for k, e in enumerate(errors):
        steps.append(TraceStep(k=k, value=float(e), error=float(e),
                               dist=None, selected=None if k == 0 else k - 1,
                               grad_coeff=None, grad_sup=0.0, stopped=False))
    return IterateTrace(steps, np.zeros(dim))


@pytest.fixture
def unit_quadratic4():
    return gm.DiagonalQuadratic([3.0, 0.0, 1.0, 0.0], np.ones(4))
