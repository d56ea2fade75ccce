import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedymin as gm
from greedymin.dictionaries import weak_select


@pytest.fixture(params=["canonical", "rotated"])
def basis(request):
    if request.param == "canonical":
        return gm.CanonicalBasis(12)
    return gm.RotatedBasis(12, seed=5)


def test_orthonormality(basis):
    for i in range(basis.size):
        for j in range(basis.size):
            want = 1.0 if i == j else 0.0
            phi_i, phi_j = basis.subset([i])[:, 0], basis.subset([j])[:, 0]
            assert abs(gm.inner(phi_i, phi_j) - want) <= 1e-10


def test_parseval(basis):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(basis.size)
        assert np.isclose(gm.norm(basis.analyze(x)), gm.norm(x), rtol=1e-10)


def test_round_trip(basis):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(basis.size)
        assert np.allclose(basis.synthesize(basis.analyze(x)), x, atol=1e-10)


def test_analyze_rejects_stack(basis):
    with pytest.raises(ValueError, match="1-D point"):
        basis.analyze(np.ones((3, basis.size)))


def test_subset_columns(basis):
    B = basis.subset([1, 4, 9])
    for col, j in enumerate([1, 4, 9]):
        assert np.allclose(B[:, col], basis.subset([j])[:, 0])


def test_rotated_determinism_and_orthogonality():
    a = gm.RotatedBasis(20, seed=42)
    b = gm.RotatedBasis(20, seed=42)
    assert np.array_equal(a.q, b.q)
    assert np.max(np.abs(a.q.T @ a.q - np.eye(20))) <= 1e-10
    assert not np.allclose(a.q, gm.RotatedBasis(20, seed=43).q)


def test_weak_select_exact_examples():
    assert weak_select([-3.0, 0.0, -1.0, 0.0], 1.0) == (0, -3.0)
    assert weak_select([2.0, -2.0], 1.0) == (0, 2.0)     # tie -> lowest index
    assert weak_select([0.0, 0.0, 5.0], 1.0) == (2, 5.0)
    # the argmax, whatever t: exact selection ignores the weakness
    assert weak_select([1.0, -4.0, 3.5], 0.5, "exact") == (1, -4.0)
    with pytest.raises(ValueError, match="empty"):
        weak_select([], 1.0, "exact")


def test_weak_select_examples():
    # |{-2}| >= 0.5 * 3, so index 0 is admissible and comes first
    assert weak_select([-2.0, -3.0], 0.5, "first_admissible")[0] == 0
    for strategy in ("exact", "first_admissible", "random_admissible"):
        assert weak_select([-2.0, -3.0], 1.0, strategy, seed=0)[0] == 1
    assert weak_select([1.0, 0.0, 0.0], 0.5, "random_admissible", seed=3) == (0, 1.0)


def test_weak_select_validation():
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        weak_select([1.0], 1.5)
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        weak_select([1.0], 0.0)
    with pytest.raises(ValueError, match="empty"):
        weak_select([], 0.5)
    with pytest.raises(ValueError, match="strategy"):
        weak_select([1.0], 0.5, "nope")


def test_weak_select_seed_determinism():
    coeffs = np.array([1.0, -0.9, 0.8, -0.95, 0.99])
    picks = [weak_select(coeffs, 0.5, "random_admissible", seed=7)[0] for _ in range(5)]
    assert len(set(picks)) == 1


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20))
def test_weak_select_t1_matches_argmax(coeffs):
    j = int(np.argmax(np.abs(coeffs)))
    want = (j, float(coeffs[j]))
    assert weak_select(coeffs, 1.0, "exact") == want
    assert weak_select(coeffs, 1.0, "first_admissible") == want


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20),
       t=st.floats(0.01, 1.0))
def test_weak_select_returns_admissible(coeffs, t):
    j, v = weak_select(coeffs, t, "random_admissible", seed=0)
    mags = np.abs(np.array(coeffs))
    assert coeffs[j] == v
    assert abs(v) >= t * mags.max() - 1e-12 * mags.max()
