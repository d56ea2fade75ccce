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
            assert abs(np.dot(phi_i, phi_j) - want) <= 1e-10


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


@pytest.mark.parametrize("make", [gm.CanonicalBasis, lambda n: gm.RotatedBasis(n, seed=1)],
                         ids=["canonical", "rotated"])
def test_dimension_must_be_positive(make):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        make(0)
    assert make(3).size == 3


def test_subset_columns(basis):
    B = basis.subset([1, 4, 9])
    for col, j in enumerate([1, 4, 9]):
        assert np.allclose(B[:, col], basis.subset([j])[:, 0])


def _forms(n: int) -> dict:
    """The least-squares forms with a column read of S, in dimension n."""
    rng = np.random.default_rng(3)
    objectives = {
        "least_squares_tall": gm.LeastSquares(rng.standard_normal((n + 4, n)),
                                              rng.standard_normal(n + 4)),
        "least_squares_wide": gm.LeastSquares(rng.standard_normal((n - 5, n)),
                                              rng.standard_normal(n - 5)),
        "quadratic": gm.DiagonalQuadratic(rng.standard_normal(n), rng.uniform(0.5, 2.0, n)),
        "powersum2": gm.PowerSum(rng.standard_normal(n), 2.0, rng.uniform(0.5, 2.0, n)),
    }
    return {kind: E.least_squares_form() for kind, E in objectives.items()}


@pytest.mark.parametrize("indices", [[7], [9, 2, 11, 0, 5]])
@pytest.mark.parametrize("kind", ["least_squares_tall", "least_squares_wide", "quadratic",
                                  "powersum2"])
def test_image_is_the_product_on_the_subset_bit_for_bit(basis, kind, indices):
    # the composed form's columns are S on the atoms, with the bits of its
    # map S D on the unit block: the canonical basis reads S's columns; a
    # reordered or dropped column fails
    form = _forms(basis.size)[kind]
    composed = basis.compose(form)
    image = composed.columns(indices)
    assert np.array_equal(image, form.apply(basis.subset(indices)))
    assert np.array_equal(image, composed.apply(np.eye(basis.size)[:, indices]))


@pytest.mark.parametrize("indices", [[7], [9, 2, 11, 0, 5]])
def test_gram_image_is_the_gram_on_the_subset(basis, indices):
    # S^T S B: the composed form's G on the canonical basis, whose columns
    # are bit for bit G on the unit block; no G elsewhere, where it would
    # cost a product with S^T per atom, nor from a form without G
    forms = _forms(basis.size)
    tall = forms["least_squares_tall"]
    composed = basis.compose(tall)
    if isinstance(basis, gm.CanonicalBasis):
        assert np.array_equal(composed.gram[:, indices], tall.gram @ basis.subset(indices))
        assert composed.adjoint_rhs is tall.adjoint_rhs
    else:
        assert composed.gram is None and composed.adjoint_rhs is None
    assert basis.compose(forms["least_squares_wide"]).gram is None


@pytest.mark.parametrize("kind", ["least_squares_tall", "least_squares_wide", "quadratic",
                                  "powersum2"])
def test_composed_adjoint_is_the_analysis_of_the_adjoint(basis, kind):
    # D^T S^T v, bit for bit; y and c pass through, and the canonical basis
    # hands back the form itself
    form = _forms(basis.size)[kind]
    composed = basis.compose(form)
    v = np.random.default_rng(4).standard_normal(form.rhs.shape[0])
    assert np.array_equal(composed.adjoint(v), basis.analyze(form.adjoint(v)))
    assert composed.rhs is form.rhs and composed.scale == form.scale
    assert (composed is form) == isinstance(basis, gm.CanonicalBasis)


def test_canonical_image_reads_every_column_of_a_large_matrix_exactly():
    # A @ e_j is A[:, j] exactly: every other term is a finite entry times 0
    rng = np.random.default_rng(1)
    A = rng.standard_normal((1200, 600))
    A /= np.sqrt(1200)
    form = gm.LeastSquares(A, rng.standard_normal(1200)).least_squares_form()
    D = gm.CanonicalBasis(600)
    columns = D.compose(form).columns
    for j in range(600):
        assert np.array_equal(columns([j]), form.apply(D.subset([j])))
    shuffled = rng.permutation(600).tolist()
    assert np.array_equal(columns(shuffled), form.apply(D.subset(shuffled)))


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
