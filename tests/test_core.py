import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedymin as gm
from greedymin.core import TraceStep, _csv_num, support_of

finite_vec = st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                      min_size=1, max_size=12)


def test_as_points_shapes():
    from greedymin.core import as_points

    stack = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(as_points(stack, 3), stack)
    assert as_points([1.0, 2.0], 2).shape == (2,)
    with pytest.raises(ValueError, match="or a stack"):
        as_points(np.ones((2, 2, 3)), 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_points(stack, 2)
    with pytest.raises(ValueError, match="1-D point"):
        gm.as_point(stack, 3)


def test_scalar_is_not_a_point():
    from greedymin.core import as_points

    for scalar in (3.0, np.float64(1.0), np.array(2.0)):
        with pytest.raises(ValueError, match=r"or a stack \(m, n\), got shape \(\)"):
            as_points(scalar)
        with pytest.raises(ValueError, match=r"1-D point, got shape \(\)"):
            gm.as_point(scalar, 1)
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        gm.DiagonalQuadratic([1.0], [1.0]).value(3.0)


def test_inner_self_matches_norm_squared():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(7)
        # independent oracle: explicit sum of squares
        expected = sum(float(v) * float(v) for v in x)
        assert abs(np.dot(x, x) - expected) <= 1e-12 * (1.0 + expected)
        assert abs(gm.norm(x) ** 2 - expected) <= 1e-12 * (1.0 + expected)


def test_norm_pythagorean():
    assert gm.norm(np.array([3.0, 4.0])) == 5.0


def test_norm_zero_point():
    assert gm.norm(np.zeros(5)) == 0.0


def test_norm_homogeneity():
    x = np.array([1.0, -2.0, 0.5])
    for c in (-3.0, 0.25, 7.0):
        assert np.isclose(gm.norm(c * x), abs(c) * gm.norm(x), rtol=1e-14)


@settings(max_examples=100, deadline=None)
@given(pair=st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))))
def test_cauchy_schwarz(pair):
    a = np.array(pair[0])
    b = np.array(pair[1])
    assert abs(np.dot(a, b)) <= gm.norm(a) * gm.norm(b) * (1 + 1e-12) + 1e-12


@settings(max_examples=100, deadline=None)
@given(pair=st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n))))
def test_parallelogram_law(pair):
    a = np.array(pair[0])
    b = np.array(pair[1])
    lhs = gm.norm(a + b) ** 2 + gm.norm(a - b) ** 2
    rhs = 2 * gm.norm(a) ** 2 + 2 * gm.norm(b) ** 2
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        gm.as_point([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        gm.as_point([np.inf, 0.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        gm.as_point([1.0, 2.0], dim=3)
    with pytest.raises(ValueError, match="1-D"):
        gm.as_point(np.zeros((2, 2)))


def test_sparse_support_from_coefficients():
    c = np.array([0.0, 2.0, 1e-14, -0.5])
    assert support_of(c, 1e-10).tolist() == [1, 3]
    # the cut is tol * max |c|, relative at every scale
    assert support_of(np.array([1e3, 2e-8, 0.0]), 1e-10).tolist() == [0]
    assert support_of(np.array([1e-3, 2e-10, 0.0]), 1e-10).tolist() == [0, 1]
    assert support_of(np.array([0.0, 1e-11, 0.0, -2e-11]), 1e-10).tolist() == [1, 3]
    assert support_of(np.zeros(4), 1e-10).size == 0


def test_param_records_validate():
    good = dict(alpha=1.0, q=2.0, beta=1.0, p=2.0, radius=1.0, grad_bound=1.0)
    gm.CurvatureParams(**good)
    for name in ("alpha", "beta", "radius", "grad_bound"):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                gm.CurvatureParams(**good | {name: bad})
    gm.CurvatureParams(**good | {"q": 1.5})
    for q in (1.0, 2.5):
        with pytest.raises(ValueError, match=r"^smoothness exponent .* outside \(1, 2\]$"):
            gm.CurvatureParams(**good | {"q": q})
    gm.CurvatureParams(**good | {"p": 4.0})
    with pytest.raises(ValueError, match="^convexity exponent 1.5 below 2$"):
        gm.CurvatureParams(**good | {"p": 1.5})


def test_trace_csv_round_trip(tmp_path):
    steps = [
        TraceStep(0, 5.0, 5.0, 2.0, None, None, 3.0, False),
        TraceStep(1, 0.5, 0.5, 1.0, 4, -3.0, 3.0, True),
    ]
    path = tmp_path / "t.csv"
    gm.IterateTrace(steps, np.ones(2)).to_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["0", "1"]
    assert rows[0]["selected_index"] == "" and rows[1]["selected_index"] == "4"
    assert rows[0]["stopped"] == "false" and rows[1]["stopped"] == "true"
    # 17 significant digits survive the round trip exactly
    assert float(rows[1]["grad_coeff"]) == -3.0
    assert float(_csv_num(np.pi)) == np.pi


def test_trace_accessors():
    tr = gm.IterateTrace([
        TraceStep(0, 2.0, None, None, None, None, 1.0, False),
        TraceStep(1, 1.0, None, None, 0, 1.0, 1.0, True),
    ], np.ones(1))
    assert tr.support == [0]
    assert not tr.has_errors
    assert tr.final.value == 1.0 and tr[0].value == 2.0
