"""Property tests: the sketches' median is ``np.median``, bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches._combine import combine_estimates, exact_median

# Special values are drawn often, so ties, signed zeros, infinities and
# NaN meet in the middle of an array instead of almost never.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]
elements = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def quiet():
    """Means of infinities of both signs are NaN, with numpy's warning."""
    return np.errstate(invalid="ignore", over="ignore")


vectors = st.lists(elements, min_size=1, max_size=16).map(
    lambda values: np.array(values, dtype=np.float64)
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=16))
    columns = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.lists(elements, min_size=rows * columns, max_size=rows * columns))
    return np.array(values, dtype=np.float64).reshape(rows, columns)


@given(vectors)
@settings(max_examples=300, deadline=None)
def test_vector_median_matches_numpy_bitwise(values):
    with quiet():
        assert bits(exact_median(values)) == bits(np.median(values))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_column_medians_match_numpy_bitwise(values):
    with quiet():
        assert bits(exact_median(values)) == bits(np.median(values, axis=0))


@given(st.integers(min_value=1, max_value=16))
def test_signed_zero_middles_come_back_positive(length):
    # The case a plain sort-and-pick gets wrong: numpy's mean starts at +0.0.
    zeros = np.full(length, -0.0)
    assert bits(exact_median(zeros)) == bits(0.0)
    assert bits(exact_median(zeros.reshape(length, 1))) == bits([0.0])


@given(vectors, st.sampled_from(["median", "mean"]))
@settings(max_examples=200, deadline=None)
def test_combine_estimates_matches_numpy(values, method):
    with quiet():
        reference = np.median(values) if method == "median" else values.mean()
        assert bits(combine_estimates(values, method)) == bits(reference)


@st.composite
def grouped(draw):
    groups = draw(st.integers(min_value=1, max_value=5))
    size = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(elements, min_size=groups * size, max_size=groups * size))
    return np.array(values, dtype=np.float64), groups


@given(grouped())
@settings(max_examples=200, deadline=None)
def test_median_of_means_matches_numpy(case):
    values, groups = case
    with quiet():
        reference = np.median(values.reshape(groups, -1).mean(axis=1))
        estimate = combine_estimates(values, "median-of-means", groups)
    assert bits(estimate) == bits(reference)
