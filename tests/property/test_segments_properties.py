"""Property-based tests for CSR segment reductions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.segments import segment_bitwise_or, segment_max, segment_sum


@st.composite
def segmented_data(draw, width=None):
    """Random (data, indptr) pair with possibly-empty segments."""
    n_segments = draw(st.integers(min_value=1, max_value=12))
    sizes = draw(
        st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=n_segments, max_size=n_segments,
        )
    )
    total = sum(sizes)
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    if width is None:
        data = draw(
            st.lists(
                st.integers(min_value=-1000, max_value=1000),
                min_size=total, max_size=total,
            )
        )
        return np.asarray(data, dtype=np.int64), indptr, sizes
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=2**63 - 1),
                min_size=width, max_size=width,
            ),
            min_size=total, max_size=total,
        )
    )
    return np.asarray(rows, dtype=np.uint64).reshape(total, width), indptr, sizes


def naive_or(data, indptr):
    """Segment by segment, the loop ``segment_bitwise_or`` replaces."""
    out = np.zeros((indptr.size - 1, data.shape[1]), dtype=data.dtype)
    for i in range(indptr.size - 1):
        for row in data[indptr[i] : indptr[i + 1]]:
            out[i] |= row
    return out


class TestSegmentReductions:
    @given(segmented_data())
    @settings(max_examples=100, deadline=None)
    def test_sum_matches_python(self, case):
        data, indptr, sizes = case
        out = segment_sum(data, indptr)
        expected = [
            int(data[indptr[i] : indptr[i + 1]].sum()) for i in range(len(sizes))
        ]
        np.testing.assert_array_equal(out, expected)

    @given(segmented_data())
    @settings(max_examples=100, deadline=None)
    def test_max_matches_python(self, case):
        data, indptr, sizes = case
        out = segment_max(data, indptr, empty_value=-9999)
        expected = [
            int(data[indptr[i] : indptr[i + 1]].max()) if sizes[i] else -9999
            for i in range(len(sizes))
        ]
        np.testing.assert_array_equal(out, expected)

    @given(segmented_data(width=3))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_or_matches_python(self, case):
        data, indptr, sizes = case
        np.testing.assert_array_equal(
            segment_bitwise_or(data, indptr), naive_or(data, indptr)
        )

    @given(
        st.lists(
            st.sampled_from([0, 0, 1, 1, 1, 2, 3, 40, 500]),
            min_size=1, max_size=30,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_or_on_heavy_tailed_lengths(self, sizes, seed):
        # The rank-wise OR makes one pass per row rank: a 500-row segment
        # among empties and singletons is 500 passes whose prefix shrinks
        # to one segment, the shape a power-law overlay's hubs give it.
        indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        data = np.random.default_rng(seed).integers(
            0, 2**63, size=(int(indptr[-1]), 2)
        ).astype(np.uint64)
        np.testing.assert_array_equal(
            segment_bitwise_or(data, indptr), naive_or(data, indptr)
        )
