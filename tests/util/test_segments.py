"""Tests for repro.util.segments."""

import numpy as np
import pytest

from repro.util.segments import (
    segment_bitwise_or,
    segment_counts,
    segment_max,
    segment_sum,
)


class TestSegmentCounts:
    def test_basic(self):
        indptr = np.asarray([0, 2, 2, 5])
        np.testing.assert_array_equal(segment_counts(indptr), [2, 0, 3])

    def test_single_segment(self):
        np.testing.assert_array_equal(segment_counts(np.asarray([0, 4])), [4])


class TestSegmentSum:
    def test_basic(self):
        data = np.asarray([1, 2, 3, 4, 5])
        indptr = np.asarray([0, 2, 5])
        np.testing.assert_array_equal(segment_sum(data, indptr), [3, 12])

    def test_empty_segments_are_zero(self):
        data = np.asarray([10, 20])
        indptr = np.asarray([0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(segment_sum(data, indptr), [0, 10, 0, 20, 0])

    def test_all_empty(self):
        data = np.empty(0, dtype=np.int64)
        indptr = np.asarray([0, 0, 0])
        np.testing.assert_array_equal(segment_sum(data, indptr), [0, 0])

    def test_2d_rows(self):
        data = np.asarray([[1, 2], [3, 4], [5, 6]])
        indptr = np.asarray([0, 1, 3])
        np.testing.assert_array_equal(segment_sum(data, indptr), [[1, 2], [8, 10]])

    def test_bad_indptr_raises(self):
        with pytest.raises(ValueError, match="indptr"):
            segment_sum(np.asarray([1, 2]), np.asarray([0, 1]))
        with pytest.raises(ValueError, match="non-decreasing"):
            segment_sum(np.asarray([1, 2]), np.asarray([0, 2, 1, 2]))


class TestSegmentMax:
    def test_basic(self):
        data = np.asarray([3, 1, 4, 1, 5])
        indptr = np.asarray([0, 3, 5])
        np.testing.assert_array_equal(segment_max(data, indptr), [4, 5])

    def test_empty_value(self):
        data = np.asarray([2])
        indptr = np.asarray([0, 0, 1])
        np.testing.assert_array_equal(segment_max(data, indptr, empty_value=-1), [-1, 2])


class TestSegmentBitwiseOr:
    def test_basic(self):
        data = np.asarray([[0b001], [0b010], [0b100]], dtype=np.uint64)
        indptr = np.asarray([0, 2, 3])
        out = segment_bitwise_or(data, indptr)
        np.testing.assert_array_equal(out, [[0b011], [0b100]])

    def test_empty_segment_is_zero(self):
        data = np.asarray([[0xFF]], dtype=np.uint64)
        indptr = np.asarray([0, 0, 1, 1])
        out = segment_bitwise_or(data, indptr)
        np.testing.assert_array_equal(out, [[0], [0xFF], [0]])

    def test_multi_word_rows(self):
        data = np.asarray(
            [[1, 0], [0, 2], [4, 4]], dtype=np.uint64
        )
        indptr = np.asarray([0, 3])
        out = segment_bitwise_or(data, indptr)
        np.testing.assert_array_equal(out, [[5, 6]])

    def test_rejects_float_data(self):
        with pytest.raises(ValueError, match="integer"):
            segment_bitwise_or(np.zeros((2, 2)), np.asarray([0, 2]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            segment_bitwise_or(np.zeros(3, dtype=np.uint64), np.asarray([0, 3]))

    def test_zero_rows(self):
        data = np.empty((0, 2), dtype=np.uint64)
        indptr = np.asarray([0, 0, 0])
        out = segment_bitwise_or(data, indptr)
        np.testing.assert_array_equal(out, np.zeros((2, 2), dtype=np.uint64))
