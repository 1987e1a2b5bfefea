"""Segment reductions over CSR-style (indptr, data) layouts.

The overlay graphs, flood kernels and attenuated-Bloom-filter aggregation all
store per-node variable-length data as a flat array plus an ``indptr`` offset
vector (the scipy CSR convention).  These helpers implement the per-segment
reductions those kernels need, working around the ``ufunc.reduceat`` quirks
with empty segments (reduceat returns ``data[start]`` for an empty segment
and raises for a start index past the end of the data array).
"""

from __future__ import annotations

import numpy as np


def _check_indptr(indptr: np.ndarray, data_len: int) -> np.ndarray:
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or indptr.size == 0:
        raise ValueError("indptr must be a non-empty 1-D array")
    if indptr[0] != 0 or indptr[-1] != data_len:
        raise ValueError(
            f"indptr must start at 0 and end at len(data)={data_len}, "
            f"got [{indptr[0]}, ..., {indptr[-1]}]"
        )
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    return indptr.astype(np.int64, copy=False)


def segment_counts(indptr: np.ndarray) -> np.ndarray:
    """Length of each segment (a node's degree, in CSR adjacency terms)."""
    indptr = np.asarray(indptr)
    return np.diff(indptr).astype(np.int64)


def _reduceat(ufunc, data: np.ndarray, indptr: np.ndarray, empty_value) -> np.ndarray:
    """Apply ``ufunc.reduceat`` per segment with empty segments -> empty_value.

    ``reduceat`` treats each passed index as running to the *next passed
    index*, so empty segments cannot simply be clipped into range — that
    would truncate the preceding segment.  Instead the reduction runs over
    non-empty segments only (whose starts are then consecutive segment
    boundaries) and results are scattered back.
    """
    n = indptr.size - 1
    starts = indptr[:-1]
    empty = indptr[1:] == starts
    out_shape = (n,) + data.shape[1:]
    out = np.empty(out_shape, dtype=data.dtype)
    out[...] = empty_value
    if data.shape[0] == 0 or empty.all():
        return out
    non_empty = ~empty
    out[non_empty] = ufunc.reduceat(data, starts[non_empty], axis=0)
    return out


def segment_sum(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sum; empty segments sum to 0."""
    data = np.asarray(data)
    indptr = _check_indptr(indptr, data.shape[0])
    return _reduceat(np.add, data, indptr, empty_value=0)


def segment_max(data: np.ndarray, indptr: np.ndarray, empty_value=0) -> np.ndarray:
    """Per-segment max; empty segments yield ``empty_value``."""
    data = np.asarray(data)
    indptr = _check_indptr(indptr, data.shape[0])
    return _reduceat(np.maximum, data, indptr, empty_value=empty_value)


def segment_bitwise_or(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment bitwise OR of 2-D uint rows; empty segments yield zeros.

    This is the inner kernel of attenuated-Bloom-filter aggregation: ``data``
    holds one filter row per (node, neighbor) pair in CSR order and the
    result is each node's OR over its neighbors' filters.

    The OR runs rank by rank, not segment by segment: pass ``j`` ORs the
    ``j``-th row of every segment longer than ``j`` into that segment's
    accumulator.  With segments ordered longest first those are a prefix,
    so a pass is one gather and one in-place OR, every row of ``data`` is
    read exactly once however skewed the lengths are, and no temporary is
    larger than the output.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (rows of filter words), got {data.ndim}-D")
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"data must be an integer dtype, got {data.dtype}")
    indptr = _check_indptr(indptr, data.shape[0])
    counts = np.diff(indptr)
    order = np.argsort(-counts, kind="stable")
    starts = indptr[:-1][order]
    acc = np.zeros((counts.size,) + data.shape[1:], dtype=data.dtype)
    if data.shape[0]:
        # longer[j] = number of segments with more than j rows.
        longer = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
        for j, c in enumerate(longer):
            acc[:c] |= data[starts[:c] + j]
    out = np.empty_like(acc)
    out[order] = acc
    return out
