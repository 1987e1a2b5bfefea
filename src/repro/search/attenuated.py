"""Attenuated Bloom filters over an overlay (paper Section 4.6).

"An attenuated Bloom filter is a hierarchy of Bloom filters, each of which
contains aggregate information about some set of nodes.  Specifically, the
Bloom filter at level i represents the aggregate content store on nodes
that are i hops away."  [after Rhea & Kubiatowicz]

Construction is the neighbor-exchange the protocol performs: level 0 is a
node's own content digest; level ``i`` is the OR of its neighbors' level
``i-1`` filters ("peers need only communicate with their direct neighbors
to discover information about their neighborhood").  Because the exchange
is symmetric, level ``i`` slightly over-approximates the exact
distance-``i`` shell — content within ``i`` hops of matching parity also
appears — which only makes the routing potential more conservative, never
blind.  Deeper levels aggregate more nodes, so their false-positive rate
rises; the router therefore trusts shallow levels first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.obs import runtime as _obs
from repro.search.bloom import BloomParams, insert_keys, key_positions, make_filters
from repro.search.replication import Placement
from repro.topology.graph import OverlayGraph
from repro.util.segments import segment_bitwise_or


def shallowest_level(
    levels: Tuple[np.ndarray, ...], rows: np.ndarray,
    words: np.ndarray, masks: np.ndarray, first_level: int = 0,
) -> np.ndarray:
    """Shallowest of ``levels`` whose filter row contains a hashed key.

    The one level lookup of both filter variants and both routers.
    ``levels[i]`` is the ``(n_rows, n_words)`` filter array of level
    ``first_level + i``; ``rows`` picks one filter row per probe.
    ``(words, masks)`` are :func:`~repro.search.bloom.key_positions` of
    the key: ``(n_hashes,)`` to probe every row for one key, or
    ``(len(rows), n_hashes)`` for a key per row.  Returns the level per
    probe, ``first_level + len(levels)`` where none matches.
    """
    out = np.full(rows.shape, first_level + len(levels), dtype=np.int64)
    rows = rows[:, None]
    for i in range(len(levels) - 1, -1, -1):
        probe = levels[i][rows, words]
        out[np.all((probe & masks) == masks, axis=1)] = first_level + i
    return out


@dataclass(frozen=True)
class AttenuatedFilters:
    """Per-node attenuated Bloom filters of a whole overlay.

    ``levels[i]`` is an ``(n_nodes, n_words)`` uint64 array: node ``u``'s
    level-``i`` filter is row ``levels[i][u]``.  ``NO_MATCH`` (== depth) is
    the sentinel returned by :meth:`matched_level` when no level matches.
    """

    params: BloomParams
    levels: Tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        """Number of levels (the paper's experiments use depth 3)."""
        return len(self.levels)

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered."""
        return self.levels[0].shape[0]

    @property
    def no_match(self) -> int:
        """Sentinel level meaning "no level of this filter matched"."""
        return self.depth

    def matched_level(self, nodes: np.ndarray, key: int) -> np.ndarray:
        """Shallowest level whose filter at each node contains ``key``.

        Returns an int array aligned with ``nodes``; entries equal
        :attr:`no_match` where no level matches.  Level 0 means the node
        itself (probably) stores the object; level ``i`` means some node
        within its level-``i`` aggregate does.
        """
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        words, masks = key_positions(np.asarray([key]), self.params)
        return shallowest_level(self.levels, nodes, words[0], masks[0])

    def link_levels(
        self, neighbors: np.ndarray, positions: np.ndarray,
        words: np.ndarray, masks: np.ndarray,
    ) -> np.ndarray:
        """Router hook: score the links toward ``neighbors``.

        ``positions`` are the links' CSR entries and ``(words, masks)`` the
        hashed key(s), see :func:`shallowest_level`.  For per-node filters
        a link's score is simply the neighbor's own hierarchy (what it
        shared on connection); the per-link variant reads ``positions``.
        """
        return shallowest_level(self.levels, neighbors, words, masks)

    def contains(self, node: int, level: int, key: int) -> bool:
        """Membership test of ``key`` in one node's level-``level`` filter."""
        if not 0 <= level < self.depth:
            raise IndexError(f"level {level} out of range [0, {self.depth})")
        return bool(self.matched_level(np.asarray([node]), key)[0] <= level)


def aggregate_neighbors(
    graph: OverlayGraph, rows: np.ndarray, chunk_nodes: int = 8192
) -> np.ndarray:
    """OR each node's neighbors' filter rows (one exchange round).

    ``rows`` is ``(n_nodes, n_words)``; the result row ``u`` is the OR of
    ``rows[v]`` over ``v in neighbors(u)``.  Work is chunked over nodes so
    the gathered intermediate stays bounded.
    """
    n = graph.n_nodes
    if rows.shape[0] != n:
        raise ValueError("rows must have one filter per node")
    out = np.zeros_like(rows)
    indptr = graph.indptr
    indices = graph.indices
    for start in range(0, n, chunk_nodes):
        end = min(start + chunk_nodes, n)
        lo, hi = indptr[start], indptr[end]
        gathered = rows[indices[lo:hi]]
        local_ptr = indptr[start : end + 1] - lo
        out[start:end] = segment_bitwise_or(gathered, local_ptr)
    return out


def build_attenuated_filters(
    graph: OverlayGraph,
    placement: Optional[Placement] = None,
    depth: int = 3,
    params: Optional[BloomParams] = None,
    node_store: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> AttenuatedFilters:
    """Build depth-``depth`` attenuated filters for a whole overlay.

    Content comes from ``placement`` (or an explicit ``node_store`` CSR of
    per-node keys).  Level 0 digests each node's own store; each further
    level is one neighbor-exchange aggregation round.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if (placement is None) == (node_store is None):
        raise ValueError("provide exactly one of placement or node_store")
    params = params or BloomParams()

    if placement is not None:
        if placement.n_nodes != graph.n_nodes:
            raise ValueError("placement and graph node counts disagree")
        store_indptr, store_keys = placement.node_store()
    else:
        store_indptr, store_keys = node_store
        if store_indptr.shape != (graph.n_nodes + 1,):
            raise ValueError("node_store indptr must have n_nodes + 1 entries")

    with _obs.span("abf.build"):
        level0 = make_filters(graph.n_nodes, params)
        owners = np.repeat(
            np.arange(graph.n_nodes, dtype=np.int64), np.diff(store_indptr)
        )
        insert_keys(level0, owners, store_keys, params)

        levels = [level0]
        for _ in range(1, depth):
            with _obs.span("abf.aggregate_level"):
                levels.append(aggregate_neighbors(graph, levels[-1]))
    _obs.count("abf.filters_built", graph.n_nodes * depth)
    _obs.event("abf.build", nodes=graph.n_nodes, depth=depth,
               bits=params.n_bits)
    return AttenuatedFilters(params=params, levels=tuple(levels))
