"""Per-link attenuated Bloom filters (exact Rhea-Kubiatowicz semantics).

The default :class:`~repro.search.attenuated.AttenuatedFilters` keeps one
filter hierarchy per *node* — what a peer learns from a plain neighbor
exchange.  The original attenuated-Bloom-filter design [Rhea & Kubiatowicz]
instead attaches a hierarchy to each *directed link*: the level-``i``
filter of link ``u -> v`` digests content exactly ``i`` hops from ``u``
through ``v``, never looking back through ``u`` itself.  That removes the
echo (a node's own content reappearing in its deeper levels) at the cost of
``degree``-times more filter state.

Recurrence::

    F_1[u -> v] = own(v)
    F_i[u -> v] = OR over w in Gamma(v) \\ {u} of F_{i-1}[v -> w]

The leave-one-out OR per node is computed with segment prefix/suffix ORs,
iterating over within-segment offsets (max-degree iterations, each a fully
vectorized pass), so construction is O(depth * max_degree * E) word ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.search.attenuated import shallowest_level
from repro.search.bloom import BloomParams, insert_keys, key_positions, make_filters
from repro.search.replication import Placement
from repro.topology.graph import OverlayGraph
from repro.util.segments import segment_counts


@dataclass(frozen=True)
class PerLinkAttenuatedFilters:
    """Attenuated filters attached to directed CSR entries.

    ``levels[i - 1]`` has one row per directed edge (CSR entry order);
    row ``j`` is the level-``i`` filter of the link ``src(j) -> dst(j)``.
    Levels are 1-based (level 1 = the neighbor's own digest); the
    :attr:`no_match` sentinel is ``depth + 1``.
    """

    params: BloomParams
    indptr: np.ndarray  # the owning graph's CSR offsets (for dispatch)
    levels: Tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        """Number of levels (level ``depth`` reaches ``depth`` hops out)."""
        return len(self.levels)

    @property
    def no_match(self) -> int:
        """Sentinel meaning "no level of this link's filter matched"."""
        return self.depth + 1

    @property
    def n_links(self) -> int:
        """Directed edge count (2x undirected edges)."""
        return self.levels[0].shape[0]

    def matched_level_links(self, positions: np.ndarray, key: int) -> np.ndarray:
        """Shallowest matching level for each directed-edge position."""
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        words, masks = key_positions(np.asarray([key]), self.params)
        return shallowest_level(self.levels, positions, words[0], masks[0], 1)

    def link_levels(
        self, neighbors: np.ndarray, positions: np.ndarray,
        words: np.ndarray, masks: np.ndarray,
    ) -> np.ndarray:
        """Router hook: score the links at CSR entries ``positions``."""
        return shallowest_level(self.levels, positions, words, masks, 1)


def _reverse_entry_permutation(graph: OverlayGraph) -> np.ndarray:
    """``rev[j]`` = CSR position of the reversed edge of entry ``j``."""
    deg = segment_counts(graph.indptr)
    src = np.repeat(np.arange(graph.n_nodes, dtype=np.int64), deg)
    dst = graph.indices
    # Entries sorted by (dst, src) enumerate the reversed pairs in CSR
    # order, so the k-th of them *is* CSR entry k's reverse.
    perm = np.lexsort((src, dst))
    rev = np.empty(dst.size, dtype=np.int64)
    rev[perm] = np.arange(dst.size, dtype=np.int64)
    return rev


def _leave_one_out_or(rows: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment leave-one-out OR.

    ``out[j]`` = OR of all rows in ``j``'s segment except row ``j`` itself
    (zeros for singleton segments).  Computed from segment prefix and
    suffix ORs; the loop runs over within-segment offsets, i.e. max-degree
    iterations of fully vectorized work.
    """
    counts = np.diff(indptr)
    total = rows.shape[0]
    if total == 0:
        return rows.copy()
    local = np.arange(total, dtype=np.int64) - np.repeat(indptr[:-1], counts)
    max_deg = int(counts.max())

    prefix = np.zeros_like(rows)
    suffix = np.zeros_like(rows)
    for offset in range(1, max_deg):
        sel = np.flatnonzero(local == offset)
        if sel.size == 0:
            break
        prefix[sel] = prefix[sel - 1] | rows[sel - 1]
    # Suffix: mirror walk from each segment's end.
    rev_local = np.repeat(counts - 1, counts) - local
    for offset in range(1, max_deg):
        sel = np.flatnonzero(rev_local == offset)
        if sel.size == 0:
            break
        suffix[sel] = suffix[sel + 1] | rows[sel + 1]
    return prefix | suffix


def build_per_link_filters(
    graph: OverlayGraph,
    placement: Optional[Placement] = None,
    depth: int = 3,
    params: Optional[BloomParams] = None,
    node_store: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> PerLinkAttenuatedFilters:
    """Build depth-``depth`` per-link attenuated filters for an overlay.

    Memory scales with ``depth * directed_edges * n_bits`` — roughly
    ``mean_degree`` times the per-node variant — so consider a smaller
    ``BloomParams.n_bits`` for very large overlays.
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

    own = make_filters(graph.n_nodes, params)
    owners = np.repeat(
        np.arange(graph.n_nodes, dtype=np.int64), np.diff(store_indptr)
    )
    insert_keys(own, owners, store_keys, params)

    rev = _reverse_entry_permutation(graph)
    indptr = graph.indptr

    # Level 1: F[u -> v] = own(v) = own[indices].
    levels = [own[graph.indices]]
    for _ in range(2, depth + 1):
        prev = levels[-1]
        # loo[k] (a position in v's slice, i.e. a link v -> w) = OR of v's
        # other outgoing links' previous-level filters.  The new level of
        # u -> v is that leave-one-out OR at v excluding v -> u, which is
        # exactly loo evaluated at the reverse entry.
        loo = _leave_one_out_or(prev, indptr)
        levels.append(loo[rev])
    return PerLinkAttenuatedFilters(
        params=params, indptr=indptr.copy(), levels=tuple(levels)
    )
