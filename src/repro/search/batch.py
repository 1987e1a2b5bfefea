"""Batched multi-source flood kernel (bit-parallel across queries).

:func:`repro.search.flooding.flood` advances one BFS frontier per call; at
benchmark scale the per-query loop around it — and especially the per-query
``np.unique`` frontier dedup — dominates wall time.  This module advances
*many* floods simultaneously using a transposed bitset layout: visited and
frontier state live in ``(n_nodes, ceil(n_queries / 64))`` uint64 arrays
where row ``v`` is a bitmask of the queries that have reached node ``v``.
One BFS level is then a single :func:`~repro.topology.csr.gather_neighbors`
over the union frontier followed by ``new[dst] |= frontier[src]`` — 64
queries propagate per word with no sorting and no per-pair dedup, because
the OR *is* the dedup.  Per-query message / duplicate / first-hit
accounting falls out of unpacking the frontier bitmasks and a couple of
small matrix products.

The kernel is **bit-identical** to the scalar ``flood``: for every query it
produces the same ``FloodResult`` fields (per-hop arrays included) and the
same observability counters, histogram observations and trace events, in
the same per-query order (``tests/search/test_batch.py`` enforces this;
both kernels report through the one emitter,
:func:`repro.search.flooding._record_obs`).  Floods contain no randomness —
sources and replica masks fully determine the outcome — which is what
makes exact batching possible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.link import LinkFaults

from repro.obs import runtime as _obs
from repro.search.flooding import FloodResult, _record_obs
from repro.topology.csr import gather_neighbors, ragged_slices
from repro.topology.graph import OverlayGraph
from repro.util.validation import check_node_id

_ONE = np.uint64(1)
_WORD = np.uint64(63)


def _unpack_queries(words: np.ndarray, n_queries: int) -> np.ndarray:
    """Expand ``(rows, n_words)`` uint64 bitmasks to ``(rows, n_queries)`` 0/1.

    Bit ``q`` of a row's mask (little-endian within each word) is query
    ``q``'s membership flag for that row's node.
    """
    le = np.ascontiguousarray(words, dtype="<u8")
    bits = np.unpackbits(
        le.view(np.uint8).reshape(words.shape[0], -1),
        axis=1, bitorder="little",
    )
    return bits[:, :n_queries]


def _pack_queries(flags: np.ndarray) -> np.ndarray:
    """Pack a ``(n_queries,)`` boolean vector into ``(n_words,)`` uint64."""
    n_words = (flags.size + 63) >> 6
    padded = np.zeros(n_words * 64, dtype=np.uint8)
    padded[: flags.size] = flags
    return np.packbits(padded, bitorder="little").view("<u8").astype(np.uint64)


def flood_batch(
    graph: OverlayGraph,
    sources: Sequence[int],
    ttl: int,
    replica_masks: Optional[np.ndarray] = None,
    faults: Optional["LinkFaults"] = None,
    query_keys: Optional[np.ndarray] = None,
) -> list[FloodResult]:
    """Run one duplicate-suppressed flood per entry of ``sources`` at once.

    Parameters
    ----------
    sources:
        ``(n_queries,)`` source node of each flood.
    ttl:
        Shared maximum hop distance (Gnutella TTL semantics).
    replica_masks:
        Optional ``(n_queries, n_nodes)`` boolean holder masks, one row per
        query; row ``i`` plays the role of scalar ``flood``'s
        ``replica_mask`` for query ``i``.
    faults:
        Optional :class:`~repro.faults.link.LinkFaults` loss environment,
        applied per transit message exactly as in scalar ``flood``.
    query_keys:
        ``(n_queries,)`` loss-stream keys, the per-query ``query_key`` of
        scalar ``flood``.  Callers slicing a larger workload into batches
        must pass the *global* workload indices (never ``0..batch-1``), or
        worker counts would change which messages drop.  Defaults to
        ``arange(n_queries)``.

    Returns
    -------
    One :class:`~repro.search.flooding.FloodResult` per query, in input
    order, field-for-field identical to ``flood(graph, sources[i], ttl,
    replica_masks[i])``.
    """
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise ValueError("sources must be 1-D")
    nq = sources.size
    n = graph.n_nodes
    if nq:
        check_node_id("source", int(sources.min()), n)
        check_node_id("source", int(sources.max()), n)
    if ttl < 0:
        raise ValueError(f"ttl must be >= 0, got {ttl}")
    if replica_masks is not None:
        replica_masks = np.asarray(replica_masks, dtype=bool)
        if replica_masks.shape != (nq, n):
            raise ValueError("replica_masks must be (n_queries, n_nodes)")
    lossy = faults is not None and faults.lossy
    if query_keys is None:
        query_keys = np.arange(nq, dtype=np.int64)
    else:
        query_keys = np.asarray(query_keys, dtype=np.int64)
        if query_keys.shape != (nq,):
            raise ValueError("query_keys must have one entry per query")

    messages = np.zeros((nq, ttl), dtype=np.int64)
    new_nodes = np.zeros((nq, ttl), dtype=np.int64)
    duplicates = np.zeros((nq, ttl), dtype=np.int64)
    dropped = np.zeros((nq, ttl), dtype=np.int64) if lossy else None
    first_hit = np.full(nq, -1, dtype=np.int64)
    replicas_found = np.zeros(nq, dtype=np.int64)

    if nq:
        qids = np.arange(nq, dtype=np.int64)
        if replica_masks is not None:
            src_holds = replica_masks[qids, sources]
            first_hit[src_holds] = 0
            replicas_found[src_holds] = 1

        n_words = (nq + 63) >> 6
        qbits = qids.astype(np.uint64)
        visited = np.zeros((n, n_words), dtype=np.uint64)
        np.bitwise_or.at(
            visited,
            (sources, qids >> 6),
            _ONE << (qbits & _WORD),
        )
        frontier = visited.copy()
        degrees = np.diff(graph.indptr)

        with _obs.span("search.flood_batch"):
            for h in range(1, ttl + 1):
                rows = np.flatnonzero(frontier.any(axis=1))
                if rows.size == 0:
                    break
                fbits = _unpack_queries(frontier[rows], nq).astype(np.int64)
                degs = degrees[rows]
                sent = degs @ fbits
                if h > 1:
                    sent -= fbits.sum(axis=0)
                # A query whose frontier would send nothing stops here
                # without recording the hop, exactly like the scalar
                # ``sent <= 0`` break.
                live = sent > 0
                if not live.any():
                    break
                if not live.all():
                    frontier &= _pack_queries(live)

                new = np.zeros_like(visited)
                nbrs, owner_pos = gather_neighbors(graph, rows)
                senders = rows[owner_pos]
                deliver = frontier[senders]
                if lossy:
                    # One decision per message a query actually sends.
                    # Each set (row, query) frontier bit expands by its
                    # row's degree into that row's run of gathered edges;
                    # the decision at (edge, query) is exactly scalar
                    # flood's for that query on senders[edge] -> nbrs[edge].
                    live_bits = _unpack_queries(frontier[rows], nq).view(bool)
                    r_idx, q_idx = np.divmod(np.flatnonzero(live_bits), nq)
                    row_edges = np.concatenate(([0], np.cumsum(degs)))
                    edge, bit = ragged_slices(row_edges, r_idx)
                    lost = np.flatnonzero(faults.drop_keyed(
                        faults.edge_hash(h, senders, nbrs)[edge],
                        query_keys[q_idx][bit],
                    ))
                    lost_q = q_idx[bit[lost]]
                    dropped[:, h - 1] = np.bincount(lost_q, minlength=nq)
                    # Lost messages leave the delivery OR: clear their
                    # query bit in the copy of the sender's frontier row.
                    np.bitwise_and.at(
                        deliver,
                        (edge[lost], lost_q >> 6),
                        ~(_ONE << (lost_q.astype(np.uint64) & _WORD)),
                    )
                np.bitwise_or.at(new, nbrs, deliver)
                # Fresh arrivals only; the OR above already deduped
                # same-hop duplicates per query.
                np.bitwise_and(new, ~visited, out=new)
                visited |= new
                frontier = new

                new_rows = np.flatnonzero(new.any(axis=1))
                if new_rows.size:
                    nbits = _unpack_queries(new[new_rows], nq)
                    new_q = nbits.sum(axis=0, dtype=np.int64)
                else:
                    nbits = None
                    new_q = np.zeros(nq, dtype=np.int64)
                messages[live, h - 1] = sent[live]
                new_nodes[live, h - 1] = new_q[live]
                duplicates[live, h - 1] = sent[live] - new_q[live]

                if replica_masks is not None and nbits is not None:
                    hits = np.einsum(
                        "qv,vq->q", replica_masks[:, new_rows], nbits,
                        dtype=np.int64,
                    )
                    first_hit[(hits > 0) & (first_hit < 0)] = h
                    replicas_found += hits

    results = [
        FloodResult(
            source=int(sources[q]),
            ttl=ttl,
            messages_per_hop=messages[q],
            new_nodes_per_hop=new_nodes[q],
            duplicates_per_hop=duplicates[q],
            first_hit_hop=int(first_hit[q]),
            replicas_found=int(replicas_found[q]),
            dropped_per_hop=dropped[q] if lossy else None,
        )
        for q in range(nq)
    ]
    _record_obs(results)
    return results


def placement_masks(placement, objects: np.ndarray) -> np.ndarray:
    """Stack per-query holder masks for a vector of object indices.

    Row ``i`` is ``placement.holder_mask(objects[i])`` — the 2-D mask form
    :func:`flood_batch` consumes.
    """
    objects = np.asarray(objects, dtype=np.int64)
    masks = np.zeros((objects.size, placement.n_nodes), dtype=bool)
    for i, obj in enumerate(objects):
        masks[i, placement.replicas(int(obj))] = True
    return masks
