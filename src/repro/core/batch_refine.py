"""Vectorized synchronous Makalu refinement rounds.

The sequential refinement loop (`MakaluBuilder.refine`) replays the live
protocol one node at a time: walk, attempt, provisionally rate, prune.
That is faithful but irreducibly Python-bound — at 50k+ nodes a single
round spends minutes in per-node dict work.

This module is the batch path for refinement: one round is computed
*synchronously* against a frozen snapshot of the overlay, with every
stage vectorized across all nodes at once —

1. **walks**: all candidate-gathering random walks advance together as
   NumPy index gathers over the CSR (one RNG draw array per step);
2. **provisional rating**: every node rates its provisional peer set
   (current neighbors plus gathered candidates) in one shared
   occurrence-counting pass — the same counts/owner-sum kernel as
   :func:`repro.core.rating.rate_neighbors`, applied to hundreds of
   thousands of (node, peer) pairs per call;
3. **selection**: each node keeps its ``capacity`` best-rated peers
   (rating ties keep the lower id, matching ``worst_neighbor``'s
   tie-breaking; current neighbors for whom this link is their only
   connection are preferred, mirroring the sequential spare-the-orphan
   guard);
4. **reconciliation**: connection proposals are answered in a second
   rating pass (the acceptor rates the proposer inside its own
   provisional set — the ``Manage()`` rule, batched), and an edge
   survives iff both endpoints keep it;
5. **apply**: the resulting edge set is diffed against the snapshot and
   applied to the live adjacency.

The round is deterministic given the builder's RNG state.  It is a
*synchronous approximation* of the sequential round — nodes decide
against the round-start snapshot instead of observing each other's swaps
mid-round — so overlays differ edge-for-edge from sequential refinement
while matching it statistically; the health suite and the build benchmark
gate degree/connectivity/spectral parity.  Opt in via
``MakaluConfig(refine_mode="batch")`` — the default remains the
sequential protocol, which seeded trajectories pin bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.rating import _LATENCY_FLOOR, RatingWeights
from repro.obs import runtime as _obs
from repro.topology.csr import ragged_slices
from repro.topology.graph import OverlayGraph

#: Bits of quantized random priority packed into sampling sort keys.
_PRIO_BITS = 20
_PRIO_ONE = 1 << _PRIO_BITS
#: Keep-probability of the pre-sampling cut (as a priority threshold).
_PRIO_CUT = int(0.35 * _PRIO_ONE)

#: Packed keys carry up to 3*ceil(log2 n) bits (rating triples) or
#: 2*ceil(log2 n) + _PRIO_BITS bits (sampling) and must fit int64.
_BATCH_NODE_LIMIT = 1 << 20


def _pair_latencies(builder, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """What ``builder._latency`` would measure for each (u, v) pair."""
    if builder.model is None:
        return np.full(u.shape, builder.latency_scale, dtype=np.float64)
    return builder.latency_scale * builder.model.pair_latency(u, v)


def _row_keys(G: OverlayGraph) -> np.ndarray:
    """Sorted ``u * n + v`` keys of all directed CSR entries."""
    degs = np.diff(G.indptr)
    return (
        np.repeat(np.arange(G.n_nodes, dtype=np.int64), degs) * G.n_nodes
        + G.indices
    )


def _member_of_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``needles`` in sorted ``haystack``.

    A sentinel entry absorbs past-the-end insertion points, so the test is
    one gather and one compare (needles are non-negative keys).
    """
    idx = np.searchsorted(haystack, needles)
    guarded = np.concatenate([haystack, np.full(1, -1, dtype=haystack.dtype)])
    return guarded[idx] == needles


def gather_candidates_batch(builder, G: OverlayGraph, roster: np.ndarray):
    """All nodes' candidate walks, advanced together.

    Every roster node launches ``max_walks`` walkers from uniformly drawn
    roster seeds; each step advances every live walker with one RNG draw
    array and one CSR gather.  Returns ``(owners, candidates)`` pair
    arrays: for each owner, up to ``swap_candidates`` distinct visited
    nodes (self and current neighbors excluded), sampled uniformly from
    the walkers' footprints.
    """
    cfg = builder.config
    rng = builder.rng
    n = G.n_nodes
    indptr, indices = G.indptr, G.indices
    degs = np.diff(indptr)
    N = roster.size
    W = cfg.max_walks
    L = cfg.walk_length

    pos = roster[rng.integers(0, N, size=N * W)]
    visited = np.empty((L + 1, N * W), dtype=np.int64)
    visited[0] = pos
    for step in range(L):
        d = degs[pos]
        r = rng.random(pos.shape[0])
        hop = indices[
            indptr[pos] + np.minimum((r * d).astype(np.int64),
                                     np.maximum(d - 1, 0))
        ]
        # Stuck walkers (isolated nodes) stay put; duplicates wash out in
        # the dedup below.
        pos = np.where(d > 0, hop, pos)
        visited[step + 1] = pos

    rows = np.tile(np.arange(N, dtype=np.int64).repeat(W), L + 1)
    ids = visited.reshape(-1)
    owners = roster[rows]
    good = (ids != owners) & ~_member_of_sorted(_row_keys(G), owners * n + ids)

    # Random sampling of swap_candidates distinct visits per owner: give
    # every visit a random priority, keep the best-priority representative
    # of each (owner, node) pair, then the best swap_candidates per owner.
    # Two cost levers, neither changing the sampling law meaningfully:
    # entries whose priority misses a coarse cut are discarded outright
    # (walks visit ~W * walk_length nodes per owner; a third of that is
    # still many times swap_candidates), and the surviving priority is
    # quantized into the sort key's low bits so each pass is a single-key
    # argsort instead of a two-key lexsort.  Priority ties only make the
    # (deterministic) sampling infinitesimally less uniform.
    prio = (rng.random(rows.size) * _PRIO_ONE).astype(np.int64)
    good &= prio < _PRIO_CUT
    rows, ids, prio = rows[good], ids[good], prio[good]
    o1 = np.argsort(((rows * n + ids) << _PRIO_BITS) | prio)
    gs = (rows * n + ids)[o1]
    first = np.concatenate(([True], gs[1:] != gs[:-1]))
    rows_u = gs[first] // n
    ids_u = gs[first] % n
    prio_u = prio[o1][first]
    o2 = np.argsort((rows_u << _PRIO_BITS) | prio_u)
    rows_s, ids_s = rows_u[o2], ids_u[o2]
    starts = np.flatnonzero(np.concatenate(([True], rows_s[1:] != rows_s[:-1])))
    seg = np.diff(np.append(starts, rows_s.size))
    rank = np.arange(rows_s.size) - np.repeat(starts, seg)
    keep = rank < cfg.swap_candidates
    return roster[rows_s[keep]], ids_s[keep]


def provisional_ratings(
    G: OverlayGraph,
    owners: np.ndarray,
    members: np.ndarray,
    latencies: np.ndarray,
    weights: RatingWeights = RatingWeights(),
) -> np.ndarray:
    """F(u, p) for ragged provisional neighbor sets, many nodes per call.

    ``owners``/``members``/``latencies`` are aligned pair arrays sorted by
    ``(owner, member)`` with no duplicate pairs; each owner's pairs form
    its provisional neighborhood P(u).  The rating is exactly the paper's
    F over P(u): boundary and unique-reachable sets are computed from the
    snapshot's shared neighbor lists, with candidate peers treated as
    provisional neighbors ("provisionally considers the candidate peer as
    its neighbor and computes a rating for all of its neighbors including
    the candidate peer").

    The counting pass packs each (owner, visited, contributor) triple into
    one int64 and sorts *values* — an argsort would have to permute three
    parallel arrays through cache-hostile gathers, which costs several
    times the sort itself at 50k+ nodes.  Shifts recover the fields, so
    the whole pass does no integer division.
    """
    n = G.n_nodes
    shift = max(1, (n - 1).bit_length())
    pairkey = (owners << shift) | members
    pos, op = ragged_slices(G.indptr, members)
    X = G.indices[pos]
    keyc = (((owners[op] << shift) | X) << shift) | members[op]
    # Triples arrive grouped by owner (pairs are sorted): a long sequence
    # of short unsorted runs, which a stable (timsort) sort exploits.
    keyc = np.sort(keyc, kind="stable")
    gkey_all = keyc >> shift
    starts = np.flatnonzero(
        np.concatenate(([True], gkey_all[1:] != gkey_all[:-1]))
    )
    counts = np.diff(np.append(starts, gkey_all.size))
    gkey = gkey_all[starts]
    gu = gkey >> shift
    gx = gkey & ((1 << shift) - 1)

    # Outer = boundary members: x not the owner, not in P(u).
    outer = ~(_member_of_sorted(pairkey, gkey) | (gx == gu))
    boundary = np.bincount(gu[outer], minlength=n)

    # Count-1 boundary nodes credit their sole contributor — the packed
    # low bits of that group's single triple — aggregated per
    # (owner, contributor) pair.
    unique = np.zeros(pairkey.size, dtype=np.int64)
    sel = outer & (counts == 1)
    contrib = keyc[starts[sel]] & ((1 << shift) - 1)
    ck, cc = np.unique((gu[sel] << shift) | contrib, return_counts=True)
    unique[np.searchsorted(pairkey, ck)] += cc

    b = boundary[owners]
    conn = np.where(b > 0, unique / np.maximum(b, 1), 0.0)
    ostarts = np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))
    d_max = np.maximum(np.maximum.reduceat(latencies, ostarts), _LATENCY_FLOOR)
    d_max = np.repeat(d_max, np.diff(np.append(ostarts, owners.size)))
    prox = d_max / np.maximum(latencies, _LATENCY_FLOOR)
    return weights.alpha * conn + weights.beta * prox


def _select_top(owners, members, ratings, preferred, caps) -> np.ndarray:
    """Boolean mask: each owner keeps its ``caps[owner]`` best pairs.

    Order within an owner: preferred pairs first, then rating descending,
    then member id ascending (the keep-side mirror of ``worst_neighbor``'s
    lowest-rating / highest-id pruning order).
    """
    order = np.lexsort((members, -ratings, ~preferred, owners))
    os_ = owners[order]
    starts = np.flatnonzero(np.concatenate(([True], os_[1:] != os_[:-1])))
    rank = np.arange(os_.size) - np.repeat(
        starts, np.diff(np.append(starts, os_.size))
    )
    sel = np.zeros(owners.size, dtype=bool)
    sel[order[rank < caps[os_]]] = True
    return sel


def batch_refine_round(builder) -> None:
    """One synchronous refinement round over the whole overlay."""
    cfg = builder.config
    G = builder.adj.freeze()
    n = G.n_nodes
    if n > _BATCH_NODE_LIMIT:
        raise ValueError(
            f"batch refinement packs pair keys into int64 and supports at "
            f"most {_BATCH_NODE_LIMIT} nodes (got {n}); use sequential mode"
        )
    degs = np.diff(G.indptr)
    roster = np.sort(builder._joined.to_array())
    if roster.size == 0:
        return
    caps = builder.capacities

    with _obs.span("batch_refine.walks"):
        cand_own, cand_id = gather_candidates_batch(builder, G, roster)

    # Pass 1: every node rates its provisional set P(u) = Gamma(u) + cands
    # and picks the capacity-many peers it wants to keep.
    pos_e, op_e = ragged_slices(G.indptr, roster)
    e_own, e_mem, e_lat = roster[op_e], G.indices[pos_e], G.latency[pos_e]
    own1 = np.concatenate([e_own, cand_own])
    mem1 = np.concatenate([e_mem, cand_id])
    lat1 = np.concatenate([e_lat, _pair_latencies(builder, cand_own, cand_id)])
    o = np.argsort(own1 * n + mem1)
    own1, mem1, lat1 = own1[o], mem1[o], lat1[o]
    with _obs.span("batch_refine.rate"):
        F1 = provisional_ratings(G, own1, mem1, lat1, cfg.weights)
    rowkeys = _row_keys(G)
    is_edge1 = _member_of_sorted(rowkeys, own1 * n + mem1)
    sel1 = _select_top(own1, mem1, F1, is_edge1 & (degs[mem1] == 1), caps)

    # Pass 2: wished-for new connections become proposals the other side
    # must answer — the acceptor rates the proposer inside its own
    # provisional set, exactly the Manage() accept-then-prune rule.
    prop = sel1 & ~is_edge1
    own2 = np.concatenate([own1, mem1[prop]])
    mem2 = np.concatenate([mem1, own1[prop]])
    lat2 = np.concatenate([lat1, lat1[prop]])
    key2 = own2 * n + mem2
    o = np.argsort(key2)
    own2, mem2, lat2, key2 = own2[o], mem2[o], lat2[o], key2[o]
    fresh = np.concatenate(([True], key2[1:] != key2[:-1]))
    own2, mem2, lat2 = own2[fresh], mem2[fresh], lat2[fresh]
    with _obs.span("batch_refine.rate"):
        F2 = provisional_ratings(G, own2, mem2, lat2, cfg.weights)
    is_edge2 = _member_of_sorted(rowkeys, own2 * n + mem2)
    sel2 = _select_top(own2, mem2, F2, is_edge2 & (degs[mem2] == 1), caps)

    # An edge exists iff both endpoints keep it.  Endpoints outside the
    # roster (possible under churn) run no selection of their own; their
    # owner's choice stands.
    fu, fv, fl = own2[sel2], mem2[sel2], lat2[sel2]
    fkeys = np.sort(fu * n + fv)
    in_roster = np.zeros(n, dtype=bool)
    in_roster[roster] = True
    keep = _member_of_sorted(fkeys, fv * n + fu) | ~in_roster[fv]
    lo = np.minimum(fu[keep], fv[keep])
    hi = np.maximum(fu[keep], fv[keep])
    ekey, el = lo * n + hi, fl[keep]

    # Edges entirely outside the roster are not up for review — keep them.
    src = np.repeat(np.arange(n, dtype=np.int64), degs)
    out = ~in_roster[src] & ~in_roster[G.indices] & (src < G.indices)
    ekey = np.concatenate([ekey, src[out] * n + G.indices[out]])
    el = np.concatenate([el, G.latency[out]])
    o = np.argsort(ekey)
    ekey, el = ekey[o], el[o]
    fresh = np.concatenate(([True], ekey[1:] != ekey[:-1]))
    new_keys, new_lat = ekey[fresh], el[fresh]

    _apply_edge_diff(builder, G, new_keys, new_lat)

    # The synchronous round can leave nodes under the floor (everyone they
    # wanted picked someone better) — give them the usual walk-based
    # rejoin pass.
    adj = builder.adj
    floor = cfg.min_degree_floor
    for u in roster.tolist():
        if adj.degree(u) < floor:
            builder._repair_queue.append(u)
    builder._drain_repairs(budget=2 * roster.size)
    _obs.count("batch_refine.rounds")


def _apply_edge_diff(builder, G: OverlayGraph, new_keys, new_lat) -> None:
    """Mutate the live adjacency from the snapshot edge set to ``new_keys``."""
    n = G.n_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(G.indptr))
    up = src < G.indices
    old_keys = src[up] * n + G.indices[up]
    removed = np.setdiff1d(old_keys, new_keys, assume_unique=True)
    added = ~np.isin(new_keys, old_keys, assume_unique=True)

    adj = builder.adj
    for k in removed.tolist():
        adj.remove_edge(k // n, k % n)
    for k, lat in zip(new_keys[added].tolist(), new_lat[added].tolist()):
        adj.add_edge(k // n, k % n, lat)
    _obs.count("batch_refine.edges_removed", int(removed.size))
    _obs.count("batch_refine.edges_added", int(added.sum()))
