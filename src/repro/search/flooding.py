"""TTL-limited flooding search with duplicate-query suppression (Section 4.2).

Gnutella-style controlled flooding: the source sends the query to all of its
neighbors; every node seeing the query ID for the first time checks its
local store and, while TTL remains, forwards to all neighbors except the one
it received from.  Nodes cache query IDs, so duplicates are *dropped* (not
re-forwarded) but still *count as messages* — the paper's duplicate-message
percentages measure exactly this waste.

The kernel is frontier-vectorized: one BFS level per iteration, all message
arithmetic on whole frontier arrays.  A single deep flood records the hop at
which the first replica was found and per-hop message counts, from which
success-vs-TTL and messages-vs-TTL curves for *every* smaller TTL follow
without re-running (see :func:`repro.search.metrics.success_vs_ttl`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.link import LinkFaults

from repro.obs import runtime as _obs
from repro.search.metrics import QueryRecord
from repro.search.replication import Placement
from repro.topology.csr import gather_neighbors
from repro.topology.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator, spawn_generators
from repro.util.validation import check_node_id


@dataclass(frozen=True)
class FloodResult:
    """Full accounting of one flood.

    Per-hop arrays are indexed by hop ``h`` in ``1..ttl`` at position
    ``h-1``.  ``first_hit_hop`` is 0 when the source itself holds the
    object, -1 when no replica was reached within the TTL.
    """

    source: int
    ttl: int
    messages_per_hop: np.ndarray
    new_nodes_per_hop: np.ndarray
    duplicates_per_hop: np.ndarray
    first_hit_hop: int
    replicas_found: int
    #: Per-hop counts of messages lost in transit; ``None`` when the flood
    #: ran without an injected fault environment.
    dropped_per_hop: Optional[np.ndarray] = None

    @property
    def total_messages(self) -> int:
        """Messages generated over the whole flood."""
        return int(self.messages_per_hop.sum())

    @property
    def total_dropped(self) -> int:
        """Messages lost to injected faults (0 without fault injection)."""
        if self.dropped_per_hop is None:
            return 0
        return int(self.dropped_per_hop.sum())

    @property
    def nodes_visited(self) -> int:
        """Unique nodes that saw the query (including the source)."""
        return int(self.new_nodes_per_hop.sum()) + 1

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of messages that were duplicates."""
        total = self.total_messages
        return float(self.duplicates_per_hop.sum() / total) if total else 0.0

    @property
    def success(self) -> bool:
        """Whether at least one replica was located."""
        return self.first_hit_hop >= 0

    def messages_within_ttl(self, ttl: int) -> int:
        """Messages a flood truncated at ``ttl`` would have generated."""
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        return int(self.messages_per_hop[: min(ttl, self.ttl)].sum())

    def record(self) -> QueryRecord:
        """Collapse into the mechanism-independent per-query record."""
        return QueryRecord(
            source=self.source,
            messages=self.total_messages,
            first_hit_hop=self.first_hit_hop,
        )


def flood_node_load(
    graph: OverlayGraph, source: int, ttl: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node received-message counts and arrival hops of one flood.

    Returns ``(load, hops)``: ``load[v]`` is the number of messages node
    ``v`` *receives* — the per-peer traffic a capturing client observes,
    duplicates included (dropped, but the bandwidth is paid) — and
    ``hops[v]`` is the hop of first arrival (-1 if never reached; 0 at the
    source).  ``load.sum()`` equals the flood's total messages; nodes with
    ``0 < hops < ttl`` forwarded the query onward.
    """
    check_node_id("source", source, graph.n_nodes)
    if ttl < 0:
        raise ValueError(f"ttl must be >= 0, got {ttl}")
    visited = np.zeros(graph.n_nodes, dtype=bool)
    visited[source] = True
    hops = np.full(graph.n_nodes, -1, dtype=np.int64)
    hops[source] = 0
    load = np.zeros(graph.n_nodes, dtype=np.int64)
    frontier = np.asarray([source], dtype=np.int64)
    parents = np.asarray([-1], dtype=np.int64)
    for h in range(1, ttl + 1):
        nbrs, owner_pos = gather_neighbors(graph, frontier)
        if nbrs.size == 0:
            break
        # Exclude the one message each forwarder would have sent back to
        # its parent (the source has no parent).
        keep = nbrs != parents[owner_pos]
        receivers = nbrs[keep]
        senders = frontier[owner_pos[keep]]
        np.add.at(load, receivers, 1)
        fresh_mask = ~visited[receivers]
        fresh, first_idx = np.unique(receivers[fresh_mask], return_index=True)
        visited[fresh] = True
        hops[fresh] = h
        parents = senders[fresh_mask][first_idx]
        frontier = fresh
    return load, hops


def flood(
    graph: OverlayGraph,
    source: int,
    ttl: int,
    replica_mask: Optional[np.ndarray] = None,
    faults: Optional["LinkFaults"] = None,
    query_key: int = 0,
) -> FloodResult:
    """Run one duplicate-suppressed flood from ``source``.

    Parameters
    ----------
    ttl:
        Maximum hop distance the query travels (Gnutella TTL semantics).
    replica_mask:
        Optional boolean per-node holder mask; when given, the result
        reports the first hop at which a holder was reached and how many
        holders the flood visited in total.
    faults:
        Optional :class:`~repro.faults.link.LinkFaults` environment.  Each
        forwarded message is then dropped in transit with the configured
        loss rate; drop decisions are counter-based over
        ``(faults.seed, query_key, hop, sender, receiver)``, so the batch
        kernel and the parallel runner lose exactly the same messages.
        Lost messages still count as sent (the bandwidth is paid), but
        their receivers never see the query this hop.
    query_key:
        Identity of this query in the loss stream.  Callers issuing many
        queries must pass distinct keys (workload index) or every query
        sharing a seed would lose the same edges.
    """
    check_node_id("source", source, graph.n_nodes)
    if ttl < 0:
        raise ValueError(f"ttl must be >= 0, got {ttl}")
    if replica_mask is not None and replica_mask.shape != (graph.n_nodes,):
        raise ValueError("replica_mask must have one entry per node")
    lossy = faults is not None and faults.lossy

    indptr = graph.indptr
    visited = np.zeros(graph.n_nodes, dtype=bool)
    visited[source] = True

    messages = np.zeros(ttl, dtype=np.int64)
    new_nodes = np.zeros(ttl, dtype=np.int64)
    duplicates = np.zeros(ttl, dtype=np.int64)
    dropped = np.zeros(ttl, dtype=np.int64) if lossy else None

    first_hit = -1
    replicas_found = 0
    if replica_mask is not None and replica_mask[source]:
        first_hit = 0
        replicas_found = 1

    frontier = np.asarray([source], dtype=np.int64)
    with _obs.span("search.flood"):
        for h in range(1, ttl + 1):
            degs = indptr[frontier + 1] - indptr[frontier]
            # Every frontier node forwards to all neighbors except its
            # parent; the source (hop 1) has no parent, sends to everyone.
            sent = int(degs.sum()) - (frontier.size if h > 1 else 0)
            if sent <= 0:
                break
            nbrs, owner_pos = gather_neighbors(graph, frontier)
            if lossy:
                # Loss is decided per transit message; receivers of dropped
                # messages never see the query this hop.  Sent counts are
                # unchanged — the bandwidth was spent either way.
                drop = faults.drop(query_key, h, frontier[owner_pos], nbrs)
                dropped[h - 1] = int(np.count_nonzero(drop))
                nbrs = nbrs[~drop]
            fresh = nbrs[~visited[nbrs]]
            frontier = np.unique(fresh)
            visited[frontier] = True

            messages[h - 1] = sent
            new_nodes[h - 1] = frontier.size
            duplicates[h - 1] = sent - frontier.size

            if replica_mask is not None and frontier.size:
                hits = int(np.count_nonzero(replica_mask[frontier]))
                if hits and first_hit < 0:
                    first_hit = h
                replicas_found += hits
            if frontier.size == 0:
                break

    result = FloodResult(
        source=source,
        ttl=ttl,
        messages_per_hop=messages,
        new_nodes_per_hop=new_nodes,
        duplicates_per_hop=duplicates,
        first_hit_hop=first_hit,
        replicas_found=replicas_found,
        dropped_per_hop=dropped,
    )
    _record_obs([result])
    return result


def _record_obs(results: list[FloodResult]) -> None:
    """Emit the ``search.flood.*`` metrics and trace events of ``results``.

    The one emitter both flood kernels call: scalar ``flood`` with its
    single result, ``flood_batch`` with the batch in query order — so the
    metric totals and the trace stream do not depend on which kernel ran.
    A hop is reported iff it sent messages (both kernels stop recording
    at the first hop that would send none).
    """
    session = _obs.active()
    if session is None:
        return
    reg = session.metrics
    tracer = session.tracer
    queries = reg.counter("search.flood.queries")
    sent_c = reg.counter("search.flood.messages_sent")
    dup_c = reg.counter("search.flood.duplicates")
    # One call is one fault environment: its results are all lossy or none
    # is, and a lossless call must not create the counter.
    lossy = bool(results) and results[0].dropped_per_hop is not None
    lost_c = reg.counter("search.flood.messages_lost") if lossy else None
    hist = reg.histogram("search.flood.messages_per_query")
    for r in results:
        total = int(r.messages_per_hop.sum())
        queries.inc()
        sent_c.inc(total)
        dup_c.inc(int(r.duplicates_per_hop.sum()))
        if lossy:
            lost_c.inc(r.total_dropped)
        hist.observe(float(total))
        if tracer is None:
            continue
        for h in np.flatnonzero(r.messages_per_hop > 0):
            fields = dict(
                source=r.source, hop=int(h) + 1,
                sent=int(r.messages_per_hop[h]),
                new=int(r.new_nodes_per_hop[h]),
                dup=int(r.duplicates_per_hop[h]),
            )
            if lossy:
                fields["lost"] = int(r.dropped_per_hop[h])
            tracer.emit("flood.hop", **fields)
        tracer.emit(
            "flood.query", source=r.source, ttl=r.ttl, messages=total,
            first_hit_hop=r.first_hit_hop, replicas_found=r.replicas_found,
        )


def _draw_workload(
    graph: OverlayGraph,
    placement: Placement,
    n_queries: int,
    seed: SeedLike = None,
    sources: Optional[Sequence[int]] = None,
    spawn: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[list]]:
    """Draw one query workload: ``(sources, objects, keys, rngs)``.

    The single place a search driver consumes workload randomness and the
    single place it is validated.  ``keys = arange(n_queries)`` are the
    global loss-stream keys (query ``i`` drops the same messages however
    the workload is later sharded or batched); ``rngs`` are per-query
    child generators (``SeedSequence.spawn``) when ``spawn`` is set, for
    mechanisms that consume randomness in flight, else ``None``.  RNG
    consumption order is sources, objects, then the spawn.
    """
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if placement.n_nodes != graph.n_nodes:
        raise ValueError("placement and graph node counts disagree")
    rng = as_generator(seed)
    if sources is None:
        sources = rng.integers(0, graph.n_nodes, size=n_queries)
    else:
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size != n_queries:
            raise ValueError("sources must have one entry per query")
    objects = rng.integers(0, placement.n_objects, size=n_queries)
    return (
        np.asarray(sources, dtype=np.int64),
        objects,
        np.arange(n_queries, dtype=np.int64),
        spawn_generators(rng, n_queries) if spawn else None,
    )


def draw_query_workload(
    graph: OverlayGraph,
    placement: Placement,
    n_queries: int,
    seed: SeedLike = None,
    sources: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the ``(sources, objects)`` arrays of a query batch.

    This is the *only* RNG consumption of a flooding workload (floods
    themselves are deterministic), and it is shared by the scalar loop, the
    batched kernel and the process-parallel runner: all three see the same
    workload for the same seed, which is what makes their results
    bit-identical.  Sources are uniform random nodes unless given
    explicitly; each query targets a uniformly chosen object of the
    placement (the paper floods "for each unique object in the system from
    random nodes").
    """
    return _draw_workload(graph, placement, n_queries, seed, sources)[:2]


def flood_queries(
    graph: OverlayGraph,
    placement: Placement,
    n_queries: int,
    ttl: int,
    seed: SeedLike = None,
    sources: Optional[Sequence[int]] = None,
    batch_size: Optional[int] = None,
    n_workers: int = 1,
    faults: Optional["LinkFaults"] = None,
) -> list[FloodResult]:
    """Issue ``n_queries`` flooding queries for random objects of a placement.

    Parameters
    ----------
    batch_size:
        When given, advance up to this many floods simultaneously through
        the vectorized :func:`repro.search.batch.flood_batch` kernel
        instead of one scalar flood per Python iteration.  Results are
        bit-identical either way; batching only changes wall time.
    n_workers:
        When > 1 (or 0, meaning one worker per CPU core), shard the
        batches across worker processes (the overlay's CSR arrays are
        placed in shared memory, not pickled per worker).  Implies
        batching (default shard batch size when ``batch_size`` is None).

    Every path draws the workload identically (see
    :func:`draw_query_workload`), so the same seed produces the same
    per-query results regardless of ``batch_size`` and ``n_workers``.
    With ``faults``, loss keys are the workload indices — query ``i``
    drops the same messages on every execution path (the golden-parity
    contract; never key loss by worker or batch position).  Anything but
    the scalar loop is :func:`repro.parallel.run_queries` on this
    workload.
    """
    sources, objects, keys, _ = _draw_workload(
        graph, placement, n_queries, seed, sources
    )
    if batch_size is not None or n_workers != 1:
        from repro.parallel import run_queries

        return run_queries(
            graph, placement, n_queries, ttl,
            sources=sources, objects=objects,
            n_workers=n_workers, batch_size=batch_size,
            faults=faults,
        ).results
    return [
        flood(
            graph, int(src), ttl,
            replica_mask=placement.holder_mask(int(obj)),
            faults=faults, query_key=int(key),
        )
        for src, obj, key in zip(sources, objects, keys)
    ]
