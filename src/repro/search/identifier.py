"""Indexed identifier search routed by attenuated Bloom filters (Section 4.6).

"Searches using attenuated Bloom filters were resolved quickly because at
each hop in the search, the potential function guiding the search was able
to make high quality decisions."

At each node the query holder scores every unvisited neighbor by the
*shallowest* filter level containing the queried key — shallow levels have
low false-positive rates, so "results from Bloom filters near the top of
the hierarchy are given more weight".  The query is forwarded to the
best-scoring neighbor (ties broken toward lower link latency, then lower
id); when no neighbor's filter matches at any level, the search falls back
to a random unvisited neighbor, and when a node has no unvisited neighbors
it backtracks along its path.  Every forward or backtrack costs one message
and one unit of TTL — the paper reports messages and hops interchangeably
for this mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs import runtime as _obs
from repro.search.attenuated import AttenuatedFilters
from repro.search.flooding import _draw_workload
from repro.search.metrics import QueryRecord
from repro.search.replication import Placement
from repro.topology.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_node_id


@dataclass(frozen=True)
class IdentifierSearchResult:
    """Outcome of one identifier query."""

    source: int
    target_key: int
    messages: int
    resolved_at: int  # node id holding the object, or -1
    path: np.ndarray  # nodes the query traveled through, source first

    @property
    def success(self) -> bool:
        """Whether the query reached an actual holder of the object."""
        return self.resolved_at >= 0

    def record(self) -> QueryRecord:
        """Collapse into the mechanism-independent per-query record.

        For identifier search messages double as hops, so a successful
        query's first-hit hop is its message count.
        """
        return QueryRecord(
            source=self.source,
            messages=self.messages,
            first_hit_hop=self.messages if self.success else -1,
        )


class AbfRouter:
    """Identifier-query router over one overlay + filter set.

    ``filters`` may be the per-node :class:`AttenuatedFilters` (the default
    neighbor-exchange variant) or
    :class:`~repro.search.attenuated_perlink.PerLinkAttenuatedFilters`
    (the exact Rhea-Kubiatowicz per-link variant); both expose the
    ``neighbor_levels`` / ``no_match`` protocol the router consumes.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        filters: AttenuatedFilters,
    ):
        n_nodes = getattr(filters, "n_nodes", None)
        if n_nodes is not None and n_nodes != graph.n_nodes:
            raise ValueError("filters and graph node counts disagree")
        link_indptr = getattr(filters, "indptr", None)
        if link_indptr is not None and not np.array_equal(
            link_indptr, graph.indptr
        ):
            raise ValueError("per-link filters were built for a different graph")
        self.graph = graph
        self.filters = filters

    def query(
        self,
        source: int,
        key: int,
        holder_mask: np.ndarray,
        ttl: int = 25,
        backtrack: bool = True,
        seed: SeedLike = None,
        faults=None,
        query_key: int = 0,
    ) -> IdentifierSearchResult:
        """Route one query for ``key`` starting at ``source``.

        Parameters
        ----------
        holder_mask:
            Ground-truth per-node holder mask — used only to decide whether
            a visited node actually resolves the query (Bloom filters route;
            they never declare success themselves, so false positives cost
            messages but cannot fabricate hits).
        ttl:
            Message budget.
        backtrack:
            Pop back along the path (costing a message) at dead ends; with
            False the query dies instead.
        faults:
            Optional :class:`~repro.faults.link.LinkFaults`.  A dropped
            transmission (forward or backtrack) burns the message and its
            TTL unit but the query never arrives — the holder keeps the
            query and retries on the next iteration with a fresh drop
            decision.  Decisions are counter-based over ``(faults.seed,
            query_key, message index, sender, receiver)``, so sharded
            execution loses the same messages as the serial loop.
        query_key:
            Identity of this query in the loss stream (global workload
            index when issued in batches).
        """
        graph = self.graph
        check_node_id("source", source, graph.n_nodes)
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        if holder_mask.shape != (graph.n_nodes,):
            raise ValueError("holder_mask must have one entry per node")
        rng = as_generator(seed)
        lossy = faults is not None and faults.lossy

        visited = np.zeros(graph.n_nodes, dtype=bool)
        visited[source] = True
        path = [source]
        stack = [source]
        current = source
        messages = 0

        session = _obs.active()
        tracer = session.tracer if session is not None else None

        if holder_mask[current]:
            self._record_query(session, tracer, source, 0, current,
                               lost=0 if lossy else None)
            return IdentifierSearchResult(
                source=source, target_key=key, messages=0,
                resolved_at=current, path=np.asarray(path, dtype=np.int64),
            )

        lost = 0
        while messages < ttl:
            nbrs = graph.neighbors(current)
            fresh = nbrs[~visited[nbrs]]
            if fresh.size == 0:
                if not backtrack or len(stack) <= 1:
                    break
                target = stack[-2]
                messages += 1
                if lossy and bool(
                    faults.drop(query_key, messages, current, target)
                ):
                    lost += 1
                    if tracer is not None:
                        tracer.emit("abf.route", node=current, chosen=target,
                                    decision="lost")
                    continue
                stack.pop()
                current = target
                path.append(current)
                if tracer is not None:
                    tracer.emit("abf.route", node=path[-2], chosen=current,
                                decision="backtrack")
                continue

            levels = self.filters.neighbor_levels(graph, current, fresh, key)
            best = int(levels.min())
            if best < self.filters.no_match:
                tied = fresh[levels == best]
                if tied.size > 1:
                    # Prefer the lowest-latency link among equally promising
                    # neighbors; the filters cannot distinguish them.
                    lats = self._latencies_to(current, tied)
                    tied = tied[np.lexsort((tied, lats))]
                nxt = int(tied[0])
                decision = "filter"
            else:
                # No signal anywhere: wander to a random unvisited neighbor
                # until some filter horizon comes into view.
                nxt = int(fresh[rng.integers(0, fresh.size)])
                decision = "random"

            messages += 1
            if lossy and bool(faults.drop(query_key, messages, current, nxt)):
                # The forwarded query vanished in transit: TTL is spent,
                # the neighbor never saw it, and the holder retries next
                # iteration (possibly re-picking the same best neighbor
                # under a fresh drop decision).
                lost += 1
                if tracer is not None:
                    tracer.emit("abf.route", node=current, chosen=nxt,
                                decision="lost")
                continue
            if tracer is not None:
                tracer.emit(
                    "abf.route", node=current, chosen=nxt, decision=decision,
                    level=best if decision == "filter" else None,
                    fanout=int(fresh.size),
                )
            if session is not None:
                session.metrics.counter(f"search.abf.routed_{decision}").inc()

            visited[nxt] = True
            stack.append(nxt)
            path.append(nxt)
            current = nxt
            if holder_mask[current]:
                self._record_query(session, tracer, source, messages, current,
                                   lost=lost if lossy else None)
                return IdentifierSearchResult(
                    source=source, target_key=key, messages=messages,
                    resolved_at=current, path=np.asarray(path, dtype=np.int64),
                )

        self._record_query(session, tracer, source, messages, -1,
                           lost=lost if lossy else None)
        return IdentifierSearchResult(
            source=source, target_key=key, messages=messages,
            resolved_at=-1, path=np.asarray(path, dtype=np.int64),
        )

    @staticmethod
    def _record_query(
        session, tracer, source, messages, resolved_at, lost=None
    ) -> None:
        """Final per-query metrics/trace (no-op when observability is off)."""
        if session is None:
            return
        reg = session.metrics
        reg.counter("search.abf.queries").inc()
        reg.counter("search.abf.messages_sent").inc(messages)
        if lost is not None:
            reg.counter("search.abf.messages_lost").inc(lost)
        reg.histogram("search.abf.messages_per_query").observe(float(messages))
        if tracer is not None:
            tracer.emit(
                "abf.query", source=source, messages=messages,
                resolved_at=resolved_at,
            )

    def _latencies_to(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Link latencies from ``u`` to a subset of its neighbors."""
        nbrs = self.graph.neighbors(u)
        lats = self.graph.neighbor_latencies(u)
        pos = np.searchsorted(nbrs, targets)
        return lats[pos]


def _run_identifier_shard(payload) -> list[IdentifierSearchResult]:
    """One worker's slice of an identifier workload (module-level: picklable)."""
    router, placement, ttl, faults, sources, objects, keys, rngs = payload
    return [
        router.query(
            int(src), placement.key_of(int(obj)),
            placement.holder_mask(int(obj)), ttl=ttl, seed=rng,
            faults=faults, query_key=int(key),
        )
        for src, obj, key, rng in zip(sources, objects, keys, rngs)
    ]


def identifier_queries(
    router: AbfRouter,
    placement: Placement,
    n_queries: int,
    ttl: int = 25,
    seed: SeedLike = None,
    sources: Optional[Sequence[int]] = None,
    n_workers: int = 1,
    faults=None,
) -> list[IdentifierSearchResult]:
    """Issue a batch of identifier queries for random placement objects.

    Each query routes with its own child generator spawned from the seed
    (``SeedSequence.spawn``), so results are independent of how the batch
    is executed: ``n_workers > 1`` shards the workload across processes
    via :func:`repro.parallel.map_shards` and returns bit-identical
    results in the same order as the serial loop.  With ``faults``, loss
    keys are the global workload indices, preserving that invariance.
    """
    from repro.parallel.runner import _run_sharded

    workload = _draw_workload(
        router.graph, placement, n_queries, seed, sources, spawn=True
    )
    return _run_sharded(
        _run_identifier_shard, (router, placement, ttl, faults), workload,
        n_workers,
    )
