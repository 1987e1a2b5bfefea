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
from repro.search.bloom import key_positions
from repro.search.flooding import _draw_workload
from repro.search.metrics import QueryRecord
from repro.search.replication import Placement
from repro.topology.csr import ragged_slices
from repro.topology.graph import OverlayGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_node_id

#: Per-message routing decisions, as logged for the obs emitter.  A lost
#: message is logged as lost whatever decision picked its receiver.
_FILTER, _RANDOM, _BACKTRACK, _LOST = range(4)
_DECISIONS = ("filter", "random", "backtrack", "lost")


@dataclass(frozen=True)
class IdentifierSearchResult:
    """Outcome of one identifier query."""

    source: int
    target_key: int
    messages: int
    resolved_at: int  # node id holding the object, or -1
    path: np.ndarray  # nodes the query traveled through, source first
    #: How many of ``messages`` were lost in transit; ``None`` when the
    #: query ran without a lossy fault environment.
    messages_lost: Optional[int] = None

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
    ``link_levels`` / ``no_match`` protocol the router consumes.

    :meth:`query_batch` is the kernel every driver runs;
    :meth:`query` routes one query at a time and is the executable
    reference the kernel is pinned to, result field for result field
    (``tests/property/test_identifier_properties.py``).
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
        graph, filters = self.graph, self.filters
        check_node_id("source", source, graph.n_nodes)
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        if holder_mask.shape != (graph.n_nodes,):
            raise ValueError("holder_mask must have one entry per node")
        rng = as_generator(seed)
        lossy = faults is not None and faults.lossy
        words, masks = key_positions(np.asarray([key]), filters.params)

        visited = np.zeros(graph.n_nodes, dtype=bool)
        visited[source] = True
        path = [source]
        stack = [source]
        current = source
        messages = 0
        lost = 0
        session = _obs.active()
        log = []  # (query, node, chosen, decision, level, fanout) per message

        resolved_at = source if holder_mask[source] else -1
        while resolved_at < 0 and messages < ttl:
            nbrs = graph.neighbors(current)
            unvisited = np.flatnonzero(~visited[nbrs])
            fresh = nbrs[unvisited]
            level = 0
            if fresh.size == 0:
                if not backtrack or len(stack) <= 1:
                    break
                nxt = stack[-2]
                decision = _BACKTRACK
            else:
                links = graph.indptr[current] + unvisited
                levels = filters.link_levels(fresh, links, words[0], masks[0])
                level = int(levels.min())
                if level < filters.no_match:
                    tied = np.flatnonzero(levels == level)
                    if tied.size > 1:
                        # Prefer the lowest-latency link among equally
                        # promising neighbors; the filters cannot
                        # distinguish them.
                        tied = tied[np.lexsort(
                            (fresh[tied], graph.latency[links[tied]])
                        )]
                    nxt = int(fresh[tied[0]])
                    decision = _FILTER
                else:
                    # No signal anywhere: wander to a random unvisited
                    # neighbor until some filter horizon comes into view.
                    nxt = int(fresh[rng.integers(0, fresh.size)])
                    decision = _RANDOM

            messages += 1
            if lossy and bool(faults.drop(query_key, messages, current, nxt)):
                # The message vanished in transit: TTL is spent, the
                # receiver never saw it, and the holder retries next
                # iteration (possibly re-picking the same best neighbor
                # under a fresh drop decision).
                lost += 1
                decision = _LOST
            if session is not None:
                log.append((0, current, nxt, decision, level, fresh.size))
            if decision == _LOST:
                continue
            if decision == _BACKTRACK:
                stack.pop()
            else:
                visited[nxt] = True
                stack.append(nxt)
                if holder_mask[nxt]:
                    resolved_at = nxt
            path.append(nxt)
            current = nxt

        result = IdentifierSearchResult(
            source=source, target_key=key, messages=messages,
            resolved_at=resolved_at, path=np.asarray(path, dtype=np.int64),
            messages_lost=lost if lossy else None,
        )
        if session is not None:
            _record_obs(
                session, [result],
                np.asarray(log, dtype=np.int64).reshape(-1, 6),
            )
        return result

    def query_batch(
        self,
        sources: Sequence[int],
        objects: Sequence[int],
        placement: Placement,
        rngs: Sequence[np.random.Generator],
        ttl: int = 25,
        backtrack: bool = True,
        faults=None,
        query_keys: Optional[np.ndarray] = None,
    ) -> list[IdentifierSearchResult]:
        """Route one query per entry of ``sources``, all in lock-step.

        Query ``i`` looks for object index ``objects[i]`` of ``placement``
        from ``sources[i]``, draws its random-wander steps from
        ``rngs[i]`` and keys its losses by ``query_keys[i]`` (default
        ``arange``; callers slicing a larger workload pass the *global*
        indices).  ``ttl``, ``backtrack`` and ``faults`` are those of
        :meth:`query`, and so is every field of result ``i``.

        Every query still in flight sends exactly one message per step, so
        step ``t`` is message index ``t`` for all of them: one ragged
        gather of their neighbor lists, one level lookup over the gathered
        links, one segmented arg-min by ``(level, latency, id)``, one loss
        decision over the messages sent.  Only a query no filter gives a
        signal to draws, from its own generator, in Python.  A query's
        visited set is its path, so all state is ``(n_queries, ttl + 1)``
        at most — nothing is sized by the overlay or the object catalogue.
        """
        graph, filters = self.graph, self.filters
        n = graph.n_nodes
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        objects = np.ascontiguousarray(objects, dtype=np.int64)
        if sources.ndim != 1:
            raise ValueError("sources must be 1-D")
        nq = sources.size
        if objects.shape != (nq,) or len(rngs) != nq:
            raise ValueError("objects and rngs must have one entry per query")
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        if placement.n_nodes != n:
            raise ValueError("placement and graph node counts disagree")
        if nq == 0:
            return []
        check_node_id("source", int(sources.min()), n)
        check_node_id("source", int(sources.max()), n)
        if objects.min() < 0 or objects.max() >= placement.n_objects:
            raise IndexError("object index out of range")
        lossy = faults is not None and faults.lossy
        if query_keys is None:
            query_keys = np.arange(nq, dtype=np.int64)
        else:
            query_keys = np.asarray(query_keys, dtype=np.int64)
            if query_keys.shape != (nq,):
                raise ValueError("query_keys must have one entry per query")

        # Per distinct object: its key hashed once, and its holders as
        # (object, node) codes for the "does this node resolve the query"
        # test.
        distinct, obj = np.unique(objects, return_inverse=True)
        words, masks = key_positions(
            placement.object_keys[distinct], filters.params
        )
        held, holder_obj = ragged_slices(placement.replica_indptr, distinct)
        holder_codes = holder_obj * n + placement.replica_nodes[held]

        def holds(queries: np.ndarray, nodes: np.ndarray) -> np.ndarray:
            return np.isin(obj[queries] * n + nodes, holder_codes)

        # path[q, :path_len[q]] is query q's walk and, as a set, its
        # visited nodes; stack[q, :depth[q] + 1] is its backtrack chain.
        path = np.full((nq, ttl + 1), -1, dtype=np.int64)
        path[:, 0] = sources
        path_len = np.ones(nq, dtype=np.int64)
        stack = path.copy()
        depth = np.zeros(nq, dtype=np.int64)
        messages = np.zeros(nq, dtype=np.int64)
        lost = np.zeros(nq, dtype=np.int64)
        resolved = np.where(holds(np.arange(nq), sources), sources, -1)

        session = _obs.active()
        log = []
        active = np.flatnonzero(resolved < 0)
        cur = sources[active]
        for t in range(1, ttl + 1):
            if active.size == 0:
                break
            links, owner = ragged_slices(graph.indptr, cur)
            cand = graph.indices[links]
            fresh = ~(path[active[owner], :t] == cand[:, None]).any(axis=1)
            links, owner, cand = links[fresh], owner[fresh], cand[fresh]
            fanout = np.bincount(owner, minlength=active.size)
            first = np.cumsum(fanout) - fanout

            target = np.full(active.size, -1, dtype=np.int64)
            decision = np.full(active.size, _FILTER, dtype=np.int64)
            level = np.zeros(active.size, dtype=np.int64)
            forward = np.flatnonzero(fanout)
            wanted = obj[active][owner]
            levels = filters.link_levels(
                cand, links, words[wanted], masks[wanted]
            )
            # Rows keep neighbor-id order within a query (CSR slices are
            # sorted, lexsort is stable), so the first of each query's run
            # is its (level, latency, id) minimum.
            best = np.lexsort((graph.latency[links], levels, owner))[
                first[forward]
            ]
            target[forward] = cand[best]
            level[forward] = levels[best]
            blind = forward[levels[best] == filters.no_match]
            decision[blind] = _RANDOM
            for a in blind.tolist():
                pick = rngs[active[a]].integers(0, fanout[a])
                target[a] = cand[first[a] + pick]
            if backtrack:
                back = np.flatnonzero((fanout == 0) & (depth[active] > 0))
                target[back] = stack[active[back], depth[active[back]] - 1]
                decision[back] = _BACKTRACK

            sends = target >= 0
            if not sends.all():
                # Dead ends with nowhere to backtrack to: out of the race
                # with the messages they had.
                active, cur, target, decision, level, fanout = (
                    col[sends]
                    for col in (active, cur, target, decision, level, fanout)
                )
            messages[active] = t
            if lossy:
                dropped = faults.drop(query_keys[active], t, cur, target)
                lost[active] += dropped
                decision[dropped] = _LOST
            if session is not None:
                log.append(np.column_stack(
                    (active, cur, target, decision, level, fanout)
                ))

            arrived = decision != _LOST
            moved = active[arrived]
            path[moved, path_len[moved]] = target[arrived]
            path_len[moved] += 1
            cur = np.where(arrived, target, cur)
            fwd = decision <= _RANDOM
            depth[active] += fwd.astype(np.int64) - (decision == _BACKTRACK)
            stack[active[fwd], depth[active[fwd]]] = cur[fwd]
            done = np.zeros(active.size, dtype=bool)
            done[fwd] = holds(active[fwd], cur[fwd])
            resolved[active[done]] = cur[done]
            active, cur = active[~done], cur[~done]

        results = [
            IdentifierSearchResult(
                source=src, target_key=key, messages=sent, resolved_at=at,
                path=path[q, :length], messages_lost=gone if lossy else None,
            )
            for q, (src, key, sent, at, length, gone) in enumerate(zip(
                sources.tolist(), placement.object_keys[objects].tolist(),
                messages.tolist(), resolved.tolist(), path_len.tolist(),
                lost.tolist(),
            ))
        ]
        if session is not None:
            _record_obs(
                session, results,
                np.concatenate(log) if log else np.empty((0, 6), np.int64),
            )
        return results


def _record_obs(
    session, results: list[IdentifierSearchResult], log: np.ndarray
) -> None:
    """Emit the ``search.abf.*`` metrics and ``abf.*`` events of ``results``.

    The one emitter both routers call: scalar ``query`` with its single
    result, ``query_batch`` with the batch.  ``log`` has one ``(query,
    node, chosen, decision, level, fanout)`` row per message, each query's
    rows in the order it sent them; replayed query by query, the trace
    stream and the metric totals do not depend on which router ran.
    """
    reg = session.metrics
    tracer = session.tracer
    for code in (_FILTER, _RANDOM):
        routed = int(np.count_nonzero(log[:, 3] == code))
        if routed:
            reg.counter(f"search.abf.routed_{_DECISIONS[code]}").inc(routed)
    # One call is one fault environment: all its results are lossy or
    # none is, and a lossless call must not create the counter.
    lossy = results[0].messages_lost is not None
    reg.counter("search.abf.queries").inc(len(results))
    reg.counter("search.abf.messages_sent").inc(sum(r.messages for r in results))
    if lossy:
        reg.counter("search.abf.messages_lost").inc(
            sum(r.messages_lost for r in results)
        )
    hist = reg.histogram("search.abf.messages_per_query")
    for r in results:
        hist.observe(float(r.messages))
    if tracer is None:
        return
    log = log[np.argsort(log[:, 0], kind="stable")]
    ends = np.searchsorted(log[:, 0], np.arange(len(results)), side="right")
    rows = log[:, 1:].tolist()
    start = 0
    for r, end in zip(results, ends.tolist()):
        for node, chosen, code, level, fanout in rows[start:end]:
            fields = dict(node=node, chosen=chosen, decision=_DECISIONS[code])
            if code <= _RANDOM:
                fields["level"] = level if code == _FILTER else None
                fields["fanout"] = fanout
            tracer.emit("abf.route", **fields)
        start = end
        tracer.emit(
            "abf.query", source=r.source, messages=r.messages,
            resolved_at=r.resolved_at,
        )


def _run_identifier_shard(payload) -> list[IdentifierSearchResult]:
    """One worker's slice of an identifier workload (module-level: picklable)."""
    router, placement, ttl, faults, sources, objects, keys, rngs = payload
    return router.query_batch(
        sources, objects, placement, rngs, ttl=ttl, faults=faults,
        query_keys=keys,
    )


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
