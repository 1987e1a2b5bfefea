"""Process-parallel query execution with exact recombination.

One executor, :func:`map_shards`: run a module-level function over a list
of self-contained payloads, in-process or across a worker pool, results in
payload order.  Every search driver is a client of it —
:func:`run_queries` (flooding: the overlay's CSR arrays go into shared
memory via :mod:`repro.parallel.shared_graph`, each worker advances its
shard through the batched kernel
:func:`repro.search.batch.flood_batch`), and the identifier and two-tier
drivers, whose per-query state (Bloom filters, QRP tables) is cheap enough
to pickle once per shard.  All three hand a drawn workload to
:func:`_run_sharded`, which cuts it into one contiguous shard per worker.

Observability: when the parent process has an active :mod:`repro.obs`
session, each pool worker opens a fresh metrics-only session, runs its
shard, and ships the metric snapshot back; the parent folds every snapshot
into its own registry
(:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`).  Counter and
histogram totals therefore match a single-process run exactly.  Trace
events and profiler spans are per-process and are *not* transported.

Determinism: the workload (sources, objects, loss keys and any per-query
generators) is always drawn in the parent before sharding
(:func:`repro.search.flooding._draw_workload`), so results do not depend
on ``n_workers``, ``batch_size``, or scheduling.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.obs import runtime as _obs
from repro.search.batch import flood_batch, placement_masks
from repro.search.flooding import FloodResult, _draw_workload
from repro.search.metrics import SearchSummary, summarize
from repro.search.replication import Placement
from repro.parallel.shared_graph import SharedGraph, SharedGraphHandle
from repro.topology.graph import OverlayGraph
from repro.util.rng import SeedLike

#: Queries advanced per kernel invocation inside each worker.  Large enough
#: to amortize the per-level numpy overhead, small enough that the per-batch
#: ``(batch, n_nodes)`` replica-mask block stays in cache-friendly territory
#: at paper scale.
DEFAULT_BATCH_SIZE = 64


def default_workers() -> int:
    """Worker count used when callers pass ``n_workers=0`` (one per core)."""
    return max(1, os.cpu_count() or 1)


def _resolve_workers(n_workers: int) -> int:
    """Validate a worker count; ``0`` means one per CPU core."""
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0, got {n_workers}")
    return n_workers or default_workers()


def _start_method() -> str:
    """Prefer fork (cheap, shares imports); fall back to spawn elsewhere."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _shard_bounds(n: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` split of ``range(n)``."""
    n_shards = max(1, min(n_shards, n))
    edges = np.linspace(0, n, n_shards + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _run_pool_shard(arg):
    """Run one shard in a pool worker; returns ``(result, metric snapshot)``.

    Any session inherited through fork is dropped, not ``close()``d — its
    tracer may hold a file descriptor shared with the parent.  The fresh
    metrics-only session is per shard, not per worker, so the snapshot
    shipped back is this shard's alone even when the pool hands one worker
    several shards.
    """
    fn, payload, obs_on = arg
    _obs._ACTIVE = None
    session = _obs.configure() if obs_on else None
    out = fn(payload)
    return out, session.metrics.snapshot() if obs_on else None


def _run_flood_shard(payload) -> list[FloodResult]:
    """Flood one shard batch-by-batch (module-level: picklable)."""
    (graph, placement, ttl, batch_size, faults,
     sources, objects, keys, _) = payload
    if isinstance(graph, SharedGraphHandle):
        graph = graph.attach()
    results: list[FloodResult] = []
    for start in range(0, sources.size, batch_size):
        chunk = slice(start, start + batch_size)
        results.extend(
            flood_batch(
                graph, sources[chunk], ttl,
                replica_masks=placement_masks(placement, objects[chunk]),
                faults=faults,
                # Global workload indices, never shard-local positions:
                # drop decisions must not depend on n_workers.
                query_keys=keys[chunk],
            )
        )
    return results


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelRunResult:
    """Recombined outcome of a sharded query run.

    ``results`` is in workload (query) order and bit-identical to the
    scalar loop.
    """

    results: list[FloodResult]
    n_workers: int

    @property
    def summary(self) -> SearchSummary:
        """Summary of the per-query records, computed when read.

        Summarized over the concatenated records, so every field — exact
        percentiles included — matches a single-process run.
        """
        return summarize([r.record() for r in self.results])


def run_queries(
    graph: OverlayGraph,
    placement: Placement,
    n_queries: int,
    ttl: int,
    seed: SeedLike = None,
    sources: Optional[Sequence[int]] = None,
    objects: Optional[np.ndarray] = None,
    n_workers: int = 0,
    batch_size: Optional[int] = None,
    faults=None,
) -> ParallelRunResult:
    """Run a flooding query workload sharded across worker processes.

    Parameters
    ----------
    seed, sources:
        Workload selection, with the same semantics (and RNG consumption)
        as :func:`repro.search.flooding.flood_queries`; ``objects`` may be
        given alongside ``sources`` to replay an exact workload instead.
    n_workers:
        Worker processes; ``0`` means one per CPU core, ``1`` runs the
        batched kernel in-process (no pool, no shared memory) — useful as
        the deterministic reference in equivalence tests.
    batch_size:
        Kernel batch width within each shard (default
        :data:`DEFAULT_BATCH_SIZE`).
    faults:
        Optional :class:`~repro.faults.link.LinkFaults` message-loss
        environment, keyed by global workload index so results stay
        bit-identical across worker counts.

    The graph's CSR arrays travel through shared memory; only the handle,
    the placement, and each shard's slice of the workload are pickled.
    """
    if objects is None:
        workload = _draw_workload(graph, placement, n_queries, seed, sources)
    else:
        workload = (
            np.asarray(sources, dtype=np.int64),
            np.asarray(objects, dtype=np.int64),
            np.arange(n_queries, dtype=np.int64),
            None,
        )
        if workload[0].size != n_queries or workload[1].size != n_queries:
            raise ValueError("sources/objects must have one entry per query")
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n_workers = _resolve_workers(n_workers)
    pooled = min(n_workers, n_queries) > 1
    with SharedGraph(graph) if pooled else nullcontext() as shared:
        results = _run_sharded(
            _run_flood_shard,
            (shared.handle if pooled else graph, placement, ttl, batch_size,
             faults),
            workload, n_workers,
        )
    return ParallelRunResult(results=results, n_workers=n_workers)


def _run_sharded(
    fn: Callable, context: tuple, workload: tuple, n_workers: int
) -> list:
    """Run a drawn workload as one contiguous shard per worker.

    ``workload`` is the ``(sources, objects, keys, rngs)`` tuple of
    :func:`repro.search.flooding._draw_workload`; every column (``rngs``
    may be ``None``) is sliced alike, so each query keeps its global loss
    key and its own generator whichever shard it lands in.  ``fn`` gets
    ``context + shard`` as its payload and returns that shard's per-query
    results; they come back concatenated in workload order.
    """
    bounds = _shard_bounds(len(workload[0]), _resolve_workers(n_workers))
    payloads = [
        context + tuple(None if col is None else col[a:b] for col in workload)
        for a, b in bounds
    ]
    return [r for out in map_shards(fn, payloads, n_workers) for r in out]


def map_shards(
    fn: Callable, payloads: Sequence, n_workers: int
) -> list:
    """Run ``fn(payload)`` for every payload, optionally across processes.

    ``fn`` must be a module-level callable (pickled by reference) and each
    payload self-contained.  Results come back in payload order.  With
    one worker or one payload everything runs in the calling process —
    under the caller's obs session, no pool; otherwise worker metric
    snapshots are merged into the parent's active obs session.
    """
    n_workers = _resolve_workers(n_workers)
    if n_workers == 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    session = _obs.active()
    ctx = mp.get_context(_start_method())
    with ctx.Pool(processes=min(n_workers, len(payloads))) as pool:
        outs = pool.map(
            _run_pool_shard, [(fn, p, session is not None) for p in payloads]
        )
    if session is not None:
        for _, snapshot in outs:
            session.metrics.merge_snapshot(snapshot)
    return [out for out, _ in outs]
