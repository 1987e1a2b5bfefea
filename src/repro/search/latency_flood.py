"""Latency-aware flooding: response-time analysis.

The hop-based kernels count messages; this module models *when* results
arrive.  A flooded query departs the source at time 0 and traverses each
overlay link in that link's physical latency; a node processes the first
copy it receives and forwards immediately (processing and queueing are
assumed negligible — the paper's Section 6 discussion attributes Gnutella's
slow responses to queueing at overloaded peers, which Makalu's
capacity-respecting degrees avoid by construction).  A result travels back
to the source along the reverse of its discovery path, so the response
time of a replica is twice its arrival time.

The earliest arrival under a TTL is a hop-constrained shortest path,
computed with ``ttl`` rounds of vectorized Bellman-Ford relaxation over
the CSR edge list — O(ttl * E) with no per-node Python work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.search.flooding import draw_query_workload
from repro.search.replication import Placement
from repro.topology.graph import OverlayGraph
from repro.util.rng import SeedLike
from repro.util.segments import segment_counts
from repro.util.validation import check_node_id


def flood_arrival_times(
    graph: OverlayGraph, source: int, ttl: int
) -> np.ndarray:
    """Earliest query-arrival time at every node within ``ttl`` hops.

    Entry ``v`` is the minimum, over paths of at most ``ttl`` hops, of the
    path's total link latency; ``inf`` for nodes the flood cannot reach.
    The source itself is 0.
    """
    check_node_id("source", source, graph.n_nodes)
    if ttl < 0:
        raise ValueError(f"ttl must be >= 0, got {ttl}")

    src = np.repeat(
        np.arange(graph.n_nodes, dtype=np.int64), segment_counts(graph.indptr)
    )
    dst = graph.indices
    w = graph.latency

    arrival = np.full(graph.n_nodes, np.inf)
    arrival[source] = 0.0
    for _ in range(ttl):
        candidate = arrival[src] + w
        improved = np.full(graph.n_nodes, np.inf)
        np.minimum.at(improved, dst, candidate)
        new = np.minimum(arrival, improved)
        if np.array_equal(
            new, arrival, equal_nan=True
        ):  # converged before the TTL
            break
        arrival = new
    return arrival


@dataclass(frozen=True)
class ResponseTimeResult:
    """Timing of one flooded query."""

    source: int
    ttl: int
    first_result_time: float  # inf when no replica is reachable
    results_within_ttl: int
    arrival_of_nearest: float

    @property
    def success(self) -> bool:
        """Whether any replica was reached within the TTL."""
        return np.isfinite(self.first_result_time)


def time_to_first_result(
    graph: OverlayGraph,
    source: int,
    ttl: int,
    replica_mask: np.ndarray,
    round_trip: bool = True,
) -> ResponseTimeResult:
    """Response time of a flooded query for an object.

    ``round_trip`` doubles the arrival time to account for the QueryHit
    traveling back along the reverse path (the v0.4 result-routing rule).
    """
    if replica_mask.shape != (graph.n_nodes,):
        raise ValueError("replica_mask must have one entry per node")
    arrival = flood_arrival_times(graph, source, ttl)
    holder_times = arrival[replica_mask]
    reachable = holder_times[np.isfinite(holder_times)]
    nearest = float(reachable.min()) if reachable.size else float("inf")
    factor = 2.0 if round_trip else 1.0
    return ResponseTimeResult(
        source=source,
        ttl=ttl,
        first_result_time=nearest * factor if np.isfinite(nearest) else float("inf"),
        results_within_ttl=int(reachable.size),
        arrival_of_nearest=nearest,
    )


def response_time_distribution(
    graph: OverlayGraph,
    placement: Placement,
    n_queries: int,
    ttl: int,
    seed: SeedLike = None,
    round_trip: bool = True,
) -> np.ndarray:
    """Response times of a batch of queries (inf entries = unresolved).

    Use ``numpy.isfinite`` to split successes from failures and
    ``numpy.percentile`` on the finite part for the latency distribution.
    """
    sources, objects = draw_query_workload(graph, placement, n_queries, seed)
    out = np.empty(n_queries)
    for i, (src, obj) in enumerate(zip(sources, objects)):
        res = time_to_first_result(
            graph, int(src), ttl, placement.holder_mask(int(obj)),
            round_trip=round_trip,
        )
        out[i] = res.first_result_time
    return out
