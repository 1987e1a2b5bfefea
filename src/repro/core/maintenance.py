"""Overlay maintenance operations (paper Sections 2.1-2.2).

These helpers implement the standing-state behaviours of a Makalu node that
are not part of the initial join:

* :func:`prune_to_capacity` — the ``Manage()`` loop body: "while neighbors >
  max connections: compute rating for each neighbor; remove neighbor with
  lowest rating".
* :func:`handle_capacity_change` — "when the degree of a node changes in
  response to a change in the available bandwidth, the node initiates a
  pruning mechanism that evaluates its current neighbors using the utility
  function F and prunes its neighbors with the lowest utility cost until the
  requisite number of neighbors is reached".
* :func:`repair_after_failure` — recovery after node failures: survivors
  drop edges to dead peers and, if left under their floor, re-acquire
  neighbors via the normal walk-based candidate gathering.  (The paper's
  fault-tolerance *analysis* deliberately disables recovery to study the
  worst case; the churn simulator and the recovery extension use this.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.rating import RatingWeights, rate_neighbors, worst_neighbor
from repro.obs import runtime as _obs
from repro.topology.graph import AdjacencyBuilder
from repro.util.validation import check_positive


def prune_to_capacity(
    adj: AdjacencyBuilder,
    node: int,
    capacity: int,
    weights: RatingWeights = RatingWeights(),
) -> list[int]:
    """Prune ``node``'s lowest-rated neighbors until within ``capacity``.

    Returns the pruned neighbor ids, in pruning order.  Ratings are
    recomputed after every removal, as in the protocol — dropping a neighbor
    changes both the node boundary and d_max.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    pruned: list[int] = []
    while adj.degree(node) > capacity:
        with _obs.span("maintenance.rating"):
            ratings = rate_neighbors(
                node, adj.neighbors(node),
                lambda v: adj.neighbors(v).keys(), weights,
            )
        victim = worst_neighbor(ratings)
        adj.remove_edge(node, victim)
        pruned.append(victim)
        _obs.count("maintenance.capacity_prunes")
        _obs.event("maintenance.prune", node=node, victim=victim)
    return pruned


def handle_capacity_change(
    builder,
    node: int,
    new_capacity: int,
) -> list[int]:
    """Apply a bandwidth-driven capacity change on a live builder.

    Shrinking triggers the pruning mechanism; growing leaves existing
    neighbors untouched and runs an acquisition pass to fill the new spare
    capacity.  ``builder`` is a :class:`repro.core.makalu.MakaluBuilder`.

    Returns the list of pruned neighbors (empty when growing).
    """
    if new_capacity < 1:
        raise ValueError(f"new_capacity must be >= 1, got {new_capacity}")
    old = int(builder.capacities[node])
    builder.capacities[node] = new_capacity
    if new_capacity < old:
        pruned = prune_to_capacity(
            builder.adj, node, new_capacity, builder.config.weights
        )
        for victim in pruned:
            if builder.adj.degree(victim) < builder.config.min_degree_floor:
                builder._repair_queue.append(victim)
        builder._drain_repairs(budget=2 * len(pruned) + 4)
        return pruned
    builder._acquire(node, allow_swap=False)
    return []


def repair_after_failure(
    builder,
    failed: Iterable[int],
    rejoin: bool = True,
    max_passes: int = 3,
) -> np.ndarray:
    """Fail the given nodes on a live builder and let survivors recover.

    All edges incident to failed nodes disappear instantly (the paper's
    "non-recoverable and instantaneous failure" model).  With ``rejoin``
    True, surviving nodes that lost neighbors run acquisition passes until
    they are back at capacity or ``max_passes`` is exhausted.

    Returns the array of surviving node ids that lost at least one neighbor.
    """
    failed = np.unique(np.asarray(list(failed), dtype=np.int64))
    failed_set = set(failed.tolist())
    adj = builder.adj

    bereaved: set[int] = set()
    for f in failed:
        for v in list(adj.neighbors(int(f))):
            adj.remove_edge(int(f), v)
            if v not in failed_set:
                bereaved.add(v)
    _obs.count("maintenance.failures", failed.size)
    _obs.count("maintenance.bereaved", len(bereaved))
    _obs.event(
        "maintenance.failure", failed=failed.size, bereaved=len(bereaved),
        rejoin=rejoin,
    )
    # Failed nodes leave the candidate pool so walks cannot resurrect them.
    # The roster is tombstoned (O(log n) per failed node), not rebuilt —
    # the old O(n) list scan per failure event made heavy churn quadratic.
    builder._joined.discard_many(failed_set)
    builder._repair_queue = type(builder._repair_queue)(
        x for x in builder._repair_queue if x not in failed_set
    )

    survivors = np.asarray(sorted(bereaved), dtype=np.int64)
    if rejoin:
        with _obs.span("maintenance.repair"):
            for _ in range(max_passes):
                needy = [
                    int(x) for x in survivors
                    if adj.degree(int(x)) < builder.capacities[x]
                ]
                if not needy:
                    break
                for x in needy:
                    builder._acquire(x, allow_swap=False)
    return survivors


# ----------------------------------------------------------------------
# Retry/timeout recovery (the fault-injection engine's repair discipline)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryPolicy:
    """Retry discipline for neighbor re-acquisition after faults.

    An under-capacity node does not re-acquire in a tight loop: each
    attempt is a timed protocol exchange, and hammering the overlay right
    after a correlated crash amplifies the damage.  Instead attempts are
    spaced ``base_delay * backoff**(attempt - 1)`` apart (exponential
    backoff), up to ``max_retries`` attempts.  If the walks still have not
    restored capacity by the final attempt, the node falls back to bounded
    direct connections from its host cache / known-online pool
    (``fallback_peers`` tries) and then gives up until some later fault or
    churn event touches it again.
    """

    max_retries: int = 3
    base_delay: float = 2.0
    backoff: float = 2.0
    host_cache_fallback: bool = True
    fallback_peers: int = 2

    def __post_init__(self):
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        check_positive("base_delay", self.base_delay)
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.fallback_peers < 0:
            raise ValueError(
                f"fallback_peers must be >= 0, got {self.fallback_peers}"
            )

    def retry_delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return self.base_delay * self.backoff ** max(attempt - 1, 0)


def _fallback_candidates(builder, node: int, online, rng) -> list[int]:
    """Bounded fallback pool: the node's host cache first, else known peers.

    Only online non-neighbors qualify; order is deterministic given ``rng``.
    """
    neighbors = set(builder.adj.neighbors(node))

    def usable(p: int) -> bool:
        if p == node or p in neighbors:
            return False
        return online is None or bool(online[p])

    if builder.membership is not None:
        pool = [p for p in builder.membership.caches[node].peers() if usable(p)]
        if pool:
            rng.shuffle(pool)
            return pool
    pool = [p for p in builder._joined if usable(p)]
    rng.shuffle(pool)
    return pool


def recovery_attempt(
    builder,
    node: int,
    policy: RecoveryPolicy,
    attempt: int,
    rng: np.random.Generator,
    online: Optional[np.ndarray] = None,
) -> str:
    """One scheduled recovery attempt for an under-capacity ``node``.

    Returns ``"recovered"`` (back at capacity), ``"retry"`` (still short,
    another attempt should be scheduled after ``policy.retry_delay``), or
    ``"gave_up"`` (retries exhausted; the host-cache fallback, if enabled,
    has already been spent).  Callers own the timer; this function only
    does the protocol work of a single attempt, so it composes with any
    event queue.
    """
    adj = builder.adj
    _obs.count("recovery.attempts")
    if adj.degree(node) < builder.capacities[node]:
        with _obs.span("recovery.acquire"):
            builder._acquire(node, allow_swap=False)
    if adj.degree(node) >= builder.capacities[node]:
        _obs.count("recovery.recovered")
        _obs.event("recovery.recovered", node=node, attempt=attempt)
        return "recovered"
    if attempt < policy.max_retries:
        _obs.count("recovery.retries")
        return "retry"
    # Final attempt: spend the bounded host-cache fallback before giving up.
    if policy.host_cache_fallback and policy.fallback_peers > 0:
        for peer in _fallback_candidates(builder, node, online, rng)[
            : policy.fallback_peers
        ]:
            _obs.count("recovery.fallback_attempts")
            if builder._attempt_connection(node, int(peer)):
                _obs.count("recovery.fallback_connections")
            if adj.degree(node) >= builder.capacities[node]:
                _obs.count("recovery.recovered")
                _obs.event(
                    "recovery.recovered", node=node, attempt=attempt,
                    via="fallback",
                )
                return "recovered"
    _obs.count("recovery.gave_up")
    _obs.event(
        "recovery.gave_up", node=node, attempt=attempt,
        degree=adj.degree(node),
    )
    return "gave_up"
