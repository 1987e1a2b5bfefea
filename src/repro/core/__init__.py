"""Makalu — the paper's contribution.

A decentralized overlay-construction algorithm in which every node uses only
*local* information (its neighbors' neighbor lists and measured latencies) to
keep the neighbors that maximize expansion from its neighborhood while
minimizing latency.  See :mod:`repro.core.rating` for the utility function
and :mod:`repro.core.makalu` for join/management.
"""

from repro.core.makalu import MakaluBuilder, MakaluConfig, makalu_graph
from repro.core.membership import HostCache, MembershipService
from repro.core.maintenance import (
    handle_capacity_change,
    prune_to_capacity,
    repair_after_failure,
)
from repro.core.rating import RatingWeights, node_boundary, rate_neighbors, unique_reachable

__all__ = [
    "RatingWeights",
    "rate_neighbors",
    "unique_reachable",
    "node_boundary",
    "MakaluConfig",
    "MakaluBuilder",
    "makalu_graph",
    "HostCache",
    "MembershipService",
    "prune_to_capacity",
    "handle_capacity_change",
    "repair_after_failure",
]
