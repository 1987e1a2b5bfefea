"""Makalu: fault-tolerant expander overlays for unstructured P2P search.

A production-oriented reproduction of *"Improving Search Using a
Fault-Tolerant Overlay in Unstructured P2P Systems"* (Acosta & Chandra,
ICPP 2007).  The package provides:

* the **Makalu** overlay-construction algorithm (:mod:`repro.core`);
* physical-latency substrates (:mod:`repro.netmodel`);
* comparison topologies — Gnutella v0.4 power-law, v0.6 two-tier
  ultrapeer, and k-regular random expanders (:mod:`repro.topology`);
* structural/spectral/fault-tolerance analysis (:mod:`repro.analysis`);
* search mechanisms — TTL flooding, v0.6 dynamic querying, random walks,
  and attenuated-Bloom-filter identifier routing (:mod:`repro.search`);
* a discrete-event churn simulator (:mod:`repro.sim`);
* trace-statistics validation against 2003/2006 Gnutella traffic
  (:mod:`repro.trace`).

Quickstart::

    from repro import EuclideanModel, makalu_graph, place_objects, flood

    model = EuclideanModel(10_000, seed=1)
    overlay = makalu_graph(model=model, seed=2)
    placement = place_objects(overlay.n_nodes, n_objects=50,
                              replication_ratio=0.005, seed=3)
    result = flood(overlay, source=0, ttl=4,
                   replica_mask=placement.holder_mask(0))
    print(result.total_messages, result.success)
"""

from repro.analysis import (
    algebraic_connectivity,
    convergence_boundary,
    degree_ccdf,
    expansion_profile,
    failure_sweep,
    fit_powerlaw_exponent,
    normalized_laplacian_spectrum,
    path_stats,
    powerlaw_fit_quality,
    spectrum_points,
    top_degree_nodes,
)
from repro.core import (
    HostCache,
    MakaluBuilder,
    MakaluConfig,
    MembershipService,
    RatingWeights,
    makalu_graph,
    rate_neighbors,
)
from repro.netmodel import (
    EuclideanModel,
    MatrixLatencyModel,
    NetworkModel,
    SyntheticPlanetLabModel,
    TransitStubModel,
)
from repro.parallel import ParallelRunResult, run_queries
from repro.search import (
    AbfRouter,
    BloomParams,
    Placement,
    QrpTables,
    TwoTierSearch,
    build_attenuated_filters,
    build_per_link_filters,
    build_qrp_tables,
    flood,
    flood_batch,
    flood_queries,
    identifier_queries,
    min_ttl_for_success,
    place_objects,
    place_single_object,
    gia_search,
    random_walk_search,
    response_time_distribution,
    success_vs_ttl,
    summarize,
    two_tier_queries,
)
from repro.sim import ChurnConfig, ChurnSimulation, Simulator, queued_flood
from repro.structured import ChordRing, chord_broadcast_cost
from repro.topology import (
    AdjacencyBuilder,
    OverlayGraph,
    gia_graph,
    k_regular_graph,
    load_graph,
    powerlaw_graph,
    save_graph,
    two_tier_graph,
)
from repro.trace import (
    GNUTELLA_2003,
    GNUTELLA_2006,
    generate_workload,
    traffic_comparison,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # netmodel
    "NetworkModel",
    "MatrixLatencyModel",
    "EuclideanModel",
    "TransitStubModel",
    "SyntheticPlanetLabModel",
    # topology
    "OverlayGraph",
    "AdjacencyBuilder",
    "k_regular_graph",
    "powerlaw_graph",
    "two_tier_graph",
    "gia_graph",
    "save_graph",
    "load_graph",
    # core
    "MakaluBuilder",
    "MakaluConfig",
    "RatingWeights",
    "makalu_graph",
    "rate_neighbors",
    # analysis
    "path_stats",
    "algebraic_connectivity",
    "normalized_laplacian_spectrum",
    "spectrum_points",
    "expansion_profile",
    "convergence_boundary",
    "failure_sweep",
    "top_degree_nodes",
    # search
    "Placement",
    "place_objects",
    "place_single_object",
    "flood",
    "flood_batch",
    "flood_queries",
    "TwoTierSearch",
    "two_tier_queries",
    "random_walk_search",
    "gia_search",
    "BloomParams",
    "build_attenuated_filters",
    "AbfRouter",
    "identifier_queries",
    "summarize",
    "success_vs_ttl",
    "min_ttl_for_success",
    # structured + protocol-level extras
    "ChordRing",
    "chord_broadcast_cost",
    "QrpTables",
    "build_qrp_tables",
    "build_per_link_filters",
    "response_time_distribution",
    # membership
    "HostCache",
    "MembershipService",
    # degree analysis
    "degree_ccdf",
    "fit_powerlaw_exponent",
    "powerlaw_fit_quality",
    # parallel
    "ParallelRunResult",
    "run_queries",
    # sim
    "Simulator",
    "ChurnConfig",
    "ChurnSimulation",
    "queued_flood",
    # trace
    "GNUTELLA_2003",
    "GNUTELLA_2006",
    "generate_workload",
    "traffic_comparison",
]
