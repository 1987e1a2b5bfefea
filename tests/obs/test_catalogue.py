"""Catalogue check: docs/OBSERVABILITY.md against what the code emits.

Two slices of "every documented metric is emitted, every emitted metric
is documented": the core's `makalu.*`, `maintenance.*` and
`batch_refine.*` counters, and the `search.flood.*` / `search.abf.*`
counters and histograms of the lossless and lossy search kernels.
"""

import re
from pathlib import Path

from repro import obs
from repro.core import (
    MakaluBuilder,
    handle_capacity_change,
    makalu_graph,
    repair_after_failure,
)
from repro.faults import LinkFaults
from repro.netmodel import EuclideanModel
from repro.search import (
    AbfRouter,
    build_attenuated_filters,
    flood_queries,
    identifier_queries,
    place_objects,
)

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
CORE = ("makalu.", "maintenance.", "batch_refine.")
SEARCH = ("search.flood.", "search.abf.")


def _documented(prefixes, kinds) -> set:
    """Names of the catalogue rows of ``kinds`` under ``prefixes``.

    A row reads ``| `makalu.joins` / `prunes` / `rating_calls` | counter |``:
    the first name carries the prefix, the rest share it.
    """
    names = set()
    for line in DOC.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) < 4 or cells[2] not in kinds:
            continue
        first, *rest = re.findall(r"`([^`]+)`", cells[1])
        if not first.startswith(prefixes):
            continue
        prefix = first.rsplit(".", 1)[0]
        names.add(first)
        names.update(f"{prefix}.{short}" for short in rest)
    return names


def _emitted(session, prefixes, kinds) -> set:
    snapshot = session.metrics.snapshot()
    return {
        name for kind in kinds for name in snapshot[f"{kind}s"]
        if name.startswith(prefixes)
    }


def _assert_both_ways(documented, emitted):
    assert emitted - documented == set(), "emitted but not documented"
    assert documented - emitted == set(), "documented but never emitted"


def test_core_counters_match_the_documented_catalogue():
    with obs.observed() as session:
        b = MakaluBuilder(EuclideanModel(150, seed=3), seed=5)
        b.build()
        for victim in (3, 11, 19):
            repair_after_failure(b, [victim])
        # A capacity shrink: the only caller of the Manage() prune loop
        # outside joins, and so the only source of capacity_prunes.
        handle_capacity_change(b, 40, 2)
        b.refine(rounds=1, mode="batch")
        # A partition-style reachability filter: the only source of
        # connections_unreachable.
        b.link_filter = lambda u, v: (u < 75) == (v < 75)
        repair_after_failure(b, [27])
    _assert_both_ways(
        _documented(CORE, {"counter"}), _emitted(session, CORE, ["counter"])
    )


def test_search_metrics_match_the_documented_catalogue():
    graph = makalu_graph(model=EuclideanModel(200, seed=4), seed=6)
    placement = place_objects(graph.n_nodes, 12, 0.02, seed=7)
    lossy = LinkFaults(loss_rate=0.2, seed=8)
    router = AbfRouter(graph, build_attenuated_filters(graph, placement, depth=2))
    kinds = ["counter", "histogram"]
    with obs.observed() as lossless:
        flood_queries(graph, placement, 6, ttl=3, seed=9)
        flood_queries(graph, placement, 6, ttl=3, seed=9, batch_size=4)
    with obs.observed() as session:
        flood_queries(graph, placement, 6, ttl=3, seed=9, faults=lossy)
        flood_queries(graph, placement, 6, ttl=3, seed=9, faults=lossy,
                      batch_size=4)
        identifier_queries(router, placement, 30, ttl=20, seed=10, faults=lossy)
    _assert_both_ways(
        _documented(SEARCH, set(kinds)), _emitted(session, SEARCH, kinds)
    )
    # The loss counter belongs to lossy runs only: a lossless flood must
    # not create it (its snapshot would otherwise differ from older ones).
    assert _emitted(lossless, SEARCH, kinds) == {
        "search.flood.queries", "search.flood.messages_sent",
        "search.flood.duplicates", "search.flood.messages_per_query",
    }
