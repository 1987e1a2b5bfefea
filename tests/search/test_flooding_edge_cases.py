"""Flooding edge cases the main suite does not exercise.

Degenerate topologies (isolated sources, disconnected components, dense
cliques, long chains) are where frontier bookkeeping typically breaks.
"""

import numpy as np
import pytest

from repro.search import (
    AbfRouter,
    TwoTierSearch,
    build_attenuated_filters,
    flood,
    flood_queries,
    identifier_queries,
    place_objects,
    response_time_distribution,
    two_tier_queries,
)
from repro.search.flooding import flood_node_load
from repro.topology import two_tier_graph
from tests.conftest import build_graph, complete_graph, path_graph


class TestDegenerateTopologies:
    def test_isolated_source(self):
        g = build_graph(3, [(1, 2)])
        r = flood(g, 0, ttl=5)
        assert r.total_messages == 0
        assert r.nodes_visited == 1
        assert not r.success if r.first_hit_hop < 0 else True

    def test_two_node_graph(self):
        g = build_graph(2, [(0, 1)])
        r = flood(g, 0, ttl=3)
        assert r.total_messages == 1
        assert r.nodes_visited == 2

    def test_flood_confined_to_component(self):
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        mask = np.zeros(6, dtype=bool)
        mask[4] = True
        r = flood(g, 0, ttl=10, replica_mask=mask)
        assert not r.success
        assert r.nodes_visited == 3  # its own component only

    def test_long_chain_ttl_boundary(self):
        n = 30
        g = path_graph(n)
        mask = np.zeros(n, dtype=bool)
        mask[n - 1] = True
        exact = flood(g, 0, ttl=n - 1, replica_mask=mask)
        short = flood(g, 0, ttl=n - 2, replica_mask=mask)
        assert exact.success and exact.first_hit_hop == n - 1
        assert not short.success

    def test_clique_single_hop_suffices(self):
        g = complete_graph(12)
        mask = np.zeros(12, dtype=bool)
        mask[7] = True
        r = flood(g, 0, ttl=1, replica_mask=mask)
        assert r.success and r.first_hit_hop == 1
        assert r.total_messages == 11

    def test_replica_everywhere(self):
        g = complete_graph(5)
        mask = np.ones(5, dtype=bool)
        r = flood(g, 2, ttl=1, replica_mask=mask)
        assert r.first_hit_hop == 0
        assert r.replicas_found == 5

    def test_load_on_disconnected_graph(self):
        g = build_graph(4, [(0, 1)])
        load, hops = flood_node_load(g, 0, ttl=3)
        assert load[1] == 1
        assert load[2] == load[3] == 0
        np.testing.assert_array_equal(hops, [0, 1, -1, -1])


class TestBatchEdgeCases:
    def test_single_query(self, small_makalu):
        p = place_objects(small_makalu.n_nodes, 1, 0.02, seed=1)
        results = flood_queries(small_makalu, p, 1, ttl=3, seed=2)
        assert len(results) == 1

    def test_zero_queries_rejected(self, small_makalu):
        p = place_objects(small_makalu.n_nodes, 1, 0.02, seed=3)
        with pytest.raises(ValueError):
            flood_queries(small_makalu, p, 0, ttl=3)

    def test_every_source_explicit(self):
        g = complete_graph(4)
        p = place_objects(4, 1, 0.25, seed=4)
        results = flood_queries(g, p, 4, ttl=2, seed=5, sources=[0, 1, 2, 3])
        assert [r.source for r in results] == [0, 1, 2, 3]


class TestWorkloadValidation:
    """All four query drivers draw through one function: one set of checks."""

    @pytest.fixture(scope="class")
    def drivers(self):
        g = complete_graph(8)
        p = place_objects(8, 2, 0.25, seed=6)
        filters = build_attenuated_filters(g, placement=p, depth=2)
        router = AbfRouter(g, filters)
        search = TwoTierSearch(two_tier_graph(40, seed=7))
        return {
            "flood": lambda p, n, **kw: flood_queries(g, p, n, ttl=2, **kw),
            "identifier": lambda p, n, **kw: identifier_queries(
                router, p, n, ttl=4, **kw
            ),
            "two-tier": lambda p, n, **kw: two_tier_queries(
                search, p, n, ttl=2, **kw
            ),
            "response": lambda p, n, **kw: response_time_distribution(
                g, p, n, ttl=2, **kw
            ),
        }

    @pytest.mark.parametrize(
        "driver", ["flood", "identifier", "two-tier", "response"]
    )
    def test_same_rejections_everywhere(self, drivers, driver):
        run = drivers[driver]
        n_nodes = 40 if driver == "two-tier" else 8
        good = place_objects(n_nodes, 2, 0.25, seed=8)
        assert len(run(good, 3, seed=1)) == 3
        for n in (0, -1):
            with pytest.raises(ValueError, match="n_queries must be >= 1"):
                run(good, n)
        with pytest.raises(ValueError, match="node counts disagree"):
            run(place_objects(n_nodes + 1, 2, 0.25, seed=8), 3)
        if driver != "response":  # which takes no explicit sources
            with pytest.raises(ValueError, match="one entry per query"):
                run(good, 3, sources=[0, 1])
