"""Tests for repro.search.identifier (ABF-routed identifier search)."""

import numpy as np
import pytest

from repro.search import (
    AbfRouter,
    build_attenuated_filters,
    identifier_queries,
    place_objects,
)
from tests.search.test_attenuated import single_holder_placement
from tests.conftest import path_graph, star_graph


def make_router(graph, placement, depth=3):
    abf = build_attenuated_filters(graph, placement=placement, depth=depth)
    return AbfRouter(graph, abf)


class TestAbfRouterOnKnownTopologies:
    def test_source_holds_object(self):
        g = path_graph(4)
        p = single_holder_placement(4, holder=1)
        router = make_router(g, p)
        r = router.query(1, 42, p.holder_mask(0), ttl=5)
        assert r.success and r.messages == 0
        assert r.resolved_at == 1

    def test_follows_gradient_on_path(self):
        # Object at node 0, query from node 3, depth 4 covers the distance:
        # the filters give a perfect gradient, so the query walks straight.
        g = path_graph(4)
        p = single_holder_placement(4, holder=0)
        router = make_router(g, p, depth=4)
        r = router.query(3, 42, p.holder_mask(0), ttl=10, seed=1)
        assert r.success
        assert r.messages == 3
        np.testing.assert_array_equal(r.path, [3, 2, 1, 0])

    def test_star_resolves_in_two(self):
        g = star_graph(5)
        p = single_holder_placement(6, holder=4)
        router = make_router(g, p)
        r = router.query(1, 42, p.holder_mask(0), ttl=5, seed=2)
        assert r.success
        assert r.messages == 2  # leaf -> center -> holder leaf

    def test_ttl_exhaustion_fails(self):
        g = path_graph(6)
        p = single_holder_placement(6, holder=5)
        router = make_router(g, p, depth=2)
        r = router.query(0, 42, p.holder_mask(0), ttl=2, seed=3)
        assert not r.success
        assert r.messages == 2

    # Branching topology where the level-0-only filters give NO signal at
    # the branch node (the holder is two hops past it):
    #     0 - 1 - 2 - 3(holder)        1 - 4 (dead end)
    BRANCH_EDGES = [(0, 1), (1, 2), (2, 3), (1, 4)]

    def test_backtracking_escapes_dead_end(self):
        from tests.conftest import build_graph

        g = build_graph(5, self.BRANCH_EDGES)
        p = single_holder_placement(5, holder=3)
        router = make_router(g, p, depth=1)  # level-0 only: blind at node 1
        for seed in range(10):
            r = router.query(0, 42, p.holder_mask(0), ttl=10,
                             backtrack=True, seed=seed)
            assert r.success

    def test_no_backtrack_can_strand(self):
        from tests.conftest import build_graph

        g = build_graph(5, self.BRANCH_EDGES)
        p = single_holder_placement(5, holder=3)
        router = make_router(g, p, depth=1)
        stranded = 0
        for seed in range(20):
            r = router.query(0, 42, p.holder_mask(0), ttl=10,
                             backtrack=False, seed=seed)
            stranded += not r.success
        assert stranded > 0  # sometimes walks into node 4 and dies


class TestAbfRouterValidation:
    def test_bad_source(self):
        g = path_graph(3)
        p = single_holder_placement(3, holder=0)
        router = make_router(g, p)
        with pytest.raises(ValueError):
            router.query(5, 42, p.holder_mask(0))

    def test_bad_ttl(self):
        g = path_graph(3)
        p = single_holder_placement(3, holder=0)
        router = make_router(g, p)
        with pytest.raises(ValueError):
            router.query(0, 42, p.holder_mask(0), ttl=-1)

    def test_mask_shape(self):
        g = path_graph(3)
        p = single_holder_placement(3, holder=0)
        router = make_router(g, p)
        with pytest.raises(ValueError, match="one entry per node"):
            router.query(0, 42, np.zeros(2, dtype=bool))

    def test_filter_graph_mismatch(self):
        g = path_graph(3)
        p = single_holder_placement(3, holder=0)
        abf = build_attenuated_filters(g, placement=p, depth=2)
        with pytest.raises(ValueError, match="disagree"):
            AbfRouter(path_graph(4), abf)


class TestIdentifierQueriesOnMakalu:
    def test_most_queries_resolve_quickly(self, small_makalu):
        # Paper Fig. 4 behaviour: at ~1% replication most identifier queries
        # resolve within ten messages.
        p = place_objects(small_makalu.n_nodes, 10, 0.01, seed=1)
        router = make_router(small_makalu, p)
        results = identifier_queries(router, p, 100, ttl=25, seed=2)
        success = np.mean([r.success for r in results])
        assert success > 0.9
        msgs = np.asarray([r.messages for r in results if r.success])
        assert np.median(msgs) <= 10

    def test_record_semantics(self, small_makalu):
        p = place_objects(small_makalu.n_nodes, 4, 0.02, seed=3)
        router = make_router(small_makalu, p)
        results = identifier_queries(router, p, 10, ttl=25, seed=4)
        for r in results:
            rec = r.record()
            assert rec.messages == r.messages
            assert rec.success == r.success

    def test_reproducible(self, small_makalu):
        p = place_objects(small_makalu.n_nodes, 4, 0.02, seed=5)
        router = make_router(small_makalu, p)
        a = identifier_queries(router, p, 10, ttl=20, seed=6)
        b = identifier_queries(router, p, 10, ttl=20, seed=6)
        assert [r.messages for r in a] == [r.messages for r in b]

    def test_path_starts_at_source(self, small_makalu):
        p = place_objects(small_makalu.n_nodes, 4, 0.02, seed=7)
        router = make_router(small_makalu, p)
        r = router.query(5, p.key_of(0), p.holder_mask(0), ttl=20, seed=8)
        assert r.path[0] == 5


def rows(results):
    return [
        (r.source, r.target_key, r.messages, r.resolved_at, r.path.tolist(),
         r.messages_lost)
        for r in results
    ]


class TestLockStepKernel:
    """``query_batch`` (what ``identifier_queries`` runs) against ``query``."""

    @pytest.fixture(scope="class")
    def blind(self):
        # Depth 1 with a single replica: only the holder's own digest
        # matches, so a query wanders at random, and backtracks out of
        # the power-law graph's many degree-1 dead ends, until it stands
        # next to the holder.
        from repro.topology import powerlaw_graph

        g = powerlaw_graph(400, seed=20)
        p = place_objects(g.n_nodes, 6, 1 / g.n_nodes, seed=21)
        return make_router(g, p, depth=1), p

    @staticmethod
    def workload(graph, placement, n, seed):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, graph.n_nodes, size=n),
                rng.integers(0, placement.n_objects, size=n),
                np.random.SeedSequence(seed).spawn(n))

    def test_random_and_backtrack_branches_match_scalar(self, blind):
        from repro import obs
        from repro.faults import LinkFaults

        router, p = blind
        sources, objects, children = self.workload(router.graph, p, 60, 22)
        faults = LinkFaults(loss_rate=0.1, seed=4)
        session = obs.configure(trace=True)
        try:
            batch = router.query_batch(
                sources, objects, p,
                [np.random.default_rng(c) for c in children],
                ttl=60, faults=faults,
            )
        finally:
            obs.disable()
        decisions = [e["decision"] for e in session.tracer.events("abf.route")]
        for branch in ("random", "backtrack", "lost"):
            assert decisions.count(branch) > 10, branch
        assert "filter" in decisions  # the last step, beside the holder
        scalar = [
            router.query(int(s), p.key_of(int(o)), p.holder_mask(int(o)),
                         ttl=60, seed=np.random.default_rng(c), faults=faults,
                         query_key=i)
            for i, (s, o, c) in enumerate(zip(sources, objects, children))
        ]
        assert rows(batch) == rows(scalar)
        assert any(not r.success for r in batch)  # some exhaust the TTL

    def test_batch_of_one_equals_batch_of_300(self, blind):
        # Lock-step must not leak between queries: query i's result is
        # the same whoever it shares a batch with.
        from repro.faults import LinkFaults

        router, p = blind
        sources, objects, children = self.workload(router.graph, p, 300, 23)
        faults = LinkFaults(loss_rate=0.05, seed=6)
        keys = np.arange(300)
        together = router.query_batch(
            sources, objects, p, [np.random.default_rng(c) for c in children],
            ttl=40, faults=faults, query_keys=keys,
        )
        alone = [
            router.query_batch(
                sources[i : i + 1], objects[i : i + 1], p,
                [np.random.default_rng(children[i])],
                ttl=40, faults=faults, query_keys=keys[i : i + 1],
            )[0]
            for i in range(300)
        ]
        assert rows(together) == rows(alone)

    def test_validation(self, blind):
        router, p = blind
        rng = [np.random.default_rng(0)]
        assert router.query_batch([], [], p, []) == []
        with pytest.raises(ValueError, match="one entry per query"):
            router.query_batch([0, 1], [0], p, rng * 2)
        with pytest.raises(ValueError, match="one entry per query"):
            router.query_batch([0], [0], p, [])
        with pytest.raises(ValueError, match="ttl"):
            router.query_batch([0], [0], p, rng, ttl=-1)
        with pytest.raises(ValueError):
            router.query_batch([router.graph.n_nodes], [0], p, rng)
        with pytest.raises(IndexError):
            router.query_batch([0], [p.n_objects], p, rng)
        with pytest.raises(ValueError, match="query_keys"):
            router.query_batch([0], [0], p, rng, query_keys=np.arange(2))


class TestGoldenTotals:
    """``(sum messages, sum lost, resolved)`` of two seeded workloads.

    Recorded from the per-query scalar loop ``identifier_queries`` ran
    before the lock-step kernel, on the fixture graph of
    ``tests/search/test_flood_faults.py``; the flood pins there are the
    same kind of guard.
    """

    @pytest.fixture(scope="class")
    def world(self):
        from repro.topology import powerlaw_graph

        g = powerlaw_graph(500, seed=101)
        p = place_objects(g.n_nodes, 25, 0.02, seed=102)
        return make_router(g, p), p

    def test_lossless(self, world):
        router, p = world
        rs = identifier_queries(router, p, 200, ttl=25, seed=9)
        assert all(r.messages_lost is None for r in rs)
        assert (sum(r.messages for r in rs),
                sum(r.success for r in rs)) == (956, 195)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_five_percent_loss(self, world, n_workers):
        from repro.faults import LinkFaults

        router, p = world
        rs = identifier_queries(router, p, 200, ttl=25, seed=9,
                                faults=LinkFaults(loss_rate=0.05, seed=7),
                                n_workers=n_workers)
        assert (sum(r.messages for r in rs),
                sum(r.messages_lost for r in rs),
                sum(r.success for r in rs)) == (980, 55, 197)
