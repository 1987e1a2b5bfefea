"""Golden parity for message loss: every execution strategy drops alike.

The contract under test: loss decisions are keyed per query (counter-based
over message coordinates), never per worker or batch position, so the
scalar loop, the bit-parallel batch kernel and any process-parallel worker
count produce field-for-field identical results under injected loss.
"""

import numpy as np
import pytest

from repro.faults import LinkFaults
from repro.search import (
    AbfRouter,
    TwoTierSearch,
    build_attenuated_filters,
    flood_queries,
    identifier_queries,
    place_objects,
    two_tier_queries,
)
from repro.search.batch import flood_batch, placement_masks
from repro.search.flooding import draw_query_workload, flood
from repro.topology import OverlayGraph, powerlaw_graph, two_tier_graph


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(500, seed=101)


@pytest.fixture(scope="module")
def placement(graph):
    return place_objects(graph.n_nodes, 25, 0.02, seed=102)


def result_rows(results):
    return [
        (
            r.source,
            r.messages_per_hop.tolist(),
            r.new_nodes_per_hop.tolist(),
            r.duplicates_per_hop.tolist(),
            None if r.dropped_per_hop is None else r.dropped_per_hop.tolist(),
            r.first_hit_hop,
            r.replicas_found,
        )
        for r in results
    ]


class TestScalarBatchParity:
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.0])
    def test_batch_kernel_is_bit_identical_to_scalar(self, graph, placement, rate):
        faults = LinkFaults(loss_rate=rate, seed=7)
        sources, objects = draw_query_workload(graph, placement, 60, seed=9)
        masks = placement_masks(placement, objects)
        scalar = [
            flood(graph, int(s), 5, replica_mask=masks[i],
                  faults=faults, query_key=i)
            for i, s in enumerate(sources)
        ]
        batch = flood_batch(graph, sources, 5, replica_masks=masks,
                            faults=faults)
        assert result_rows(scalar) == result_rows(batch)

    def test_batch_respects_global_query_keys(self, graph, placement):
        # Slicing a workload into batches must pass global indices: batch
        # [a:b] with keys arange(a, b) equals the same slice of the full
        # batch run.
        faults = LinkFaults(loss_rate=0.2, seed=3)
        sources, objects = draw_query_workload(graph, placement, 50, seed=4)
        masks = placement_masks(placement, objects)
        full = flood_batch(graph, sources, 4, replica_masks=masks,
                           faults=faults)
        a, b = 20, 41
        part = flood_batch(
            graph, sources[a:b], 4, replica_masks=masks[a:b], faults=faults,
            query_keys=np.arange(a, b, dtype=np.int64),
        )
        assert result_rows(full[a:b]) == result_rows(part)

    def test_shard_local_keys_would_change_drops(self, graph, placement):
        # The negative control: keying by shard-local position is NOT
        # equivalent — this is exactly the bug the convention forbids.
        faults = LinkFaults(loss_rate=0.2, seed=3)
        sources, objects = draw_query_workload(graph, placement, 50, seed=4)
        masks = placement_masks(placement, objects)
        full = flood_batch(graph, sources, 4, replica_masks=masks,
                           faults=faults)
        a, b = 20, 41
        local = flood_batch(
            graph, sources[a:b], 4, replica_masks=masks[a:b], faults=faults,
        )  # default keys arange(0, b-a): shard-local
        assert result_rows(full[a:b]) != result_rows(local)


class TestMultiWordBitsets:
    """Loss with more than 64 queries per kernel call (``n_words > 1``).

    Every other lossy test here stays inside one bitset word.  These run
    65+ floods at once on a graph with isolated pairs, so the same call
    holds floods that die at hop 2 (a pair's far end has only its parent
    to forward to) beside floods that run the full TTL, under
    non-contiguous loss keys.
    """

    @pytest.fixture(scope="class")
    def mixed(self, graph):
        n, pairs = graph.n_nodes, 6
        edges = np.asarray([(u, v) for u, v, _ in graph.iter_edges()])
        far = n + 2 * np.arange(pairs)
        return OverlayGraph.from_edges(
            n + 2 * pairs,
            np.concatenate([edges[:, 0], far]),
            np.concatenate([edges[:, 1], far + 1]),
        )

    @pytest.mark.parametrize("nq", [64, 65, 130])
    def test_batch_kernel_matches_scalar(self, mixed, nq):
        rng = np.random.default_rng(nq)
        n = mixed.n_nodes
        # A third of the floods start on an isolated pair.
        sources = np.where(
            rng.random(nq) < 1 / 3, rng.integers(n - 12, n, nq),
            rng.integers(0, n - 12, nq),
        )
        keys = rng.permutation(10 * nq)[:nq] * 7 + 3
        masks = rng.random((nq, n)) < 0.02
        faults = LinkFaults(loss_rate=0.2, seed=31)
        scalar = [
            flood(mixed, int(s), 4, replica_mask=masks[i], faults=faults,
                  query_key=int(keys[i]))
            for i, s in enumerate(sources)
        ]
        last_hop = np.asarray([r.messages_per_hop[-1] for r in scalar])
        assert (last_hop == 0).any() and (last_hop > 0).any()
        batch = flood_batch(mixed, sources, 4, replica_masks=masks,
                            faults=faults, query_keys=keys)
        assert result_rows(scalar) == result_rows(batch)

    def test_flood_queries_wide_batches_match_scalar(self, graph, placement):
        faults = LinkFaults(loss_rate=0.15, seed=8)
        scalar = flood_queries(graph, placement, 230, ttl=4, seed=19,
                               faults=faults)
        wide = flood_queries(graph, placement, 230, ttl=4, seed=19,
                             faults=faults, batch_size=100)
        assert result_rows(scalar) == result_rows(wide)


class TestWorkerCountParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_flood_queries_pinned_across_worker_counts(
        self, graph, placement, n_workers
    ):
        # Pinned goldens: any change to the loss stream, the kernels, or
        # the sharding shows up as a diff against these exact totals.
        pinned = {
            0.05: (15764, 1108, 60),
            0.3: (7771, 3031, 38),
        }
        for rate, (sent, dropped, successes) in pinned.items():
            faults = LinkFaults(loss_rate=rate, seed=2026)
            rs = flood_queries(
                graph, placement, 80, ttl=5, seed=103, faults=faults,
                n_workers=n_workers,
            )
            assert sum(int(r.messages_per_hop.sum()) for r in rs) == sent
            assert sum(int(r.dropped_per_hop.sum()) for r in rs) == dropped
            assert sum(r.success for r in rs) == successes

    def test_parallel_results_equal_serial_exactly(self, graph, placement):
        faults = LinkFaults(loss_rate=0.1, seed=55)
        serial = flood_queries(graph, placement, 60, ttl=5, seed=11,
                               faults=faults)
        for n_workers in (2, 4):
            par = flood_queries(graph, placement, 60, ttl=5, seed=11,
                                faults=faults, n_workers=n_workers)
            assert result_rows(serial) == result_rows(par)


class TestRateZeroEquivalence:
    def test_rate_zero_equals_no_faults(self, graph, placement):
        clean = flood_queries(graph, placement, 40, ttl=5, seed=13)
        zero = flood_queries(graph, placement, 40, ttl=5, seed=13,
                             faults=LinkFaults(loss_rate=0.0, seed=99))
        # rate=0 takes the lossless path entirely: no dropped_per_hop.
        assert result_rows(clean) == result_rows(zero)
        assert all(r.dropped_per_hop is None for r in zero)

    def test_total_loss_confines_flood_to_source(self, graph, placement):
        faults = LinkFaults(loss_rate=1.0, seed=1)
        r = flood(graph, 0, 5, faults=faults)
        # Hop 1 pays for the source's fanout but nothing arrives; the
        # flood then dies (empty frontier).
        assert int(r.new_nodes_per_hop.sum()) == 0
        assert int(r.messages_per_hop[0]) == graph.degrees[0]
        assert int(r.dropped_per_hop[0]) == graph.degrees[0]

    def test_loss_accounting_invariants(self, graph, placement):
        # sent is unchanged by loss (bandwidth is paid for lost messages),
        # duplicates = sent - new stays non-negative, and dropped is
        # bounded by the gathered pair count per hop.
        faults = LinkFaults(loss_rate=0.25, seed=21)
        rs = flood_queries(graph, placement, 40, ttl=5, seed=17,
                           faults=faults)
        for r in rs:
            assert (r.duplicates_per_hop >= 0).all()
            assert (r.new_nodes_per_hop <= r.messages_per_hop).all()
            assert (r.dropped_per_hop >= 0).all()
            assert r.total_dropped == int(r.dropped_per_hop.sum())


class TestIdentifierLossParity:
    @pytest.fixture(scope="class")
    def router(self, graph, placement):
        filters = build_attenuated_filters(graph, placement=placement, depth=3)
        return AbfRouter(graph, filters)

    @staticmethod
    def rows(results):
        return [
            (r.source, r.messages, r.resolved_at, r.path.tolist())
            for r in results
        ]

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_sharded_equals_serial_under_loss(
        self, router, placement, n_workers
    ):
        faults = LinkFaults(loss_rate=0.2, seed=5)
        serial = identifier_queries(router, placement, 40, ttl=30, seed=7,
                                    faults=faults)
        sharded = identifier_queries(router, placement, 40, ttl=30, seed=7,
                                     faults=faults, n_workers=n_workers)
        assert self.rows(serial) == self.rows(sharded)

    def test_rate_zero_equals_no_faults(self, router, placement):
        clean = identifier_queries(router, placement, 30, ttl=25, seed=3)
        zero = identifier_queries(router, placement, 30, ttl=25, seed=3,
                                  faults=LinkFaults(loss_rate=0.0))
        assert self.rows(clean) == self.rows(zero)

    def test_loss_burns_ttl_without_moving_the_query(self, router, placement):
        # Total loss: every forward is dropped, so the query spends its
        # whole budget at the source and never resolves elsewhere.
        faults = LinkFaults(loss_rate=1.0, seed=9)
        rs = identifier_queries(router, placement, 20, ttl=15, seed=5,
                                faults=faults)
        for r in rs:
            if r.resolved_at != r.source:
                assert not r.success
                assert r.messages == 15
                assert r.path.tolist() == [r.source]


class TestTwoTierLossParity:
    @pytest.fixture(scope="class")
    def searcher(self):
        return TwoTierSearch(two_tier_graph(1200, seed=31))

    @pytest.fixture(scope="class")
    def tt_placement(self, searcher):
        return place_objects(searcher.topo.graph.n_nodes, 30, 0.02, seed=33)

    @staticmethod
    def rows(results):
        return [
            (r.source, r.mesh_messages, r.leaf_messages, r.first_hit_hop,
             r.replicas_found, r.hops_used, r.messages_lost)
            for r in results
        ]

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_sharded_equals_serial_under_loss(
        self, searcher, tt_placement, n_workers
    ):
        faults = LinkFaults(loss_rate=0.2, seed=13)
        serial = two_tier_queries(searcher, tt_placement, 50, ttl=5, seed=15,
                                  faults=faults)
        sharded = two_tier_queries(searcher, tt_placement, 50, ttl=5, seed=15,
                                   faults=faults, n_workers=n_workers)
        assert self.rows(serial) == self.rows(sharded)

    def test_rate_zero_equals_no_faults(self, searcher, tt_placement):
        clean = two_tier_queries(searcher, tt_placement, 40, ttl=5, seed=15)
        zero = two_tier_queries(searcher, tt_placement, 40, ttl=5, seed=15,
                                faults=LinkFaults(loss_rate=0.0))
        assert self.rows(clean) == self.rows(zero)
        assert all(r.messages_lost == 0 for r in zero)

    def test_loss_degrades_success_monotonically_on_average(
        self, searcher, tt_placement
    ):
        def successes(faults):
            rs = two_tier_queries(searcher, tt_placement, 80, ttl=5, seed=17,
                                  faults=faults)
            return sum(r.success for r in rs)

        clean = successes(None)
        heavy = successes(LinkFaults(loss_rate=0.8, seed=19))
        assert heavy < clean
