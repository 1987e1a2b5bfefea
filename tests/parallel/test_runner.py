"""Process-parallel execution must be bit-identical to the serial path."""

import numpy as np
import pytest

from repro.faults import LinkFaults
from repro.obs import runtime as obs
from repro.parallel import (
    DEFAULT_BATCH_SIZE,
    SharedGraph,
    map_shards,
    run_queries,
)
from repro.parallel.runner import _shard_bounds, default_workers
from repro.search import (
    AbfRouter,
    TwoTierSearch,
    build_attenuated_filters,
    flood_queries,
    identifier_queries,
    place_objects,
    summarize,
    two_tier_queries,
)
from repro.topology import powerlaw_graph, two_tier_graph


@pytest.fixture(scope="module")
def world():
    graph = powerlaw_graph(600, seed=31)
    placement = place_objects(600, 8, 0.02, seed=32)
    return graph, placement


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.source == y.source
        assert x.first_hit_hop == y.first_hit_hop
        assert x.replicas_found == y.replicas_found
        np.testing.assert_array_equal(x.messages_per_hop, y.messages_per_hop)
        np.testing.assert_array_equal(x.new_nodes_per_hop, y.new_nodes_per_hop)
        np.testing.assert_array_equal(
            x.duplicates_per_hop, y.duplicates_per_hop
        )


class TestShardBounds:
    def test_partition_properties(self):
        for n in (1, 5, 64, 1000):
            for k in (1, 3, 7, 16):
                bounds = _shard_bounds(n, k)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                # Contiguous, non-empty, near-equal shards.
                for (a, b), (c, d) in zip(bounds, bounds[1:]):
                    assert b == c
                sizes = [b - a for a, b in bounds]
                assert all(s > 0 for s in sizes)
                assert max(sizes) - min(sizes) <= 1
                assert len(bounds) == min(k, n)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestRunQueries:
    def test_matches_scalar_loop(self, world):
        graph, placement = world
        scalar = flood_queries(graph, placement, 53, ttl=5, seed=7)
        refsum = summarize([r.record() for r in scalar])
        for n_workers in (1, 2, 4):
            out = run_queries(
                graph, placement, 53, ttl=5, seed=7,
                n_workers=n_workers, batch_size=16,
            )
            assert_results_equal(out.results, scalar)
            # Re-summarized summary is exact, percentile included.
            assert out.summary == refsum

    def test_explicit_workload_replay(self, world):
        graph, placement = world
        sources = np.arange(0, 40, dtype=np.int64) % graph.n_nodes
        objects = np.arange(0, 40, dtype=np.int64) % placement.n_objects
        a = run_queries(
            graph, placement, 40, ttl=4,
            sources=sources, objects=objects, n_workers=1,
        )
        b = run_queries(
            graph, placement, 40, ttl=4,
            sources=sources, objects=objects, n_workers=3,
        )
        assert_results_equal(a.results, b.results)
        assert [r.source for r in a.results] == list(sources)

    def test_more_workers_than_queries(self, world):
        graph, placement = world
        scalar = flood_queries(graph, placement, 3, ttl=3, seed=2)
        out = run_queries(graph, placement, 3, ttl=3, seed=2, n_workers=8)
        assert_results_equal(out.results, scalar)

    def test_validation(self, world):
        graph, placement = world
        with pytest.raises(ValueError):
            run_queries(graph, placement, 5, ttl=3, n_workers=-1)
        with pytest.raises(ValueError):
            run_queries(graph, placement, 5, ttl=3, batch_size=0)
        with pytest.raises(ValueError):
            run_queries(
                graph, placement, 5, ttl=3,
                sources=np.asarray([1, 2]), objects=np.asarray([0, 0]),
            )
        # A bad worker count is rejected by the one executor, whichever
        # driver it came through (flood_queries used to fall back to the
        # scalar loop silently).
        for n_workers in (-1, -2):
            with pytest.raises(ValueError, match="n_workers must be >= 0"):
                flood_queries(graph, placement, 5, ttl=3, n_workers=n_workers)

    def test_default_batch_size_used(self, world):
        graph, placement = world
        scalar = flood_queries(graph, placement, 10, ttl=3, seed=4)
        out = run_queries(graph, placement, 10, ttl=3, seed=4, n_workers=1)
        assert out.n_workers == 1
        assert_results_equal(out.results, scalar)
        assert DEFAULT_BATCH_SIZE >= 1


class TestMapShards:
    def test_order_and_parity(self):
        payloads = [(i, i * 2) for i in range(7)]
        serial = [_square_sum(p) for p in payloads]
        assert map_shards(_square_sum, payloads, n_workers=1) == serial
        assert map_shards(_square_sum, payloads, n_workers=3) == serial

    def test_single_payload_runs_inline(self):
        assert map_shards(_square_sum, [(2, 3)], n_workers=4) == [13]

    def test_validation(self):
        with pytest.raises(ValueError):
            map_shards(_square_sum, [(1, 1)], n_workers=-2)


def _square_sum(payload):
    a, b = payload
    return a * a + b * b


class TestSharedGraph:
    def test_attach_roundtrip(self, world):
        graph, _ = world
        with SharedGraph(graph) as shared:
            attached = shared.handle.attach()
            assert attached.n_nodes == graph.n_nodes
            np.testing.assert_array_equal(attached.indptr, graph.indptr)
            np.testing.assert_array_equal(attached.indices, graph.indices)
            np.testing.assert_array_equal(attached.latency, graph.latency)

    def test_close_idempotent(self, world):
        graph, _ = world
        shared = SharedGraph(graph)
        shared.close()
        shared.close()  # second close must be a no-op

    def test_handle_is_small(self, world):
        import pickle

        graph, _ = world
        with SharedGraph(graph) as shared:
            blob = pickle.dumps(shared.handle)
            # The whole point: the handle is names + shapes, not the CSR.
            assert len(blob) < 1024
            assert len(blob) < graph.indices.nbytes


def _count_call(payload):
    obs.count("test.map_shards.calls")
    return payload


def _nested_run_queries(payload):
    graph, placement, seed = payload
    return run_queries(
        graph, placement, 24, ttl=4, seed=seed, n_workers=1, batch_size=8
    ).results


class TestMapShardsObsAndReentrancy:
    def test_obs_counts_each_shard_once(self):
        # More shards than workers: some worker runs several, and each
        # shipped snapshot must still hold that shard's metrics alone.
        obs.configure()
        try:
            out = map_shards(_count_call, list(range(6)), n_workers=2)
            counters = obs.active().metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert out == list(range(6))
        assert counters["test.map_shards.calls"] == 6

    def test_run_queries_inside_a_worker(self, world):
        # The executor keeps no per-process state, so an in-process
        # run_queries nested in a map_shards worker is the top-level run.
        graph, placement = world
        top = [
            run_queries(
                graph, placement, 24, ttl=4, seed=seed, n_workers=1,
                batch_size=8,
            ).results
            for seed in (5, 6)
        ]
        nested = map_shards(
            _nested_run_queries,
            [(graph, placement, 5), (graph, placement, 6)],
            n_workers=2,
        )
        for a, b in zip(top, nested):
            assert_results_equal(a, b)


def _rows(results):
    """Every field of every per-query result, arrays as lists."""
    return [
        {
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(r).items()
        }
        for r in results
    ]


class TestCrossExecutorEquivalence:
    """Serial == sharded for every mechanism: results and merged metrics."""

    @pytest.fixture(scope="class")
    def drivers(self, world):
        graph, placement = world
        router = AbfRouter(
            graph, build_attenuated_filters(graph, placement, depth=3)
        )
        topo = two_tier_graph(500, seed=44)
        tt_placement = place_objects(500, 5, 0.04, seed=45)
        search = TwoTierSearch(topo)
        return {
            "flood": lambda **kw: flood_queries(
                graph, placement, 30, ttl=4, seed=13, **kw
            ),
            "identifier": lambda **kw: identifier_queries(
                router, placement, 30, ttl=15, seed=43, **kw
            ),
            "two-tier": lambda **kw: two_tier_queries(
                search, tt_placement, 30, ttl=4, seed=46, **kw
            ),
        }

    @staticmethod
    def observed(run):
        obs.configure()
        try:
            results = run()
            snap = obs.active().metrics.snapshot()
        finally:
            obs.disable()
        return _rows(results), snap["counters"], snap["histograms"]

    @pytest.mark.parametrize("loss_rate", [0.0, 0.05])
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("mechanism", ["flood", "identifier", "two-tier"])
    def test_sharded_equals_serial(
        self, drivers, mechanism, n_workers, loss_rate
    ):
        faults = LinkFaults(loss_rate=loss_rate, seed=5) if loss_rate else None
        run = drivers[mechanism]
        sharded_kw = {"n_workers": n_workers}
        if mechanism == "flood":
            # Without a batch size, one worker would be the scalar loop
            # itself — the serial reference — not the executor.
            sharded_kw["batch_size"] = 8
        serial = self.observed(lambda: run(faults=faults))
        sharded = self.observed(lambda: run(faults=faults, **sharded_kw))
        assert sharded == serial
        if mechanism != "two-tier":  # which emits no metrics to compare
            assert serial[1] and serial[2]
