"""Tests for repro.core.makalu."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    MakaluBuilder,
    MakaluConfig,
    makalu_graph,
    repair_after_failure,
)
from repro.core.rating import RatingWeights
from repro.netmodel import EuclideanModel


class TestMakaluConfig:
    def test_defaults_valid(self):
        cfg = MakaluConfig()
        assert cfg.degree_min <= cfg.degree_max

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"degree_min": 0},
            {"degree_min": 10, "degree_max": 5},
            {"walk_length": 0},
            {"max_walks": 0},
            {"min_candidates": 0},
            {"refinement_rounds": -1},
            {"swap_candidates": 0},
            {"fill_rounds": -1},
            {"min_degree_floor": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            MakaluConfig(**kwargs)


class TestBuilderConstruction:
    def test_requires_model_or_n(self):
        with pytest.raises(ValueError, match="NetworkModel"):
            MakaluBuilder()

    def test_model_n_mismatch(self):
        with pytest.raises(ValueError, match="disagrees"):
            MakaluBuilder(model=EuclideanModel(10, seed=1), n_nodes=20)

    def test_capacities_sampled_in_range(self):
        b = MakaluBuilder(n_nodes=500, seed=1)
        assert b.capacities.min() >= b.config.degree_min
        assert b.capacities.max() <= b.config.degree_max

    def test_explicit_capacities(self):
        caps = np.full(50, 5, dtype=np.int64)
        b = MakaluBuilder(n_nodes=50, capacities=caps, seed=1)
        np.testing.assert_array_equal(b.capacities, caps)

    def test_bad_capacities(self):
        with pytest.raises(ValueError, match="one entry per node"):
            MakaluBuilder(n_nodes=10, capacities=np.ones(5, dtype=np.int64))
        with pytest.raises(ValueError, match=">= 1"):
            MakaluBuilder(n_nodes=3, capacities=np.zeros(3, dtype=np.int64))


class TestBuiltOverlay:
    @pytest.fixture(scope="class")
    def overlay(self, fast_makalu_config):
        model = EuclideanModel(300, seed=5)
        builder = MakaluBuilder(model=model, config=fast_makalu_config, seed=6)
        graph = builder.build()
        return builder, graph

    def test_valid_simple_graph(self, overlay):
        _, graph = overlay
        graph.validate()

    def test_connected(self, overlay):
        _, graph = overlay
        assert graph.is_connected()

    def test_capacities_respected(self, overlay):
        builder, graph = overlay
        assert np.all(graph.degrees <= builder.capacities)

    def test_mean_degree_near_capacity(self, overlay):
        builder, graph = overlay
        # Fill rounds should push nodes close to their capacity.
        assert graph.mean_degree >= 0.8 * builder.capacities.mean()

    def test_no_severely_underfilled_nodes(self, overlay):
        builder, graph = overlay
        assert graph.degrees.min() >= builder.config.min_degree_floor

    def test_latencies_match_model(self, overlay):
        builder, graph = overlay
        model = builder.model
        for u, v, lat in list(graph.iter_edges())[:20]:
            assert lat == pytest.approx(model.latency(u, v))

    def test_reproducible(self, fast_makalu_config):
        model = EuclideanModel(150, seed=7)
        a = makalu_graph(model=model, config=fast_makalu_config, seed=8)
        b = makalu_graph(model=model, config=fast_makalu_config, seed=8)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self, fast_makalu_config):
        model = EuclideanModel(150, seed=7)
        a = makalu_graph(model=model, config=fast_makalu_config, seed=1)
        b = makalu_graph(model=model, config=fast_makalu_config, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_proximity_bias_shortens_links(self, fast_makalu_config):
        """With beta > 0 the chosen links should be shorter on average than
        random links on the same substrate."""
        model = EuclideanModel(300, seed=9)
        g = makalu_graph(model=model, config=fast_makalu_config, seed=10)
        rng = np.random.default_rng(0)
        random_pairs = rng.integers(0, 300, size=(2000, 2))
        random_pairs = random_pairs[random_pairs[:, 0] != random_pairs[:, 1]]
        random_mean = model.pair_latency(random_pairs[:, 0], random_pairs[:, 1]).mean()
        assert g.latency.mean() < random_mean


class TestBuilderWithoutModel:
    def test_unit_latencies(self, fast_makalu_config):
        g = makalu_graph(n_nodes=200, config=fast_makalu_config, seed=3)
        assert np.all(g.latency == 1.0)
        assert g.is_connected()


class TestIncrementalJoin:
    def test_join_grows_overlay(self, fast_makalu_config):
        b = MakaluBuilder(n_nodes=50, config=fast_makalu_config, seed=4)
        for u in range(30):
            b.join(u)
        assert b.adj.n_edges > 0
        # A late joiner connects to the existing overlay.
        b.join(40)
        assert b.adj.degree(40) > 0

    def test_first_join_has_no_candidates(self, fast_makalu_config):
        b = MakaluBuilder(n_nodes=10, config=fast_makalu_config, seed=5)
        b.join(3)
        assert b.adj.degree(3) == 0


class TestFill:
    def test_fill_raises_low_degrees(self, fast_makalu_config):
        b = MakaluBuilder(n_nodes=200, config=fast_makalu_config, seed=6)
        order = b.rng.permutation(200)
        for u in order:
            b.join(int(u))
        before = b.adj.freeze().degrees.min()
        b.fill(rounds=4)
        after = b.adj.freeze()
        assert after.degrees.min() >= before
        assert after.degrees.mean() >= 0.8 * b.capacities.mean()


def _overlay_digest(G) -> str:
    h = hashlib.sha256()
    for a in (G.indptr, G.indices, G.latency):
        h.update(a.tobytes())
    return h.hexdigest()


class TestSeededOverlayGolden:
    """The default build and a repair on it, pinned bit for bit.

    Digests recorded at commit 5b83c62, when the sequential protocol
    still rated through the incremental cache: the scalar kernel must
    keep reproducing those overlays exactly.
    """

    GOLDEN = {
        0: ("6b4de0b663f27592a0cbffbc6c1e6134a1637ee9ff8e7fb1f32348de7f51448c",
            "f643f4b25b28cf7ffd3e44ceecbe2f6bd80a91b24fbb5b62d04d78e541cd93bc"),
        7: ("b2b7cb51ab813afe05c370294936aa1c35723c057c7fdaf7604abb590e912eed",
            "0932bb65a37030f3f22e47b7e86a8c2e18676ea53a5df07c25385952154bf5ca"),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_build_then_repair_digests(self, seed):
        built, repaired = self.GOLDEN[seed]
        b = MakaluBuilder(EuclideanModel(220, seed=3), seed=seed)
        assert _overlay_digest(b.build()) == built
        repair_after_failure(b, [3, 11, 19])
        assert _overlay_digest(b.adj.freeze()) == repaired
