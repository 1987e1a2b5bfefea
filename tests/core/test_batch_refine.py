"""Tests for the vectorized synchronous refinement mode.

Batch rounds are a synchronous approximation of sequential refinement:
the overlays differ edge-for-edge (different RNG consumption), so these
tests pin what must hold exactly — determinism, capacity limits, the
provisional-rating kernel's bit-parity with the scalar kernel — and gate
structural health against the sequential builder statistically.
"""

import numpy as np
import pytest

from repro.analysis import algebraic_connectivity
from repro.core.batch_refine import (
    _BATCH_NODE_LIMIT,
    batch_refine_round,
    provisional_ratings,
)
from repro.core.makalu import MakaluBuilder, MakaluConfig
from repro.core.rating import rate_neighbors
from repro.netmodel import EuclideanModel
from repro.topology.csr import ragged_slices


def build(mode, n=400, seed=9, model_seed=2, **cfg):
    model = EuclideanModel(n, seed=model_seed)
    config = MakaluConfig(refine_mode=mode, **cfg)
    return MakaluBuilder(model=model, config=config, seed=seed).build()


class TestKernelParity:
    def test_matches_rate_neighbors_on_current_sets(self):
        """With empty candidate sets, the vectorized kernel must equal the
        scalar kernel bit-for-bit on every node of a real overlay."""
        model = EuclideanModel(300, seed=4)
        b = MakaluBuilder(model=model, seed=1)
        order = b.rng.permutation(b.n_nodes)
        for u in order:
            b.join(int(u))
        G = b.adj.freeze()
        roster = np.sort(b._joined.to_array())
        pos, op = ragged_slices(G.indptr, roster)
        own, mem, lat = roster[op], G.indices[pos], G.latency[pos]
        F = provisional_ratings(G, own, mem, lat, b.config.weights)
        for u in roster.tolist():
            ref = rate_neighbors(
                u, b.adj.neighbors(u),
                lambda v: b.adj.neighbors(v).keys(), b.config.weights,
            )
            got = dict(zip(mem[own == u].tolist(), F[own == u].tolist()))
            assert got == ref  # exact

    def test_provisional_candidates_extend_the_set(self):
        """Adding a candidate changes the inner/boundary split exactly as
        rating the node with the candidate spliced into its view."""
        model = EuclideanModel(120, seed=8)
        b = MakaluBuilder(model=model, seed=3)
        order = b.rng.permutation(b.n_nodes)
        for u in order:
            b.join(int(u))
        G = b.adj.freeze()
        u = int(order[0])
        nbrs = dict(b.adj.neighbors(u))
        cand = next(
            x for x in range(b.n_nodes)
            if x != u and x not in nbrs and len(b.adj.neighbors(x))
        )
        cand_lat = b._latency(u, cand)
        view = dict(nbrs)
        view[cand] = cand_lat
        ref = rate_neighbors(
            u, view, lambda v: b.adj.neighbors(v).keys(), b.config.weights
        )
        mem = np.array(sorted(view), dtype=np.int64)
        own = np.full(mem.size, u, dtype=np.int64)
        lat = np.array([view[m] for m in mem.tolist()])
        F = provisional_ratings(G, own, mem, lat, b.config.weights)
        assert dict(zip(mem.tolist(), F.tolist())) == ref


class TestBatchRounds:
    def test_deterministic_under_fixed_seed(self):
        a = build("batch", seed=11)
        b = build("batch", seed=11)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.latency, b.latency)

    def test_seed_changes_overlay(self):
        a = build("batch", seed=11)
        b = build("batch", seed=12)
        assert not np.array_equal(a.indices, b.indices)

    def test_capacities_respected(self):
        model = EuclideanModel(400, seed=2)
        config = MakaluConfig(refine_mode="batch")
        b = MakaluBuilder(model=model, config=config, seed=9)
        order = b.rng.permutation(b.n_nodes)
        for u in order:
            b.join(int(u))
        b.refine()
        degs = np.array([b.adj.degree(u) for u in range(b.n_nodes)])
        assert (degs <= b.capacities).all()

    def test_symmetry_and_no_self_loops(self):
        G = build("batch")
        src = np.repeat(np.arange(G.n_nodes), np.diff(G.indptr))
        assert (src != G.indices).all()
        fwd = set(zip(src.tolist(), G.indices.tolist()))
        assert all((v, u) in fwd for u, v in fwd)

    def test_node_limit_guard(self):
        b = MakaluBuilder(n_nodes=4, seed=0)
        b.n_nodes_backup = b.adj.n_nodes
        big = MakaluConfig(refine_mode="batch")
        assert _BATCH_NODE_LIMIT < 10**7  # guard exists and is an int
        with pytest.raises(ValueError, match="refine_mode"):
            MakaluConfig(refine_mode="bogus")


class TestHealthParity:
    def test_batch_matches_sequential_structure(self):
        seq = build("sequential", n=600, seed=21)
        bat = build("batch", n=600, seed=21)
        d_seq = np.diff(seq.indptr)
        d_bat = np.diff(bat.indptr)
        # Mean degree within 5%, same floor guarantees.
        assert abs(d_bat.mean() - d_seq.mean()) / d_seq.mean() < 0.05
        assert d_bat.min() >= 2
        # Comparable expander quality.
        l_seq = algebraic_connectivity(seq)
        l_bat = algebraic_connectivity(bat)
        assert l_bat > 0.5 * l_seq
