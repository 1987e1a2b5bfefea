"""Properties of the counter-based fault-decision hash."""

import numpy as np
import pytest

from repro.faults.hashing import (
    edge_hash,
    fold,
    message_hash,
    rate_threshold,
    uniform01,
)
from repro.faults.link import LinkFaults


def drop_mask(rate, seed, query_keys, hop, senders, receivers):
    """The drop decision through the one seam, ``LinkFaults.drop``."""
    return LinkFaults(loss_rate=rate, seed=seed).drop(
        query_keys, hop, senders, receivers
    )


class TestMessageHash:
    def test_deterministic(self):
        a = message_hash(7, 3, 2, np.int64(5), np.int64(9))
        b = message_hash(7, 3, 2, np.int64(5), np.int64(9))
        assert a == b

    def test_every_coordinate_matters(self):
        base = (7, 3, 2, 5, 9)
        ref = message_hash(*base[:3], np.int64(base[3]), np.int64(base[4]))
        for i in range(5):
            other = list(base)
            other[i] += 1
            h = message_hash(
                other[0], other[1], other[2],
                np.int64(other[3]), np.int64(other[4]),
            )
            assert h != ref, f"coordinate {i} ignored"

    def test_direction_matters(self):
        assert message_hash(1, 0, 1, np.int64(2), np.int64(3)) != message_hash(
            1, 0, 1, np.int64(3), np.int64(2)
        )

    def test_broadcast_matrix_matches_scalar_evaluations(self):
        # The one contract every kernel relies on: keys, senders and
        # receivers broadcast elementwise, and each element equals the
        # all-scalar evaluation at its coordinates.  There is no implicit
        # outer product — a (nq,) key vector against (m,) message arrays of
        # another length is a shape error; the (m, nq) matrix is spelled
        # with explicit axes.
        rng = np.random.default_rng(0)
        senders = rng.integers(0, 100, size=13)
        receivers = rng.integers(0, 100, size=13)
        keys = rng.integers(0, 50, size=7)

        def scalar(j, key):
            return message_hash(42, int(key), 3, senders[j], receivers[j])

        with pytest.raises(ValueError):
            message_hash(42, keys, 3, senders, receivers)
        matrix = message_hash(
            42, keys[None, :], 3, senders[:, None], receivers[:, None]
        )
        assert matrix.shape == (13, 7)
        for j in range(13):
            for q in range(7):
                assert matrix[j, q] == scalar(j, keys[q])
        # One key per message (the batch kernel's sparse call shape).
        per_message = rng.integers(0, 50, size=13)
        vector = message_hash(42, per_message, 3, senders, receivers)
        assert vector.shape == (13,)
        for j in range(13):
            assert vector[j] == scalar(j, per_message[j])
        # A scalar key against message arrays (one query's frontier).
        column = message_hash(42, int(keys[2]), 3, senders, receivers)
        assert np.array_equal(column, matrix[:, 2])

    def test_edge_and_key_halves_compose(self):
        # The batched kernel hashes each gathered edge once and folds the
        # key in per message; the composition is message_hash itself, and
        # folding must not write through to the caller's edge hashes.
        senders = np.arange(40, dtype=np.int64)
        receivers = senders[::-1].copy()
        keys = np.arange(40, dtype=np.int64) * 7 - 3
        edges = edge_hash(9, 2, senders, receivers)
        before = edges.copy()
        composed = fold(edges, keys)
        assert np.array_equal(edges, before)
        assert np.array_equal(
            composed, message_hash(9, keys, 2, senders, receivers)
        )

    def test_blocked_finalizer_matches_small_blocks(self, monkeypatch):
        # Arrays longer than one block (finalized block by block) hash
        # like short ones (finalized whole).
        from repro.faults import hashing

        senders = np.arange(1000, dtype=np.int64)
        whole = message_hash(1, 5, 2, senders, senders + 1)
        monkeypatch.setattr(hashing, "_BLOCK", 64)
        assert np.array_equal(
            whole, message_hash(1, 5, 2, senders, senders + 1)
        )

    def test_scalar_key_matches_sender_shape(self):
        senders = np.arange(5, dtype=np.int64)
        receivers = senders + 1
        h = message_hash(0, 9, 1, senders, receivers)
        assert h.shape == (5,)

    def test_negative_coordinates_are_valid(self):
        # int64 -1 casts through two's complement, not an error.
        h = message_hash(0, 0, 0, np.int64(-1), np.int64(-2))
        assert h == message_hash(0, 0, 0, np.int64(-1), np.int64(-2))


class TestRateThreshold:
    def test_edges(self):
        assert rate_threshold(0.0) == 0
        assert rate_threshold(-1.0) == 0
        assert rate_threshold(1.0) == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert rate_threshold(2.0) == np.uint64(0xFFFFFFFFFFFFFFFF)

    def test_monotone(self):
        rates = [0.0, 0.01, 0.1, 0.5, 0.9, 1.0]
        ts = [int(rate_threshold(r)) for r in rates]
        assert ts == sorted(ts)

    def test_half_is_half_of_range(self):
        assert int(rate_threshold(0.5)) == 2**63


class TestDropMask:
    def test_rate_zero_drops_nothing(self):
        s = np.arange(1000, dtype=np.int64)
        assert not drop_mask(0.0, 1, 0, 1, s, s + 1).any()

    def test_rate_one_drops_everything(self):
        s = np.arange(1000, dtype=np.int64)
        assert drop_mask(1.0, 1, 0, 1, s, s + 1).all()

    def test_empirical_rate_tracks_nominal(self):
        rng = np.random.default_rng(3)
        n = 200_000
        senders = rng.integers(0, 500, size=n)
        receivers = rng.integers(0, 500, size=n)
        for rate in (0.05, 0.3, 0.7):
            got = drop_mask(rate, 11, 4, 2, senders, receivers).mean()
            assert abs(got - rate) < 0.01, (rate, got)

    def test_uniform01_matches_drop_decision(self):
        for rate in (0.2, 0.8):
            u = uniform01(5, 1, 2, 3, 4)
            dropped = bool(drop_mask(rate, 5, 1, 2, np.int64(3), np.int64(4)))
            assert dropped == (u < rate)


class TestLinkFaults:
    def test_lossy_flag(self):
        assert not LinkFaults().lossy
        assert not LinkFaults(loss_rate=0.0, seed=3).lossy
        assert LinkFaults(loss_rate=0.01).lossy

    def test_drop_delegates_to_hash(self):
        f = LinkFaults(loss_rate=0.4, seed=9)
        s = np.arange(50, dtype=np.int64)
        expect = message_hash(9, 2, 3, s, s + 1) < rate_threshold(0.4)
        assert np.array_equal(f.drop(2, 3, s, s + 1), expect)

    def test_drop_keyed_is_drop_on_precomputed_edges(self):
        f = LinkFaults(loss_rate=0.4, seed=9)
        s = np.arange(50, dtype=np.int64)
        keys = (s * 3) % 11
        edges = f.edge_hash(3, s, s + 1)
        assert np.array_equal(
            f.drop_keyed(edges, keys), f.drop(keys, 3, s, s + 1)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFaults(loss_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaults(loss_rate=-0.1)
        with pytest.raises(ValueError):
            LinkFaults(latency_factor=0.0)
