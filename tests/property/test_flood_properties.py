"""Property-based tests for the flooding kernel against a reference model.

The vectorized flood is checked against a direct, obviously-correct
per-message Python simulation of Gnutella flooding on random small graphs.
"""

from dataclasses import dataclass, field

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import LinkFaults
from repro.faults.hashing import message_hash, rate_threshold
from repro.search import flood
from repro.search.batch import flood_batch
from repro.topology import OverlayGraph


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1))
    u = np.asarray([e[0] for e in edges], dtype=np.int64)
    v = np.asarray([e[1] for e in edges], dtype=np.int64)
    return OverlayGraph.from_edges(n, u, v)


def reference_flood(graph, source, ttl):
    """Per-message event simulation of duplicate-suppressed flooding.

    Returns (messages, visited_count, duplicates).  Messages carry
    (sender, receiver, remaining_ttl); a node forwards only the first copy
    it sees, to all neighbors except the sender.
    """
    from collections import deque

    seen = {source}
    messages = 0
    duplicates = 0
    queue = deque()
    if ttl >= 1:
        for nbr in graph.neighbors(source):
            queue.append((source, int(nbr), ttl - 1))
    while queue:
        sender, receiver, remaining = queue.popleft()
        messages += 1
        if receiver in seen:
            duplicates += 1
            continue
        seen.add(receiver)
        if remaining > 0:
            for nbr in graph.neighbors(receiver):
                if int(nbr) != sender:
                    queue.append((receiver, int(nbr), remaining - 1))
    return messages, len(seen), duplicates


class TestFloodMatchesReference:
    @given(random_graphs(), st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=24))
    @settings(max_examples=120, deadline=None)
    def test_totals_match(self, graph, ttl, source_pick):
        source = source_pick % graph.n_nodes
        ours = flood(graph, source, ttl)
        ref_msgs, ref_visited, ref_dups = reference_flood(graph, source, ttl)
        assert ours.total_messages == ref_msgs
        assert ours.nodes_visited == ref_visited
        assert int(ours.duplicates_per_hop.sum()) == ref_dups

    @given(random_graphs(), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_per_hop_conservation(self, graph, ttl, source_pick):
        source = source_pick % graph.n_nodes
        r = flood(graph, source, ttl)
        np.testing.assert_array_equal(
            r.messages_per_hop, r.new_nodes_per_hop + r.duplicates_per_hop
        )
        # Monotone TTL: a deeper flood never sends fewer messages.
        shallower = flood(graph, source, ttl - 1)
        assert r.total_messages >= shallower.total_messages

    @given(random_graphs(), st.integers(min_value=0, max_value=24),
           st.integers(min_value=0, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_hit_hop_equals_bfs_distance(self, graph, source_pick, holder_pick):
        from repro.analysis import bfs_hops

        source = source_pick % graph.n_nodes
        holder = holder_pick % graph.n_nodes
        mask = np.zeros(graph.n_nodes, dtype=bool)
        mask[holder] = True
        r = flood(graph, source, ttl=graph.n_nodes, replica_mask=mask)
        dist = int(bfs_hops(graph, source)[holder])
        assert r.first_hit_hop == dist  # -1 on both sides if unreachable


@dataclass(frozen=True)
class ScalarOracleFaults(LinkFaults):
    """``LinkFaults`` that decides one message at a time, and remembers.

    ``edge_hash`` hands back each edge's *coordinates* packed in a uint64
    instead of a hash; ``drop_keyed`` unpacks every message it is asked
    about and takes the all-scalar ``message_hash`` decision for it.  A
    kernel that pairs a key with the wrong edge, skips a message a query
    sends or evaluates one it does not send changes ``seen`` or the result.
    """

    seen: list = field(default_factory=list, compare=False)

    def edge_hash(self, hop, senders, receivers):
        code = (hop * 64 + np.asarray(senders)) * 64 + np.asarray(receivers)
        return code.astype(np.uint64)

    def drop_keyed(self, edge_hashes, query_keys):
        codes, keys = np.broadcast_arrays(edge_hashes, query_keys)
        threshold = rate_threshold(self.loss_rate)
        out = np.zeros(codes.shape, dtype=bool)
        for i, (code, key) in enumerate(zip(codes.tolist(), keys.tolist())):
            hop, sender, receiver = code >> 12, (code >> 6) & 63, code & 63
            self.seen.append((key, hop, sender, receiver))
            out[i] = message_hash(
                self.seed, key, hop, np.int64(sender), np.int64(receiver)
            ) < threshold
        return out


def flood_rows(results):
    return [
        (r.messages_per_hop.tolist(), r.new_nodes_per_hop.tolist(),
         r.dropped_per_hop.tolist(), r.first_hit_hop, r.replicas_found)
        for r in results
    ]


class TestSparseLossDecisions:
    @given(
        random_graphs(),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
        st.lists(st.integers(min_value=-5, max_value=10**6), unique=True,
                 min_size=1, max_size=70),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_decision_is_the_scalar_one(
        self, graph, ttl, rate, seed, keys, random
    ):
        n, nq = graph.n_nodes, len(keys)
        sources = np.asarray([random.randrange(n) for _ in keys])
        masks = np.zeros((nq, n), dtype=bool)
        masks[np.arange(nq), [random.randrange(n) for _ in keys]] = True
        keys = np.asarray(keys, dtype=np.int64)

        one_by_one = ScalarOracleFaults(loss_rate=rate, seed=seed)
        scalar = [
            flood(graph, int(sources[i]), ttl, replica_mask=masks[i],
                  faults=one_by_one, query_key=int(keys[i]))
            for i in range(nq)
        ]
        sparse = ScalarOracleFaults(loss_rate=rate, seed=seed)
        batched = flood_batch(graph, sources, ttl, replica_masks=masks,
                              faults=sparse, query_keys=keys)
        # The batch kernel asks about exactly the messages the scalar
        # floods send — each (key, hop, sender, receiver) once — ...
        assert sorted(sparse.seen) == sorted(one_by_one.seen)
        assert len(set(sparse.seen)) == len(sparse.seen)
        assert flood_rows(batched) == flood_rows(scalar)
        # ... and the vectorised hash takes the same decisions.
        real = flood_batch(
            graph, sources, ttl, replica_masks=masks,
            faults=LinkFaults(loss_rate=rate, seed=seed), query_keys=keys,
        )
        assert flood_rows(real) == flood_rows(scalar)
