"""Property-based parity: the lock-step ABF kernel equals the scalar router.

``AbfRouter.query`` routes one query per call and is the executable
reference; ``AbfRouter.query_batch`` routes a batch in lock-step.  On random
small graphs they must agree on every result field of every query, and on
every metric and trace event they emit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import LinkFaults
from repro.search import AbfRouter, Placement, build_attenuated_filters
from repro.search.attenuated_perlink import build_per_link_filters
from repro.search.bloom import BloomParams
from repro.topology import OverlayGraph
from tests.search.test_identifier import rows


@st.composite
def routing_cases(draw):
    """A random overlay, placement, filter variant and query batch."""
    n = draw(st.integers(min_value=2, max_value=20))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1))
    # Few distinct latencies: equal-level ties are broken by latency for
    # some neighbor pairs and by id for the others.
    lats = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                         min_size=len(edges), max_size=len(edges)))
    graph = OverlayGraph.from_edges(
        n, np.asarray([e[0] for e in edges]), np.asarray([e[1] for e in edges]),
        np.asarray(lats),
    )

    # Objects with zero to three holders; an object nobody holds sends
    # every query for it down the random-wander and backtrack branches.
    holders = draw(st.lists(
        st.lists(st.integers(0, n - 1), unique=True, max_size=3),
        min_size=1, max_size=4,
    ))
    keys = draw(st.lists(st.integers(1, 2**40), unique=True,
                         min_size=len(holders), max_size=len(holders)))
    placement = Placement(
        n_nodes=n,
        object_keys=np.asarray(keys, dtype=np.int64),
        replica_nodes=np.asarray(
            [v for group in holders for v in sorted(group)], dtype=np.int64),
        replica_indptr=np.concatenate(
            ([0], np.cumsum([len(g) for g in holders]))).astype(np.int64),
    )

    build = draw(st.sampled_from(
        [build_attenuated_filters, build_per_link_filters]))
    filters = build(
        graph, placement=placement, depth=draw(st.integers(1, 3)),
        params=BloomParams(n_bits=64, n_hashes=2),
    )

    nq = draw(st.integers(min_value=1, max_value=10))
    loss = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.5]))
    return dict(
        router=AbfRouter(graph, filters),
        placement=placement,
        sources=draw(st.lists(st.integers(0, n - 1), min_size=nq, max_size=nq)),
        objects=draw(st.lists(st.integers(0, len(holders) - 1),
                              min_size=nq, max_size=nq)),
        # Loss keys as a shard of a larger workload would carry them:
        # distinct, not contiguous, not starting at 0.
        query_keys=draw(st.lists(st.integers(0, 10**6), unique=True,
                                 min_size=nq, max_size=nq)),
        seeds=draw(st.lists(st.integers(0, 2**32 - 1),
                            min_size=nq, max_size=nq)),
        ttl=draw(st.integers(min_value=0, max_value=40)),
        backtrack=draw(st.booleans()),
        faults=LinkFaults(loss_rate=loss, seed=draw(st.integers(0, 99)))
        if loss else None,
    )


def run_scalar(case):
    router, placement = case["router"], case["placement"]
    return [
        router.query(
            src, placement.key_of(obj), placement.holder_mask(obj),
            ttl=case["ttl"], backtrack=case["backtrack"],
            seed=np.random.default_rng(seed), faults=case["faults"],
            query_key=key,
        )
        for src, obj, key, seed in zip(
            case["sources"], case["objects"], case["query_keys"], case["seeds"])
    ]


def run_batch(case):
    return case["router"].query_batch(
        case["sources"], case["objects"], case["placement"],
        [np.random.default_rng(seed) for seed in case["seeds"]],
        ttl=case["ttl"], backtrack=case["backtrack"], faults=case["faults"],
        query_keys=np.asarray(case["query_keys"]),
    )


def observed(run, case):
    """``run(case)`` under a tracing session: rows, metrics, events."""
    session = obs.configure(trace=True)
    try:
        results = run(case)
        snap = session.metrics.snapshot()
    finally:
        obs.disable()
    return (rows(results), snap["counters"], snap["histograms"],
            session.tracer.events())


class TestKernelMatchesScalarRouter:
    @given(routing_cases())
    @settings(max_examples=150, deadline=None)
    def test_results_match_field_for_field(self, case):
        assert rows(run_batch(case)) == rows(run_scalar(case))

    @given(routing_cases())
    @settings(max_examples=60, deadline=None)
    def test_metrics_and_trace_match(self, case):
        assert observed(run_batch, case) == observed(run_scalar, case)
