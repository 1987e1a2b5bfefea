"""The replication policy on plain dict/set holder views.

No simulator, no sockets, no event loop: a :class:`DictView` is the whole
world, and :func:`apply` is the smallest possible executor — it writes a
decision straight back into the view.
"""

import ast
import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content import policy as policy_module
from repro.content.placement import ContentPlacement
from repro.content.policy import Lost, Push, ReplicationPolicy, Trim

N = 8
KEY = 100


class DictView:
    """``holders``: key -> set of nodes with a copy (live or dark)."""

    def __init__(self, holders, live, nbrs=None, n_nodes=N):
        self.copies = {k: set(v) for k, v in holders.items()}
        self.live = set(live)
        self.nbrs = nbrs or {}
        self.n_nodes = n_nodes

    def holders(self, key):
        return set(self.copies.get(key, ()))

    def is_live(self, node):
        return node in self.live

    def n_live(self):
        return len(self.live)

    def neighbors(self, node):
        return self.nbrs.get(node, ())


def make(holders, live, placed=None, k=3, nbrs=None, n_nodes=N):
    """A policy over a DictView; ``placed`` defaults to the holders."""
    placed = placed if placed is not None else holders
    placement = ContentPlacement(
        n_nodes=n_nodes, k=k, object_keys=tuple(placed),
        replica_map={key: tuple(v) for key, v in placed.items()},
    )
    view = DictView(holders, live, nbrs, n_nodes)
    return ReplicationPolicy(view, k, list(placed), placement), view


def apply(view, decision):
    """Execute one decision against the dict view; returns pushes made."""
    if isinstance(decision, Push):
        targets = []
        for target in decision.candidates:
            view.copies[decision.key].add(target)
            targets.append(target)
            if len(targets) == decision.need:
                break
        return targets
    if isinstance(decision, Trim):
        view.copies[decision.key] -= set(decision.nodes)
    return []


class TestSweep:
    def test_no_copy_at_all_is_lost_once(self):
        policy, _ = make({KEY: ()}, live=range(N), placed={KEY: (0, 1, 2)})
        assert list(policy.sweep()) == [Lost(KEY)]
        assert list(policy.sweep()) == []
        assert policy.stats["objects_lost"] == 1
        assert policy.stats["heal.ticks"] == 2

    def test_dark_copies_wait(self):
        # every copy is on an offline disk: nothing to push from, but the
        # object is not lost — its holders may churn back
        policy, _ = make({KEY: (0, 1, 2)}, live={3, 4, 5})
        assert list(policy.sweep()) == []
        assert policy.stats["objects_lost"] == 0

    def test_push_count_is_target_minus_live(self):
        policy, view = make({KEY: (0, 1, 2)}, live={2, 3, 4, 5})
        (push,) = policy.sweep()
        assert isinstance(push, Push)
        assert push.source == 2  # the lowest-id *live* holder
        assert push.need == min(3, view.n_live()) - 1 == 2

    def test_target_is_capped_by_live_population(self):
        policy, view = make({KEY: (0, 1, 2)}, live={0, 5})
        (push,) = policy.sweep()
        assert push.need == 1  # min(k, n_live) == 2, one live copy
        assert apply(view, push) == [5]
        assert list(policy.sweep()) == []

    def test_never_targets_a_holder_or_a_dead_node(self):
        # 1 holds a dark copy, 3 is dead without one, 0 is the source
        policy, _ = make({KEY: (0, 1)}, live={0, 2, 4, 5})
        (push,) = policy.sweep()
        assert list(push.candidates) == [2, 4, 5]

    def test_neighbours_first_then_ascending_ids(self):
        policy, _ = make({KEY: (3,)}, live=range(N),
                         nbrs={3: {6, 4}})
        (push,) = policy.sweep()
        assert list(push.candidates) == [4, 6, 0, 1, 2, 5, 7]

    def test_candidate_stream_outlasts_a_failed_push(self):
        # the stream is longer than `need`, so an executor whose write to
        # the first candidate fails just takes the next one
        policy, _ = make({KEY: (3,)}, live=range(N), k=2)
        (push,) = policy.sweep()
        assert push.need == 1
        stream = iter(push.candidates)
        assert next(stream) == 0 and next(stream) == 1

    def test_candidates_read_liveness_lazily(self):
        policy, view = make({KEY: (3,)}, live=range(N))
        (push,) = policy.sweep()
        stream = iter(push.candidates)
        assert next(stream) == 0
        view.live.discard(1)  # dies between two pushes
        assert next(stream) == 2

    def test_trim_keeps_placed_holders_then_low_ids(self):
        policy, view = make({KEY: (0, 1, 5, 6, 7)}, live=range(N),
                            placed={KEY: (6, 7)})
        (trim,) = policy.sweep()
        assert trim == Trim(KEY, (1, 5))  # keeps 6, 7 (placed) and 0
        apply(view, trim)
        assert view.copies[KEY] == {0, 6, 7}

    def test_trim_ignores_dark_copies(self):
        # 0 is offline with its disk: it is neither counted nor trimmed
        policy, _ = make({KEY: (0, 1, 2, 3, 4)}, live={1, 2, 3, 4, 5})
        (trim,) = policy.sweep()
        assert trim == Trim(KEY, (4,))

    def test_empty_object_is_a_normal_push(self):
        # decisions never look at object sizes: a zero-byte object heals
        # by exactly the same push, and one sweep converges
        policy, view = make({KEY: (0, 1)}, live=range(N))
        (push,) = policy.sweep()
        assert (push.source, push.need) == (0, 1)
        apply(view, push)
        assert list(policy.sweep()) == []

    def test_objects_sweep_in_placement_order(self):
        policy, _ = make({7: (0,), 3: (1,), 5: (2,)}, live=range(N))
        assert [d.key for d in policy.sweep()] == [7, 3, 5]


class TestRepair:
    def test_restores_target_from_the_serving_holder(self):
        policy, view = make({KEY: (0, 4)}, live=range(N), nbrs={4: {5}})
        push = policy.repair(KEY, serving=4)
        assert (push.source, push.need) == (4, 1)
        assert apply(view, push) == [5]

    def test_healthy_object_needs_nothing(self):
        policy, _ = make({KEY: (0, 1, 2)}, live=range(N))
        assert policy.repair(KEY, serving=0) is None


class TestRejoin:
    def test_pushes_back_what_the_disk_lost(self):
        # node 2 is placed on both keys; a crash wiped its copies
        placed = {10: (2, 3), 11: (4, 2)}
        policy, view = make({10: (3,), 11: (4, 5)}, live=range(N),
                            placed=placed, k=2)
        pushes = list(policy.rejoin(2))
        assert [(p.key, p.source, p.need, tuple(p.candidates))
                for p in pushes] == [(10, 3, 1, (2,)), (11, 4, 1, (2,))]

    def test_skips_surviving_disks(self):
        # a churn departure kept the disk: nothing moves
        policy, _ = make({KEY: (2, 3)}, live=range(N), k=2)
        assert list(policy.rejoin(2)) == []

    def test_no_live_source_is_left_to_the_sweep(self):
        policy, _ = make({KEY: (3,)}, live={2}, placed={KEY: (2, 3)}, k=2)
        assert list(policy.rejoin(2)) == []

    def test_keys_not_placed_on_the_node_are_ignored(self):
        policy, _ = make({KEY: (3, 4)}, live=range(N), k=2)
        assert list(policy.rejoin(2)) == []


class TestCensusAndReport:
    def test_census_splits_degraded_unavailable_lost(self):
        holders = {1: (0, 1, 2), 2: (0, 6), 3: (6, 7), 4: ()}
        policy, _ = make(holders, live={0, 1, 2, 3},
                         placed={k: (0, 1, 2) for k in holders})
        avail, mean_live, degraded, unavailable, lost = policy.census()
        assert avail == 0.5           # keys 1 and 2 have a live copy
        assert mean_live == 4 / 4     # 3 + 1 live copies over 4 objects
        assert (degraded, unavailable, lost) == (1, 1, 1)

    def test_live_only_view_has_no_unavailable_objects(self):
        # the live plane's view lists running holders only, so "copies
        # but none live" cannot occur: such objects read as lost
        policy, _ = make({1: (0,), 2: ()}, live=range(N),
                         placed={1: (0,), 2: (5,)}, k=1)
        assert policy.census() == (0.5, 0.5, 0, 0, 1)

    def test_report_mirrors_ledger_and_sample_floor(self):
        policy, view = make({KEY: (0, 1, 2)}, live=range(N))
        view.live = set()
        assert policy.sample(10.0).availability == 0.0
        view.live = set(range(N))
        sample = policy.sample(20.0, fetch_success=0.75)
        assert sample.fetch_success == 0.75
        policy.stats["heal.pushes"] = 4
        policy.stats["rebalance.bytes"] = 99
        report = policy.report()
        assert report.availability == 1.0
        assert report.min_availability == 0.0
        assert (report.n_objects, report.k) == (1, 3)
        assert report.heal_pushes == 4 and report.rebalance_bytes == 99
        assert list(report.to_dict()) == [
            "n_objects", "k", "availability", "min_availability",
            "mean_live_replicas", "objects_lost", "objects_degraded",
            "heal_ticks", "heal_pushes", "heal_bytes", "heal_trims",
            "repair_pushes", "repair_bytes", "fetch_requests", "fetch_hits",
            "bytes_placed", "rebalance_pushes", "rebalance_bytes",
        ]

    def test_both_planes_share_the_one_catalogue(self):
        policy, _ = make({KEY: (0,)}, live=range(N))
        assert tuple(policy.stats) == policy_module.STAT_KEYS
        assert set(policy.stats.values()) == {0}


nodes = st.integers(0, N - 1)


class TestConvergence:
    @given(
        copies=st.lists(st.frozensets(nodes, max_size=N), min_size=1,
                        max_size=4),
        placed=st.frozensets(nodes, min_size=1, max_size=3),
        live=st.frozensets(nodes),
        nbrs=st.dictionaries(nodes, st.frozensets(nodes, max_size=4)),
        k=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_second_sweep_yields_nothing(self, copies, placed, live,
                                           nbrs, k):
        holders = dict(enumerate(copies))
        policy, view = make(
            holders, live, placed={key: tuple(sorted(placed))
                                   for key in holders},
            k=k, nbrs=nbrs,
        )
        want = min(k, len(live))
        for decision in policy.sweep():
            made = apply(view, decision)
            if isinstance(decision, Push):
                assert len(made) == decision.need
                assert view.live.issuperset(made)
        for key in holders:
            n_live = len(view.copies[key] & view.live)
            assert n_live in (0, want)
        assert list(policy.sweep()) == []


def test_policy_module_is_pure():
    """No event loop, no runtime, no simulator, no metrics — and no
    ``await`` or RNG — anywhere in the policy module."""
    tree = ast.parse(inspect.getsource(policy_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        assert not isinstance(node, (ast.Await, ast.AsyncFunctionDef))
    banned = ("asyncio", "random", "numpy", "repro.node", "repro.sim",
              "repro.obs")
    assert not [m for m in imported
                if any(m == b or m.startswith(b + ".") for b in banned)]
