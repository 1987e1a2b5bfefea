"""Turn a :class:`FaultScenario` into live events on a churn simulation.

The injector is attached by :meth:`ChurnSimulation.run` when a scenario is
configured: it schedules one simulator event per scenario entry (absolute
virtual times) and, when they fire, mutates the live system through the
simulation's fault hooks — :meth:`crash_nodes` for correlated crashes,
``builder.link_filter`` + edge severing for partitions,
``churn.active_faults`` for message-loss windows, ``builder.latency_scale``
for latency spikes, and host-cache poisoning for stale views.

Determinism: every random choice (crash victims under ``random`` mode,
partition side assignment, per-window loss seeds, poison picks) draws from
the simulation's dedicated ``_fault_rng`` child stream in a fixed order,
and message-level loss is counter-based (:mod:`repro.faults.hashing`), so
one ``(scenario, seed)`` pair replays bit-identically — including across
worker counts of the batch/parallel search kernels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.faults.link import LinkFaults
from repro.faults.scenario import (
    CrashEvent,
    FaultScenario,
    LatencySpike,
    LossWindow,
    PartitionEvent,
    StaleViewEvent,
    pick_crash_victims,
)
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.churn import ChurnSimulation


class FaultInjector:
    """Schedules and applies a fault scenario on a :class:`ChurnSimulation`.

    Construct after the simulation's ``__post_init__`` (it borrows the
    ``_fault_rng`` stream and the live builder) and call :meth:`schedule`
    once, before the event loop runs.  :meth:`summary` reports what was
    actually applied — the numbers the CLI prints after a run.
    """

    def __init__(self, churn: "ChurnSimulation", scenario: Optional[FaultScenario] = None):
        self.churn = churn
        scenario = scenario if scenario is not None else churn.faults
        if scenario is None:
            raise ValueError("no fault scenario configured")
        self.scenario = scenario
        self.rng = churn._fault_rng
        # Loss seeds are drawn up front, in declaration order, so the k-th
        # window's message-drop stream does not depend on which other
        # events happened to fire first.
        self._window_seeds = [
            int(self.rng.integers(0, 2**63))
            for _ in scenario.loss_windows
        ]
        self._active_windows: dict[int, LossWindow] = {}
        self._active_spikes: dict[int, LatencySpike] = {}
        self._partition_side: Optional[np.ndarray] = None
        self.counts = {
            "crashes": 0,
            "crash_victims": 0,
            "partitions": 0,
            "partition_heals": 0,
            "severed_edges": 0,
            "loss_windows_opened": 0,
            "loss_windows_closed": 0,
            "latency_spikes_opened": 0,
            "latency_spikes_closed": 0,
            "stale_views": 0,
            "stale_view_victims": 0,
            "stale_views_skipped": 0,
        }
        self._validate()

    def _validate(self) -> None:
        needs_stub = any(
            c.mode == "stub-correlated" for c in self.scenario.crashes
        ) or any(p.mode == "stub" for p in self.scenario.partitions)
        if needs_stub and getattr(
            self.churn.builder.model, "stub_of_node", None
        ) is None:
            raise ValueError(
                f"scenario {self.scenario.name!r} uses stub-correlated "
                f"faults, which need a transit-stub substrate "
                f"(--model transit-stub)"
            )

    @property
    def partition_active(self) -> bool:
        """Whether a partition is currently in force."""
        return self._partition_side is not None

    def schedule(self) -> None:
        """Queue every scenario entry on the simulation's event loop."""
        sim = self.churn._sim
        for c in self.scenario.crashes:
            sim.schedule_at(
                c.time, lambda s, ev=c: self._crash(ev), label="fault.crash"
            )
        for i, w in enumerate(self.scenario.loss_windows):
            sim.schedule_at(
                w.start, lambda s, k=i, ev=w: self._open_window(k, ev),
                label="fault.loss_open",
            )
            if w.end is not None:
                sim.schedule_at(
                    w.end, lambda s, k=i: self._close_window(k),
                    label="fault.loss_close",
                )
        for i, sp in enumerate(self.scenario.latency_spikes):
            sim.schedule_at(
                sp.start, lambda s, k=i, ev=sp: self._open_spike(k, ev),
                label="fault.spike_open",
            )
            if sp.end is not None:
                sim.schedule_at(
                    sp.end, lambda s, k=i: self._close_spike(k),
                    label="fault.spike_close",
                )
        for p in self.scenario.partitions:
            sim.schedule_at(
                p.time, lambda s, ev=p: self._begin_partition(ev),
                label="fault.partition",
            )
            sim.schedule_at(
                p.heal_time, lambda s, ev=p: self._heal_partition(ev),
                label="fault.heal",
            )
        for sv in self.scenario.stale_views:
            sim.schedule_at(
                sv.time, lambda s, ev=sv: self._stale_view(ev),
                label="fault.stale_view",
            )

    def summary(self) -> dict:
        """Counts of applied fault events (for CLI/report output)."""
        return dict(self.counts)

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------

    def _crash(self, ev: CrashEvent) -> None:
        churn = self.churn
        online_ids = np.flatnonzero(churn.online)
        k = int(round(ev.fraction * online_ids.size))
        if k == 0 or online_ids.size == 0:
            _obs.event("faults.crash_empty", t=churn._sim.now)
            return
        if ev.mode == "stub-correlated":
            # whole access domains go dark at once
            stubs = np.asarray(churn.builder.model.stub_of_node)
            node_stub = stubs[online_ids]
            picked: list[int] = []
            for d in self.rng.permutation(np.unique(node_stub)):
                picked.extend(online_ids[node_stub == d].tolist())
                if len(picked) >= k:
                    break
            victims = np.asarray(picked, dtype=np.int64)
        else:
            victims = pick_crash_victims(
                ev.mode, k, online_ids, churn.builder.adj.degree, self.rng,
            )
        survivors = churn.crash_nodes(victims, rejoin=ev.rejoin)
        self.counts["crashes"] += 1
        self.counts["crash_victims"] += int(len(victims))
        _obs.event(
            "faults.crash_applied", t=churn._sim.now, mode=ev.mode,
            victims=int(len(victims)), bereaved=int(survivors.size),
        )

    # ------------------------------------------------------------------
    # Message loss windows and latency spikes
    # ------------------------------------------------------------------

    def _refresh_link_env(self) -> None:
        """Recompute the active link-fault environment.

        Overlapping loss windows do not stack: the highest-rate active
        window governs (deterministic tie-break on declaration order), a
        rule simple enough to reason about in parity tests.  Latency
        spikes likewise resolve to the largest active factor.
        """
        if self._active_windows:
            idx, window = max(
                self._active_windows.items(),
                key=lambda kv: (kv[1].rate, -kv[0]),
            )
            self.churn.active_faults = LinkFaults(
                loss_rate=window.rate, seed=self._window_seeds[idx]
            )
        else:
            self.churn.active_faults = None
        factors = [sp.factor for sp in self._active_spikes.values()]
        self.churn.builder.latency_scale = max(factors, default=1.0)

    def _open_window(self, idx: int, window: LossWindow) -> None:
        self._active_windows[idx] = window
        self._refresh_link_env()
        self.counts["loss_windows_opened"] += 1
        _obs.count("faults.loss_windows")
        _obs.event(
            "faults.loss_open", t=self.churn._sim.now, rate=window.rate
        )

    def _close_window(self, idx: int) -> None:
        self._active_windows.pop(idx, None)
        self._refresh_link_env()
        self.counts["loss_windows_closed"] += 1
        _obs.event("faults.loss_close", t=self.churn._sim.now)

    def _open_spike(self, idx: int, spike: LatencySpike) -> None:
        self._active_spikes[idx] = spike
        self._refresh_link_env()
        self.counts["latency_spikes_opened"] += 1
        _obs.count("faults.latency_spikes")
        _obs.event(
            "faults.spike_open", t=self.churn._sim.now, factor=spike.factor
        )

    def _close_spike(self, idx: int) -> None:
        self._active_spikes.pop(idx, None)
        self._refresh_link_env()
        self.counts["latency_spikes_closed"] += 1
        _obs.event("faults.spike_close", t=self.churn._sim.now)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def _partition_sides(self, ev: PartitionEvent) -> np.ndarray:
        n = self.churn.builder.n_nodes
        if ev.mode == "stub":
            stubs = np.asarray(self.churn.builder.model.stub_of_node)
            domains = np.unique(stubs)
            minority = domains[self.rng.random(domains.size) < ev.fraction]
            return np.isin(stubs, minority)
        return self.rng.random(n) < ev.fraction

    def _begin_partition(self, ev: PartitionEvent) -> None:
        churn, builder = self.churn, self.churn.builder
        side = self._partition_sides(ev)
        self._partition_side = side
        severed = 0
        bereaved: set[int] = set()
        adj = builder.adj
        for u in range(builder.n_nodes):
            for v in list(adj.neighbors(u)):
                if v > u and side[u] != side[v]:
                    adj.remove_edge(u, v)
                    severed += 1
                    bereaved.add(u)
                    bereaved.add(int(v))
        # No cross-cut edge can form while the partition holds: walks
        # cannot cross (the edges are gone) and direct attempts are
        # refused at the reachability check.
        builder.link_filter = lambda u, v, s=side: bool(s[u] == s[v])
        self.counts["partitions"] += 1
        self.counts["severed_edges"] += severed
        _obs.count("faults.partitions")
        _obs.count("faults.severed_edges", severed)
        _obs.event(
            "faults.partition", t=churn._sim.now, severed=severed,
            minority=int(side.sum()), mode=ev.mode,
        )
        churn.repair_or_recover(sorted(bereaved))

    def _heal_partition(self, ev: PartitionEvent) -> None:
        churn, builder = self.churn, self.churn.builder
        builder.link_filter = None
        self._partition_side = None
        self.counts["partition_heals"] += 1
        _obs.count("faults.partition_heals")
        _obs.event("faults.heal", t=churn._sim.now)
        adj, caps = builder.adj, builder.capacities
        needy = [
            u for u in range(builder.n_nodes)
            if churn.online[u] and adj.degree(u) < caps[u]
        ]
        churn.repair_or_recover(needy)

    # ------------------------------------------------------------------
    # Stale neighbor views
    # ------------------------------------------------------------------

    def _stale_view(self, ev: StaleViewEvent) -> None:
        churn = self.churn
        membership = churn.builder.membership
        online_ids = np.flatnonzero(churn.online)
        offline_ids = np.flatnonzero(~churn.online)
        if membership is None or not offline_ids.size or not online_ids.size:
            # Nothing stale to inject (no caches, or nobody is dead yet).
            self.counts["stale_views_skipped"] += 1
            _obs.count("faults.stale_views_skipped")
            _obs.event("faults.stale_view_skipped", t=churn._sim.now)
            return
        k = max(1, int(round(ev.fraction * online_ids.size)))
        victims = self.rng.choice(
            online_ids, size=min(k, online_ids.size), replace=False
        )
        for v in victims:
            cache = membership.caches[int(v)]
            poison = self.rng.choice(
                offline_ids,
                size=min(cache.capacity, offline_ids.size),
                replace=False,
            )
            cache.add_many(int(p) for p in poison)
        self.counts["stale_views"] += 1
        self.counts["stale_view_victims"] += int(victims.size)
        _obs.count("faults.stale_views")
        _obs.count("faults.stale_view_victims", int(victims.size))
        _obs.event(
            "faults.stale_view", t=churn._sim.now, victims=int(victims.size)
        )
