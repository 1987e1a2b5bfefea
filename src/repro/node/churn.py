"""Replay a fault scenario against a *running* live overlay.

:class:`LiveChurnDriver` takes the same :class:`~repro.faults.scenario.
FaultScenario` schedules the simulation's injector consumes and executes
their crash/churn events against real asyncio peers: a crash is
:meth:`~repro.node.boot.LiveOverlay.kill_peer` (hard teardown, copies
gone), a rejoin is :meth:`~repro.node.boot.LiveOverlay.revive_peer`
(a fresh :class:`~repro.node.peer.PeerNode` bootstrapping through
``join()`` against the currently-running peers), and when a
:class:`~repro.content.live.LiveContent` plane rides along, every revive
triggers the same ``on_join`` rebalance and every heal interval the same
healing sweep the sim plane charges.

Scheduling is a virtual clock replayed on wall time: events (scenario
crashes, derived revives, heal ticks, durability snapshots) live in one
heap keyed ``(virtual time, sequence)`` and execute strictly in that
order, each followed by an overlay settle — so the *ordering* is
deterministic regardless of pacing.  ``time_scale`` stretches virtual
seconds into wall seconds between events (0 runs the schedule as fast as
the overlay settles).  Victim selection mirrors the simulation injector:
``top-degree`` ranks live peers by current link count (stable, ties
ascending id), ``random`` draws from the driver's seeded stream; modes
needing a transit-stub substrate (``stub-correlated``) and the wire-level
fault families the live plane cannot inject yet (loss windows, latency
spikes, partitions, stale views) are counted as skipped, never silently
dropped.  Rejoin delays are exponential draws with mean ``mean_offline``,
matching the simulation's offline-period model.

:func:`run_live_churn` is the canonical end-to-end experiment — the live
twin of :func:`repro.content.experiment.run_durability`, sharing its
corpus/placement seed salts — used by ``repro node churn`` and
``benchmarks/bench_live_churn.py``.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.content.live import LiveContent
from repro.content.plane import ContentConfig, DurabilityReport, DurabilitySample
from repro.faults.scenario import (
    CrashEvent,
    FaultScenario,
    pick_crash_victims,
)
from repro.node.boot import LiveOverlay

#: Fault families the live driver cannot inject (yet); events of these
#: kinds are reported as skipped rather than silently ignored.
_UNSUPPORTED = (
    "loss_windows", "latency_spikes", "partitions", "stale_views",
)


@dataclass(frozen=True)
class LiveChurnEvent:
    """One executed membership event, stamped with its virtual time."""

    time: float
    kind: str  #: ``crash`` | ``revive`` | ``heal`` | ``snapshot``
    nodes: Tuple[int, ...] = ()
    #: Content pushes the event charged (rebalance or heal).
    pushes: int = 0


@dataclass
class LiveChurnReport:
    """What a scenario replay did to the running overlay."""

    scenario: str
    duration: float
    kills: int
    revives: int
    heal_ticks: int
    rebalance_pushes: int
    skipped: Dict[str, int]
    events: List[LiveChurnEvent] = field(repr=False)
    samples: List[DurabilitySample] = field(repr=False)
    durability: Optional[DurabilityReport] = None

    @property
    def events_skipped(self) -> int:
        """Total scenario events the live plane could not inject."""
        return sum(self.skipped.values())


class LiveChurnDriver:
    """Replay ``scenario`` against ``overlay`` (see module docstring).

    Parameters
    ----------
    overlay:
        A started :class:`LiveOverlay`.
    scenario:
        The fault schedule; only crash events (and the rejoins they
        imply) are injectable live.
    content:
        Optional live content plane: revives trigger ``on_join``
        rebalance, heal ticks run its sweep, snapshots sample
        durability.
    seed:
        Stream for random-mode victim draws and rejoin delays.
    duration:
        Virtual horizon; events scheduled beyond it never run.
    time_scale:
        Wall seconds per virtual second between events (0 = unpaced).
    mean_offline:
        Mean of the exponential offline period before a victim revives.
    snapshot_interval:
        Durability sampling period (0 samples only at the end; ignored
        without a content plane).
    """

    def __init__(
        self,
        overlay: LiveOverlay,
        scenario: FaultScenario,
        content: Optional[LiveContent] = None,
        seed: int = 0,
        duration: float = 150.0,
        time_scale: float = 0.0,
        mean_offline: float = 25.0,
        snapshot_interval: float = 0.0,
    ):
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        if mean_offline <= 0:
            raise ValueError("mean_offline must be > 0")
        if snapshot_interval < 0:
            raise ValueError("snapshot_interval must be >= 0")
        self.overlay = overlay
        self.scenario = scenario
        self.content = content
        self.duration = float(duration)
        self.time_scale = float(time_scale)
        self.mean_offline = float(mean_offline)
        self.snapshot_interval = float(snapshot_interval)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------

    def _initial_schedule(self) -> Tuple[list, Dict[str, int]]:
        heap: list = []
        seq = 0

        def push(t: float, kind: str, payload=None):
            nonlocal seq
            heapq.heappush(heap, (float(t), seq, kind, payload))
            seq += 1

        skipped = {}
        for family in _UNSUPPORTED:
            n = len(getattr(self.scenario, family))
            if n:
                skipped[family] = n
        for ev in self.scenario.crashes:
            if ev.time > self.duration:
                continue
            if ev.mode == "stub-correlated":
                skipped["stub_correlated_crashes"] = (
                    skipped.get("stub_correlated_crashes", 0) + 1
                )
                continue
            push(ev.time, "crash", ev)
        if self.content is not None and self.content.config.heal_enabled:
            interval = self.content.config.heal_interval
            t = interval
            while t <= self.duration:
                push(t, "heal", None)
                t += interval
        if self.content is not None and self.snapshot_interval > 0:
            t = self.snapshot_interval
            while t < self.duration:
                push(t, "snapshot", None)
                t += self.snapshot_interval
        self._heap = heap
        self._seq = seq
        return heap, skipped

    def _push(self, t: float, kind: str, payload=None) -> None:
        heapq.heappush(self._heap, (float(t), self._seq, kind, payload))
        self._seq += 1

    def _pick_victims(self, ev: CrashEvent) -> List[int]:
        """The injector's victim rule, on live link-table degrees."""
        running = [n.node_id for n in self.overlay.nodes if n.running]
        k = int(round(ev.fraction * len(running)))
        if k == 0:
            return []
        victims = pick_crash_victims(
            ev.mode, k, running,
            lambda u: len(self.overlay.nodes[u].neighbors), self._rng,
        ).tolist()
        # a random draw is killed in id order; hubs in rank order
        return sorted(victims) if ev.mode == "random" else victims

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    async def run(self) -> LiveChurnReport:
        """Execute the schedule to ``duration``; returns the replay report.

        The overlay is left running (the caller owns teardown); when a
        content plane rides along the report carries its durability
        summary and the samples taken at each snapshot instant plus one
        final census at ``duration``.
        """
        heap, skipped = self._initial_schedule()
        events: List[LiveChurnEvent] = []
        kills = revives = heal_ticks = rebalance_pushes = 0
        now = 0.0
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            if t > self.duration:
                continue
            if self.time_scale > 0 and t > now:
                await asyncio.sleep((t - now) * self.time_scale)
            now = max(now, t)
            if kind == "crash":
                victims = self._pick_victims(payload)
                for v in victims:
                    await self.overlay.kill_peer(v)
                    kills += 1
                    if payload.rejoin:
                        delay = float(
                            self._rng.exponential(self.mean_offline)
                        )
                        self._push(t + delay, "revive", v)
                if victims:
                    events.append(LiveChurnEvent(
                        time=t, kind="crash", nodes=tuple(victims),
                    ))
            elif kind == "revive":
                v = payload
                if self.overlay.nodes[v].running:
                    continue  # superseded (already revived)
                await self.overlay.revive_peer(v)
                revives += 1
                pushes = 0
                if self.content is not None:
                    pushes = await self.content.on_join(v)
                    rebalance_pushes += pushes
                events.append(LiveChurnEvent(
                    time=t, kind="revive", nodes=(v,), pushes=pushes,
                ))
            elif kind == "heal":
                pushes = await self.content.heal()
                heal_ticks += 1
                events.append(LiveChurnEvent(
                    time=t, kind="heal", pushes=pushes,
                ))
            elif kind == "snapshot":
                self.content.record_sample(t)
                events.append(LiveChurnEvent(time=t, kind="snapshot"))
            await self.overlay.settle()
        durability = None
        samples: List[DurabilitySample] = []
        if self.content is not None:
            self.content.record_sample(self.duration)
            events.append(LiveChurnEvent(time=self.duration,
                                         kind="snapshot"))
            samples = list(self.content.samples)
            durability = self.content.durability_report()
        return LiveChurnReport(
            scenario=self.scenario.name, duration=self.duration,
            kills=kills, revives=revives, heal_ticks=heal_ticks,
            rebalance_pushes=rebalance_pushes, skipped=skipped,
            events=events, samples=samples, durability=durability,
        )


@dataclass
class LiveChurnResult:
    """One end-to-end live churn run: replay report + content ledger."""

    report: LiveChurnReport
    durability: DurabilityReport
    stats: Dict[str, int]
    overlay: LiveOverlay
    content: LiveContent


async def run_live_churn(
    scenario: FaultScenario,
    n_nodes: int = 32,
    n_objects: int = 12,
    seed: int = 1234,
    k: int = 3,
    duration: float = 150.0,
    time_scale: float = 0.0,
    heal_enabled: bool = True,
    heal_interval: float = 10.0,
    read_repair: bool = True,
    snapshot_interval: float = 25.0,
    mean_offline: float = 25.0,
    size_range: Tuple[int, int] = (2048, 8192),
) -> LiveChurnResult:
    """The canonical live churn experiment (one arm, real sockets).

    Builds the same seeded Makalu graph / corpus / placement
    :func:`~repro.content.experiment.run_durability` derives (shared
    seed salts, so sim and live arms at one seed study the same data),
    boots the overlay, replays ``scenario`` through a
    :class:`LiveChurnDriver`, and tears the overlay down.  The returned
    overlay/content keep their post-run state readable (metrics, stores,
    samples) exactly like :func:`repro.node.boot.boot_and_flood`.
    """
    from repro.content.experiment import build_placement

    graph, objects, placement = build_placement(
        n_nodes=n_nodes, n_objects=n_objects, seed=seed, k=k,
        size_range=size_range,
    )
    overlay = LiveOverlay(graph)
    await overlay.start()
    try:
        content = LiveContent(
            overlay, objects, placement,
            ContentConfig(
                k=k, heal_enabled=heal_enabled,
                heal_interval=heal_interval, read_repair=read_repair,
            ),
        )
        content.seed_stores()
        driver = LiveChurnDriver(
            overlay, scenario, content=content, seed=seed,
            duration=duration, time_scale=time_scale,
            mean_offline=mean_offline,
            snapshot_interval=snapshot_interval,
        )
        report = await driver.run()
    finally:
        await overlay.stop()
    return LiveChurnResult(
        report=report, durability=report.durability,
        stats=dict(content.stats), overlay=overlay, content=content,
    )


def run_live_churn_sync(*args, **kwargs) -> LiveChurnResult:
    """Synchronous wrapper around :func:`run_live_churn`."""
    return asyncio.run(run_live_churn(*args, **kwargs))
