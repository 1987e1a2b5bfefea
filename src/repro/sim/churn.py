"""Makalu under node churn.

The paper's fault-tolerance analysis freezes the overlay immediately after
failures; real P2P populations churn continuously.  This simulation drives
a live :class:`~repro.core.makalu.MakaluBuilder` through exponential node
sessions: an online node departs after an exponential session length (its
edges vanish instantly; bereaved survivors re-acquire neighbors through the
normal protocol) and rejoins after an exponential offline period.  Periodic
snapshots record connectivity so the overlay's self-healing is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.content.plane import ContentPlane
    from repro.faults.link import LinkFaults
    from repro.faults.scenario import FaultScenario

from repro.core.makalu import MakaluBuilder, MakaluConfig
from repro.core.maintenance import (
    RecoveryPolicy,
    recovery_attempt,
    repair_after_failure,
)
from repro.netmodel.base import NetworkModel
from repro.obs import runtime as _obs
from repro.obs.health import HealthConfig, HealthSample, HealthSampler
from repro.sim.engine import Simulator
from repro.util.rng import SeedLike, as_generator, spawn_generators
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ChurnConfig:
    """Session dynamics.

    Times are abstract; only the ratio of session to offline duration
    matters (it sets the steady-state online fraction
    ``session / (session + offline)``).
    """

    mean_session: float = 100.0
    mean_offline: float = 25.0
    snapshot_interval: float = 20.0
    #: Flooding probes run at each snapshot (0 disables search probing).
    probe_queries: int = 0
    probe_ttl: int = 4
    #: Replicas per probe object, placed on random online nodes.
    probe_replicas: int = 5
    #: Structural-health sampling period (0 disables the
    #: :class:`~repro.obs.health.HealthSampler` hook entirely; the churn
    #: trajectory is bit-identical either way).
    health_interval: float = 0.0
    #: BFS/expansion source sample size per health sample.
    health_sources: int = 8
    #: Notional attenuated-filter depth for the staleness estimate.
    health_filter_depth: int = 3

    def __post_init__(self):
        check_positive("mean_session", self.mean_session)
        check_positive("mean_offline", self.mean_offline)
        check_positive("snapshot_interval", self.snapshot_interval)
        if self.probe_queries < 0:
            raise ValueError("probe_queries must be >= 0")
        if self.probe_ttl < 0:
            raise ValueError("probe_ttl must be >= 0")
        if self.probe_replicas < 1:
            raise ValueError("probe_replicas must be >= 1")
        if self.health_interval < 0:
            raise ValueError("health_interval must be >= 0")
        if self.health_sources < 1:
            raise ValueError("health_sources must be >= 1")
        if self.health_filter_depth < 1:
            raise ValueError("health_filter_depth must be >= 1")

    @property
    def online_fraction(self) -> float:
        """Expected steady-state fraction of nodes online."""
        return self.mean_session / (self.mean_session + self.mean_offline)


@dataclass(frozen=True)
class ChurnSnapshot:
    """Connectivity (and optionally search health) of the online overlay.

    ``search_success`` is NaN unless the simulation was configured with
    ``probe_queries > 0``; probes flood for freshly placed objects among
    the online nodes, so the figure is end-to-end search availability
    under churn, not just graph connectivity.
    """

    time: float
    n_online: int
    n_components: int
    giant_fraction: float
    mean_degree: float
    search_success: float = float("nan")


@dataclass
class ChurnSimulation:
    """Drive a Makalu overlay through join/leave churn.

    Parameters mirror :class:`MakaluBuilder`; the initial overlay is built
    with every node online, then churn begins.
    """

    model: Optional[NetworkModel] = None
    n_nodes: Optional[int] = None
    makalu_config: Optional[MakaluConfig] = None
    churn_config: ChurnConfig = field(default_factory=ChurnConfig)
    use_host_caches: bool = False
    seed: SeedLike = None
    #: Optional :class:`~repro.faults.scenario.FaultScenario` injected live
    #: into the run (crashes, partitions, loss windows, latency spikes,
    #: stale views).  ``None`` reproduces the plain churn trajectory.
    faults: Optional["FaultScenario"] = None
    #: Retry/timeout discipline for fault recovery.  ``None`` keeps the
    #: legacy immediate-repair behaviour (and the bit-exact no-fault
    #: trajectory); a policy routes bereaved nodes through scheduled
    #: backoff attempts instead.
    recovery: Optional[RecoveryPolicy] = None
    #: Optional :class:`~repro.content.plane.ContentPlane`: places real
    #: replicated objects over the overlay, wipes them on crashes, heals
    #: under churn.  Repair/heal target selection is RNG-free and probes
    #: draw from a dedicated child stream, so attaching a plane keeps the
    #: churn trajectory bit-identical to a content-free run.
    content: Optional["ContentPlane"] = None

    def __post_init__(self):
        self.rng = as_generator(self.seed)
        # Probes draw from a dedicated child stream, spawned (not drawn)
        # from the seed so the spawn itself consumes nothing: the churn
        # trajectory driven by ``self.rng`` is bit-identical whether
        # ``probe_queries`` is 0 or 1000, and snapshots stay comparable
        # across probe settings.
        self._probe_rng = spawn_generators(self.rng, 1)[0]
        # Health sampling gets the next child stream for the same reason:
        # enabling --health-interval cannot perturb the churn trajectory.
        # Spawned unconditionally so the probe child's identity is stable
        # regardless of the health setting.
        self._health_rng = spawn_generators(self.rng, 1)[0]
        # Fault injection and recovery draw from the third child stream —
        # again spawned unconditionally, so attaching a scenario never
        # perturbs the probe or health streams (and a no-fault run is
        # bit-identical to one built before faults existed).
        self._fault_rng = spawn_generators(self.rng, 1)[0]
        # Content-plane fetch probes get the fourth child stream, spawned
        # unconditionally so earlier children keep their identities and a
        # run with a content plane attached replays the exact churn/fault
        # trajectory of one without.
        self._content_rng = spawn_generators(self.rng, 1)[0]
        membership = None
        if self.use_host_caches:
            from repro.core.membership import MembershipService

            n = self.model.n_nodes if self.model is not None else self.n_nodes
            membership = MembershipService(n, seed=self.rng)
        self.builder = MakaluBuilder(
            model=self.model,
            n_nodes=self.n_nodes,
            config=self.makalu_config,
            membership=membership,
            seed=self.rng,
        )
        self.online = np.ones(self.builder.n_nodes, dtype=bool)
        # Rejoining nodes bootstrap from their own (possibly stale) caches;
        # the builder consults this live-node mask when probing entries.
        self.builder.alive_mask = self.online
        # Per-node session epoch: bumped on every online/offline transition.
        # Scheduled depart/rejoin/recovery events capture the epoch at
        # scheduling time and no-op on mismatch, so an injected crash
        # invalidates the victim's pending churn events without touching
        # the event queue (or consuming any RNG).
        self._epoch = np.zeros(self.builder.n_nodes, dtype=np.int64)
        #: Message-level fault environment applied to probe searches; the
        #: fault injector swaps it as loss windows open and close.
        self.active_faults: Optional["LinkFaults"] = None
        # Monotone per-probe query key: loss decisions are counter-based
        # over (seed, key, hop, edge), so keys must never repeat.
        self._probe_key = 0
        self.injector = None
        self.snapshots: list[ChurnSnapshot] = []
        cfg = self.churn_config
        self.health_sampler: Optional[HealthSampler] = None
        if cfg.health_interval > 0:
            self.health_sampler = HealthSampler(
                HealthConfig(
                    interval=cfg.health_interval,
                    n_sources=cfg.health_sources,
                    filter_depth=cfg.health_filter_depth,
                ),
                rng=self._health_rng,
            )
        self._sim = Simulator()

    @property
    def health_samples(self) -> list[HealthSample]:
        """Health rows collected so far (empty when sampling is disabled)."""
        return self.health_sampler.samples if self.health_sampler else []

    def run(self, duration: float) -> list[ChurnSnapshot]:
        """Build the initial overlay, churn for ``duration``, return snapshots."""
        check_positive("duration", duration)
        with _obs.span("churn.initial_build"):
            self.builder.build()
        cfg = self.churn_config
        for node in range(self.builder.n_nodes):
            self._schedule_departure(node)
        self._sim.schedule(cfg.snapshot_interval, self._snapshot, label="snapshot")
        if self.health_sampler is not None:
            # Routing filters are (notionally) built on the post-build
            # overlay; staleness is measured against this reference.
            self.health_sampler.set_reference(self.builder.adj.freeze())
            self._sim.schedule(
                cfg.health_interval, self._health_sample, label="health"
            )
        if self.faults is not None:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(self)
            self.injector.schedule()
        if self.content is not None:
            with _obs.span("content.place"):
                self.content.start(self)
        self._sim.run(until=duration)
        return self.snapshots

    # ------------------------------------------------------------------

    def _schedule_departure(self, node: int) -> None:
        delay = float(self.rng.exponential(self.churn_config.mean_session))
        epoch = int(self._epoch[node])
        self._sim.schedule(
            delay, lambda sim, n=node, e=epoch: self._depart(n, e),
            label="depart",
        )

    def _schedule_rejoin(self, node: int, rng=None) -> None:
        rng = self.rng if rng is None else rng
        delay = float(rng.exponential(self.churn_config.mean_offline))
        epoch = int(self._epoch[node])
        self._sim.schedule(
            delay, lambda sim, n=node, e=epoch: self._rejoin(n, e),
            label="rejoin",
        )

    def _depart(self, node: int, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch[node]:
            return  # superseded by an injected crash or earlier transition
        if not self.online[node]:  # pragma: no cover - defensive
            return
        self.online[node] = False
        self._epoch[node] += 1
        _obs.count("churn.departures")
        _obs.event("churn.depart", t=self._sim.now, node=node)
        with _obs.span("churn.repair"):
            survivors = repair_after_failure(
                self.builder, [node], rejoin=self.recovery is None,
                max_passes=1,
            )
        if self.recovery is not None:
            self._schedule_recovery(survivors)
        self._schedule_rejoin(node)

    def _rejoin(self, node: int, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch[node]:
            return
        if self.online[node]:  # pragma: no cover - defensive
            return
        self.online[node] = True
        self._epoch[node] += 1
        _obs.count("churn.rejoins")
        _obs.event("churn.rejoin", t=self._sim.now, node=node)
        with _obs.span("churn.join"):
            self.builder.join(node)
        if self.content is not None:
            # Rebalance on join: a post-crash rejoiner gets its placed
            # keys pushed back (RNG-free, so the churn trajectory is
            # unchanged with or without a content plane attached).
            self.content.on_join(node)
        self._schedule_departure(node)

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.injector)
    # ------------------------------------------------------------------

    def crash_nodes(self, victims: Iterable[int], rejoin: bool = True) -> np.ndarray:
        """Fail ``victims`` simultaneously (a correlated crash).

        Unlike churn departures, victims drop as one batch — survivors see
        the full damage at once, which is the regime the paper's static
        analysis studies.  Returns the bereaved survivor ids.  With
        ``rejoin``, victims re-enter after exponential offline periods
        drawn from the fault stream.
        """
        victims = [int(v) for v in victims if self.online[int(v)]]
        if not victims:
            return np.empty(0, dtype=np.int64)
        for v in victims:
            self.online[v] = False
            self._epoch[v] += 1
        if self.content is not None:
            # A crash is disk loss: victims' replicas are gone, unlike a
            # churn departure where the node returns with its data.
            self.content.on_crash(victims)
        _obs.count("faults.crashes")
        _obs.count("faults.crash_victims", len(victims))
        _obs.event(
            "faults.crash", t=self._sim.now, victims=len(victims),
            rejoin=rejoin,
        )
        with _obs.span("faults.crash_repair"):
            survivors = repair_after_failure(
                self.builder, victims, rejoin=False
            )
        self.repair_or_recover(survivors)
        if rejoin:
            for v in victims:
                self._schedule_rejoin(v, rng=self._fault_rng)
        return survivors

    def rejoin_nodes(self, nodes: Iterable[int]) -> None:
        """Bring offline nodes back right now (already-online ones no-op).

        The immediate counterpart of the scheduled rejoin path — same
        epoch bump, overlay join, and content ``on_join`` rebalance —
        used by drivers that replay an explicit churn shape (e.g. the
        live-parity benchmarks) instead of drawing offline periods.
        """
        for v in nodes:
            v = int(v)
            if not self.online[v]:
                self._rejoin(v)

    def repair_or_recover(self, nodes: Iterable[int]) -> None:
        """Restore capacity for ``nodes``: immediately, or via the policy.

        Without a :class:`RecoveryPolicy` the nodes run acquisition passes
        right now (the legacy repair behaviour); with one, each node gets a
        scheduled retry chain with exponential backoff.
        """
        nodes = [int(x) for x in nodes if self.online[int(x)]]
        if self.recovery is not None:
            self._schedule_recovery(nodes)
            return
        adj, caps = self.builder.adj, self.builder.capacities
        with _obs.span("faults.repair"):
            for _ in range(2):
                needy = [x for x in nodes if adj.degree(x) < caps[x]]
                if not needy:
                    break
                for x in needy:
                    self.builder._acquire(x, allow_swap=False)

    def _schedule_recovery(self, nodes: Iterable[int]) -> None:
        adj, caps = self.builder.adj, self.builder.capacities
        for node in nodes:
            node = int(node)
            if not self.online[node] or adj.degree(node) >= caps[node]:
                continue
            self._schedule_recovery_attempt(node, attempt=1)

    def _schedule_recovery_attempt(self, node: int, attempt: int) -> None:
        epoch = int(self._epoch[node])
        self._sim.schedule(
            self.recovery.retry_delay(attempt),
            lambda sim, n=node, a=attempt, e=epoch: self._recovery_attempt(n, a, e),
            label="recovery",
        )

    def _recovery_attempt(self, node: int, attempt: int, epoch: int) -> None:
        if epoch != self._epoch[node] or not self.online[node]:
            _obs.count("recovery.cancelled")
            return
        outcome = recovery_attempt(
            self.builder, node, self.recovery, attempt,
            rng=self._fault_rng, online=self.online,
        )
        if outcome == "retry":
            self._schedule_recovery_attempt(node, attempt + 1)

    def _snapshot(self, sim: Simulator) -> None:
        online_ids = np.flatnonzero(self.online)
        graph = self.builder.adj.freeze()
        sub, _ = graph.subgraph(online_ids)
        if sub.n_nodes:
            n_comp, labels = sub.connected_components()
            giant = float(np.bincount(labels).max() / sub.n_nodes)
            mean_deg = sub.mean_degree
        else:  # pragma: no cover - everyone offline simultaneously
            n_comp, giant, mean_deg = 0, 0.0, 0.0
        snap = ChurnSnapshot(
            time=sim.now,
            n_online=int(online_ids.size),
            n_components=n_comp,
            giant_fraction=giant,
            mean_degree=mean_deg,
            search_success=self._probe_search(sub),
        )
        self.snapshots.append(snap)
        _obs.count("churn.snapshots")
        _obs.gauge("churn.online_nodes", snap.n_online)
        _obs.gauge("churn.giant_fraction", snap.giant_fraction)
        _obs.event(
            "churn.snapshot", t=sim.now, online=snap.n_online,
            components=snap.n_components, giant=snap.giant_fraction,
        )
        if self.content is not None:
            self.content.on_snapshot(sim.now)
        sim.schedule(self.churn_config.snapshot_interval, self._snapshot, label="snapshot")

    def _health_sample(self, sim: Simulator) -> None:
        self.health_sampler.sample(
            t=sim.now,
            graph=self.builder.adj.freeze(),
            online=self.online,
            membership=self.builder.membership,
        )
        sim.schedule(
            self.churn_config.health_interval, self._health_sample,
            label="health",
        )

    def _probe_search(self, online_graph) -> float:
        """End-to-end search availability: flooding probes on the live overlay."""
        cfg = self.churn_config
        if cfg.probe_queries == 0 or online_graph.n_nodes < 2:
            return float("nan")
        from repro.search.flooding import flood

        n = online_graph.n_nodes
        replicas = min(cfg.probe_replicas, n)
        hits = 0
        with _obs.span("churn.probe_search"):
            for _ in range(cfg.probe_queries):
                holders = self._probe_rng.choice(n, size=replicas, replace=False)
                mask = np.zeros(n, dtype=bool)
                mask[holders] = True
                source = int(self._probe_rng.integers(0, n))
                # Keys advance even when no loss window is active, so the
                # k-th probe of a run makes identical drop decisions no
                # matter when earlier windows opened or closed.
                key = self._probe_key
                self._probe_key += 1
                hits += flood(online_graph, source, cfg.probe_ttl,
                              replica_mask=mask, faults=self.active_faults,
                              query_key=key).success
        return hits / cfg.probe_queries
