"""Simulation-side content plane: placement, read-repair, healing.

A :class:`ContentPlane` rides on a :class:`~repro.sim.churn.ChurnSimulation`
(attach it via the simulation's ``content`` field).  At build time it
places every object as ``k`` replicas over the freshly built overlay; from
then on it only *reacts*:

* churn departures keep a holder's disk intact (the node returns with its
  replicas), so they silently lower the *live* replica count;
* injected crashes (:meth:`on_crash`) wipe the victims' stores — disk
  loss, the regime where objects can actually die;
* rejoins (:meth:`on_join`) rebalance: a node returning after disk loss
  gets its placed keys pushed back from the lowest-id live holder, and
  the next heal sweep's placed-first trim preference converges holders
  back to the pure placement;
* fetches locate the nearest live holder by BFS hops and, when
  ``read_repair`` is on, re-push the object until ``k`` live replicas
  exist again;
* a background healing tick sweeps every object on ``heal_interval`` and
  restores (or trims to) exactly ``k`` live replicas whenever at least one
  live copy survives.

Every replication decision above — the sweep, the push-target order, the
trim keep-order, the rejoin worklist, the census — is made by
:class:`repro.content.policy.ReplicationPolicy`; this class is its
simulator executor: it answers the policy's questions about holders and
liveness from the churn state, applies pushes and trims as
:class:`~repro.content.store.ContentStore` writes, and counts bytes.

Determinism: placement draws only from per-object derived streams
(:func:`repro.content.placement.place_content`); the policy consumes **no
RNG at all**; fetch probes draw from the simulation's dedicated content
child stream.  The churn trajectory is therefore bit-identical with or
without a content plane attached, and with observability on or off
(``self.stats`` is the authoritative accounting; ``content.*`` metrics
mirror it when a session is active).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from repro.content.manifest import ContentObject
from repro.content.placement import ContentPlacement, place_content
from repro.content.policy import (  # noqa: F401 - re-exported
    DurabilityReport,
    DurabilitySample,
    Push,
    ReplicationPolicy,
    Trim,
)
from repro.content.store import ContentStore
from repro.obs import runtime as _obs
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.churn import ChurnSimulation


@dataclass(frozen=True)
class ContentConfig:
    """Content-plane policy knobs.

    ``fetch_ttl`` bounds the BFS radius a fetch searches (hops, matching
    the flooding TTLs elsewhere); ``fetch_probes`` issues that many seeded
    fetches per churn snapshot so availability is measured end to end, not
    just counted from the holder table.
    """

    k: int = 3
    heal_interval: float = 10.0
    heal_enabled: bool = True
    read_repair: bool = True
    fetch_probes: int = 0
    fetch_ttl: int = 6
    #: Placement stream seed (object streams derive from it per key).
    placement_seed: int = 0
    #: Push a rejoining node's placed-but-missing keys back on join.
    rebalance_on_join: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        check_positive("heal_interval", self.heal_interval)
        if self.fetch_probes < 0:
            raise ValueError("fetch_probes must be >= 0")
        if self.fetch_ttl < 1:
            raise ValueError("fetch_ttl must be >= 1")


class ContentPlane:
    """Replica lifecycle manager for a churned overlay.

    Construct with the object corpus and a config, assign to
    ``ChurnSimulation.content``, then ``run()`` drives everything:
    placement after the initial build, store wipes on crashes, healing
    ticks on the simulation's event loop, and a durability sample per
    churn snapshot.
    """

    def __init__(self, objects: Sequence[ContentObject],
                 config: Optional[ContentConfig] = None):
        if not objects:
            raise ValueError("content plane needs at least one object")
        self.config = config if config is not None else ContentConfig()
        self.objects: Dict[int, ContentObject] = {o.key: o for o in objects}
        if len(self.objects) != len(objects):
            raise ValueError("object keys must be distinct")
        self.placement: Optional[ContentPlacement] = None
        self.stores: List[ContentStore] = []
        #: ``key -> node ids holding a complete copy`` (online or not).
        self._holders: Dict[int, Set[int]] = {}
        self.policy = ReplicationPolicy(self, self.config.k, list(self.objects))
        #: Authoritative accounting — identical with obs on or off.
        self.stats = self.policy.stats
        self.samples = self.policy.samples
        self._churn: Optional["ChurnSimulation"] = None

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by ChurnSimulation)
    # ------------------------------------------------------------------

    def start(self, churn: "ChurnSimulation") -> None:
        """Place the corpus over the freshly built overlay and arm healing."""
        self._churn = churn
        n = churn.builder.n_nodes
        self.stores = [ContentStore(node_id=i) for i in range(n)]
        graph = churn.builder.adj.freeze()
        self.placement = self.policy.placement = place_content(
            graph, list(self.objects), k=self.config.k,
            seed=self.config.placement_seed,
        )
        for key, obj in self.objects.items():
            self._holders[key] = set()
            for node in self.placement.replicas(key):
                self._store(node, obj)
                self.stats["replicas_placed"] += 1
                self.stats["bytes_placed"] += obj.size
            self.stats["objects_placed"] += 1
        _obs.count("content.objects_placed", self.stats["objects_placed"])
        _obs.count("content.replicas_placed", self.stats["replicas_placed"])
        _obs.count("content.bytes_placed", self.stats["bytes_placed"])
        if self.config.heal_enabled:
            churn._sim.schedule(
                self.config.heal_interval, self._heal_tick, label="heal"
            )

    def on_crash(self, victims: Sequence[int]) -> None:
        """Disk loss: wipe every victim's store and holder entries."""
        for v in victims:
            v = int(v)
            store = self.stores[v]
            wiped = 0
            for key in list(store):
                self._holders[key].discard(v)
                wiped += 1
            store.wipe()
            if wiped:
                self.stats["crash_wipes"] += 1
                self.stats["replicas_wiped"] += wiped
                _obs.count("content.crash_wipes")
                _obs.count("content.replicas_wiped", wiped)

    def on_join(self, node: int) -> int:
        """Rebalance on rejoin: restore ``node``'s placed-but-missing keys.

        Placement is pure and never moves, so a rejoining owner (or
        placed copy) should converge back to holding its keys.  This hook
        pushes each such key from the lowest-id live holder the moment
        the node rejoins; the resulting surplus is trimmed by the next
        heal sweep, whose placed-first keep preference drops the
        opportunistic copy — "reclaim" is just that preference
        converging.  A churn departure keeps the disk, so rejoining with
        copies intact moves nothing; only post-crash rejoins pay pushes.
        Returns the number of pushes charged.
        """
        if not self.config.rebalance_on_join or self.placement is None:
            return 0
        return sum(self._push(push, "rebalance")
                   for push in self.policy.rejoin(int(node)))

    def on_snapshot(self, t: float) -> None:
        """Record a durability sample (and run any configured fetch probes)."""
        s = self.policy.sample(t, self._fetch_probes())
        _obs.record("content.replicas_live", t, s.mean_live_replicas)
        _obs.record("content.availability_ts", t, s.availability)
        _obs.gauge("content.availability", s.availability)
        _obs.gauge("content.objects_degraded", s.n_degraded)
        _obs.gauge("content.objects_lost", s.n_lost)
        _obs.event(
            "content.snapshot", t=t, availability=s.availability,
            mean_live=s.mean_live_replicas, degraded=s.n_degraded,
            lost=s.n_lost,
        )

    # ------------------------------------------------------------------
    # Fetch with read-repair
    # ------------------------------------------------------------------

    def fetch(self, source: int, key: int) -> Optional[bytes]:
        """Fetch ``key`` from the live holder nearest to ``source``.

        Returns the verified object bytes, or None when no live holder is
        reachable within ``fetch_ttl`` hops on the online overlay.  A hit
        records BFS hop count under ``content.fetch_s`` (virtual "seconds"
        — the live plane records wall time under the same name) and, with
        ``read_repair`` on, restores the live replica count to ``k``.
        """
        self.stats["fetch.requests"] += 1
        _obs.count("content.fetch.requests")
        serving, hops = self._locate(source, key)
        if serving is None:
            self.stats["fetch.failures"] += 1
            _obs.count("content.fetch.failures")
            _obs.event("content.fetch", key=key, source=source, hit=False)
            return None
        data = self.stores[serving].get_object(key)
        self.stats["fetch.hits"] += 1
        _obs.count("content.fetch.hits")
        # True hop count: source-local hits land in the histogram's
        # dedicated zero bucket instead of masquerading as 1-hop fetches.
        _obs.quantile("content.fetch_s", float(hops))
        _obs.event(
            "content.fetch", key=key, source=source, hit=True,
            serving=serving, hops=hops,
        )
        if self.config.read_repair:
            push = self.policy.repair(key, serving)
            if push is not None and self._push(push, "repair"):
                _obs.count("content.repair.objects")
        return data

    def _locate(self, source: int, key: int) -> Tuple[Optional[int], int]:
        """Nearest live holder of ``key`` by BFS hops from ``source``.

        Ties at equal distance break toward the lowest node id.  Returns
        ``(None, -1)`` when nothing is reachable within ``fetch_ttl``.
        """
        churn = self._churn
        online = churn.online
        if not online[source]:
            return None, -1
        live = set(self.policy.live_holders(key))
        if source in live:
            return source, 0
        adj = churn.builder.adj
        seen = {source}
        frontier = [source]
        for hops in range(1, self.config.fetch_ttl + 1):
            nxt: List[int] = []
            found: List[int] = []
            for u in frontier:
                for v in sorted(adj.neighbors(u)):
                    if v in seen or not online[v]:
                        continue
                    seen.add(v)
                    nxt.append(v)
                    if v in live:
                        found.append(v)
            if found:
                return min(found), hops
            if not nxt:
                break
            frontier = nxt
        return None, -1

    # ------------------------------------------------------------------
    # Healing
    # ------------------------------------------------------------------

    def heal(self) -> int:
        """One healing sweep: restore (or trim to) ``k`` live replicas.

        Applies :meth:`ReplicationPolicy.sweep`'s decisions in order.
        Objects with only offline copies wait — they may churn back; only
        an empty holder set is a permanent loss, counted once under
        ``objects_lost``.  Returns the number of pushes made.
        """
        _obs.count("content.heal.ticks")
        pushes = 0
        for decision in self.policy.sweep():
            if isinstance(decision, Push):
                pushes += self._push(decision, "heal")
            elif isinstance(decision, Trim):
                for node in decision.nodes:
                    self.stores[node].drop_object(decision.key)
                    self._holders[decision.key].discard(node)
                    self.stats["heal.trims"] += 1
                    _obs.count("content.heal.trims")
            else:
                _obs.count("content.heal.objects_lost")
                _obs.event("content.lost", key=decision.key)
        return pushes

    def _heal_tick(self, sim) -> None:
        self.heal()
        sim.schedule(self.config.heal_interval, self._heal_tick, label="heal")

    def _push(self, push: Push, kind: str) -> int:
        """Write ``push.need`` copies, charged to ``kind``; returns pushes."""
        obj = self.objects[push.key]
        pushed = 0
        for target in push.candidates:
            self._store(target, obj)
            pushed += 1
            self.stats[f"{kind}.pushes"] += 1
            self.stats[f"{kind}.bytes"] += obj.size
            _obs.count(f"content.{kind}.pushes")
            _obs.count(f"content.{kind}.bytes", obj.size)
            _obs.event(
                f"content.{kind}", key=push.key, source=push.source,
                target=target, size=obj.size,
            )
            if pushed == push.need:
                break
        return pushed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def durability_report(self) -> DurabilityReport:
        """Summarize the run: final census, extremes, traffic ledger."""
        return self.policy.report()

    def live_replica_count(self, key: int) -> int:
        """Number of online nodes currently holding ``key``."""
        return len(self.policy.live_holders(key))

    # ------------------------------------------------------------------
    # The policy's view of the simulated world (HolderView)
    # ------------------------------------------------------------------

    def holders(self, key: int) -> Set[int]:
        """All nodes (online or not) holding a complete copy of ``key``."""
        return set(self._holders[key])

    def is_live(self, node: int) -> bool:
        """Whether ``node`` is online in the churn simulation."""
        return bool(self._churn.online[node])

    def n_live(self) -> int:
        """Number of online nodes."""
        return int(np.count_nonzero(self._churn.online))

    def neighbors(self, node: int) -> Iterable[int]:
        """``node``'s current overlay neighbours."""
        return self._churn.builder.adj.neighbors(node)

    @property
    def n_nodes(self) -> int:
        """Population size (offline nodes included)."""
        return self._churn.builder.n_nodes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _store(self, node: int, obj: ContentObject) -> None:
        self.stores[node].put_object(obj.manifest, obj.chunks)
        self._holders[obj.key].add(node)

    def _fetch_probes(self) -> float:
        """Seeded end-to-end fetch probes (content child stream only)."""
        cfg = self.config
        if cfg.fetch_probes == 0:
            return float("nan")
        rng = self._churn._content_rng
        online_ids = np.flatnonzero(self._churn.online)
        if online_ids.size == 0:
            return 0.0
        keys = list(self.objects)
        hits = 0
        for _ in range(cfg.fetch_probes):
            source = int(online_ids[rng.integers(0, online_ids.size)])
            key = keys[int(rng.integers(0, len(keys)))]
            if self.fetch(source, key) is not None:
                hits += 1
        return hits / cfg.fetch_probes
