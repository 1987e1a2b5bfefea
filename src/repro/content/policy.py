"""The replication policy: every content-plane decision, in one place.

Both content planes — :class:`~repro.content.plane.ContentPlane` on the
churn simulator and :class:`~repro.content.live.LiveContent` over real
TCP peers — are *executors* of the one :class:`ReplicationPolicy` defined
here.  An executor answers four questions about the world (the
:class:`HolderView` protocol: who holds a copy, who is live, how many are
live, who are a node's neighbours), applies the decisions the policy
hands back (a store write in the simulator; a wire push, a settle and a
"did it land" check in the live plane) and counts what it applied.  The
policy decides, and keeps the ledger.

The rules, each defined exactly once:

* **Sweep** (:meth:`ReplicationPolicy.sweep`), per placed object: no copy
  anywhere → lost, reported once; copies but none live → wait (they may
  come back); fewer live copies than ``min(k, n_live)`` → push from the
  lowest-id live holder; more → trim.
* **Push candidates**: the source's neighbours ascending, then every id
  ascending, skipping holders and dead nodes — an ordered *stream* plus
  the number of copies still needed, so an executor whose push can fail
  simply takes the next candidate.
* **Trim keep-order**: placed holders first, then ascending id, so a
  trimmed object converges back onto its placement.
* **Rejoin worklist** (:meth:`ReplicationPolicy.rejoin`): the keys placed
  on the node minus those its disk still has, each from the lowest-id
  live holder.
* **Census and report**: availability, mean live replicas, degraded /
  unavailable / lost, and the end-of-run :class:`DurabilityReport`.

The simulator's dark offline copies and the live plane's "a stopped
peer's copies are gone" are the same rules over different views: the
simulator's view lists every disk (online or not), the live view only
running peers.

Everything here is synchronous, consumes no randomness and does no I/O;
decisions are generated lazily, so each one reads the view as the
previously applied decisions left it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain
from typing import (TYPE_CHECKING, Collection, Dict, Iterable, Iterator, List,
                    Optional, Protocol, Sequence, Set, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.content.placement import ContentPlacement

#: The ledger's key catalogue, shared by both planes.  The policy charges
#: what it alone decides (``heal.ticks``, ``objects_lost``); executors
#: charge what they applied.  ``crash_wipes``/``replicas_wiped`` stay 0 on
#: the live plane, where ``LiveOverlay.kill_peer`` wipes the store itself.
STAT_KEYS = (
    "objects_placed", "replicas_placed", "bytes_placed",
    "crash_wipes", "replicas_wiped",
    "fetch.requests", "fetch.hits", "fetch.failures",
    "repair.pushes", "repair.bytes",
    "rebalance.pushes", "rebalance.bytes",
    "heal.ticks", "heal.pushes", "heal.bytes", "heal.trims",
    "objects_lost",
)


class HolderView(Protocol):
    """What an executor tells the policy about the world."""

    n_nodes: int

    def holders(self, key: int) -> Collection[int]:
        """Nodes whose complete copy of ``key`` still exists."""

    def is_live(self, node: int) -> bool:
        """Whether ``node`` is up right now."""

    def n_live(self) -> int:
        """How many nodes are up right now."""

    def neighbors(self, node: int) -> Iterable[int]:
        """Current overlay neighbours of ``node``."""


@dataclass(frozen=True)
class Lost:
    """``key`` has no copy left anywhere (reported once per object)."""

    key: int


@dataclass(frozen=True)
class Push:
    """Copy ``key`` from ``source`` onto ``need`` of ``candidates``.

    Candidates come in preference order; one that cannot be written is
    skipped for the next.
    """

    key: int
    source: int
    need: int
    candidates: Iterable[int]


@dataclass(frozen=True)
class Trim:
    """Drop the surplus copies of ``key`` held by ``nodes`` (ascending)."""

    key: int
    nodes: Tuple[int, ...]


@dataclass(frozen=True)
class DurabilitySample:
    """Replica health at one snapshot instant."""

    time: float
    availability: float
    mean_live_replicas: float
    n_degraded: int
    n_unavailable: int
    n_lost: int
    fetch_success: float = float("nan")


@dataclass(frozen=True)
class DurabilityReport:
    """End-of-run durability summary (the Table-2-style traffic ledger)."""

    n_objects: int
    k: int
    availability: float
    min_availability: float
    mean_live_replicas: float
    objects_lost: int
    objects_degraded: int
    heal_ticks: int
    heal_pushes: int
    heal_bytes: int
    heal_trims: int
    repair_pushes: int
    repair_bytes: int
    fetch_requests: int
    fetch_hits: int
    bytes_placed: int
    rebalance_pushes: int = 0
    rebalance_bytes: int = 0

    def to_dict(self) -> dict:
        """Plain-JSON form for CLI/bench reports."""
        return dataclasses.asdict(self)


class ReplicationPolicy:
    """Replication decisions and ledger for one corpus over one view.

    ``keys`` is the corpus in census order; ``placement`` (assigned once
    the executor has one) supplies the sweep order, the placed holders
    the trim prefers and the rejoin worklist.
    """

    def __init__(self, view: HolderView, k: int, keys: Sequence[int],
                 placement: Optional["ContentPlacement"] = None):
        self.view = view
        self.k = k
        self.keys = tuple(keys)
        self.placement = placement
        self.stats: Dict[str, int] = dict.fromkeys(STAT_KEYS, 0)
        self.samples: List[DurabilitySample] = []
        self._lost: Set[int] = set()

    # ------------------------------------------------------------------
    # Holder arithmetic
    # ------------------------------------------------------------------

    def live_holders(self, key: int) -> List[int]:
        """Live nodes holding ``key``, ascending."""
        return self._live(self.view.holders(key))

    def _live(self, holders: Collection[int]) -> List[int]:
        return sorted(filter(self.view.is_live, holders))

    def target(self) -> int:
        """Live replicas every object should have: ``min(k, n_live)``."""
        return min(self.k, self.view.n_live())

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def sweep(self) -> Iterator[Union[Lost, Push, Trim]]:
        """One healing pass over every placed object (see module doc)."""
        self.stats["heal.ticks"] += 1
        want = self.target()
        for key in self.placement.object_keys:
            holders = self.view.holders(key)
            if not holders:
                if key not in self._lost:
                    self._lost.add(key)
                    self.stats["objects_lost"] += 1
                    yield Lost(key)
                continue
            live = self._live(holders)
            if not live:
                continue  # only dark copies; nothing to push from yet
            if len(live) < want:
                yield self._push(key, live[0], holders, want - len(live))
            elif len(live) > want:
                placed = set(self.placement.replicas(key))
                keep = sorted(live, key=lambda n: (n not in placed, n))[:want]
                yield Trim(key, tuple(sorted(set(live) - set(keep))))

    def repair(self, key: int, serving: int) -> Optional[Push]:
        """Read-repair after ``serving`` answered a fetch of ``key``."""
        holders = self.view.holders(key)
        need = self.target() - len(self._live(holders))
        return self._push(key, serving, holders, need) if need > 0 else None

    def rejoin(self, node: int) -> Iterator[Push]:
        """Pushes restoring what ``node``'s disk lost while it was away.

        A key whose copy survived (a churn departure keeps the disk)
        moves nothing; one with no live source is left to the sweep,
        which accounts the loss.
        """
        for key in self.placement.keys_placed_on(node):
            holders = self.view.holders(key)
            if node in holders:
                continue
            live = self._live(holders)
            if live:
                yield Push(key, live[0], 1, (node,))

    def _push(self, key: int, source: int, holders: Collection[int],
              need: int) -> Push:
        view = self.view
        skip = set(holders)
        skip.add(source)
        nbrs = sorted(int(v) for v in view.neighbors(source))
        near = set(nbrs)
        rest = (u for u in range(view.n_nodes) if u not in near)
        return Push(key, source, need, (
            u for u in chain(nbrs, rest)
            if u not in skip and view.is_live(u)
        ))

    # ------------------------------------------------------------------
    # Census and report
    # ------------------------------------------------------------------

    def census(self) -> Tuple[float, float, int, int, int]:
        """(availability, mean live replicas, degraded, unavailable, lost).

        *Unavailable* objects have copies but none live; *lost* ones have
        no copy at all.
        """
        live_total = available = degraded = unavailable = lost = 0
        for key in self.keys:
            holders = self.view.holders(key)
            live = len(self._live(holders))
            live_total += live
            if live:
                available += 1
                if live < self.k:
                    degraded += 1
            elif holders:
                unavailable += 1
            else:
                lost += 1
        n = len(self.keys)
        return available / n, live_total / n, degraded, unavailable, lost

    def sample(self, t: float,
               fetch_success: float = float("nan")) -> DurabilitySample:
        """Census the corpus at time ``t`` and keep the sample."""
        avail, mean_live, degraded, unavailable, lost = self.census()
        sample = DurabilitySample(
            time=t, availability=avail, mean_live_replicas=mean_live,
            n_degraded=degraded, n_unavailable=unavailable, n_lost=lost,
            fetch_success=fetch_success,
        )
        self.samples.append(sample)
        return sample

    def report(self) -> DurabilityReport:
        """Final census, availability floor and the traffic ledger."""
        avail, mean_live, degraded, _, lost = self.census()
        s = self.stats
        return DurabilityReport(
            n_objects=len(self.keys), k=self.k,
            availability=avail,
            min_availability=min(
                [avail, *(x.availability for x in self.samples)]),
            mean_live_replicas=mean_live,
            objects_lost=lost, objects_degraded=degraded,
            heal_ticks=s["heal.ticks"], heal_pushes=s["heal.pushes"],
            heal_bytes=s["heal.bytes"], heal_trims=s["heal.trims"],
            repair_pushes=s["repair.pushes"], repair_bytes=s["repair.bytes"],
            fetch_requests=s["fetch.requests"], fetch_hits=s["fetch.hits"],
            bytes_placed=s["bytes_placed"],
            rebalance_pushes=s["rebalance.pushes"],
            rebalance_bytes=s["rebalance.bytes"],
        )
