"""Fault scenarios: the declarative layer of the fault-injection engine.

A :class:`FaultScenario` is a deterministic, seed-independent *description*
of what goes wrong and when — correlated node crashes, message-loss
windows, latency spikes, network partitions with scheduled heals, and
stale-neighbor-view injection.  The :class:`~repro.faults.injector.FaultInjector`
turns a scenario into concrete events on a live
:class:`~repro.sim.churn.ChurnSimulation`; all randomness (which nodes
crash under ``random`` mode, which side of a partition a node lands on,
the loss-stream keys) derives from the simulation's seed, so the same
``(scenario, seed)`` pair replays bit-identically.

Scenarios round-trip through JSON (``schemas/fault_scenario.schema.json``
documents the format) and a few named builtins ship in
:data:`BUILTIN_SCENARIOS` for the CLI (``repro faults list``).  Times are
absolute virtual times on the churn simulator's clock; a loss window or
latency spike with ``end: null`` stays active until the run finishes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.obs.report import UnsupportedSchemaError
from repro.util.validation import check_probability

#: Format version written by :meth:`FaultScenario.to_dict`; loading a file
#: announcing a *newer* version raises :class:`UnsupportedSchemaError`
#: (the CLI turns that into a one-line error and a nonzero exit).
SCENARIO_SCHEMA_VERSION = 1

CRASH_MODES = ("top-degree", "random", "stub-correlated")
PARTITION_MODES = ("random", "stub")


def _check_time(name: str, value: float) -> float:
    value = float(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class CrashEvent:
    """Correlated node crashes at one instant.

    ``top-degree`` kills the currently best-connected online nodes (the
    paper's worst case), ``random`` a uniform sample, and
    ``stub-correlated`` whole stub domains of a transit-stub substrate
    (modeling access-network outages) until ``fraction`` of the population
    is down.  With ``rejoin`` the victims re-enter through the normal
    churn loop after exponential offline periods; without it the crash is
    the paper's non-recoverable kind.
    """

    time: float
    fraction: float
    mode: str = "top-degree"
    rejoin: bool = True

    def __post_init__(self):
        _check_time("crash time", self.time)
        check_probability("crash fraction", self.fraction)
        if self.mode not in CRASH_MODES:
            raise ValueError(
                f"crash mode must be one of {CRASH_MODES}, got {self.mode!r}"
            )


def pick_crash_victims(
    mode: str, k: int, ids: Sequence[int],
    degree_of: Callable[[int], int], rng: np.random.Generator,
) -> np.ndarray:
    """The ``k`` victims a ``top-degree`` or ``random`` crash takes.

    ``ids`` are the candidates (the nodes up right now), ascending.
    ``top-degree`` ranks them by ``degree_of`` descending, ties toward
    the lower id, and consumes no randomness; ``random`` is one
    ``rng.choice`` without replacement, returned in draw order.  The one
    victim rule of the simulator's injector and the live churn driver —
    ``stub-correlated`` needs a transit-stub substrate and stays with the
    injector.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if mode == "top-degree":
        degs = np.array([degree_of(int(u)) for u in ids])
        return ids[np.argsort(-degs, kind="stable")[:k]]
    if mode == "random":
        return rng.choice(ids, size=k, replace=False)
    raise ValueError(f"no substrate-free victim rule for mode {mode!r}")


@dataclass(frozen=True)
class LossWindow:
    """Per-message loss at ``rate`` between ``start`` and ``end``."""

    start: float
    rate: float
    end: Optional[float] = None

    def __post_init__(self):
        _check_time("loss window start", self.start)
        check_probability("loss rate", self.rate)
        if self.end is not None and float(self.end) <= self.start:
            raise ValueError(
                f"loss window end ({self.end}) must be after start ({self.start})"
            )


@dataclass(frozen=True)
class LatencySpike:
    """Physical latencies inflated by ``factor`` between ``start`` and ``end``."""

    start: float
    factor: float
    end: Optional[float] = None

    def __post_init__(self):
        _check_time("latency spike start", self.start)
        if self.factor <= 0:
            raise ValueError(f"latency factor must be > 0, got {self.factor}")
        if self.end is not None and float(self.end) <= self.start:
            raise ValueError(
                f"latency spike end ({self.end}) must be after start ({self.start})"
            )


@dataclass(frozen=True)
class PartitionEvent:
    """A network partition at ``time``, healed at ``heal_time``.

    ``random`` assigns each node to the minority side independently with
    probability ``fraction``; ``stub`` cuts along stub-domain boundaries
    of a transit-stub substrate (whole domains land on one side).  While
    partitioned, every overlay edge crossing the cut is severed and no
    new cross-cut connection can form; at heal time the restriction lifts
    and under-capacity nodes run reconnection passes.
    """

    time: float
    heal_time: float
    fraction: float = 0.5
    mode: str = "random"

    def __post_init__(self):
        _check_time("partition time", self.time)
        check_probability("partition fraction", self.fraction)
        if float(self.heal_time) <= self.time:
            raise ValueError(
                f"heal_time ({self.heal_time}) must be after the partition "
                f"({self.time})"
            )
        if self.mode not in PARTITION_MODES:
            raise ValueError(
                f"partition mode must be one of {PARTITION_MODES}, "
                f"got {self.mode!r}"
            )


@dataclass(frozen=True)
class StaleViewEvent:
    """Poison a fraction of online nodes' host caches with dead peers.

    Models the stale-neighbor-view regime: affected nodes' next bootstrap
    sees a cache dominated by departed peers, so recovery must pay probe
    costs (and possibly fall back) before re-acquiring live neighbors.
    Requires the simulation to run with host caches enabled; otherwise the
    event is recorded as skipped.
    """

    time: float
    fraction: float = 0.5

    def __post_init__(self):
        _check_time("stale view time", self.time)
        check_probability("stale view fraction", self.fraction)


@dataclass(frozen=True)
class FaultScenario:
    """A composed fault schedule (see module docstring)."""

    name: str = "custom"
    description: str = ""
    crashes: tuple[CrashEvent, ...] = ()
    loss_windows: tuple[LossWindow, ...] = ()
    latency_spikes: tuple[LatencySpike, ...] = ()
    partitions: tuple[PartitionEvent, ...] = ()
    stale_views: tuple[StaleViewEvent, ...] = ()

    def __post_init__(self):
        # Overlapping partitions would need a multi-way cut model; keep the
        # engine honest by rejecting them up front.
        spans = sorted((p.time, p.heal_time) for p in self.partitions)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            if start_b < end_a:
                raise ValueError(
                    "partitions overlap; heal one before starting the next"
                )

    @property
    def n_events(self) -> int:
        """Total scheduled fault events (loss/latency windows count once)."""
        return (
            len(self.crashes) + len(self.loss_windows)
            + len(self.latency_spikes) + len(self.partitions)
            + len(self.stale_views)
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form, loadable by :meth:`from_dict`."""
        return {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "crashes": [
                {"time": c.time, "fraction": c.fraction, "mode": c.mode,
                 "rejoin": c.rejoin}
                for c in self.crashes
            ],
            "loss_windows": [
                {"start": w.start, "end": w.end, "rate": w.rate}
                for w in self.loss_windows
            ],
            "latency_spikes": [
                {"start": s.start, "end": s.end, "factor": s.factor}
                for s in self.latency_spikes
            ],
            "partitions": [
                {"time": p.time, "heal_time": p.heal_time,
                 "fraction": p.fraction, "mode": p.mode}
                for p in self.partitions
            ],
            "stale_views": [
                {"time": s.time, "fraction": s.fraction}
                for s in self.stale_views
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultScenario":
        """Parse and validate a scenario document."""
        if not isinstance(doc, dict):
            raise ValueError("fault scenario must be a JSON object")
        version = doc.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"bad scenario schema_version: {version!r}")
        if version > SCENARIO_SCHEMA_VERSION:
            raise UnsupportedSchemaError(
                f"fault scenario schema_version {version} is newer than the "
                f"supported version {SCENARIO_SCHEMA_VERSION}; upgrade repro "
                f"to read this file"
            )
        known = {
            "schema_version", "name", "description", "crashes",
            "loss_windows", "latency_spikes", "partitions", "stale_views",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown fault scenario keys: {unknown}")

        def rows(key):
            body = doc.get(key, [])
            if not isinstance(body, list):
                raise ValueError(f"scenario {key!r} must be a list")
            for i, row in enumerate(body):
                if not isinstance(row, dict):
                    raise ValueError(f"scenario {key}[{i}] must be an object")
            return body

        return cls(
            name=str(doc.get("name", "custom")),
            description=str(doc.get("description", "")),
            crashes=tuple(CrashEvent(**r) for r in rows("crashes")),
            loss_windows=tuple(LossWindow(**r) for r in rows("loss_windows")),
            latency_spikes=tuple(
                LatencySpike(**r) for r in rows("latency_spikes")
            ),
            partitions=tuple(PartitionEvent(**r) for r in rows("partitions")),
            stale_views=tuple(StaleViewEvent(**r) for r in rows("stale_views")),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultScenario":
        """Load a scenario JSON file."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(doc)

    def write(self, path: str) -> None:
        """Write the scenario as pretty-printed JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


#: Named scenarios available to ``repro faults run`` / ``repro churn
#: --faults`` without a file.  Times assume the CLI's default 150-unit run.
BUILTIN_SCENARIOS: dict[str, FaultScenario] = {
    "paper-live-failures": FaultScenario(
        name="paper-live-failures",
        description=(
            "The paper's worst case, live: 20% top-degree crash at t=40 "
            "under 5% message loss, plus one partition/heal cycle "
            "(t=70..100) — recovery enabled instead of frozen snapshots"
        ),
        crashes=(CrashEvent(time=40.0, fraction=0.20, mode="top-degree"),),
        loss_windows=(LossWindow(start=0.0, end=None, rate=0.05),),
        partitions=(
            PartitionEvent(time=70.0, heal_time=100.0, fraction=0.5,
                           mode="random"),
        ),
    ),
    "partition-heal": FaultScenario(
        name="partition-heal",
        description=(
            "One clean random bisection at t=30 healed at t=70; isolates "
            "the sever/repair/reconnect path (the CI smoke scenario)"
        ),
        partitions=(
            PartitionEvent(time=30.0, heal_time=70.0, fraction=0.5,
                           mode="random"),
        ),
    ),
    "lossy-network": FaultScenario(
        name="lossy-network",
        description=(
            "10% message loss for the whole run with a 3x latency spike "
            "t=50..90; no crashes — stresses search under degraded links"
        ),
        loss_windows=(LossWindow(start=0.0, end=None, rate=0.10),),
        latency_spikes=(LatencySpike(start=50.0, end=90.0, factor=3.0),),
    ),
    "stub-outage": FaultScenario(
        name="stub-outage",
        description=(
            "Access-network outage: stub-domain-correlated crashes taking "
            "~25% of nodes at t=40 with stale-view poisoning at t=45 "
            "(requires --model transit-stub and host caches)"
        ),
        crashes=(
            CrashEvent(time=40.0, fraction=0.25, mode="stub-correlated"),
        ),
        stale_views=(StaleViewEvent(time=45.0, fraction=0.5),),
    ),
}


def load_scenario(name_or_path: str) -> FaultScenario:
    """Resolve a CLI scenario argument: builtin name first, then file path."""
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path]
    if not os.path.exists(name_or_path) and os.sep not in name_or_path:
        names = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(
            f"unknown fault scenario {name_or_path!r}: not a builtin "
            f"({names}) and no such file"
        )
    return FaultScenario.from_file(name_or_path)
