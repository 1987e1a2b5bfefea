"""Live fault injection: deterministic scenarios over the churn simulator.

Layers (bottom-up):

* :mod:`repro.faults.hashing` — counter-based message-loss randomness,
  pure functions of message coordinates so every execution strategy
  (scalar, batch, multi-process) drops the same messages;
* :mod:`repro.faults.link` — :class:`LinkFaults`, the per-query loss /
  latency environment the search kernels consume;
* :mod:`repro.faults.scenario` — :class:`FaultScenario`, the declarative
  JSON-round-trippable schedule of crashes, partitions, loss windows,
  latency spikes and stale views (plus named builtins);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which plays a
  scenario against a live :class:`~repro.sim.churn.ChurnSimulation`.

Recovery (retry with exponential backoff, bounded host-cache fallback)
lives with the rest of the protocol maintenance in
:mod:`repro.core.maintenance` (:class:`~repro.core.maintenance.RecoveryPolicy`).
"""

from repro.faults.hashing import message_hash, rate_threshold
from repro.faults.injector import FaultInjector
from repro.faults.link import LinkFaults
from repro.faults.scenario import (
    BUILTIN_SCENARIOS,
    SCENARIO_SCHEMA_VERSION,
    CrashEvent,
    FaultScenario,
    LatencySpike,
    LossWindow,
    PartitionEvent,
    StaleViewEvent,
    load_scenario,
    pick_crash_victims,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "SCENARIO_SCHEMA_VERSION",
    "CrashEvent",
    "FaultInjector",
    "FaultScenario",
    "LatencySpike",
    "LinkFaults",
    "LossWindow",
    "PartitionEvent",
    "StaleViewEvent",
    "load_scenario",
    "message_hash",
    "pick_crash_victims",
    "rate_threshold",
]
