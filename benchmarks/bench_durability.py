#!/usr/bin/env python
"""Content durability under injected faults: healing on vs healing off.

Runs the canonical :func:`repro.content.experiment.run_durability`
experiment in three arms sharing one seed (so the churn and fault
trajectories are identical and only the content plane's response
differs):

* ``plf-heal-on`` — ``paper-live-failures`` (20% top-degree crash, 5%
  loss, a partition/heal cycle) with healing and read-repair on.  The
  headline availability gate: the plane must hold ``--min-availability``
  (default 99%) of objects fetchable at every sample.
* ``hub-heal-on`` / ``hub-heal-off`` — the negative control: a 2-wave
  40% targeted hub failure (:func:`hub_failure_scenario`).  Healing-off
  must *measurably lose objects* — strictly more than healing-on and
  more than zero — or the claim did not reproduce.

Outputs:

* run history appended to ``BENCH_durability.json`` (same accumulating
  ``{"schema_version": 2, "runs": [...]}`` layout as the other benches);
* with ``--metrics-json``, a schema-v3 metrics snapshot carrying
  ``durability.<arm>.*`` gauges (availability, objects lost/degraded,
  heal/repair traffic) — the artifact CI diffs against
  ``benchmarks/results/baseline_durability_snapshot.json`` with
  ``repro obs diff --fail-on-regression``.

The bench **fails** (exit 1) when the durability claim does not
reproduce: healing-on availability under the floor, healing-on losing
objects under ``paper-live-failures``, or the negative control failing
to separate the arms.

Usage::

    PYTHONPATH=src python benchmarks/bench_durability.py \
        [--nodes 120] [--objects 100] [--duration 150] \
        [--out BENCH_durability.json] [--metrics-json PATH]
"""

from __future__ import annotations

import argparse
import datetime
import os
import socket
import sys
import time

from _report import append_run, git_sha

from repro import obs
from repro.content.experiment import (
    hub_failure_scenario,
    run_durability,
)

EXPERIMENT_SEED = 7300


def run_arm(name: str, args, scenario, heal: bool) -> dict:
    """One durability arm; gauges land under ``durability.<name>.*``."""
    t0 = time.perf_counter()
    result = run_durability(
        n_nodes=args.nodes, n_objects=args.objects, duration=args.duration,
        seed=EXPERIMENT_SEED, scenario=scenario, k=args.k,
        heal_enabled=heal, read_repair=heal, rebalance_on_join=heal,
        fetch_probes=args.fetch_probes,
    )
    wall = time.perf_counter() - t0
    r = result.report
    prefix = f"durability.{name}"
    obs.gauge(f"{prefix}.availability", r.availability)
    obs.gauge(f"{prefix}.min_availability", r.min_availability)
    obs.gauge(f"{prefix}.objects_lost", float(r.objects_lost))
    obs.gauge(f"{prefix}.objects_degraded", float(r.objects_degraded))
    obs.gauge(f"{prefix}.heal_pushes", float(r.heal_pushes))
    obs.gauge(f"{prefix}.heal_bytes", float(r.heal_bytes))
    obs.gauge(f"{prefix}.repair_pushes", float(r.repair_pushes))
    obs.gauge(f"{prefix}.bytes_placed", float(r.bytes_placed))
    print(f"  {name:12s} avail {r.availability:.4f} "
          f"(min {r.min_availability:.4f})  lost {r.objects_lost:3d}  "
          f"degraded {r.objects_degraded:3d}  "
          f"heal {r.heal_pushes}p/{r.heal_bytes}B  "
          f"repair {r.repair_pushes}p  ({wall:.1f}s wall)", flush=True)
    return {
        "scenario": result.scenario,
        "heal": heal,
        "availability": round(r.availability, 4),
        "min_availability": round(r.min_availability, 4),
        "objects_lost": r.objects_lost,
        "objects_degraded": r.objects_degraded,
        "heal_pushes": r.heal_pushes,
        "heal_bytes": r.heal_bytes,
        "heal_trims": r.heal_trims,
        "repair_pushes": r.repair_pushes,
        "repair_bytes": r.repair_bytes,
        "bytes_placed": r.bytes_placed,
        "wall_s": round(wall, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=120,
                        help="overlay size (default: %(default)s)")
    parser.add_argument("--objects", type=int, default=100,
                        help="corpus size (default: %(default)s)")
    parser.add_argument("--duration", type=float, default=150.0,
                        help="virtual seconds per arm (default: %(default)s)")
    parser.add_argument("--k", type=int, default=3,
                        help="target replicas per object "
                             "(default: %(default)s)")
    parser.add_argument("--fetch-probes", type=int, default=8,
                        help="fetch probes per snapshot "
                             "(default: %(default)s)")
    parser.add_argument("--min-availability", type=float, default=0.99,
                        help="least healing-on availability under "
                             "paper-live-failures that counts as "
                             "reproducing the claim (default: %(default)s)")
    parser.add_argument("--out", default="BENCH_durability.json",
                        help="run-history JSON path (default: %(default)s)")
    parser.add_argument("--metrics-json", default=None,
                        help="write the schema-v3 metrics snapshot "
                             "(durability.* gauges) to PATH")
    args = parser.parse_args(argv)

    print(f"durability bench: {args.nodes} nodes, {args.objects} objects, "
          f"k={args.k}, {args.duration:g}s virtual, seed {EXPERIMENT_SEED}",
          flush=True)

    session = obs.configure()
    arms = {
        "plf_heal_on": run_arm(
            "plf_heal_on", args, "paper-live-failures", heal=True),
        "hub_heal_on": run_arm(
            "hub_heal_on", args, hub_failure_scenario(), heal=True),
        "hub_heal_off": run_arm(
            "hub_heal_off", args, hub_failure_scenario(), heal=False),
    }
    lost_on = arms["hub_heal_on"]["objects_lost"]
    lost_off = arms["hub_heal_off"]["objects_lost"]
    obs.gauge("durability.hub_lost_delta", float(lost_off - lost_on))
    obs.disable()

    print(f"  negative control: healing-off lost {lost_off} vs "
          f"healing-on {lost_on} under repeated 40% hub failure")

    if args.metrics_json:
        session.metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {args.metrics_json}")

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(),
        "config": {
            "benchmark": "content durability: healing on vs off",
            "n_nodes": args.nodes,
            "n_objects": args.objects,
            "duration_s": args.duration,
            "k": args.k,
            "fetch_probes": args.fetch_probes,
            "seed": EXPERIMENT_SEED,
        },
        "host": {"cpu_count": os.cpu_count(), "name": socket.gethostname()},
        "arms": arms,
        "hub_lost_delta": lost_off - lost_on,
    }
    history = append_run(args.out, record)
    print(f"appended run {len(history['runs'])} to {args.out}")

    failed = False
    plf = arms["plf_heal_on"]
    if plf["availability"] < args.min_availability:
        print(f"FAIL: healing-on availability {plf['availability']:.4f} "
              f"under paper-live-failures "
              f"(claim needs >= {args.min_availability:g})", file=sys.stderr)
        failed = True
    if plf["objects_lost"] > 0:
        print(f"FAIL: healing-on lost {plf['objects_lost']} objects under "
              f"paper-live-failures (claim needs 0)", file=sys.stderr)
        failed = True
    if lost_off == 0:
        print("FAIL: healing-off lost nothing under repeated 40% hub "
              "failure — the negative control has no teeth", file=sys.stderr)
        failed = True
    if lost_off <= lost_on:
        print(f"FAIL: healing-off lost {lost_off} <= healing-on {lost_on} "
              f"— healing shows no durability benefit", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"claim reproduced: healing holds "
          f"{100 * plf['availability']:.1f}% availability under "
          f"paper-live-failures; without healing, repeated hub failure "
          f"loses {lost_off} objects vs {lost_on}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
