#!/usr/bin/env python
"""Wall-time benchmark for Makalu construction and repair engines.

Times the two refinement engines on the identical workload — same
substrate, same seeds, same failure schedule — across the phases of an
overlay's life:

* ``sequential`` — the default builder: the per-node protocol replay,
  scalar ``rate_neighbors`` on every Manage() decision;
* ``batch`` — vectorized synchronous refinement rounds
  (``refine_mode="batch"``, :mod:`repro.core.batch_refine`).  Batch
  overlays differ edge-for-edge (different RNG consumption), so this arm
  is gated on structural health: mean degree within 5% of
  ``sequential``, one giant component, and comparable algebraic
  connectivity.

Phases per arm: **join** (all nodes bootstrap), **refine**
(``refinement_rounds`` management rounds), **fill** (under-capacity
top-up), **repair** (a schedule of sequential single-node failure events,
each followed by survivor recovery via ``repair_after_failure``).

Results are *appended* to the run history in ``BENCH_build.json``
(``{"schema_version": 2, "runs": [...]}`` — the accumulating layout of
``_report.append_run``, understood by ``repro obs diff`` and
``repro obs report``).  Each record carries wall times per phase and arm,
``speedup_vs_scalar`` ratios (the sequential arm is the scalar
reference; ``build_batch`` is the end-to-end join+refine+fill ratio),
and the health metrics of both arms.

Usage::

    PYTHONPATH=src python benchmarks/bench_build.py \
        [--nodes 3000] [--failures 120] [--out BENCH_build.json] \
        [--no-spectral] [--metrics-json PATH]
"""

from __future__ import annotations

import argparse
import datetime
import os
import socket
import sys
import time

import numpy as np

from _report import append_run, git_sha

from repro import obs
from repro.analysis import algebraic_connectivity
from repro.core.maintenance import repair_after_failure
from repro.core.makalu import MakaluBuilder, MakaluConfig
from repro.netmodel import EuclideanModel

MODEL_SEED, GRAPH_SEED, FAILURE_SEED = 4205, 4305, 4405

ARMS = ("sequential", "batch")


def run_arm(name: str, n_nodes: int, victims: np.ndarray) -> dict:
    """Build + repair under one engine; returns phase times and the graph."""
    model = EuclideanModel(n_nodes, seed=MODEL_SEED)
    config = MakaluConfig(refine_mode=name)
    builder = MakaluBuilder(model=model, config=config, seed=GRAPH_SEED)
    out: dict = {"name": name}

    t0 = time.perf_counter()
    order = builder.rng.permutation(builder.n_nodes)
    for u in order:
        builder.join(int(u))
    builder._drain_repairs(budget=2 * builder.n_nodes)
    t1 = time.perf_counter()
    builder.refine()
    builder._drain_repairs(budget=2 * builder.n_nodes)
    t2 = time.perf_counter()
    builder.fill()
    t3 = time.perf_counter()
    # Health is judged on the completed construction; the repair phase
    # below leaves failed nodes behind as isolated singletons by design.
    out["built_graph"] = builder.adj.freeze()

    # Repair phase: sequential single-node failure events, as churn
    # delivers them.
    t4 = time.perf_counter()
    for v in victims.tolist():
        repair_after_failure(builder, [v], rejoin=True, max_passes=1)
    t5 = time.perf_counter()

    out["join_s"] = t1 - t0
    out["refine_s"] = t2 - t1
    out["fill_s"] = t3 - t2
    out["repair_s"] = t5 - t4
    out["build_s"] = t3 - t0
    return out


def health_of(graph, spectral: bool) -> dict:
    degs = np.diff(graph.indptr)
    n_comp, labels = graph.connected_components()
    giant = float(np.bincount(labels).max() / graph.n_nodes)
    h = {
        "mean_degree": round(float(degs.mean()), 3),
        "min_degree": int(degs.min()),
        "giant_fraction": round(giant, 4),
    }
    if spectral:
        h["lambda2"] = round(algebraic_connectivity(graph), 4)
    return h


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=3000,
                        help="overlay size (default: %(default)s)")
    parser.add_argument("--failures", type=int, default=120,
                        help="single-node failure events in the repair "
                             "phase (default: %(default)s)")
    parser.add_argument("--out", default="BENCH_build.json",
                        help="run-history JSON path (default: %(default)s)")
    parser.add_argument("--no-spectral", action="store_true",
                        help="skip the algebraic-connectivity health check")
    parser.add_argument("--metrics-json", default=None,
                        help="also write the obs metrics snapshot "
                             "(makalu.* counters etc.) to this path")
    args = parser.parse_args(argv)

    session = obs.configure() if args.metrics_json else None
    spectral = not args.no_spectral
    victims = np.random.default_rng(FAILURE_SEED).choice(
        args.nodes, size=min(args.failures, args.nodes // 10), replace=False
    )

    results = {}
    for name in ARMS:
        print(f"running {name:10s} arm (n={args.nodes}, "
              f"{victims.size} failure events) ...", flush=True)
        results[name] = run_arm(name, args.nodes, victims)
        r = results[name]
        print(f"  join {r['join_s']:7.2f}s  refine {r['refine_s']:7.2f}s  "
              f"fill {r['fill_s']:6.2f}s  repair {r['repair_s']:6.2f}s")

    if session is not None:
        obs.disable()
        session.metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {args.metrics_json}")

    health = {name: health_of(r["built_graph"], spectral)
              for name, r in results.items()}
    ref, bat = health["sequential"], health["batch"]
    if abs(bat["mean_degree"] - ref["mean_degree"]) > 0.05 * ref["mean_degree"]:
        print(f"FAIL: batch mean degree {bat['mean_degree']} strays >5% "
              f"from sequential {ref['mean_degree']}", file=sys.stderr)
        return 1
    if bat["giant_fraction"] < 0.999:
        print(f"FAIL: batch overlay fragmented "
              f"(giant={bat['giant_fraction']})", file=sys.stderr)
        return 1
    if spectral and bat["lambda2"] < 0.5 * ref["lambda2"]:
        print(f"FAIL: batch lambda2 {bat['lambda2']} below half of "
              f"sequential {ref['lambda2']}", file=sys.stderr)
        return 1
    print("  batch overlay health matches sequential "
          f"(mean_deg {bat['mean_degree']} vs {ref['mean_degree']})")

    wall = {}
    for name, r in results.items():
        for phase in ("join", "refine", "fill", "repair", "build"):
            wall[f"{phase}_{name}"] = round(1000 * r[f"{phase}_s"], 1)
        wall[f"refine_repair_{name}"] = round(
            1000 * (r["refine_s"] + r["repair_s"]), 1
        )
    speedups = {}
    for phase in ("build", "refine", "repair", "refine_repair"):
        scalar_ms, batch_ms = wall[f"{phase}_sequential"], wall[f"{phase}_batch"]
        if batch_ms > 0:
            speedups[f"{phase}_batch"] = round(scalar_ms / batch_ms, 2)

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(),
        "config": {
            "benchmark": "makalu build/refine/repair engines",
            "n_nodes": args.nodes,
            "failure_events": int(victims.size),
            "spectral": spectral,
        },
        "host": {"cpu_count": os.cpu_count(), "name": socket.gethostname()},
        "wall_time_ms": wall,
        "speedup_vs_scalar": speedups,
        "health": health,
    }
    history = append_run(args.out, record)
    print(f"appended run {len(history['runs'])} to {args.out}")
    print(f"batch speedup vs scalar: "
          f"build (join+refine+fill) {speedups.get('build_batch', 0):.2f}x, "
          f"refine {speedups.get('refine_batch', 0):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
