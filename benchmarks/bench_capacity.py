#!/usr/bin/env python
"""Heavy-traffic serving capacity: Makalu vs a power-law overlay.

Reproduces the paper's Section-6 queueing claim: under a trace-shaped
query workload pushed to saturation, a power-law overlay funnels traffic
through its hubs — the busiest node's utilization races ahead of the
mean and tail response time collapses — while Makalu's degree-bounded
overlay spreads the same load almost evenly and keeps its p99 bounded.

Both arms share the substrate, the replica placement, the query stream
and the query sources; only the overlay wiring (and the TTL its diameter
requires: Makalu's dense uniform-degree mesh resolves at TTL 2, the
sparse power-law graph needs TTL 8 for comparable success) differs.
Each arm runs a :func:`repro.sim.queueing.saturation_sweep` over the
same rate multipliers; the headline comparison is at the top multiplier,
where the power-law hub is saturated.

Outputs:

* run history appended to ``BENCH_capacity.json`` (same accumulating
  ``{"schema_version": 2, "runs": [...]}`` layout as the other benches);
* with ``--metrics-json``, a schema-v3 metrics snapshot carrying
  ``capacity.makalu.*`` / ``capacity.powerlaw.*`` quantile histograms,
  utilization gauges and the ``capacity.p99_ratio`` headline — the
  artifact ``repro obs slo --spec capacity-default`` and
  ``repro obs diff`` gate in CI.

The bench **fails** (exit 1) when the claim does not reproduce: either
arm resolving under ``--min-success`` of queries, or the power-law p99
not exceeding Makalu's by at least ``--min-ratio``.

Usage::

    PYTHONPATH=src python benchmarks/bench_capacity.py \
        [--nodes 500] [--duration 30] [--out BENCH_capacity.json] \
        [--metrics-json PATH] [--min-ratio 1.5]
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
from repro.core import makalu_graph
from repro.netmodel import EuclideanModel
from repro.search import place_objects
from repro.sim import draw_workload_sources, saturation_sweep
from repro.topology import powerlaw_graph
from repro.trace import GNUTELLA_2006
from repro.trace.workload import generate_workload

MODEL_SEED, GRAPH_SEED, PLACE_SEED = 7100, 7101, 7102
WORKLOAD_SEED, SOURCE_SEED = 7103, 7104

#: Rate multipliers swept per arm; the last is the saturation workload
#: the headline p99 ratio is measured at.
MULTIPLIERS = (2.0, 8.0, 32.0)

#: TTL per arm: the value at which that topology resolves ~every query
#: (deeper floods on the dense Makalu mesh only add duplicate traffic).
TTLS = {"makalu": 2, "powerlaw": 8}


def build_arms(n_nodes: int) -> dict:
    """Both overlays on one shared substrate."""
    model = EuclideanModel(n_nodes, seed=MODEL_SEED)
    return {
        "makalu": makalu_graph(model=model, seed=GRAPH_SEED),
        "powerlaw": powerlaw_graph(n_nodes, model=model, seed=GRAPH_SEED),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=500,
                        help="overlay size (default: %(default)s)")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="workload length in virtual seconds at 1x "
                             "(default: %(default)s)")
    parser.add_argument("--objects", type=int, default=200)
    parser.add_argument("--replication", type=float, default=0.05)
    parser.add_argument("--service-time", type=float, default=0.05,
                        help="per-message processing seconds "
                             "(default: %(default)s)")
    parser.add_argument("--latency-unit", type=float, default=0.0002,
                        help="seconds per link-latency unit "
                             "(default: %(default)s)")
    parser.add_argument("--min-ratio", type=float, default=1.5,
                        help="least power-law/Makalu p99 ratio that counts "
                             "as reproducing the claim "
                             "(default: %(default)s)")
    parser.add_argument("--min-success", type=float, default=0.9,
                        help="least per-arm query success rate "
                             "(default: %(default)s)")
    parser.add_argument("--out", default="BENCH_capacity.json",
                        help="run-history JSON path (default: %(default)s)")
    parser.add_argument("--metrics-json", default=None,
                        help="write the schema-v3 metrics snapshot "
                             "(capacity.* quantiles and gauges) to PATH")
    args = parser.parse_args(argv)

    graphs = build_arms(args.nodes)
    placement = place_objects(
        args.nodes, args.objects, args.replication, seed=PLACE_SEED
    )
    workload = generate_workload(
        GNUTELLA_2006, args.duration, n_objects=args.objects,
        seed=WORKLOAD_SEED,
    )
    sources = draw_workload_sources(
        args.nodes, workload.n_queries, seed=SOURCE_SEED
    )
    print(f"capacity bench: {args.nodes} nodes, {workload.n_queries} "
          f"queries @ {workload.rate:.1f}/s x{MULTIPLIERS}, "
          f"service {args.service_time:g}s", flush=True)

    session = obs.configure()
    sweeps, wall = {}, {}
    for name, graph in graphs.items():
        t0 = time.perf_counter()
        sweeps[name] = saturation_sweep(
            graph, workload, placement, TTLS[name],
            multipliers=MULTIPLIERS, sources=sources,
            service_time=args.service_time,
            latency_scale=args.latency_unit,
            metric_prefix=f"capacity.{name}",
        )
        wall[name] = time.perf_counter() - t0

    # Headline comparison at the saturation workload (top multiplier):
    # exact numpy quantiles for the record; the snapshot additionally
    # carries the streaming LogHistogram readouts under
    # capacity.<arm>.x32.response_s.
    top = {name: s.results[-1] for name, s in sweeps.items()}
    p99 = {name: r.response_quantile(0.99) for name, r in top.items()}
    ratio = p99["powerlaw"] / p99["makalu"]

    # Mirror the at-saturation numbers under the stable capacity.<arm>.*
    # names the capacity-default SLO and the CI diff gate reference
    # (multiplier-suffixed names would break the gate whenever the sweep
    # grid changes).
    for name, r in top.items():
        hist = session.metrics.quantile(f"capacity.{name}.response_s")
        for rt in r.response_time[r.resolved]:
            hist.observe(float(rt))
        obs.gauge(f"capacity.{name}.success_rate", r.success_rate)
        obs.gauge(f"capacity.{name}.util_max",
                  float(r.utilization.max(initial=0.0)))
        obs.gauge(f"capacity.{name}.util_mean", float(r.utilization.mean()))
    obs.gauge("capacity.p99_ratio", ratio)
    obs.disable()

    summary = {}
    for name, sweep in sweeps.items():
        r = top[name]
        u = r.utilization
        sat = sweep.saturation_multiplier
        summary[name] = {
            "ttl": TTLS[name],
            "p50_s": round(r.response_quantile(0.5), 4),
            "p99_s": round(p99[name], 4),
            "success_rate": round(r.success_rate, 4),
            "util_max": round(float(u.max(initial=0.0)), 4),
            "util_mean": round(float(u.mean()), 4),
            "messages": int(r.messages),
            "saturation_multiplier": None if sat != sat else sat,
            "p99_curve_s": [round(p, 4) for p in sweep.p99_curve],
            "wall_s": round(wall[name], 2),
        }
        curve = "  ".join(
            f"x{m:g}:{p:.2f}" for m, p in zip(MULTIPLIERS, sweep.p99_curve)
        )
        print(f"  {name:9s} ttl {TTLS[name]}  p99 curve [{curve}]  "
              f"util max/mean {u.max(initial=0.0):.3f}/{u.mean():.3f}  "
              f"success {100 * r.success_rate:.1f}%  "
              f"({wall[name]:.1f}s wall)")
    print(f"  p99 at saturation: powerlaw {p99['powerlaw']:.2f}s vs "
          f"makalu {p99['makalu']:.2f}s -> ratio {ratio:.2f}x")

    if args.metrics_json:
        session.metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {args.metrics_json}")

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(),
        "config": {
            "benchmark": "heavy-traffic capacity: makalu vs power-law",
            "n_nodes": args.nodes,
            "n_queries": workload.n_queries,
            "duration_s": args.duration,
            "multipliers": list(MULTIPLIERS),
            "service_time_s": args.service_time,
            "latency_unit_s": args.latency_unit,
            "replication": args.replication,
        },
        "host": {"cpu_count": os.cpu_count(), "name": socket.gethostname()},
        "arms": summary,
        "p99_ratio": round(ratio, 3),
    }
    history = append_run(args.out, record)
    print(f"appended run {len(history['runs'])} to {args.out}")

    failed = False
    for name, r in top.items():
        if r.success_rate < args.min_success:
            print(f"FAIL: {name} resolved only "
                  f"{100 * r.success_rate:.1f}% of queries "
                  f"(< {100 * args.min_success:g}%)", file=sys.stderr)
            failed = True
    if ratio < args.min_ratio:
        print(f"FAIL: power-law p99 is only {ratio:.2f}x Makalu's "
              f"(claim needs >= {args.min_ratio:g}x)", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"claim reproduced: saturated power-law hub p99 exceeds "
          f"Makalu's by {ratio:.2f}x (>= {args.min_ratio:g}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
