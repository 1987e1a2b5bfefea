#!/usr/bin/env python
"""Wall-time overhead benchmark for live-overlay causal tracing.

Boots the parity scenario's live overlay (24 asyncio peers, 12 flooded
queries, TTL 6 — same seeds as ``tests/node/test_parity.py``) twice per
repetition: once untraced and once with per-peer ``Tracer`` instances
capturing the full causal event stream in memory.  Both runs must
produce identical flood totals (success count, total messages,
duplicates — the script fails otherwise, since tracing must never
perturb the protocol), and the traced run must reconstruct every
query's causal tree to completion.

The figure of merit is the traced/untraced wall-time ratio; the gate
(``--max-ratio``, default 1.25) fails the script when instrumentation
costs more than 25% — the budget the observability docs promise.
Measurements are *appended* to the run history in
``BENCH_node_trace.json`` (``{"runs": [...]}``, newest last) with
``benchmarks/_report.append_run``.

Usage::

    PYTHONPATH=src python scripts/bench_node_trace.py [--out BENCH_node_trace.json]
"""

from __future__ import annotations

import argparse
import datetime
import os
import socket
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))
from _report import append_run, git_sha  # noqa: E402

from repro.core import makalu_graph  # noqa: E402
from repro.node import build_query_trees, run_live_workload  # noqa: E402
from repro.search import draw_query_workload, place_objects  # noqa: E402

# The parity scenario (tests/node/test_parity.py defaults).
N_NODES = 24
N_QUERIES = 12
TTL = 6
N_OBJECTS = 8
REPLICATION = 0.1
SEED = 7


def run_workload(traced: bool):
    """One full boot + flood + stop cycle; returns (results, overlay, s)."""
    graph = makalu_graph(n_nodes=N_NODES, seed=SEED)
    placement = place_objects(N_NODES, N_OBJECTS, REPLICATION, seed=SEED + 2)
    sources, objects = draw_query_workload(
        graph, placement, N_QUERIES, seed=SEED + 3
    )
    t0 = time.perf_counter()
    results, overlay = run_live_workload(
        graph, placement, sources, objects, TTL, trace=traced
    )
    return results, overlay, time.perf_counter() - t0


def totals(results) -> dict:
    return {
        "successes": sum(1 for r in results if r.success),
        "messages": sum(r.total_messages for r in results),
        "duplicates": sum(r.duplicates for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_node_trace.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="repetitions per mode; best (minimum) time is kept",
    )
    parser.add_argument(
        "--max-ratio", type=float, default=1.25,
        help="fail when traced/untraced wall time exceeds this",
    )
    args = parser.parse_args(argv)

    # Warm-up run absorbs import and event-loop start-up costs.
    run_workload(traced=False)

    best = {"untraced": float("inf"), "traced": float("inf")}
    golden = None
    n_events = n_trees = 0
    for rep in range(args.reps):
        for mode, traced in (("untraced", False), ("traced", True)):
            results, overlay, wall = run_workload(traced)
            best[mode] = min(best[mode], wall)
            got = totals(results)
            if golden is None:
                golden = got
            elif got != golden:
                print(f"FAIL: {mode} rep {rep} flood totals {got} "
                      f"diverge from {golden}", file=sys.stderr)
                return 1
            if traced:
                events = overlay.merged_trace()
                trees = build_query_trees(events)
                n_events, n_trees = len(events), len(trees)
                incomplete = [t.trace_id for t in trees if not t.complete]
                if len(trees) != N_QUERIES or incomplete:
                    print(f"FAIL: {len(trees)}/{N_QUERIES} trees, "
                          f"incomplete: {incomplete}", file=sys.stderr)
                    return 1
        print(f"  rep {rep}: untraced best {1000 * best['untraced']:.1f} ms, "
              f"traced best {1000 * best['traced']:.1f} ms", flush=True)

    ratio = best["traced"] / best["untraced"]
    print(f"  flood totals identical across modes: {golden}")
    print(f"  traced run: {n_events} events, {n_trees}/{N_QUERIES} "
          f"complete causal trees")
    print(f"  tracing overhead: {ratio:.3f}x "
          f"(gate: <= {args.max_ratio:.2f}x)")

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(),
        "config": {
            "benchmark": "live-overlay tracing overhead (parity scenario)",
            "n_nodes": N_NODES,
            "n_queries": N_QUERIES,
            "ttl": TTL,
            "replication": REPLICATION,
            "reps": args.reps,
            "max_ratio": args.max_ratio,
        },
        "host": {"cpu_count": os.cpu_count(), "name": socket.gethostname()},
        "wall_time_ms": {k: round(1000 * v, 2) for k, v in best.items()},
        "overhead_ratio": round(ratio, 3),
        "trace_events": n_events,
        "complete_trees": n_trees,
        "flood_totals": golden,
        "bit_identical": True,
    }
    history = append_run(args.out, record)
    print(f"appended run {len(history['runs'])} to {args.out}")

    if ratio > args.max_ratio:
        print(f"FAIL: tracing overhead {ratio:.3f}x exceeds "
              f"{args.max_ratio:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
