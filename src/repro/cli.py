"""Command-line interface for quick experiments.

Usage examples::

    python -m repro build --nodes 5000 --seed 7
    python -m repro flood --nodes 2000 --ttl 4 --replication 0.005
    python -m repro identifier --nodes 2000 --replication 0.005 --queries 50
    python -m repro analyze --nodes 2000 --topology makalu
    python -m repro traffic --nodes 5000 --queries 100
    python -m repro churn --nodes 500 --duration 150

Every subcommand prints a short human-readable report; all accept
``--seed`` for reproducibility.  All subcommands also accept the
observability flags (off by default, see docs/OBSERVABILITY.md):

* ``--metrics-json PATH`` — write the run's metric snapshot as JSON;
* ``--trace PATH`` — stream structured events (JSONL) to ``PATH``;
* ``--profile`` — print a per-phase wall-time report after the run;
* ``--profile-json PATH`` — write the profile (aggregates + span
  timeline) as JSON, convertible via ``repro obs export-trace``.

The artifacts feed the ``repro obs`` toolkit: ``repro obs report`` for a
human-readable summary, ``repro obs diff`` for CI regression gating, and
``repro obs export-trace`` for Chrome ``chrome://tracing`` conversion.

The CLI is a thin veneer over the public API — anything here can be done
in a few lines of Python (see ``examples/``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.analysis import (
    algebraic_connectivity,
    convergence_boundary,
    failure_sweep,
    path_stats,
)
from repro.core import MakaluConfig, makalu_graph
from repro.netmodel import EuclideanModel, SyntheticPlanetLabModel, TransitStubModel
from repro.search import (
    AbfRouter,
    build_attenuated_filters,
    flood_queries,
    identifier_queries,
    min_ttl_for_success,
    place_objects,
    summarize,
)
from repro.sim import ChurnConfig, ChurnSimulation
from repro.topology import k_regular_graph, powerlaw_graph, two_tier_graph
from repro.trace import traffic_comparison

MODELS = {
    "euclidean": lambda n, seed: EuclideanModel(n, seed=seed),
    "transit-stub": lambda n, seed: TransitStubModel(n, seed=seed),
    "planetlab": lambda n, seed: SyntheticPlanetLabModel(n, seed=seed),
}


def _make_model(args):
    return MODELS[args.model](args.nodes, args.seed)


def _make_overlay(args):
    model = _make_model(args)
    topology = getattr(args, "topology", "makalu")
    if topology == "makalu":
        config = MakaluConfig(
            refine_mode=getattr(args, "refine_mode", "sequential"),
        )
        return makalu_graph(model=model, config=config, seed=args.seed + 1)
    if topology == "kregular":
        return k_regular_graph(args.nodes, 10, model=model, seed=args.seed + 1)
    if topology == "powerlaw":
        return powerlaw_graph(args.nodes, model=model, seed=args.seed + 1)
    if topology == "twotier":
        return two_tier_graph(args.nodes, model=model, seed=args.seed + 1).graph
    raise ValueError(f"unknown topology {topology!r}")


def cmd_build(args) -> int:
    """Build an overlay and print structural statistics."""
    t0 = time.perf_counter()
    graph = _make_overlay(args)
    elapsed = time.perf_counter() - t0
    degs = graph.degrees
    print(f"built {args.topology} overlay: {graph.n_nodes} nodes, "
          f"{graph.n_edges} edges in {elapsed:.1f}s")
    print(f"  degrees: min {degs.min()}, mean {degs.mean():.2f}, max {degs.max()}")
    print(f"  connected: {graph.is_connected()}")
    print(f"  mean link latency: {graph.latency.mean():.2f}")
    return 0


def cmd_flood(args) -> int:
    """Run a batch of flooding queries and summarize them."""
    graph = _make_overlay(args)
    placement = place_objects(
        graph.n_nodes, args.objects, args.replication, seed=args.seed + 2
    )
    results = flood_queries(
        graph, placement, args.queries, ttl=args.ttl, seed=args.seed + 3,
        batch_size=args.batch_size, n_workers=args.workers,
    )
    records = [r.record() for r in results]
    summary = summarize(records)
    hits = np.asarray([r.first_hit_hop for r in results])
    dup = float(np.mean([r.duplicate_fraction for r in results]))
    print(f"flooding on {args.topology} ({graph.n_nodes} nodes, TTL {args.ttl}, "
          f"{100 * args.replication:.2f}% replication):")
    print(f"  {summary}")
    print(f"  duplicate messages: {100 * dup:.1f}%")
    print(f"  min TTL for 95% success: "
          f"{min_ttl_for_success(hits, 0.95, max_ttl=args.ttl)}")
    return 0


def cmd_identifier(args) -> int:
    """Run a batch of ABF identifier queries and summarize them."""
    graph = _make_overlay(args)
    placement = place_objects(
        graph.n_nodes, args.objects, args.replication, seed=args.seed + 2
    )
    if args.per_link:
        from repro.search import build_per_link_filters

        filters = build_per_link_filters(
            graph, placement=placement, depth=args.depth
        )
        variant = "per-link"
    else:
        filters = build_attenuated_filters(
            graph, placement=placement, depth=args.depth
        )
        variant = "per-node"
    router = AbfRouter(graph, filters)
    results = identifier_queries(
        router, placement, args.queries, ttl=args.ttl, seed=args.seed + 3,
        n_workers=args.workers,
    )
    summary = summarize([r.record() for r in results])
    print(f"ABF identifier search on {args.topology} ({graph.n_nodes} nodes, "
          f"{variant} depth {args.depth}, TTL {args.ttl}):")
    print(f"  {summary}")
    return 0


def cmd_response(args) -> int:
    """Measure the response-time distribution of flooded queries."""
    import numpy as np

    from repro.search import response_time_distribution

    graph = _make_overlay(args)
    placement = place_objects(
        graph.n_nodes, args.objects, args.replication, seed=args.seed + 2
    )
    times = response_time_distribution(
        graph, placement, args.queries, ttl=args.ttl, seed=args.seed + 3
    )
    finite = times[np.isfinite(times)]
    print(f"query response times on {args.topology} ({graph.n_nodes} nodes, "
          f"TTL {args.ttl}, round trip):")
    print(f"  resolved: {100 * np.isfinite(times).mean():.1f}% of "
          f"{args.queries} queries")
    if finite.size:
        print(f"  median {np.median(finite):.1f}  p90 "
              f"{np.percentile(finite, 90):.1f}  p99 "
              f"{np.percentile(finite, 99):.1f}  (latency units)")
    return 0


def cmd_capacity(args) -> int:
    """Serve a continuous trace-shaped workload through shared queues."""
    from repro.sim import (
        draw_workload_sources,
        saturation_sweep,
        scale_workload,
        simulate_workload,
    )
    from repro.trace import GNUTELLA_2003, GNUTELLA_2006
    from repro.trace.workload import generate_workload

    stats = GNUTELLA_2006 if args.trace_stats == "2006" else GNUTELLA_2003
    graph = _make_overlay(args)
    placement = place_objects(
        graph.n_nodes, args.objects, args.replication, seed=args.seed + 2
    )
    workload = generate_workload(
        stats, args.duration, n_objects=args.objects,
        zipf_exponent=args.zipf, seed=args.seed + 4,
    )
    if args.rate_scale != 1.0:
        workload = scale_workload(workload, args.rate_scale)
    sources = draw_workload_sources(
        graph.n_nodes, workload.n_queries, seed=args.seed + 5
    )
    print(f"continuous load on {args.topology} ({graph.n_nodes} nodes, "
          f"TTL {args.ttl}, {workload.n_queries} queries @ "
          f"{workload.rate:.1f}/s, service {args.service_time:g}s):")

    if args.sweep:
        multipliers = [float(m) for m in args.sweep.split(",")]
        sweep = saturation_sweep(
            graph, workload, placement, args.ttl, multipliers=multipliers,
            sources=sources, service_time=args.service_time,
            latency_scale=args.latency_unit,
            metric_prefix="queue", top_k=args.top,
        )
        for m, r in zip(sweep.multipliers, sweep.results):
            print(f"  x{m:<5g} p50 {r.response_quantile(0.5):8.3f}  "
                  f"p99 {r.response_quantile(0.99):8.3f}  "
                  f"util.max {r.utilization.max(initial=0.0):.3f}  "
                  f"success {100 * r.success_rate:5.1f}%"
                  f"{'  [saturated]' if r.is_saturated() else ''}")
        sat = sweep.saturation_multiplier
        print(f"  saturation point: "
              f"{'not reached' if sat != sat else f'x{sat:g}'}")
        return 0

    result = simulate_workload(
        graph, workload, placement, args.ttl, sources=sources,
        service_time=args.service_time, latency_scale=args.latency_unit,
        top_k=args.top,
    )
    print(f"  resolved: {100 * result.success_rate:.1f}%  "
          f"messages: {result.messages}  makespan: {result.makespan:.2f}s")
    print(f"  response  p50 {result.response_quantile(0.5):.3f}  "
          f"p90 {result.response_quantile(0.9):.3f}  "
          f"p99 {result.response_quantile(0.99):.3f}  "
          f"p999 {result.response_quantile(0.999):.3f}  (virtual s)")
    util = result.utilization
    print(f"  utilization  max {util.max(initial=0.0):.3f}  "
          f"mean {float(util.mean()) if util.size else 0.0:.3f}"
          f"{'  [saturated]' if result.is_saturated() else ''}")
    hot = ", ".join(
        f"{int(v)}:{util[v]:.2f}" for v in result.hot_nodes(args.top)
    )
    print(f"  hottest nodes (id:util): {hot}")
    return 0


def cmd_analyze(args) -> int:
    """Print path, spectral and fault-tolerance analysis of an overlay."""
    graph = _make_overlay(args)
    giant, _ = graph.giant_component()
    print(f"{args.topology} overlay on {graph.n_nodes} nodes "
          f"({giant.n_nodes} in giant component):")
    stats = path_stats(giant, n_sources=min(200, giant.n_nodes), seed=args.seed)
    print(f"  {stats}")
    print(f"  algebraic connectivity: {algebraic_connectivity(giant):.4f}")
    print(f"  convergence boundary: "
          f"{convergence_boundary(giant, n_sources=10, seed=args.seed):.1f} hops")
    for report in failure_sweep(graph, [0.1, 0.3], mode="top-degree",
                                with_spectrum=False):
        print(f"  after {100 * report.fraction_failed:.0f}% targeted failures: "
              f"{report.n_components} components, giant "
              f"{100 * report.giant_fraction:.1f}%")
    return 0


def cmd_traffic(args) -> int:
    """Regenerate the Table 2 traffic comparison."""
    graph = _make_overlay(args)
    cmp = traffic_comparison(graph, ttl=args.ttl, n_queries=args.queries,
                             seed=args.seed + 2)
    print("Table 2 traffic comparison (2006 trace statistics):")
    print(f"  {cmp.gnutella}")
    print(f"  {cmp.makalu}")
    print(f"  bandwidth savings: {100 * cmp.bandwidth_savings:.0f}%  "
          f"success ratio: {cmp.success_ratio:.1f}x")
    return 0


def _load_faults(args):
    """Resolve ``--faults`` into a scenario, or None when absent.

    Raises SystemExit-worthy errors as ValueError subclasses; callers
    turn them into one-line messages (never tracebacks).
    """
    name = getattr(args, "faults", None)
    if not name:
        return None
    from repro.faults import load_scenario

    return load_scenario(name)


def _make_recovery(args):
    """Resolve the ``--recovery*`` flags into a policy, or None."""
    if not getattr(args, "recovery", False):
        return None
    from repro.core.maintenance import RecoveryPolicy

    return RecoveryPolicy(
        max_retries=args.recovery_retries,
        base_delay=args.recovery_delay,
        backoff=args.recovery_backoff,
        host_cache_fallback=not args.no_fallback,
    )


def _run_churn_sim(args, scenario, recovery):
    """Build and run a ChurnSimulation; shared by churn and faults run."""
    sim = ChurnSimulation(
        model=_make_model(args),
        churn_config=ChurnConfig(
            mean_session=args.session, mean_offline=args.offline,
            snapshot_interval=args.duration / 6,
            probe_queries=args.probe_queries,
            probe_ttl=args.probe_ttl,
            health_interval=args.health_interval,
            health_sources=args.health_sources,
        ),
        seed=args.seed,
        faults=scenario,
        recovery=recovery,
    )
    snapshots = sim.run(args.duration)
    return sim, snapshots


def _print_churn_report(args, sim, snapshots, scenario) -> None:
    extras = []
    if scenario is not None:
        extras.append(f"faults={scenario.name}")
    if sim.recovery is not None:
        extras.append("recovery=on")
    suffix = f" [{', '.join(extras)}]" if extras else ""
    print(f"churn on {args.nodes} Makalu nodes "
          f"(sessions ~Exp({args.session}), offline ~Exp({args.offline}))"
          f"{suffix}:")
    probing = args.probe_queries > 0
    for s in snapshots:
        line = (f"  t={s.time:6.0f}  online={s.n_online:5d}  "
                f"components={s.n_components:3d}  "
                f"giant={100 * s.giant_fraction:5.1f}%  "
                f"mean degree={s.mean_degree:.1f}")
        if probing:
            line += f"  search success={100 * s.search_success:5.1f}%"
        print(line)
    if sim.health_samples:
        print(f"health samples (every {args.health_interval:g} time units):")
        for h in sim.health_samples:
            print(f"  t={h.time:6.0f}  expansion={h.expansion:.3f}  "
                  f"spectral gap={h.spectral_gap:.3f}  "
                  f"filter staleness={100 * h.filter_staleness:5.1f}%  "
                  f"isolated={100 * h.isolated_fraction:4.1f}%")
    if sim.injector is not None:
        print("fault injection summary:")
        for k, v in sorted(sim.injector.summary().items()):
            if v:
                print(f"  {k}: {v}")
        session = obs.active()
        if session is not None:
            counters = session.metrics.snapshot().get("counters", {})
            recov = {k: v for k, v in sorted(counters.items())
                     if k.startswith("recovery.")}
            if recov:
                print("recovery counters:")
                for k, v in recov.items():
                    print(f"  {k}: {v}")


def cmd_churn(args) -> int:
    """Run the churn simulation and print per-snapshot health."""
    try:
        scenario = _load_faults(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recovery = _make_recovery(args)
    sim, snapshots = _run_churn_sim(args, scenario, recovery)
    _print_churn_report(args, sim, snapshots, scenario)
    return 0


def cmd_node_run(args) -> int:
    """Run one live peer until the duration elapses."""
    import asyncio

    from repro.node import NodeConfig, PeerNode

    store = set()
    if args.store:
        store = {int(k) for k in args.store.split(",")}

    async def _run() -> None:
        node = PeerNode(args.node_id, capacity=args.capacity, store=store,
                        config=NodeConfig(default_ttl=args.ttl))
        await node.start(port=args.port)
        print(f"node {args.node_id} listening on {node.host}:{node.port}")
        for addr in args.connect or []:
            host, _, port = addr.rpartition(":")
            peer = await node.connect(host or "127.0.0.1", int(port))
            print(f"  connected to node {peer} at {addr}")
        await asyncio.sleep(args.duration)
        counters = node.metrics.snapshot()["counters"]
        rx = sum(v for k, v in counters.items() if k.startswith("node.rx."))
        print(f"  degree {len(node.neighbors)}, {rx} messages received, "
              f"{counters.get('node.protocol_errors', 0)} protocol errors")
        await node.stop()

    asyncio.run(_run())
    return 0


def cmd_node_boot(args) -> int:
    """Boot N live peers into a seeded overlay and flood queries."""
    from repro.node import NodeConfig, build_query_trees, run_live_workload
    from repro.search import draw_query_workload

    session = obs.active()
    live_trace = (
        (session is not None and session.tracer is not None)
        or args.trace_dir is not None
    )
    graph = _make_overlay(args)
    placement = place_objects(
        graph.n_nodes, args.objects, args.replication, seed=args.seed + 2
    )
    sources, objects = draw_query_workload(
        graph, placement, args.queries, seed=args.seed + 3
    )
    results, overlay = run_live_workload(
        graph, placement, sources, objects, args.ttl,
        config=NodeConfig(default_ttl=args.ttl),
        trace=live_trace, trace_dir=args.trace_dir,
        telemetry_interval=args.telemetry_interval,
    )
    merged = overlay.merged_registry()
    snap = merged.snapshot()
    counters = snap["counters"]
    success = sum(1 for r in results if r.success) / len(results)
    messages = sum(r.total_messages for r in results)
    duplicates = sum(r.duplicates for r in results)
    edges = overlay.live_edges()
    seeded = {(u, v) for u, v, _ in graph.iter_edges()}
    print(f"live overlay: {graph.n_nodes} asyncio peers on {args.topology} "
          f"topology, TTL {args.ttl}:")
    print(f"  edges held: {len(edges)}/{len(seeded)} seeded "
          f"({len(seeded ^ edges)} mismatched)")
    print(f"  queries: {len(results)}, success {100 * success:.1f}%, "
          f"{messages} messages ({duplicates} duplicates)")
    print(f"  wire health: "
          f"{counters.get('node.protocol_errors', 0)} protocol errors, "
          f"{counters.get('node.desyncs', 0)} desyncs, "
          f"{counters.get('node.queryhit.unroutable', 0)} unroutable hits")
    if live_trace:
        events = overlay.merged_trace()
        trees = build_query_trees(events)
        complete = sum(1 for t in trees if t.complete)
        print(f"  causal trace: {len(events)} events, {len(trees)} query "
              f"tree(s) ({complete} complete)")
        if args.trace_dir is not None:
            print(f"  per-peer sinks in {args.trace_dir}/ "
                  f"(merge with: repro node trace {args.trace_dir})")
        if session is not None and session.tracer is not None:
            # Replay the merged per-peer events into the session sink so
            # the --trace file is the causally ordered overlay trace.
            for event in events:
                fields = {k: v for k, v in event.items()
                          if k not in ("seq", "kind")}
                session.tracer.emit(event.get("kind", "event"), **fields)
    if args.telemetry_interval > 0:
        samples = counters.get("node.runtime.samples", 0)
        lag = snap["quantiles"].get("node.runtime.loop_lag_s.q", {})
        print(f"  telemetry: {samples} runtime samples, "
              f"{lag.get('count', 0)} loop-lag observations")
    if session is not None:
        session.metrics.merge_snapshot(snap)
    return 0


def cmd_node_trace(args) -> int:
    """Merge per-peer trace sinks and reconstruct causal query trees."""
    from repro.node.trace import build_query_trees, format_tree_report
    from repro.obs.tracer import merge_traces

    paths = []
    for inp in args.inputs:
        if os.path.isdir(inp):
            paths.extend(sorted(
                os.path.join(inp, name) for name in os.listdir(inp)
                if name.endswith(".jsonl")
            ))
        else:
            paths.append(inp)
    if not paths:
        print("error: no trace files found", file=sys.stderr)
        return 2
    try:
        events = merge_traces(*paths)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trees = build_query_trees(events)
    print(f"merged {len(paths)} sink(s)")
    print(format_tree_report(trees, n_events=len(events),
                             verbose=args.verbose))
    if args.export:
        from repro.obs.report import write_chrome_trace

        n = write_chrome_trace(events, args.export,
                               source=";".join(paths))
        print(f"chrome trace written to {args.export} ({n} records)")
    complete = sum(1 for t in trees if t.complete)
    if args.require_complete > 0 and complete < args.require_complete:
        print(f"error: only {complete} complete query tree(s) "
              f"reconstructed, need {args.require_complete}",
              file=sys.stderr)
        return 1
    return 0


def cmd_node_parity(args) -> int:
    """Replay one seeded scenario through sim and live; diff the arms."""
    import json

    from repro.node import ParityScenario, run_parity
    from repro.obs.report import diff_metrics, format_diff

    scenario = ParityScenario(
        n_nodes=args.nodes, n_queries=args.queries, ttl=args.ttl,
        n_objects=args.objects, replication=args.replication,
        seed=args.seed,
    )
    try:
        report = run_parity(scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path, snap in ((args.sim_out, report.sim_snapshot),
                       (args.live_out, report.live_snapshot)):
        if path:
            with open(path, "w") as fh:
                json.dump(snap, fh, indent=2, default=float)
                fh.write("\n")
            print(f"snapshot written to {path}")
    deltas = diff_metrics(report.sim_snapshot, report.live_snapshot)
    parity_deltas = [d for d in deltas if d.name.startswith("parity.")]
    print(f"sim vs live on {args.nodes} nodes ({args.queries} queries, "
          f"TTL {args.ttl}):")
    print(format_diff(parity_deltas, threshold=args.threshold,
                      show_unchanged=True))
    regressions = [d for d in deltas if d.exceeds(args.threshold)]
    if regressions:
        print(f"{len(regressions)} metric(s) diverged beyond "
              f"{100 * args.threshold:g}%", file=sys.stderr)
        if args.fail_on_divergence:
            return 1
    return 0


def cmd_node_churn(args) -> int:
    """Replay a fault scenario against a running live overlay."""
    from repro.faults import load_scenario
    from repro.node.churn import run_live_churn_sync

    try:
        scenario = load_scenario(args.scenario)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_live_churn_sync(
        scenario, n_nodes=args.nodes, n_objects=args.objects,
        seed=args.seed, k=args.k, duration=args.duration,
        time_scale=args.time_scale, heal_enabled=not args.no_heal,
        heal_interval=args.heal_interval,
        read_repair=not args.no_read_repair,
        snapshot_interval=args.snapshot_interval,
        mean_offline=args.mean_offline,
    )
    rep, d = result.report, result.durability
    print(f"live churn: {args.nodes} asyncio peers under {scenario.name!r}, "
          f"{rep.duration:g} virtual seconds "
          f"(time scale {args.time_scale:g})")
    skipped = (f" ({', '.join(f'{k}={v}' for k, v in sorted(rep.skipped.items()))})"
               if rep.skipped else "")
    print(f"  membership: {rep.kills} kills, {rep.revives} revives, "
          f"{rep.events_skipped} scenario event(s) not injectable "
          f"live{skipped}")
    print(f"  healing:    {rep.heal_ticks} ticks, {d.heal_pushes} pushes "
          f"({d.heal_bytes} bytes), {d.heal_trims} trims")
    print(f"  rebalance:  {d.rebalance_pushes} pushes "
          f"({d.rebalance_bytes} bytes) on rejoin")
    print(f"  durability: availability {d.availability:.4f} "
          f"(min {d.min_availability:.4f}), lost {d.objects_lost}, "
          f"degraded {d.objects_degraded}")
    for s in rep.samples:
        print(f"    t={s.time:6.1f}  avail {s.availability:.3f}  "
              f"live/k {s.mean_live_replicas:.2f}  "
              f"degraded {s.n_degraded}  lost {s.n_lost}")
    session = obs.active()
    if session is not None:
        session.metrics.merge_snapshot(
            result.overlay.merged_registry().snapshot()
        )
        g = session.metrics.gauge
        g("live_churn.availability").set(d.availability)
        g("live_churn.min_availability").set(d.min_availability)
        g("live_churn.objects_lost").set(float(d.objects_lost))
        g("live_churn.objects_degraded").set(float(d.objects_degraded))
        g("live_churn.kills").set(float(rep.kills))
        g("live_churn.revives").set(float(rep.revives))
        g("live_churn.heal_ticks").set(float(rep.heal_ticks))
        g("live_churn.heal_pushes").set(float(d.heal_pushes))
        g("live_churn.heal_trims").set(float(d.heal_trims))
        g("live_churn.rebalance_pushes").set(float(d.rebalance_pushes))
        g("live_churn.events_skipped").set(float(rep.events_skipped))
    if args.report_json:
        import json

        doc = {
            "schema_version": 1,
            "scenario": scenario.name,
            "n_nodes": args.nodes,
            "seed": args.seed,
            "duration": rep.duration,
            "kills": rep.kills,
            "revives": rep.revives,
            "heal_ticks": rep.heal_ticks,
            "rebalance_pushes": rep.rebalance_pushes,
            "skipped": dict(rep.skipped),
            "durability": d.to_dict(),
        }
        with open(args.report_json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"report written to {args.report_json}")
    return 0


def cmd_faults_list(args) -> int:
    """List the built-in fault scenarios."""
    from repro.faults import BUILTIN_SCENARIOS

    for name, scenario in sorted(BUILTIN_SCENARIOS.items()):
        print(f"{name} ({scenario.n_events} events)")
        print(f"  {scenario.description}")
    return 0


def cmd_faults_run(args) -> int:
    """Run a fault scenario against a churned Makalu overlay."""
    try:
        scenario = _load_faults(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recovery = _make_recovery(args)
    sim, snapshots = _run_churn_sim(args, scenario, recovery)
    _print_churn_report(args, sim, snapshots, scenario)
    return 0


def _run_durability_cli(args):
    from repro.content.experiment import hub_failure_scenario, run_durability

    scenario = args.scenario
    if scenario == "hub-failure":
        scenario = hub_failure_scenario()
    elif scenario == "none":
        scenario = None
    return run_durability(
        n_nodes=args.nodes, n_objects=args.objects, duration=args.duration,
        seed=args.seed, scenario=scenario, k=args.k,
        heal_enabled=not args.no_heal, heal_interval=args.heal_interval,
        read_repair=not args.no_read_repair, fetch_probes=args.fetch_probes,
    )


def cmd_content_place(args) -> int:
    """Preview a content placement; optionally dump the manifests."""
    from repro.content.experiment import build_placement

    graph, objects, placement = build_placement(
        n_nodes=args.nodes, n_objects=args.objects, seed=args.seed, k=args.k,
    )
    total = sum(o.size for o in objects)
    chunks = sum(o.manifest.n_chunks for o in objects)
    print(f"placed {placement.n_objects} objects "
          f"({total} bytes, {chunks} chunks) on {graph.n_nodes} nodes, k={args.k}")
    print(f"  mean replicas/object   {placement.mean_replicas:.2f}")
    print(f"  effective repl. ratio  {placement.effective_replication_ratio:.4f}")
    print(f"  neighbor-bias fraction {placement.neighbor_bias_fraction(graph):.2f}")
    if args.verbose:
        for obj in objects:
            holders = ",".join(str(h) for h in placement.replicas(obj.key))
            print(f"  key={obj.key} size={obj.size} "
                  f"chunks={obj.manifest.n_chunks} holders=[{holders}]")
    if args.manifest_json:
        import json

        doc = {
            "schema_version": 1,
            "n_objects": placement.n_objects,
            "manifests": [o.manifest.to_dict() for o in objects],
        }
        with open(args.manifest_json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"manifests written to {args.manifest_json}")
    return 0


def cmd_content_fetch(args) -> int:
    """Run the durability sim, then issue extra end-of-run fetches."""
    from repro.util.rng import as_generator, derive_seed

    result = _run_durability_cli(args)
    plane, sim = result.plane, result.sim
    before = dict(plane.stats)
    rng = as_generator(derive_seed(args.seed, 0xFE7C4))
    keys = plane.placement.object_keys
    online = [u for u in range(sim.builder.n_nodes) if sim.online[u]]
    if not online:
        print("no nodes online at end of run; cannot issue fetches")
        return 1
    for _ in range(args.queries):
        src = online[int(rng.integers(len(online)))]
        key = int(keys[int(rng.integers(len(keys)))])
        plane.fetch(src, key)
    s = plane.stats
    extra_req = s["fetch.requests"] - before["fetch.requests"]
    extra_hit = s["fetch.hits"] - before["fetch.hits"]
    print(f"in-run probes: {before['fetch.requests']} requests, "
          f"{before['fetch.hits']} hits, {before['fetch.failures']} failures")
    print(f"end-of-run fetches: {extra_hit}/{extra_req} hit "
          f"({100 * extra_hit / max(1, extra_req):.1f}%)")
    print(f"read-repair: {s['repair.pushes']} pushes, "
          f"{s['repair.bytes']} bytes")
    return 0


def cmd_content_heal(args) -> int:
    """Run the durability sim and print the healing ledger."""
    result = _run_durability_cli(args)
    r = result.report
    print(f"scenario {result.scenario or 'none'}: "
          f"healing {'on' if result.heal_enabled else 'off'}, "
          f"k={r.k}, {r.n_objects} objects")
    print(f"  heal ticks   {r.heal_ticks}")
    print(f"  heal pushes  {r.heal_pushes} ({r.heal_bytes} bytes)")
    print(f"  heal trims   {r.heal_trims}")
    print(f"  read-repair  {r.repair_pushes} pushes ({r.repair_bytes} bytes)")
    print(f"  lost         {r.objects_lost}  degraded {r.objects_degraded}")
    print(f"  availability {r.availability:.4f} (min {r.min_availability:.4f})")
    return 0


def cmd_content_report(args) -> int:
    """Full durability report: per-snapshot samples plus the final ledger."""
    result = _run_durability_cli(args)
    print(f"{'t':>6}  {'avail':>6}  {'live/k':>7}  "
          f"{'degraded':>8}  {'lost':>4}")
    for s in result.samples:
        print(f"{s.time:6.1f}  {s.availability:6.3f}  "
              f"{s.mean_live_replicas:7.2f}  {s.n_degraded:8d}  {s.n_lost:4d}")
    r = result.report
    print(f"final: availability={r.availability:.4f} "
          f"min={r.min_availability:.4f} lost={r.objects_lost} "
          f"heal_pushes={r.heal_pushes} heal_bytes={r.heal_bytes} "
          f"repair_pushes={r.repair_pushes} bytes_placed={r.bytes_placed}")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.report.to_dict(), fh, indent=1)
            fh.write("\n")
        print(f"report written to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Makalu overlay reproduction — quick experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, topology=True):
        p.add_argument("--nodes", type=int, default=2000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--model", choices=sorted(MODELS), default="euclidean")
        p.add_argument("--metrics-json", metavar="PATH", default=None,
                       help="write a JSON metrics snapshot of the run")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="stream structured JSONL trace events to PATH")
        p.add_argument("--profile", action="store_true",
                       help="print a per-phase wall-time report")
        p.add_argument("--profile-json", metavar="PATH", default=None,
                       help="write the profile (aggregates + span "
                            "timeline) as JSON")
        if topology:
            p.add_argument(
                "--topology",
                choices=["makalu", "kregular", "powerlaw", "twotier"],
                default="makalu",
            )
            p.add_argument("--refine-mode",
                           choices=["sequential", "batch"],
                           default="sequential",
                           help="refinement engine: the per-node protocol "
                                "replay, or vectorized synchronous rounds "
                                "(much faster at 10k+ nodes; statistically "
                                "equivalent overlays)")

    p = sub.add_parser("build", help="build an overlay and print its stats")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("flood", help="run flooding queries")
    common(p)
    p.add_argument("--ttl", type=int, default=4)
    p.add_argument("--replication", type=float, default=0.005)
    p.add_argument("--objects", type=int, default=10)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (0 = one per CPU core; "
                        "results are bit-identical at any setting)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="queries advanced together by the vectorized "
                        "flood kernel (default: scalar loop when "
                        "--workers is 1)")
    p.set_defaults(func=cmd_flood)

    p = sub.add_parser("identifier", help="run ABF identifier queries")
    common(p)
    p.add_argument("--ttl", type=int, default=25)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--per-link", action="store_true",
                   help="use exact per-link (Rhea-Kubiatowicz) filters")
    p.add_argument("--replication", type=float, default=0.005)
    p.add_argument("--objects", type=int, default=10)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (results are bit-identical "
                        "at any setting)")
    p.set_defaults(func=cmd_identifier)

    p = sub.add_parser("response", help="query response-time distribution")
    common(p)
    p.add_argument("--ttl", type=int, default=4)
    p.add_argument("--replication", type=float, default=0.005)
    p.add_argument("--objects", type=int, default=10)
    p.add_argument("--queries", type=int, default=100)
    p.set_defaults(func=cmd_response)

    p = sub.add_parser(
        "capacity",
        help="serve a continuous workload through shared per-node queues",
    )
    common(p)
    p.add_argument("--ttl", type=int, default=5)
    p.add_argument("--replication", type=float, default=0.01)
    p.add_argument("--objects", type=int, default=200)
    p.add_argument("--duration", type=float, default=2.0,
                   help="workload length in virtual seconds")
    p.add_argument("--trace-stats", choices=["2003", "2006"], default="2006",
                   help="Gnutella trace whose query rate shapes arrivals")
    p.add_argument("--zipf", type=float, default=0.8,
                   help="object-popularity Zipf exponent")
    p.add_argument("--service-time", type=float, default=0.005,
                   help="per-message processing time at each node")
    p.add_argument("--latency-unit", type=float, default=0.001,
                   help="seconds per link-latency unit (overlay latencies "
                        "are in the network model's ~ms units; arrivals "
                        "are in seconds)")
    p.add_argument("--rate-scale", type=float, default=1.0,
                   help="multiply the trace arrival rate")
    p.add_argument("--sweep", metavar="M1,M2,...", default=None,
                   help="rate multipliers for a saturation sweep "
                        "(e.g. 1,2,4,8); same queries at every rate")
    p.add_argument("--top", type=int, default=5,
                   help="hot nodes to report")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("analyze", help="structural + fault-tolerance analysis")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("traffic", help="Table 2 traffic comparison")
    common(p, topology=False)
    p.set_defaults(topology="makalu")
    p.add_argument("--ttl", type=int, default=5)
    p.add_argument("--queries", type=int, default=100)
    p.set_defaults(func=cmd_traffic)

    def churn_args(p, faults_flag=True):
        p.add_argument("--duration", type=float, default=150.0)
        p.add_argument("--session", type=float, default=100.0)
        p.add_argument("--offline", type=float, default=25.0)
        p.add_argument("--probe-queries", type=int, default=0,
                       help="flooding probes per snapshot (0 disables; "
                            "probes see any active message-loss window)")
        p.add_argument("--probe-ttl", type=int, default=4)
        p.add_argument("--health-interval", type=float, default=0.0,
                       help="structural-health sampling period (0 disables; "
                            "sampling never perturbs the churn trajectory)")
        p.add_argument("--health-sources", type=int, default=8,
                       help="BFS/expansion sources per health sample")
        if faults_flag:
            p.add_argument("--faults", metavar="SCENARIO", default=None,
                           help="fault scenario: a builtin name (see "
                                "'repro faults list') or a JSON file path")
        p.add_argument("--recovery", action="store_true",
                       help="enable retry-with-backoff neighbor recovery "
                            "instead of one-shot repair")
        p.add_argument("--recovery-retries", type=int, default=3)
        p.add_argument("--recovery-delay", type=float, default=2.0,
                       help="base retry delay (doubles per attempt by "
                            "default)")
        p.add_argument("--recovery-backoff", type=float, default=2.0)
        p.add_argument("--no-fallback", action="store_true",
                       help="disable the bounded host-cache fallback on "
                            "the final recovery attempt")

    p = sub.add_parser("churn", help="run the churn simulation")
    common(p, topology=False)
    churn_args(p)
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser("node",
                       help="live asyncio overlay "
                            "(run / boot / parity / churn)")
    nsub = p.add_subparsers(dest="node_command", required=True)

    np_ = nsub.add_parser("run", help="run one live peer")
    np_.add_argument("--node-id", type=int, default=0)
    np_.add_argument("--port", type=int, default=0,
                     help="listening port (0 = ephemeral)")
    np_.add_argument("--capacity", type=int, default=None,
                     help="Makalu degree capacity (enables live pruning)")
    np_.add_argument("--ttl", type=int, default=7)
    np_.add_argument("--duration", type=float, default=1.0,
                     help="seconds to serve before reporting and exiting")
    np_.add_argument("--connect", action="append", metavar="HOST:PORT",
                     default=None, help="peer to dial (repeatable)")
    np_.add_argument("--store", default=None,
                     help="comma-separated object keys this peer holds")
    np_.set_defaults(func=cmd_node_run)

    np_ = nsub.add_parser(
        "boot", help="boot N live peers into a seeded overlay and flood"
    )
    common(np_)
    np_.set_defaults(nodes=40)
    np_.add_argument("--ttl", type=int, default=6)
    np_.add_argument("--replication", type=float, default=0.1)
    np_.add_argument("--objects", type=int, default=10)
    np_.add_argument("--queries", type=int, default=20)
    np_.add_argument("--trace-dir", metavar="DIR", default=None,
                     help="write one peer-<id>.jsonl trace sink per peer "
                          "into DIR (merge with 'repro node trace DIR')")
    np_.add_argument("--telemetry-interval", type=float, default=0.0,
                     help="runtime-telemetry sampling period in seconds "
                          "(0 disables; samples event-loop lag and "
                          "per-peer gauges into node.runtime.*)")
    np_.set_defaults(func=cmd_node_boot)

    np_ = nsub.add_parser(
        "trace",
        help="merge per-peer trace sinks and reconstruct causal "
             "query trees",
    )
    np_.add_argument("inputs", nargs="+", metavar="PATH",
                     help="trace JSONL file(s) or directories of "
                          "peer-*.jsonl sinks")
    np_.add_argument("--export", metavar="PATH", default=None,
                     help="also write a Chrome/Perfetto trace "
                          "(one lane per peer, hop edges as flow events)")
    np_.add_argument("--require-complete", type=int, default=0,
                     metavar="N",
                     help="exit 1 unless at least N complete query trees "
                          "were reconstructed")
    np_.add_argument("--verbose", action="store_true",
                     help="print every hop edge of every tree")
    np_.set_defaults(func=cmd_node_trace)

    np_ = nsub.add_parser(
        "parity",
        help="replay one seeded scenario through sim and live; diff them",
    )
    np_.add_argument("--nodes", type=int, default=24)
    np_.add_argument("--seed", type=int, default=7)
    np_.add_argument("--ttl", type=int, default=6)
    np_.add_argument("--replication", type=float, default=0.1)
    np_.add_argument("--objects", type=int, default=8)
    np_.add_argument("--queries", type=int, default=12)
    np_.add_argument("--sim-out", metavar="PATH", default=None,
                     help="write the sim arm's metric snapshot")
    np_.add_argument("--live-out", metavar="PATH", default=None,
                     help="write the live arm's metric snapshot")
    np_.add_argument("--threshold", type=float, default=0.02,
                     help="relative divergence tolerated per metric")
    np_.add_argument("--fail-on-divergence", action="store_true",
                     help="exit 1 when any gated metric diverges")
    np_.set_defaults(func=cmd_node_parity)

    np_ = nsub.add_parser(
        "churn",
        help="replay a fault scenario against a running live overlay",
    )
    common(np_, topology=False)
    np_.set_defaults(nodes=32)
    np_.add_argument("--scenario", default="paper-live-failures",
                     help="builtin scenario name (see 'repro faults "
                          "list') or a JSON file path")
    np_.add_argument("--objects", type=int, default=12,
                     help="corpus size (distinct objects)")
    np_.add_argument("--k", type=int, default=3,
                     help="target replicas per object")
    np_.add_argument("--duration", type=float, default=150.0,
                     help="virtual horizon in scenario seconds")
    np_.add_argument("--time-scale", type=float, default=0.0,
                     help="wall seconds per virtual second between "
                          "events (0 = unpaced)")
    np_.add_argument("--heal-interval", type=float, default=10.0)
    np_.add_argument("--snapshot-interval", type=float, default=25.0,
                     help="durability sampling period (0 = final "
                          "census only)")
    np_.add_argument("--mean-offline", type=float, default=25.0,
                     help="mean exponential offline period before a "
                          "crashed peer rejoins")
    np_.add_argument("--no-heal", action="store_true",
                     help="disable the periodic healing sweep")
    np_.add_argument("--no-read-repair", action="store_true")
    np_.add_argument("--report-json", metavar="PATH", default=None,
                     help="write the replay + durability report as JSON")
    np_.set_defaults(func=cmd_node_churn)

    p = sub.add_parser(
        "content",
        help="content & replication plane (place / fetch / heal / report)",
    )
    csub = p.add_subparsers(dest="content_command", required=True)

    def content_args(cp, durability=True):
        common(cp, topology=False)
        cp.set_defaults(nodes=120)
        cp.add_argument("--objects", type=int, default=60,
                        help="corpus size (distinct objects)")
        cp.add_argument("--k", type=int, default=3,
                        help="target replicas per object")
        if durability:
            cp.add_argument("--duration", type=float, default=150.0)
            cp.add_argument(
                "--scenario", default="paper-live-failures",
                help="builtin scenario name, JSON file path, "
                     "'hub-failure' (2-wave 40%% top-degree crash), or "
                     "'none' for fault-free churn")
            cp.add_argument("--no-heal", action="store_true",
                            help="disable the background healing loop")
            cp.add_argument("--no-read-repair", action="store_true",
                            help="disable read-repair on fetch")
            cp.add_argument("--heal-interval", type=float, default=10.0)
            cp.add_argument("--fetch-probes", type=int, default=8,
                            help="fetch probes per snapshot (availability "
                                 "sampling)")

    cp = csub.add_parser(
        "place", help="preview a seeded placement (no churn)"
    )
    content_args(cp, durability=False)
    cp.set_defaults(seed=1234)
    cp.add_argument("--verbose", action="store_true",
                    help="print per-object holder lists")
    cp.add_argument("--manifest-json", metavar="PATH", default=None,
                    help="write the corpus manifests as JSON "
                         "(schemas/content_manifest.schema.json)")
    cp.set_defaults(func=cmd_content_place)

    cp = csub.add_parser(
        "fetch", help="run the durability sim, then issue fetches"
    )
    content_args(cp)
    cp.set_defaults(seed=1234)
    cp.add_argument("--queries", type=int, default=50,
                    help="end-of-run fetches to issue")
    cp.set_defaults(func=cmd_content_fetch)

    cp = csub.add_parser(
        "heal", help="run the durability sim and print the healing ledger"
    )
    content_args(cp)
    cp.set_defaults(seed=1234)
    cp.set_defaults(func=cmd_content_heal)

    cp = csub.add_parser(
        "report", help="per-snapshot durability table + final report"
    )
    content_args(cp)
    cp.set_defaults(seed=1234)
    cp.add_argument("--json", metavar="PATH", default=None,
                    help="also write the final report as JSON")
    cp.set_defaults(func=cmd_content_report)

    p = sub.add_parser("faults",
                       help="fault-injection scenarios (list / run)")
    fsub = p.add_subparsers(dest="faults_command", required=True)

    fp = fsub.add_parser("list", help="list built-in fault scenarios")
    fp.set_defaults(func=cmd_faults_list)

    fp = fsub.add_parser(
        "run", help="run a fault scenario over a churned Makalu overlay"
    )
    common(fp, topology=False)
    fp.add_argument("faults", metavar="SCENARIO",
                    help="builtin scenario name or JSON file path")
    churn_args(fp, faults_flag=False)
    fp.set_defaults(func=cmd_faults_run)

    from repro.obs.report import add_obs_subparsers

    add_obs_subparsers(sub)

    return parser


def _write_profile_json(profiler, path: str) -> None:
    import json

    doc = {
        "schema_version": 1,
        "report": profiler.report(),
        "timeline": profiler.timeline_report(),
        "timeline_dropped": profiler.timeline_dropped,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    metrics_json = getattr(args, "metrics_json", None)
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    profile_json = getattr(args, "profile_json", None)
    if not (metrics_json or trace_path or profile or profile_json):
        return args.func(args)

    # Fail before the run, not after it: all sinks are written at exit.
    for path in (metrics_json, trace_path, profile_json):
        parent = os.path.dirname(os.path.abspath(path)) if path else None
        if parent and not os.path.isdir(parent):
            print(f"error: cannot write {path}: "
                  f"directory {parent} does not exist", file=sys.stderr)
            return 2

    session = obs.configure(trace=trace_path or None,
                            profile=profile or bool(profile_json))
    try:
        rc = args.func(args)
    finally:
        # Flush artifacts even when the command raises: a crashed run
        # leaves partial-but-readable metrics, profile, and trace files
        # behind (disable() closes the JSONL sink, so ``repro obs
        # export-trace`` works on the truncated trace).
        obs.disable()
        if metrics_json:
            session.metrics.write_json(metrics_json)
            print(f"metrics snapshot written to {metrics_json}")
        if trace_path:
            print(f"trace written to {trace_path} "
                  f"({session.tracer.emitted} events)")
        if profile_json:
            _write_profile_json(session.profiler, profile_json)
            print(f"profile written to {profile_json}")
    if profile:
        print(session.profiler.format_report())
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
