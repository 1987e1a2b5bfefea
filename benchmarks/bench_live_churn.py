#!/usr/bin/env python
"""Live overlay under scenario churn: durability, reclaim, sim parity.

Three arms over real asyncio peers sharing one experiment seed:

* ``plf_heal_on`` — replays ``paper-live-failures`` against a running
  :class:`~repro.node.boot.LiveOverlay` through
  :func:`~repro.node.churn.run_live_churn` with healing and read-repair
  on.  The headline gate: the live plane must hold
  ``--min-availability`` (default 99%) of objects fetchable at every
  sample and lose nothing.
* ``reclaim`` — an explicit kill-then-rejoin of a placed owner: after
  the rejoin's ``on_join`` rebalance and one heal sweep, the owner must
  hold every key placed on it again and each of those keys must have
  converged back to its pure placement (the trim preference reclaims).
* ``parity`` — the *same* explicit shape through the simulation plane
  (same graph, corpus, and placement seed): sim and live must charge
  identical rebalance pushes, heal pushes, and trims, or the two planes
  have drifted.

Outputs: run history appended to ``BENCH_live_churn.json``; with
``--metrics-json``, a schema-v3 snapshot of ``live_churn.*`` gauges —
the artifact CI diffs against
``benchmarks/results/baseline_live_churn_snapshot.json`` with
``repro obs diff --fail-on-regression``.

The bench **fails** (exit 1) when any gate above does not hold.

Usage::

    PYTHONPATH=src python benchmarks/bench_live_churn.py \
        [--nodes 24] [--objects 10] [--duration 150] \
        [--out BENCH_live_churn.json] [--metrics-json PATH]
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import os
import socket
import sys
import time

from _report import append_run, git_sha

from repro import obs
from repro.content.experiment import (
    _PLACEMENT_SALT,
    build_placement,
)
from repro.content.live import LiveContent
from repro.content.plane import ContentConfig, ContentPlane
from repro.faults.scenario import load_scenario
from repro.node.boot import LiveOverlay
from repro.node.churn import run_live_churn_sync
from repro.sim.churn import ChurnConfig, ChurnSimulation
from repro.util.rng import derive_seed

EXPERIMENT_SEED = 7410


def run_plf_arm(args) -> dict:
    """Headline arm: paper-live-failures against the live overlay."""
    t0 = time.perf_counter()
    result = run_live_churn_sync(
        load_scenario("paper-live-failures"),
        n_nodes=args.nodes, n_objects=args.objects,
        seed=EXPERIMENT_SEED, k=args.k, duration=args.duration,
        heal_enabled=True, read_repair=True,
        snapshot_interval=args.duration / 6.0,
    )
    wall = time.perf_counter() - t0
    rep, d = result.report, result.durability
    for name, value in [
        ("availability", d.availability),
        ("min_availability", d.min_availability),
        ("objects_lost", float(d.objects_lost)),
        ("objects_degraded", float(d.objects_degraded)),
        ("kills", float(rep.kills)),
        ("revives", float(rep.revives)),
        ("heal_pushes", float(d.heal_pushes)),
        ("heal_trims", float(d.heal_trims)),
        ("rebalance_pushes", float(d.rebalance_pushes)),
        ("events_skipped", float(rep.events_skipped)),
    ]:
        obs.gauge(f"live_churn.plf.{name}", value)
    print(f"  plf_heal_on  avail {d.availability:.4f} "
          f"(min {d.min_availability:.4f})  lost {d.objects_lost}  "
          f"kills {rep.kills}  revives {rep.revives}  "
          f"heal {d.heal_pushes}p  rebalance {d.rebalance_pushes}p  "
          f"({wall:.1f}s wall)", flush=True)
    return {
        "scenario": rep.scenario,
        "availability": round(d.availability, 4),
        "min_availability": round(d.min_availability, 4),
        "objects_lost": d.objects_lost,
        "objects_degraded": d.objects_degraded,
        "kills": rep.kills,
        "revives": rep.revives,
        "heal_ticks": rep.heal_ticks,
        "heal_pushes": d.heal_pushes,
        "heal_trims": d.heal_trims,
        "rebalance_pushes": d.rebalance_pushes,
        "events_skipped": rep.events_skipped,
        "wall_s": round(wall, 2),
    }


def run_reclaim_arm(args) -> dict:
    """Kill-then-rejoin a placed owner live; it must reclaim its keys."""
    graph, objects, placement = build_placement(
        n_nodes=args.nodes, n_objects=args.objects,
        seed=EXPERIMENT_SEED, k=args.k,
    )
    victim = placement.replicas(objects[0].key)[0]
    owned = placement.keys_placed_on(victim)

    async def run():
        overlay = LiveOverlay(graph)
        await overlay.start()
        try:
            lc = LiveContent(overlay, objects, placement,
                             ContentConfig(k=args.k))
            lc.seed_stores()
            await overlay.kill_peer(victim)
            heal_after_kill = await lc.heal()
            await overlay.revive_peer(victim)
            pushes = await lc.on_join(victim)
            heal_after_join = await lc.heal()
            reclaimed = all(
                overlay.nodes[victim].content.has_object(key)
                for key in owned
            )
            converged = all(
                sorted(lc.live_holders(key))
                == sorted(placement.replicas(key))
                for key in owned
            )
            return {
                "victim": victim,
                "keys_owned": len(owned),
                "heal_pushes_after_kill": heal_after_kill,
                "rebalance_pushes": pushes,
                "heal_pushes_after_join": heal_after_join,
                "heal_trims": lc.stats["heal.trims"],
                "reclaimed": reclaimed,
                "converged": converged,
            }
        finally:
            await overlay.stop()

    t0 = time.perf_counter()
    arm = asyncio.run(run())
    arm["wall_s"] = round(time.perf_counter() - t0, 2)
    obs.gauge("live_churn.reclaim.keys_owned", float(arm["keys_owned"]))
    obs.gauge("live_churn.reclaim.rebalance_pushes",
              float(arm["rebalance_pushes"]))
    obs.gauge("live_churn.reclaim.heal_trims", float(arm["heal_trims"]))
    obs.gauge("live_churn.reclaim.reclaimed", float(arm["reclaimed"]))
    obs.gauge("live_churn.reclaim.converged", float(arm["converged"]))
    print(f"  reclaim      owner {arm['victim']} holds "
          f"{arm['keys_owned']} placed key(s): "
          f"rebalance {arm['rebalance_pushes']}p, "
          f"trims {arm['heal_trims']}, "
          f"reclaimed={arm['reclaimed']} converged={arm['converged']} "
          f"({arm['wall_s']}s wall)", flush=True)
    return arm


def run_parity_arm(args, live: dict) -> dict:
    """The reclaim shape through the sim plane; accounting must match."""
    t0 = time.perf_counter()
    _, objects, live_placement = build_placement(
        n_nodes=args.nodes, n_objects=args.objects,
        seed=EXPERIMENT_SEED, k=args.k,
    )
    plane = ContentPlane(objects, ContentConfig(
        k=args.k,
        placement_seed=derive_seed(EXPERIMENT_SEED, _PLACEMENT_SALT),
    ))
    sim = ChurnSimulation(
        n_nodes=args.nodes, seed=EXPERIMENT_SEED, content=plane,
        churn_config=ChurnConfig(snapshot_interval=1e6, mean_session=1e9),
    )
    sim.run(0.5)
    placement_match = all(
        tuple(plane.placement.replicas(o.key))
        == tuple(live_placement.replicas(o.key))
        for o in objects
    )
    victim = live["victim"]
    sim.crash_nodes([victim], rejoin=False)
    heal_after_kill = plane.heal()
    sim.rejoin_nodes([victim])
    heal_after_join = plane.heal()
    arm = {
        "placement_match": placement_match,
        "heal_pushes_after_kill": heal_after_kill,
        "rebalance_pushes": plane.stats["rebalance.pushes"],
        "heal_pushes_after_join": heal_after_join,
        "heal_trims": plane.stats["heal.trims"],
        "wall_s": round(time.perf_counter() - t0, 2),
    }
    match = (
        placement_match
        and arm["rebalance_pushes"] == live["rebalance_pushes"]
        and arm["heal_pushes_after_kill"] == live["heal_pushes_after_kill"]
        and arm["heal_pushes_after_join"] == live["heal_pushes_after_join"]
        and arm["heal_trims"] == live["heal_trims"]
    )
    arm["match"] = match
    obs.gauge("live_churn.parity.rebalance_pushes",
              float(arm["rebalance_pushes"]))
    obs.gauge("live_churn.parity.match", float(match))
    print(f"  parity       sim rebalance {arm['rebalance_pushes']}p "
          f"heal {heal_after_kill}+{heal_after_join}p "
          f"trims {arm['heal_trims']} "
          f"placement_match={placement_match} match={match} "
          f"({arm['wall_s']}s wall)", flush=True)
    return arm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=24,
                        help="live overlay size (default: %(default)s)")
    parser.add_argument("--objects", type=int, default=10,
                        help="corpus size (default: %(default)s)")
    parser.add_argument("--duration", type=float, default=150.0,
                        help="virtual seconds for the scenario arm "
                             "(default: %(default)s)")
    parser.add_argument("--k", type=int, default=3,
                        help="target replicas per object "
                             "(default: %(default)s)")
    parser.add_argument("--min-availability", type=float, default=0.99,
                        help="least healing-on availability under "
                             "paper-live-failures that counts as "
                             "reproducing the claim (default: %(default)s)")
    parser.add_argument("--out", default="BENCH_live_churn.json",
                        help="run-history JSON path (default: %(default)s)")
    parser.add_argument("--metrics-json", default=None,
                        help="write the schema-v3 metrics snapshot "
                             "(live_churn.* gauges) to PATH")
    args = parser.parse_args(argv)

    print(f"live churn bench: {args.nodes} asyncio peers, "
          f"{args.objects} objects, k={args.k}, {args.duration:g}s "
          f"virtual, seed {EXPERIMENT_SEED}", flush=True)

    session = obs.configure()
    plf = run_plf_arm(args)
    reclaim = run_reclaim_arm(args)
    parity = run_parity_arm(args, reclaim)
    obs.disable()

    if args.metrics_json:
        session.metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {args.metrics_json}")

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(),
        "config": {
            "benchmark": "live churn: scenario replay on real sockets",
            "n_nodes": args.nodes,
            "n_objects": args.objects,
            "duration_s": args.duration,
            "k": args.k,
            "seed": EXPERIMENT_SEED,
        },
        "host": {"cpu_count": os.cpu_count(), "name": socket.gethostname()},
        "arms": {"plf_heal_on": plf, "reclaim": reclaim, "parity": parity},
    }
    history = append_run(args.out, record)
    print(f"appended run {len(history['runs'])} to {args.out}")

    failed = False
    if plf["availability"] < args.min_availability:
        print(f"FAIL: live healing-on availability {plf['availability']:.4f} "
              f"under paper-live-failures "
              f"(claim needs >= {args.min_availability:g})", file=sys.stderr)
        failed = True
    if plf["objects_lost"] > 0:
        print(f"FAIL: live healing-on lost {plf['objects_lost']} objects "
              f"under paper-live-failures (claim needs 0)", file=sys.stderr)
        failed = True
    if plf["kills"] == 0 or plf["revives"] == 0:
        print(f"FAIL: scenario injected {plf['kills']} kills / "
              f"{plf['revives']} revives — the arm exercised nothing",
              file=sys.stderr)
        failed = True
    if reclaim["keys_owned"] == 0 or reclaim["rebalance_pushes"] == 0:
        print("FAIL: reclaim victim owned no placed keys or rejoin pushed "
              "nothing — the reclaim arm has no teeth", file=sys.stderr)
        failed = True
    if not reclaim["reclaimed"]:
        print("FAIL: killed-then-rejoined owner did not get its placed "
              "keys back", file=sys.stderr)
        failed = True
    if not reclaim["converged"]:
        print("FAIL: holders did not converge back to the pure placement "
              "after the rejoin heal sweep", file=sys.stderr)
        failed = True
    if not parity["match"]:
        print("FAIL: sim and live planes charged different rebalance/heal "
              "accounting for the same churn shape", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"claim reproduced live: healing holds "
          f"{100 * plf['availability']:.1f}% availability on real sockets "
          f"under paper-live-failures; a rejoining owner reclaims its "
          f"{reclaim['keys_owned']} placed key(s) "
          f"({reclaim['rebalance_pushes']} pushes, matching sim)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
