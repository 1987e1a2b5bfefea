"""Build plane: ``repro.core`` bulk construction, then single-node repair.

Bulk build and repair use ``core`` differently — every node at once
against one node at a time — so a build win that costs maintenance shows
as ``repair_events_per_s`` falling.  The default ``MakaluConfig()`` is
used on purpose: swapping or retiring a rating engine moves the number.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.spectral import algebraic_connectivity
from repro.core.maintenance import repair_after_failure
from repro.core.makalu import MakaluBuilder
from repro.netmodel import EuclideanModel
from repro.topology.graph import OverlayGraph

from harness import Phase, Run, median, percentile, timing_note

MIN_MEAN_DEGREE = 10.5


def _cut_off(graph: OverlayGraph) -> int:
    """Nodes outside the giant component (isolated ones included)."""
    _, labels = graph.connected_components()
    return int(np.count_nonzero(labels != np.bincount(labels).argmax()))


class BuildPlane:
    """Timed bulk builds, then repair events on round 0's overlay."""

    def __init__(self, run: Run):
        self.run = run
        self.n = run.sizes["build"]["n_nodes"]
        self.events = run.sizes["build"]["repair_events"]
        self.builder = None
        self.alive = np.ones(self.n, dtype=bool)
        self.victims = np.random.default_rng(
            run.seed_for("victims")).permutation(self.n)
        self.build = Phase(run, "build", self._build_round)
        self.repair = Phase(run, "repair", self._repair_round, twin=False)

    def cycle(self, c: int) -> None:
        self.build.cycle(c)
        self.repair.cycle(c)

    def _build_round(self, r: int, seed: int):
        run, n, span = self.run, self.n, self.run.spans.span
        with span("netmodel.init"):
            model = EuclideanModel(n, seed=run.seed_for("model", r))
        builder = MakaluBuilder(model=model, seed=seed)
        order = np.random.default_rng(run.seed_for("order", r)).permutation(n)
        t0 = time.perf_counter()
        for u in order.tolist():
            with span("core.join"):
                builder.join(u)
        t1 = time.perf_counter()
        with span("core.refine"):
            builder.refine()
        t2 = time.perf_counter()
        with span("core.fill"):
            builder.fill()
        t3 = time.perf_counter()
        with span("topology.freeze"):
            graph = builder.adj.freeze()
        t4 = time.perf_counter()
        if self.builder is None:
            # Round 0: the overlay the repairs fail nodes of.
            self.builder = builder
        return graph, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)

    def _repair_round(self, r: int, seed: int):
        span = self.run.spans.span
        events = self.events
        for v in self.victims[r * events:(r + 1) * events].tolist():
            with span("core.repair"):
                repair_after_failure(self.builder, [v], rejoin=True,
                                     max_passes=1)
            self.alive[v] = False
        return events

    def finish(self) -> None:
        run, n = self.run, self.n
        floor = self.builder.config.min_degree_floor
        stages = [parts for _, parts in self.build.results]
        run.e2e_rate("build_nodes_per_s", [n] * len(stages),
                     [sum(parts) for parts in stages],
                     f"{n} nodes, {len(stages)} round(s) of join + refine + "
                     f"fill + freeze")
        for graph, _ in self.build.results:
            self._check_overlay(graph, floor)

        walls, done = self.repair.walls, self.repair.results
        run.e2e_rate("repair_events_per_s", done, walls,
                     f"{sum(done)} single-node failures in {len(walls)} rounds")
        survivors, _ = self.builder.adj.freeze().subgraph(self.alive)
        cut_off = _cut_off(survivors)
        low = int(np.count_nonzero(survivors.degrees < floor))
        # One acquisition pass per event (max_passes=1) can leave a survivor
        # short of the floor until a later event touches it again: that is
        # the protocol, not a failed repair.  Cut off is a failed repair.
        run.tally(sum(done), cut_off)
        allowed = max(1, survivors.n_nodes // 1000)
        run.check(cut_off == 0 and low <= allowed,
                  f"repair left {cut_off} survivor(s) cut off and {low} under "
                  f"the degree floor (at most {allowed} allowed)")
        if run.trace:
            self._layers(stages)

    def _check_overlay(self, graph: OverlayGraph, floor: int) -> None:
        run = self.run
        with run.spans.span("check.overlay"):
            cut_off = _cut_off(graph)
            lam2 = algebraic_connectivity(graph)
        low = int(np.count_nonzero(graph.degrees < floor))
        run.tally(graph.n_nodes, cut_off + low)
        run.check(graph.mean_degree >= MIN_MEAN_DEGREE,
                  f"build: mean degree {graph.mean_degree:.2f} < "
                  f"{MIN_MEAN_DEGREE}")
        run.check(cut_off == 0,
                  f"build: {cut_off} node(s) outside the giant component")
        run.check(low == 0, f"build: {low} node(s) under the floor {floor}")
        want = 0.8 * run.sizes["lambda2_reference"]
        run.check(lam2 >= want, f"build: lambda2 {lam2:.3f} < {want:.3f}")

    def _layers(self, stages) -> None:
        """Per-layer figures of build and repair; counters are per round."""
        run = self.run
        for i, name in enumerate(("core.join_s", "core.refine_s",
                                  "core.fill_s", "topology.freeze_s")):
            run.layer(name, median([parts[i] for parts in stages]))
        # Set-up builds the same model; these are the build rounds' own.
        inits = [s[2] - s[1] for s in run.spans.spans
                 if s[0] == "netmodel.init" and s[4].startswith("build#")]
        run.layer("netmodel.init_s", median(inits))
        joins = run.spans.durations("core.join")
        run.layer("core.join_p50_us", median(joins) * 1e6,
                  timing_note(joins, 1e6, "us"))
        run.layer("core.join_p95_us", percentile(joins, 95) * 1e6)
        c = self.build.obs.counters
        k = len(stages)
        attempted = c.get("makalu.connections_attempted", 0)
        hits = c.get("rating_cache.hits", 0)
        rated = hits + c.get("rating_cache.full_recomputes", 0)
        run.layer("core.rating_calls", c.get("makalu.rating_calls", 0) / k)
        run.layer("core.connections_attempted", attempted / k)
        run.layer("core.accept_ratio",
                  c.get("makalu.connections_accepted", 0) / max(attempted, 1))
        run.layer("core.prunes", c.get("makalu.prunes", 0) / k)
        run.layer("core.rating_cache_hit_ratio", hits / max(rated, 1))
        repairs = run.spans.durations("core.repair")
        run.layer("core.repair_s", median(self.repair.walls))
        run.layer("core.repair_p95_ms", percentile(repairs, 95) * 1e3,
                  timing_note(repairs, 1e3, "ms"))
