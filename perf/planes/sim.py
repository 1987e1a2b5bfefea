"""Sim plane: the two discrete-event simulators.

``simulate_workload`` is heap and per-node service cost over an overlay
set-up built; ``run_durability`` is ``sim.churn`` + ``core.maintenance``
+ ``content.plane`` + ``faults.injector`` under the paper's failure
schedule, on an overlay it builds itself.  Neither touches the bulk
flood kernels.
"""

from __future__ import annotations

import time

from repro import obs
from repro.content.experiment import run_durability
from repro.search import place_objects
from repro.sim.queueing import simulate_workload
from repro.trace import GNUTELLA_2006
from repro.trace.workload import generate_workload

from harness import Phase, Run, mean, median

_INJECTOR_COUNTERS = ("faults.crashes", "faults.loss_windows",
                      "faults.latency_spikes", "faults.partitions",
                      "faults.partition_heals", "faults.stale_views")


def make_placement(run: Run, n_nodes: int):
    cfg = run.sizes["sim"]
    return place_objects(n_nodes, cfg["queue_objects"],
                         cfg["queue_replication"],
                         seed=run.seed_for("queue-placement"))


class SimPlane:
    """The queueing simulator on an overlay set-up built, then durability."""

    def __init__(self, run: Run, placement):
        self.run = run
        self.placement = placement
        self.cfg = run.sizes["sim"]
        self.graph = run.overlays[self.cfg["n_nodes"]]
        self.queue = Phase(run, "queue", self._queue_round)
        # The event count is an obs counter, so this one phase keeps a
        # metrics-only session on in the untraced run too.
        self.churn = Phase(run, "churn", self._churn_round, counters_only=True)

    def cycle(self, c: int) -> None:
        self.queue.cycle(c)
        self.churn.cycle(c)

    def _queue_round(self, r: int, seed: int):
        run, cfg = self.run, self.cfg
        t0 = time.perf_counter()
        with run.spans.span("trace.generate_workload"):
            workload = generate_workload(
                GNUTELLA_2006, cfg["queue_duration"],
                n_objects=cfg["queue_objects"],
                seed=run.seed_for("queue-arrivals", r))
        gen_s = time.perf_counter() - t0
        with run.spans.span("sim.simulate_workload"):
            result = simulate_workload(
                self.graph, workload, self.placement, ttl=cfg["queue_ttl"],
                seed=seed, service_time=cfg["service_time"],
                latency_scale=cfg["latency_scale"])
        return gen_s, result

    def _churn_round(self, r: int, seed: int):
        cfg = self.cfg
        with self.run.spans.span("sim.run_durability"):
            result = run_durability(
                n_nodes=cfg["churn_nodes"], n_objects=cfg["churn_objects"],
                duration=cfg["churn_duration"], seed=seed,
                scenario=cfg["scenario"], fetch_probes=cfg["fetch_probes"])
        events = obs.active().metrics.counter("sim.events_dispatched").value
        return events, result.report

    def finish(self) -> None:
        self._finish_queue()
        self._finish_churn()

    def _finish_queue(self) -> None:
        run, queue = self.run, self.queue
        results = [res for _, res in queue.results]
        served = [res.messages for res in results]
        run.tally(sum(res.n_queries for res in results),
                  sum(int((~res.resolved).sum()) for res in results))
        run.e2e_rate("queue_msgs_per_s", served, queue.walls,
                     f"{sum(served)} simulated messages in {len(served)} rounds "
                     f"on {self.graph.n_nodes} nodes")

        # Same input twice must serve the same messages with the same tail.
        # A traced run already replayed its last round as the untraced twin.
        first, last, twin = results[0], results[-1], queue.twin_result
        if twin is None:
            r = len(results) - 1
            with run.spans.span("check.queue_replay"):
                twin = self._queue_round(r, run.seed_for("queue", r))
        replay = twin[1]
        run.check(replay.messages == last.messages
                  and replay.response_quantile(0.99)
                  == last.response_quantile(0.99),
                  "simulate_workload is not repeatable on one input")

        if run.trace:
            run.layer("sim.queue_us_per_msg",
                      median([w / m * 1e6 for w, m in zip(queue.walls, served)]))
            run.layer("sim.queue_p99_virtual_s", first.response_quantile(0.99),
                      "round 0, virtual seconds")
            run.layer("sim.queue_util_max", float(first.utilization.max()),
                      "round 0, busiest node")
            run.layer("trace.generate_workload_s",
                      median([gen_s for gen_s, _ in queue.results]))

    def _finish_churn(self) -> None:
        run, churn, cfg = self.run, self.churn, self.cfg
        dispatched = [events for events, _ in churn.results]
        reports = [report for _, report in churn.results]
        # Crashes, partitions and 5 % loss are the scenario, not failures of
        # the simulator: every dispatched event is an operation that ran.
        run.tally(sum(dispatched))
        run.e2e_rate("churn_events_per_s", dispatched, churn.walls,
                     f"{sum(dispatched)} events in {len(dispatched)} rounds of "
                     f"{cfg['churn_nodes']} nodes")
        worst = min(rep.availability for rep in reports)
        run.check(worst >= cfg["min_availability"],
                  f"availability {worst:.4f} < {cfg['min_availability']} "
                  f"under {cfg['scenario']}")

        if run.trace:
            k = len(reports)
            c = churn.obs.counters
            for name, leaf in (
                    ("sim.churn_initial_build_s", "churn.initial_build"),
                    ("sim.churn_join_s", "churn.join"),
                    ("sim.churn_repair_s", "churn.repair")):
                run.layer(name, churn.obs.spans.get(leaf, 0.0) / k)
            run.layer("content.heal_pushes",
                      mean([r.heal_pushes for r in reports]))
            run.layer("content.heal_bytes",
                      mean([r.heal_bytes for r in reports]))
            run.layer("content.fetch_hit_ratio",
                      sum(r.fetch_hits for r in reports)
                      / max(sum(r.fetch_requests for r in reports), 1))
            run.layer("content.availability", worst, "lowest round")
            run.layer("faults.injector_events",
                      sum(c.get(name, 0) for name in _INJECTOR_COUNTERS) / k)
            run.layer("core.recovery_attempts",
                      c.get("recovery.attempts", 0) / k)
