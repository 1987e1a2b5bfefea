"""Search plane: the flood kernels four ways, then identifier routing.

Scalar, batched and 2-worker floods are the same kernel behind three
executors; the lossy phase is the batched kernel again with a
``LinkFaults`` environment threaded through it.  ``core`` does no work
here: set-up built the overlay.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from repro.faults.link import LinkFaults
from repro.parallel import run_queries
from repro.parallel.shared_graph import SharedGraph
from repro.search import (AbfRouter, build_attenuated_filters,
                          draw_query_workload, flood_queries,
                          identifier_queries, place_objects, placement_masks)

from harness import Phase, Run, median, rate

_FLOOD_FIELDS = ("source", "ttl", "first_hit_hop", "replicas_found")
_FLOOD_ARRAYS = ("messages_per_hop", "new_nodes_per_hop",
                 "duplicates_per_hop", "dropped_per_hop")


def make_placement(run: Run, n_nodes: int):
    cfg = run.sizes["search"]
    return place_objects(n_nodes, cfg["objects"], cfg["replication"],
                         seed=run.seed_for("search-placement"))


def _same_floods(a, b) -> int:
    """How many positions of two result lists differ in any field."""
    bad = abs(len(a) - len(b))
    for x, y in zip(a, b):
        same = all(getattr(x, f) == getattr(y, f) for f in _FLOOD_FIELDS)
        for f in _FLOOD_ARRAYS:
            xa, ya = getattr(x, f), getattr(y, f)
            same = same and ((xa is None and ya is None) or (
                xa is not None and ya is not None and np.array_equal(xa, ya)))
        bad += not same
    return bad


def _digest(results) -> dict:
    """What ``finish`` needs of one round's flood results."""
    return {
        "unresolved": sum(not q.success for q in results),
        "messages": sum(q.total_messages for q in results),
        "duplicates": sum(int(q.duplicates_per_hop.sum()) for q in results),
        "dropped": sum(q.total_dropped for q in results),
    }


def _noop(_):
    return None


def _pool(workers: int):
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method).Pool(workers)


class SearchPlane:
    """Five timed phases on an overlay set-up built."""

    def __init__(self, run: Run, placement):
        self.run = run
        self.placement = placement
        cfg = self.cfg = run.sizes["search"]
        self.graph = run.overlays[cfg["n_nodes"]]
        batch = cfg["batch_size"]
        self.faults = LinkFaults(loss_rate=cfg["loss_rate"],
                                 seed=run.seed_for("loss-stream"))
        #: phase -> (queries per round, Phase); the same kernel four ways.
        self.floods = {}
        for phase, q_key, span_name, kwargs in (
                ("flood_scalar", "scalar_q", "search.flood_scalar", {}),
                ("flood_batch", "batch_q", "search.flood_batch",
                 {"batch_size": batch}),
                ("flood_lossy", "lossy_q", "search.flood_lossy",
                 {"batch_size": batch, "faults": self.faults})):
            self.floods[phase] = cfg[q_key], Phase(
                run, phase, self._flood_body(cfg[q_key], span_name, kwargs),
                digest=_digest)
        self.sharded = Phase(run, "flood_parallel", self._parallel_round)
        self.identifier = Phase(
            run, "identifier", self._identifier_round,
            digest=lambda res: (res[0], [(q.success, q.messages)
                                         for q in res[1]]))

    def _flood_body(self, n_queries: int, span_name: str, kwargs: dict):
        run, ttl = self.run, self.cfg["ttl"]

        def body(r: int, seed: int):
            with run.spans.span(span_name):
                return flood_queries(self.graph, self.placement, n_queries,
                                     ttl, seed=seed, **kwargs)
        return body

    def _parallel_round(self, r: int, seed: int):
        """One burst of 2-worker floods: warm-up calls, then the timed ones.

        The second core of this VM is slow to arrive after seconds of one
        busy process: the first sharded calls of a burst run both workers
        at half speed.  So the calls run in a row, not spread over the
        cycles, and the first few are not timed.  Traced, the timed
        queries then run again on one worker, for the speed-up.
        """
        run, cfg = self.run, self.cfg
        graph, placement, ttl = self.graph, self.placement, cfg["ttl"]
        n_queries, batch = cfg["parallel_q"], cfg["batch_size"]
        warm, calls = cfg["parallel_warm_calls"], cfg["parallel_calls"]
        unresolved, two_s, one_s = 0, [], []
        for call in range(-warm, calls):
            t0 = time.perf_counter()
            with run.spans.span("parallel.flood_queries"):
                results = flood_queries(graph, placement, n_queries, ttl,
                                        seed=run.seed_for(seed, call),
                                        n_workers=cfg["workers"],
                                        batch_size=batch)
            if call >= 0:
                two_s.append(time.perf_counter() - t0)
                unresolved += sum(not q.success for q in results)
        for call in range(calls if run.spans.enabled else 0):
            t0 = time.perf_counter()
            with run.spans.span("parallel.run_queries_one_worker"):
                run_queries(graph, placement, n_queries, ttl,
                            seed=run.seed_for(seed, call), n_workers=1,
                            batch_size=batch)
            one_s.append(time.perf_counter() - t0)
        return unresolved, two_s, one_s

    def _identifier_round(self, r: int, seed: int):
        run, cfg = self.run, self.cfg
        t0 = time.perf_counter()
        with run.spans.span("search.abf_build"):
            filters = build_attenuated_filters(self.graph, self.placement,
                                               depth=cfg["abf_depth"])
        abf_s = time.perf_counter() - t0
        with run.spans.span("search.identifier_queries"):
            found = identifier_queries(
                AbfRouter(self.graph, filters), self.placement,
                cfg["identifier_q"], ttl=cfg["identifier_ttl"], seed=seed)
        return abf_s, found

    def cycle(self, c: int) -> None:
        for _, phase in self.floods.values():
            phase.cycle(c)
        self.sharded.cycle(c)
        self.identifier.cycle(c)

    def finish(self) -> None:
        run, cfg = self.run, self.cfg
        note = f"ttl {cfg['ttl']}, {self.graph.n_nodes} nodes"
        qps = {}
        for phase, (n_queries, p) in self.floods.items():
            run.tally(n_queries * len(p.results),
                      sum(res["unresolved"] for res in p.results))
            qps[phase] = run.e2e_rate(
                f"{phase}_qps", [n_queries] * len(p.walls), p.walls,
                f"{n_queries} q/round x {len(p.walls)}, {note}")

        n_queries = cfg["parallel_q"]
        two_s = [s for _, burst, _ in self.sharded.results for s in burst]
        one_s = [s for _, _, burst in self.sharded.results for s in burst]
        run.tally(n_queries * len(two_s),
                  sum(u for u, _, _ in self.sharded.results))
        run.e2e_rate("flood_parallel_qps", [n_queries] * len(two_s), two_s,
                     f"{n_queries} q/call x {len(two_s)} in a row after "
                     f"{cfg['parallel_warm_calls']} untimed, {cfg['workers']} "
                     f"workers, pool start included, {note}")

        ident = self.identifier
        routed = [q for _, found in ident.results for q in found]
        resolved = sum(success for success, _ in routed)
        run.tally(len(routed), len(routed) - resolved)
        run.e2e_rate("identifier_qps", [cfg["identifier_q"]] * len(ident.walls),
                     ident.walls, f"{cfg['identifier_q']} q/round x "
                     f"{len(ident.walls)}, ABF build included")
        run.check(resolved >= 0.99 * len(routed),
                  f"identifier success {resolved}/{len(routed)} < 0.99")

        _check_equivalence(run, self.graph, self.placement, self.faults)
        if not run.trace:
            return

        scalar, batched, lossy = (self.floods[p][1] for p in
                                  ("flood_scalar", "flood_batch", "flood_lossy"))
        msgs = [res["messages"] for res in scalar.results]
        dups = sum(res["duplicates"] for res in scalar.results)
        run.layer("search.msgs_per_query",
                  sum(msgs) / (cfg["scalar_q"] * len(msgs)))
        run.layer("search.duplicate_fraction", dups / sum(msgs))
        run.layer("search.flood_scalar_msgs_per_s", rate(msgs, scalar.walls))
        run.layer("search.flood_batch_msgs_per_s",
                  rate([res["messages"] for res in batched.results],
                       batched.walls))
        lossy_msgs = sum(res["messages"] for res in lossy.results)
        lossy_lost = sum(res["dropped"] for res in lossy.results)
        run.layer("faults.lossy_slowdown",
                  qps["flood_batch"] / qps["flood_lossy"])
        run.layer("faults.messages_lost_share", lossy_lost / lossy_msgs)
        run.layer("parallel.speedup_vs_inprocess",
                  median(one_s) / median(two_s),
                  f"{cfg['workers']} workers against 1 on the same queries")
        run.layer("search.abf_build_s",
                  median([abf_s for abf_s, _ in ident.results]))
        run.layer("search.identifier_hops_p50",
                  median([messages for _, messages in routed]))
        run.layer("search.identifier_success", resolved / len(routed))
        _micro(run, self.graph, self.placement, self.faults)


def _check_equivalence(run: Run, graph, placement, faults) -> None:
    """Scalar = batched = 2-worker, field for field; same again with loss."""
    cfg = run.sizes["search"]
    ttl, batch = cfg["ttl"], cfg["batch_size"]
    seed = run.seed_for("equivalence")
    with run.spans.span("check.flood_equivalence"):
        n = cfg["check_q"]
        scalar = flood_queries(graph, placement, n, ttl, seed=seed)
        batched = flood_queries(graph, placement, n, ttl, seed=seed,
                                batch_size=batch)
        sharded = flood_queries(graph, placement, n, ttl, seed=seed,
                                n_workers=cfg["workers"], batch_size=batch)
        m = cfg["check_lossy_q"]
        lossy_scalar = flood_queries(graph, placement, m, ttl, seed=seed,
                                     faults=faults)
        lossy_batched = flood_queries(graph, placement, m, ttl, seed=seed,
                                      batch_size=batch, faults=faults)
    mismatched = (_same_floods(scalar, batched) + _same_floods(scalar, sharded)
                  + _same_floods(lossy_scalar, lossy_batched))
    run.tally(3 * n + 2 * m, mismatched)
    run.check(mismatched == 0,
              f"{mismatched} cross-engine flood result mismatch(es)")


def _micro(run: Run, graph, placement, faults) -> None:
    """Single-call layer costs the phase rates are made of (traced only)."""
    cfg = run.sizes["search"]
    span = run.spans.span
    seed = run.seed_for("micro")
    with run.observing():
        with span("perf.micro"):
            t0 = time.perf_counter()
            with span("search.draw_query_workload"):
                _, objects = draw_query_workload(graph, placement,
                                                 cfg["batch_q"], seed=seed)
            t1 = time.perf_counter()
            with span("search.placement_masks"):
                placement_masks(placement, objects[:cfg["batch_size"]])
            t2 = time.perf_counter()
            with span("parallel.shared_graph"):
                with SharedGraph(graph):
                    pass
            t3 = time.perf_counter()
            with span("parallel.pool_start"):
                with _pool(cfg["workers"]) as pool:
                    pool.map(_noop, range(cfg["workers"]))
            t4 = time.perf_counter()
            rng = np.random.default_rng(seed)
            block = cfg["drop_block"]
            senders = rng.integers(0, graph.n_nodes, size=block)
            receivers = rng.integers(0, graph.n_nodes, size=block)
            t5 = time.perf_counter()
            with span("faults.drop"):
                faults.drop(0, 1, senders, receivers)
            t6 = time.perf_counter()
    run.layer("search.draw_workload_s", t1 - t0)
    run.layer("search.placement_masks_s", t2 - t1,
              f"one {cfg['batch_size']}-query batch")
    run.layer("parallel.shared_graph_setup_s", t3 - t2)
    run.layer("parallel.pool_start_s", t4 - t3)
    run.layer("faults.drop_decisions_per_s", block / (t6 - t5),
              f"LinkFaults.drop on one {block}-message block")
