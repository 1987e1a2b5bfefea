"""Live plane: asyncio peers on loopback TCP (127.0.0.1, port 0).

The only plane where sockets, framing and quiescence detection matter.
Floods and fetches read through the wire path; heal and rebalance write
through the same path in the other direction.  One client, closed loop:
each operation is awaited before the next is issued, and a per-operation
timeout counts as a failed operation instead of hanging the run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.content.live import LiveContent
from repro.content.manifest import (ContentObject, chunk_object,
                                    generate_objects, reassemble)
from repro.content.placement import ContentPlacement, place_content
from repro.content.plane import ContentConfig
from repro.content.store import ContentStore
from repro.core.makalu import makalu_graph
from repro.node.boot import LiveOverlay
from repro.node.framer import StreamFramer
from repro.protocol.messages import Query, decode_message
from repro.search import flood
from repro.topology.graph import OverlayGraph

from harness import Phase, Run, median, percentile, rate, timing_note


@dataclass
class LiveInputs:
    """What a live run is seeded with: topology, corpus, placement."""

    graph: OverlayGraph
    objects: List[ContentObject]
    placement: ContentPlacement


def make_inputs(run: Run) -> LiveInputs:
    cfg = run.sizes["live"]
    span = run.spans.span
    with span("core.makalu_graph"):
        graph = makalu_graph(n_nodes=cfg["peers"],
                             seed=run.seed_for("live-graph"))
    with span("content.generate_objects"):
        objects = generate_objects(cfg["objects"],
                                   seed=run.seed_for("live-corpus"),
                                   size_range=tuple(cfg["size_range"]))
    with span("content.place_content"):
        placement = place_content(graph, [o.key for o in objects], k=cfg["k"],
                                  seed=run.seed_for("live-placement"))
    return LiveInputs(graph, objects, placement)


async def boot(run: Run, inputs: LiveInputs):
    """Start every peer, dial every edge, load the placed replicas."""
    overlay = LiveOverlay(inputs.graph)
    try:
        with run.spans.span("node.start"):
            await overlay.start()
        content = LiveContent(
            overlay, inputs.objects, inputs.placement,
            ContentConfig(k=run.sizes["live"]["k"], read_repair=False))
        with run.spans.span("content.seed_stores"):
            content.seed_stores()
    except BaseException:
        await overlay.stop()
        raise
    return overlay, content


def boot_and_stop(run: Run, inputs: LiveInputs) -> None:
    """One peer boot as set-up pays it, torn down again."""
    async def main():
        overlay, _ = await boot(run, inputs)
        with run.spans.span("node.stop"):
            await overlay.stop()
    asyncio.run(main())


def _tx_frames(overlay: LiveOverlay) -> int:
    return sum(n.metrics.snapshot()["counters"].get("node.tx.messages", 0)
               for n in overlay.nodes)


class LivePlane:
    """Floods, fetches and kill/heal/revive rounds on freshly booted peers.

    Every cycle boots its own overlay from the same seeded inputs and
    stops it in ``finally``, so a heal round's moved replicas never leak
    into the next cycle's floods and fetches.  The plane owns one event
    loop; each round runs to completion on it before the next phase of
    the run (of any plane) starts.
    """

    def __init__(self, run: Run, inputs: LiveInputs):
        self.run = run
        self.inputs = inputs
        self.cfg = run.sizes["live"]
        self.loop = asyncio.new_event_loop()
        self.overlay = self.content = None
        self.floods = Phase(run, "live_flood", self._on_loop(self._flood_round))
        self.fetches = Phase(run, "live_fetch",
                             self._on_loop(self._fetch_round))
        self.heals = Phase(run, "live_heal", self._on_loop(self._heal_round),
                           twin=False)
        self.phases = (self.floods, self.fetches, self.heals)

    def _on_loop(self, coro_fn):
        return lambda r, seed: self.loop.run_until_complete(coro_fn(r, seed))

    def close(self) -> None:
        self.loop.close()

    async def _boot(self) -> None:
        with self.run.observing():
            self.overlay, self.content = await boot(self.run, self.inputs)

    async def _stop(self) -> None:
        overlay, self.overlay, self.content = self.overlay, None, None
        with self.run.observing():
            with self.run.spans.span("node.stop"):
                await overlay.stop()

    def cycle(self, c: int) -> None:
        if not any(phase.rounds_in(c) for phase in self.phases):
            return
        self.loop.run_until_complete(self._boot())
        try:
            for phase in self.phases:
                phase.cycle(c)
        finally:
            self.loop.run_until_complete(self._stop())

    # -- floods --------------------------------------------------------

    async def _flood_round(self, r: int, seed: int):
        run, cfg, overlay = self.run, self.cfg, self.overlay
        n_peers, objects = self.inputs.graph.n_nodes, self.inputs.objects
        rng = np.random.default_rng(seed)
        asked, latencies = [], []
        frames = _tx_frames(overlay) if run.spans.enabled else 0
        for _ in range(cfg["floods"]):
            source = int(rng.integers(n_peers))
            key = objects[int(rng.integers(len(objects)))].key
            t0 = time.perf_counter()
            try:
                with run.spans.span("node.flood"):
                    got = await asyncio.wait_for(
                        overlay.flood(source, key, ttl=cfg["ttl"]),
                        run.sizes["op_timeout_s"])
            except asyncio.TimeoutError:
                got = None
            latencies.append(time.perf_counter() - t0)
            asked.append((source, key, got))
        if run.spans.enabled:
            frames = _tx_frames(overlay) - frames
        return asked, frames, latencies

    def _finish_floods(self) -> None:
        run, cfg, floods = self.run, self.cfg, self.floods
        graph, placement = self.inputs.graph, self.inputs.placement
        ttl = cfg["ttl"]
        asked = [q for round_asked, _, _ in floods.results for q in round_asked]
        latencies = [t for _, _, round_s in floods.results for t in round_s]
        # Every live flood must account exactly like the simulator's flood of
        # the same (source, key, TTL) over the seeded topology.
        bad = 0
        with run.spans.span("check.flood_parity"):
            for source, key, got in asked:
                mask = np.zeros(graph.n_nodes, dtype=bool)
                mask[list(placement.replicas(key))] = True
                want = flood(graph, source, ttl, replica_mask=mask)
                bad += not (
                    got is not None and got.success
                    and got.total_messages == want.total_messages
                    and got.duplicates == int(want.duplicates_per_hop.sum())
                    and got.nodes_visited == want.nodes_visited)
        run.tally(len(asked), bad)
        run.check(bad == 0, f"{bad} live flood(s) timed out, missed, or "
                  f"disagreed with repro.search.flood")
        run.e2e_rate("live_flood_qps", [cfg["floods"]] * len(floods.walls),
                     floods.walls,
                     f"{cfg['floods']} serial floods/round x "
                     f"{len(floods.walls)}, ttl {ttl}, loopback TCP; "
                     + timing_note(latencies, 1e3, "ms"))
        if run.trace:
            frames = sum(f for _, f, _ in floods.results)
            done = [got for _, _, got in asked if got is not None]
            run.layer("node.flood_p50_ms", median(latencies) * 1e3,
                      timing_note(latencies, 1e3, "ms"))
            run.layer("node.flood_p95_ms", percentile(latencies, 95) * 1e3)
            run.layer("node.frames_per_query", frames / len(asked))
            run.layer("node.frames_per_s", frames / sum(floods.walls))
            run.layer("node.duplicate_fraction",
                      sum(g.duplicates for g in done)
                      / max(sum(g.total_messages for g in done), 1))

    async def _idle_costs(self) -> None:
        """The quiescence floor every flood and fetch pays, on an idle overlay."""
        run, span = self.run, self.run.spans.span
        await self._boot()
        try:
            with run.observing():
                with span("perf.micro"):
                    for _ in range(5):
                        with span("node.settle"):
                            await self.overlay.settle()
                    for _ in range(20):
                        with span("obs.snapshot"):
                            for node in self.overlay.nodes:
                                node.metrics.snapshot()
            n_peers = len(self.overlay.nodes)
        finally:
            await self._stop()
        run.layer("node.settle_idle_ms",
                  median(run.spans.durations("node.settle")) * 1e3)
        run.layer("obs.snapshot_us_per_peer",
                  median(run.spans.durations("obs.snapshot")) / n_peers * 1e6)

    # -- fetches -------------------------------------------------------

    async def _fetch_round(self, r: int, seed: int):
        run, cfg, inputs = self.run, self.cfg, self.inputs
        n_peers = inputs.graph.n_nodes
        rng = np.random.default_rng(seed)
        bad = moved = 0
        latencies = []
        for _ in range(cfg["fetches"]):
            obj = inputs.objects[int(rng.integers(len(inputs.objects)))]
            # A holder would answer from its own store without touching
            # the wire; draw requesters that have to fetch.
            holders = set(inputs.placement.replicas(obj.key))
            source = int(rng.integers(n_peers))
            while source in holders:
                source = int(rng.integers(n_peers))
            t0 = time.perf_counter()
            try:
                with run.spans.span("content.fetch"):
                    data = await asyncio.wait_for(
                        self.content.fetch(source, obj.key, ttl=cfg["ttl"]),
                        run.sizes["op_timeout_s"])
            except asyncio.TimeoutError:
                data = None
            latencies.append(time.perf_counter() - t0)
            if data is None or data != obj.data():
                bad += 1
            else:
                moved += len(data)
        return bad, moved, latencies

    def _finish_fetches(self) -> None:
        run, cfg, fetches = self.run, self.cfg, self.fetches
        latencies = [t for _, _, round_s in fetches.results for t in round_s]
        bad = sum(b for b, _, _ in fetches.results)
        run.tally(cfg["fetches"] * len(fetches.results), bad)
        run.check(bad == 0, f"{bad} fetch(es) returned nothing or wrong bytes")
        run.e2e_rate("live_fetch_per_s", [cfg["fetches"]] * len(fetches.walls),
                     fetches.walls,
                     f"{cfg['fetches']} verified fetches/round x "
                     f"{len(fetches.walls)}, {cfg['size_range'][0]}-"
                     f"{cfg['size_range'][1]} B objects; "
                     + timing_note(latencies, 1e3, "ms"))
        if run.trace:
            run.layer("content.live_fetch_p50_ms", median(latencies) * 1e3,
                      timing_note(latencies, 1e3, "ms"))
            run.layer("content.live_fetch_p95_ms",
                      percentile(latencies, 95) * 1e3)
            run.layer("content.live_fetch_mb_per_s",
                      rate([m / 1e6 for _, m, _ in fetches.results],
                           fetches.walls))

    # -- kill / heal / revive / rebalance ------------------------------

    async def _heal_round(self, r: int, seed: int):
        run, cfg = self.run, self.cfg
        overlay, content = self.overlay, self.content
        span, timeout = run.spans.span, run.sizes["op_timeout_s"]

        def pushed():
            s = content.stats
            return (s["heal.bytes"] + s["rebalance.bytes"],
                    s["heal.pushes"] + s["rebalance.pushes"])

        victims = _pick_victims(content, np.random.default_rng(seed),
                                self.inputs.graph.n_nodes, cfg["kills"])
        for v in victims:
            with span("node.kill"):
                await overlay.kill_peer(v)
        bytes0, pushes0 = pushed()
        # Seconds inside heal() / on_join(); a heal that times out at once
        # leaves 0.0, and rate() leaves a round without seconds out.
        busy = 0.0
        timed_out = False
        try:
            t0 = time.perf_counter()
            with span("content.heal"):
                await asyncio.wait_for(content.heal(), timeout)
            busy += time.perf_counter() - t0
            for v in victims:
                with span("node.revive"):
                    await overlay.revive_peer(v)
            t0 = time.perf_counter()
            for v in victims:
                with span("content.on_join"):
                    await asyncio.wait_for(content.on_join(v), timeout)
            with span("content.heal"):
                await asyncio.wait_for(content.heal(), timeout)
            busy += time.perf_counter() - t0
        except asyncio.TimeoutError:
            timed_out = True
        bytes1, pushes1 = pushed()
        want = min(cfg["k"], sum(n.running for n in overlay.nodes))
        keys = content.placement.object_keys
        short = len(keys) if timed_out else sum(
            content.live_replica_count(key) != want for key in keys)
        return bytes1 - bytes0, pushes1 - pushes0, busy, short

    def _finish_heals(self) -> None:
        run, cfg, results = self.run, self.cfg, self.heals.results
        short = sum(s for _, _, _, s in results)
        run.tally(len(self.inputs.objects) * len(results), short)
        run.check(short == 0, f"{short} object(s) not back at min(k, alive) "
                  f"replicas after heal (a timed-out round counts them all)")
        pushes = sum(p for _, p, _, _ in results)
        busy = [b for _, _, b, _ in results]
        run.e2e_rate("live_heal_mb_per_s", [b / 1e6 for b, _, _, _ in results],
                     busy, f"{pushes} pushes in {len(results)} kill-"
                     f"{cfg['kills']}/heal/revive/rebalance rounds")
        if run.trace:
            run.layer("content.live_push_ms", sum(busy) / max(pushes, 1) * 1e3)
            run.layer("content.live_heal_pushes", pushes / len(results))
            run.layer("node.kill_ms",
                      median(run.spans.durations("node.kill")) * 1e3)
            run.layer("node.revive_ms",
                      median(run.spans.durations("node.revive")) * 1e3)

    def finish(self) -> None:
        run = self.run
        _check_coverage(run, self.inputs)
        self._finish_floods()
        self._finish_fetches()
        self._finish_heals()
        if not run.trace:
            return
        self.loop.run_until_complete(self._idle_costs())
        links = self.inputs.graph.n_edges
        starts = run.spans.durations("node.start")
        run.layer("node.start_s", median(starts),
                  f"{self.inputs.graph.n_nodes} peers, {links} links")
        run.layer("node.connect_ms_per_link", median(starts) / links * 1e3)
        run.layer("node.stop_s", median(run.spans.durations("node.stop")))
        _micro(run, self.inputs)


def _check_coverage(run: Run, inputs: LiveInputs) -> None:
    """``run_parity``'s precondition: full coverage with a hop to spare.

    Live per-query totals only equal the simulator's when every flood
    reaches every peer before its TTL runs out, whatever the arrival order.
    """
    ttl = run.sizes["live"]["ttl"]
    graph = inputs.graph
    with run.spans.span("check.coverage"):
        floods = [flood(graph, u, ttl) for u in range(graph.n_nodes)]
    depth = max(int(np.nonzero(f.new_nodes_per_hop)[0][-1]) + 1 for f in floods)
    run.check(all(f.nodes_visited == graph.n_nodes for f in floods)
              and ttl >= depth + 1,
              f"ttl {ttl} does not cover the {graph.n_nodes}-peer overlay "
              f"(eccentricity {depth}) with a hop to spare")


def _pick_victims(content: LiveContent, rng, n_peers: int, kills: int):
    """``kills`` peers whose loss leaves every object a live holder.

    A crash is disk loss, so killing all holders of an object would lose
    it for good; the workload is chosen so that no operation fails.
    """
    keys = content.placement.object_keys
    for _ in range(1000):
        victims = {int(v) for v in rng.permutation(n_peers)[:kills]}
        if all(set(content.live_holders(key)) - victims for key in keys):
            return sorted(victims)
    raise RuntimeError("no survivable victim set found")


def _micro(run: Run, inputs: LiveInputs) -> None:
    """Framer, codec and content-store costs below the wire (traced only)."""
    cfg = run.sizes["live"]
    span = run.spans.span
    n = cfg["framer_frames"]
    rng = np.random.default_rng(run.seed_for("frames"))
    ids = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    keys = rng.integers(1, 2**62, size=n)
    queries = [Query(descriptor_id=ids[i].tobytes(),
                     search_criteria=f"key:{int(keys[i])}", ttl=cfg["ttl"])
               for i in range(n)]
    with run.observing():
        with span("perf.micro"):
            t0 = time.perf_counter()
            with span("protocol.encode"):
                frames = [q.encode() for q in queries]
            t1 = time.perf_counter()
            with span("protocol.decode"):
                for frame in frames:
                    decode_message(frame)
            t2 = time.perf_counter()
            stream = b"".join(frames)
            framed = {}
            for label, size in (("bulk", 65536), ("mtu", 1460)):
                framer = StreamFramer()
                t3 = time.perf_counter()
                with span("node.framer_feed"):
                    for at in range(0, len(stream), size):
                        framer.feed(stream[at:at + size])
                framed[label] = n / (time.perf_counter() - t3)
                run.check(framer.messages_decoded == n,
                          f"framer decoded {framer.messages_decoded}/{n} "
                          f"frames in {size}-byte slices")
            blobs = [(o.key, o.data()) for o in inputs.objects]
            volume = sum(len(data) for _, data in blobs) / 1e6
            t4 = time.perf_counter()
            with span("content.chunk_object"):
                parts = [chunk_object(key, data) for key, data in blobs]
            t5 = time.perf_counter()
            store = ContentStore()
            with span("content.put_object"):
                for manifest, chunks in parts:
                    store.put_object(manifest, chunks)
            t6 = time.perf_counter()
            with span("content.reassemble"):
                for manifest, chunks in parts:
                    reassemble(manifest, chunks)
            t7 = time.perf_counter()
    run.layer("protocol.encode_us", (t1 - t0) / n * 1e6, f"{n} Query frames")
    run.layer("protocol.decode_us", (t2 - t1) / n * 1e6)
    run.layer("node.framer_frames_per_s", framed["bulk"],
              f"{n} frames fed in 64 KiB slices")
    run.layer("node.framer_mtu_frames_per_s", framed["mtu"],
              "same stream in 1460-byte slices")
    run.layer("content.chunk_mb_per_s", volume / (t5 - t4))
    run.layer("content.verify_mb_per_s", volume / (t6 - t5))
    run.layer("content.reassemble_mb_per_s", volume / (t7 - t6))
