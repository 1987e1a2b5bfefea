"""Live content plane: real chunk transfers, read-repair, healing.

Every test boots real PeerNodes on localhost, moves real bytes through
the 0x30-0x32 extension frames, and checks exact ``content.*`` counter
accounting against what the sim plane would charge for the same shape.
"""

import asyncio

import pytest

from repro.content import (
    ContentConfig,
    ContentPlane,
    generate_objects,
    place_content,
)
from repro.content.live import LiveContent, fetch_object, push_object
from repro.content.manifest import ContentObject, chunk_object, reassemble
from repro.core import makalu_graph
from repro.node import LiveOverlay
from repro.sim.churn import ChurnConfig, ChurnSimulation

N_NODES = 12
K = 3


def _setup(n=N_NODES, n_objects=3, seed=3, k=K):
    graph = makalu_graph(n_nodes=n, seed=seed)
    objects = generate_objects(n_objects, seed=9, size_range=(3000, 6000),
                               chunk_size=1024)
    placement = place_content(graph, [o.key for o in objects], k=k,
                              seed=5)
    return graph, objects, placement


def _run(coro):
    return asyncio.run(coro)


async def _booted(graph, objects, placement, **cfg):
    overlay = LiveOverlay(graph)
    await overlay.start()
    lc = LiveContent(overlay, objects, placement,
                     ContentConfig(k=K, **cfg))
    lc.seed_stores()
    return overlay, lc


class TestSeeding:
    def test_placed_replicas_and_store_sync(self):
        graph, objects, placement = _setup()

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                for obj in objects:
                    holders = lc.live_holders(obj.key)
                    assert tuple(sorted(placement.replicas(obj.key))) == \
                        tuple(holders)
                    for h in holders:
                        node = overlay.nodes[h]
                        assert obj.key in node.store
                        assert node.content.get_object(obj.key) == obj.data()
                assert lc.stats["replicas_placed"] == 3 * K
            finally:
                await overlay.stop()

        _run(run())

    def test_mismatched_population_rejected(self):
        graph, objects, placement = _setup()
        other = makalu_graph(n_nodes=N_NODES + 2, seed=1)
        overlay = LiveOverlay(other)
        with pytest.raises(ValueError):
            LiveContent(overlay, objects, placement)

    def test_config_k_must_match_placement_k(self):
        # healing/trimming toward a replica count nothing was placed at
        # is a construction error, not a silent mode
        graph, objects, placement = _setup(k=K)
        overlay = LiveOverlay(graph)
        with pytest.raises(ValueError, match="k="):
            LiveContent(overlay, objects, placement, ContentConfig(k=K + 1))
        assert LiveContent(overlay, objects, placement).config.k == K


class TestWireTransfer:
    def test_fetch_object_moves_verified_bytes(self):
        graph, objects, placement = _setup()
        obj = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                holder = lc.live_holders(obj.key)[0]
                server = overlay.nodes[holder]
                client = overlay.nodes[
                    next(u for u in range(N_NODES)
                         if u not in lc.live_holders(obj.key))
                ]
                pulled = await fetch_object(client, server.host, server.port,
                                            obj.key)
                assert pulled is not None
                manifest, chunks = pulled
                assert reassemble(manifest, chunks) == obj.data()
                await overlay.settle()
                reg = overlay.merged_registry()
                counters = reg.snapshot()["counters"]
                assert counters["node.rx.chunk_request"] == 1
                assert counters["node.content.serves"] == 1
                assert counters["node.content.chunks_tx"] == \
                    manifest.n_chunks
            finally:
                await overlay.stop()

        _run(run())

    def test_fetch_unknown_key_misses(self):
        graph, objects, placement = _setup()

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                server = overlay.nodes[0]
                client = overlay.nodes[1]
                got = await fetch_object(client, server.host, server.port,
                                         999999, timeout=0.5)
                assert got is None
                await overlay.settle()
                counters = overlay.merged_registry().snapshot()["counters"]
                assert counters["node.content.misses"] == 1
            finally:
                await overlay.stop()

        _run(run())

    def test_push_object_lands_in_receiver_store(self):
        graph, objects, placement = _setup()
        obj = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                holder = lc.live_holders(obj.key)[0]
                target = next(u for u in range(N_NODES)
                              if u not in lc.live_holders(obj.key))
                node = overlay.nodes[target]
                sent = await push_object(
                    overlay.nodes[holder], node.host, node.port,
                    obj.manifest, list(obj.chunks),
                )
                assert sent == obj.size
                await overlay.settle()
                assert node.content.has_object(obj.key)
                assert obj.key in node.store
                counters = overlay.merged_registry().snapshot()["counters"]
                assert counters["node.content.manifests_rx"] == 1
                assert counters["node.content.chunks_rx"] == \
                    obj.manifest.n_chunks
                assert counters["node.content.objects_completed"] == 1
            finally:
                await overlay.stop()

        _run(run())


class TestKillAndRepair:
    def test_fetch_survives_holder_kill_and_read_repairs(self):
        graph, objects, placement = _setup()
        obj = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                holders = lc.live_holders(obj.key)
                await overlay.nodes[holders[0]].stop()  # kill mid-run
                assert lc.live_replica_count(obj.key) == K - 1
                source = next(u for u in range(N_NODES)
                              if u not in holders)
                data = await lc.fetch(source, obj.key)
                assert data == obj.data()
                # read-repair restored k live replicas with one push
                assert lc.live_replica_count(obj.key) == K
                assert lc.stats["fetch.requests"] == 1
                assert lc.stats["fetch.hits"] == 1
                assert lc.stats["repair.pushes"] == 1
                assert lc.stats["repair.bytes"] == obj.size
                counters = overlay.merged_registry().snapshot()["counters"]
                assert counters["content.fetch.requests"] == 1
                assert counters["content.fetch.hits"] == 1
                assert counters["content.repair.pushes"] == 1
                assert counters["content.repair.bytes"] == obj.size
            finally:
                await overlay.stop()

        _run(run())

    def test_healing_loop_restores_k(self):
        graph, objects, placement = _setup()

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                victim_keys = set()
                victim = lc.live_holders(objects[0].key)[0]
                for obj in objects:
                    if victim in lc.live_holders(obj.key):
                        victim_keys.add(obj.key)
                await overlay.nodes[victim].stop()
                await lc.heal()
                for obj in objects:
                    assert lc.live_replica_count(obj.key) == K
                # exactly one push per object the victim held, no trims
                assert lc.stats["heal.pushes"] == len(victim_keys)
                assert lc.stats["heal.trims"] == 0
                assert lc.stats["heal.ticks"] >= 1
                assert lc.stats["objects_lost"] == 0
                counters = overlay.merged_registry().snapshot()["counters"]
                assert counters["content.heal.pushes"] == len(victim_keys)
            finally:
                await overlay.stop()

        _run(run())

    def test_all_holders_dead_is_lost(self):
        graph, objects, placement = _setup()
        obj = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                for h in list(lc.live_holders(obj.key)):
                    await overlay.nodes[h].stop()
                source = next(u for u in range(N_NODES)
                              if overlay.nodes[u].running)
                assert await lc.fetch(source, obj.key) is None
                assert lc.stats["fetch.failures"] == 1
                await lc.heal()
                assert lc.stats["objects_lost"] == 1
                await lc.heal()  # counted once, not per sweep
                assert lc.stats["objects_lost"] == 1
            finally:
                await overlay.stop()

        _run(run())


class TestSimLiveParity:
    """Same failure shape through both planes -> same replica accounting."""

    def test_read_repair_charges_match(self):
        # Live arm: kill one holder, fetch from a non-holder.
        graph, objects, placement = _setup()
        obj = objects[0]

        async def live_arm():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                holders = lc.live_holders(obj.key)
                await overlay.nodes[holders[0]].stop()
                source = next(u for u in range(N_NODES)
                              if u not in holders)
                assert await lc.fetch(source, obj.key) is not None
                return (lc.stats["repair.pushes"],
                        lc.live_replica_count(obj.key))
            finally:
                await overlay.stop()

        live_pushes, live_count = _run(live_arm())

        # Sim arm: same k, same shape — crash one holder, fetch.
        objects_sim = generate_objects(3, seed=9, size_range=(3000, 6000),
                                       chunk_size=1024)
        plane = ContentPlane(objects_sim, ContentConfig(k=K))
        sim = ChurnSimulation(
            n_nodes=N_NODES, seed=3, content=plane,
            churn_config=ChurnConfig(snapshot_interval=50.0),
        )
        sim.run(1.0)
        key = objects_sim[0].key
        holders = sorted(plane.holders(key))
        sim.crash_nodes(holders[:1], rejoin=False)
        source = next(u for u in range(N_NODES)
                      if sim.online[u] and u not in holders)
        assert plane.fetch(source, key) is not None

        assert plane.stats["repair.pushes"] == live_pushes == 1
        assert plane.live_replica_count(key) == live_count == K

    def test_heal_charges_match(self):
        graph, objects, placement = _setup(n_objects=1)
        obj = objects[0]

        async def live_arm():
            overlay, lc = await _booted(graph, objects, placement,
                                        read_repair=False)
            try:
                holders = lc.live_holders(obj.key)
                for h in holders[:2]:
                    await overlay.nodes[h].stop()
                pushes = await lc.heal()
                return pushes, lc.live_replica_count(obj.key)
            finally:
                await overlay.stop()

        live_pushes, live_count = _run(live_arm())

        objects_sim = generate_objects(1, seed=9, size_range=(3000, 6000),
                                       chunk_size=1024)
        plane = ContentPlane(objects_sim,
                             ContentConfig(k=K, read_repair=False))
        sim = ChurnSimulation(
            n_nodes=N_NODES, seed=3, content=plane,
            churn_config=ChurnConfig(snapshot_interval=50.0),
        )
        sim.run(1.0)
        key = objects_sim[0].key
        sim.crash_nodes(sorted(plane.holders(key))[:2], rejoin=False)
        sim_pushes = plane.heal()

        # both planes charge exactly k - live pushes and end at k live
        assert sim_pushes == live_pushes == 2
        assert plane.live_replica_count(key) == live_count == K


def _with_empty(seed=3, k=K):
    """A corpus whose first object is zero bytes, placed over _setup's graph."""
    graph = makalu_graph(n_nodes=N_NODES, seed=seed)
    manifest, chunks = chunk_object(4242, b"", chunk_size=1024)
    empty = ContentObject(manifest=manifest, chunks=tuple(chunks))
    filled = generate_objects(2, seed=9, size_range=(3000, 6000),
                              chunk_size=1024)
    objects = [empty, *filled]
    placement = place_content(graph, [o.key for o in objects], k=k, seed=5)
    return graph, objects, placement


class TestEmptyObjects:
    """Regression: a successful empty push is 0 bytes, not a failure."""

    def test_empty_push_returns_zero_and_completes(self):
        graph, objects, placement = _with_empty()
        empty = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                holder = lc.live_holders(empty.key)[0]
                target = next(u for u in range(N_NODES)
                              if u not in lc.live_holders(empty.key))
                node = overlay.nodes[target]
                sent = await push_object(
                    overlay.nodes[holder], node.host, node.port,
                    empty.manifest, list(empty.chunks),
                )
                # 0 is a successful empty push; None is the failure value
                assert sent == 0
                assert sent is not None
                await overlay.settle()
                assert node.content.has_object(empty.key)
                assert empty.key in node.store
                counters = overlay.merged_registry().snapshot()["counters"]
                # the zero-chunk manifest alone completes the object
                assert counters["node.content.manifests_rx"] == 1
                assert counters.get("node.content.chunks_rx", 0) == 0
                assert counters["node.content.objects_completed"] == 1
            finally:
                await overlay.stop()

        _run(run())

    def test_push_failure_returns_none(self):
        graph, objects, placement = _with_empty()
        empty = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                holder = lc.live_holders(empty.key)[0]
                target = next(u for u in range(N_NODES)
                              if u not in lc.live_holders(empty.key))
                node = overlay.nodes[target]
                host, port = node.host, node.port
                await node.stop()
                sent = await push_object(
                    overlay.nodes[holder], host, port,
                    empty.manifest, list(empty.chunks), timeout=0.5,
                )
                assert sent is None
            finally:
                await overlay.stop()

        _run(run())

    def test_empty_object_heals_in_one_sweep(self):
        graph, objects, placement = _with_empty()
        empty = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement,
                                        read_repair=False)
            try:
                victim = lc.live_holders(empty.key)[0]
                await overlay.nodes[victim].stop()
                assert lc.live_replica_count(empty.key) == K - 1
                pushes = await lc.heal()
                assert lc.live_replica_count(empty.key) == K
                # one sweep converges: the next sweep has nothing to do
                # (the old bug re-pushed empty objects forever because a
                # 0-byte success was treated as a failed transfer)
                assert await lc.heal() == 0
                assert lc.stats["heal.pushes"] == pushes
            finally:
                await overlay.stop()

        _run(run())

    def test_empty_object_fetch_round_trips(self):
        graph, objects, placement = _with_empty()
        empty = objects[0]

        async def run():
            overlay, lc = await _booted(graph, objects, placement)
            try:
                source = next(u for u in range(N_NODES)
                              if u not in lc.live_holders(empty.key))
                data = await lc.fetch(source, empty.key)
                assert data == b""
            finally:
                await overlay.stop()

        _run(run())


class TestLiveRebalanceOnJoin:
    def test_killed_owner_reclaims_placed_keys(self):
        graph, objects, placement = _setup()
        victim = placement.replicas(objects[0].key)[0]
        owned = placement.keys_placed_on(victim)
        assert owned

        async def run():
            overlay = LiveOverlay(graph)
            await overlay.start()
            try:
                lc = LiveContent(overlay, objects, placement,
                                 ContentConfig(k=K, read_repair=False))
                lc.seed_stores()
                await overlay.kill_peer(victim)
                await lc.heal()  # k restored on stand-ins
                await overlay.revive_peer(victim)
                pushes = await lc.on_join(victim)
                assert pushes == len(owned)
                node = overlay.nodes[victim]
                assert all(node.content.has_object(key) for key in owned)
                # the next sweep trims the stand-ins: holders converge
                # back to the pure placement
                await lc.heal()
                for key in owned:
                    assert sorted(lc.live_holders(key)) == \
                        sorted(placement.replicas(key))
                assert lc.stats["rebalance.pushes"] == len(owned)
                counters = overlay.merged_registry().snapshot()["counters"]
                assert counters["content.rebalance.pushes"] == len(owned)
            finally:
                await overlay.stop()

        _run(run())

    def test_churn_departure_needs_no_rebalance(self):
        # a peer that kept its disk (sim churn semantics) gets nothing
        # pushed: on_join only moves keys the rejoiner actually lost
        graph, objects, placement = _setup()
        victim = placement.replicas(objects[0].key)[0]

        async def run():
            overlay = LiveOverlay(graph)
            await overlay.start()
            try:
                lc = LiveContent(overlay, objects, placement,
                                 ContentConfig(k=K))
                lc.seed_stores()
                assert await lc.on_join(victim) == 0
                assert lc.stats["rebalance.pushes"] == 0
            finally:
                await overlay.stop()

        _run(run())


class TestSimLiveRebalanceParity:
    """Kill-then-rejoin a placed owner in both planes; accounting pins."""

    def test_rebalance_charges_match(self):
        from repro.content.experiment import _PLACEMENT_SALT, build_placement
        from repro.util.rng import derive_seed

        seed = 3
        graph, objects, placement = build_placement(
            n_nodes=N_NODES, n_objects=3, seed=seed, k=K,
            size_range=(3000, 6000),
        )
        victim = placement.replicas(objects[0].key)[0]
        owned = placement.keys_placed_on(victim)

        async def live_arm():
            overlay = LiveOverlay(graph)
            await overlay.start()
            try:
                lc = LiveContent(overlay, objects, placement,
                                 ContentConfig(k=K, read_repair=False))
                lc.seed_stores()
                await overlay.kill_peer(victim)
                heal_kill = await lc.heal()
                await overlay.revive_peer(victim)
                pushes = await lc.on_join(victim)
                heal_join = await lc.heal()
                return pushes, heal_kill, heal_join, lc.stats["heal.trims"]
            finally:
                await overlay.stop()

        live = _run(live_arm())

        plane = ContentPlane(objects, ContentConfig(
            k=K, read_repair=False,
            placement_seed=derive_seed(seed, _PLACEMENT_SALT),
        ))
        sim = ChurnSimulation(
            n_nodes=N_NODES, seed=seed, content=plane,
            churn_config=ChurnConfig(snapshot_interval=1e6,
                                     mean_session=1e9),
        )
        sim.run(0.5)
        # identical placement seeds over the same graph -> same holders
        for obj in objects:
            assert tuple(plane.placement.replicas(obj.key)) == \
                tuple(placement.replicas(obj.key))
        sim.crash_nodes([victim], rejoin=False)
        heal_kill = plane.heal()
        sim.rejoin_nodes([victim])
        heal_join = plane.heal()
        simarm = (plane.stats["rebalance.pushes"], heal_kill, heal_join,
                  plane.stats["heal.trims"])
        assert simarm == live
        assert simarm[0] == len(owned) > 0
