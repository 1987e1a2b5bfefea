"""Live content plane: real chunk transfers over the framed wire.

:class:`LiveContent` rides on a running
:class:`~repro.node.boot.LiveOverlay`.  It seeds every peer's
:class:`~repro.content.store.ContentStore` from a
:class:`~repro.content.placement.ContentPlacement`, then serves the same
lifecycle the simulation plane models — fetch with read-repair, and a
healing pass restoring ``k`` live replicas — except every byte actually
crosses a TCP connection as ``ChunkRequest``/``ManifestData``/``ChunkData``
frames (descriptors 0x30–0x32) through each peer's stream framer.

A fetch first *locates* a holder with a genuine v0.4 Query flood
(:meth:`~repro.node.peer.PeerNode.begin_query` + overlay settle), then
transfers from the nearest hit over a dedicated connection; wall-clock
transfer time lands in the ``content.fetch_s`` quantile — the same metric
name the sim plane fills with virtual hop counts.

What to push, trim, rebalance or count as lost is decided by the same
:class:`repro.content.policy.ReplicationPolicy` the sim plane executes,
so the two agree on replica-count accounting for the same failure shape
by construction; this class only answers the policy's questions from
process truth and applies its decisions over the wire (``push_object``,
a settle, then "did it land").  Liveness is process truth: a peer that
was stopped (killed) is down, and — matching the simulation's
crash-is-disk-loss semantics — its copies do not count.  Per-event
``content.*`` counters land on the involved peers' private registries so
:meth:`LiveOverlay.merged_registry` folds them up exactly like every
other ``node.*`` metric.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.content.manifest import ContentObject, Manifest, reassemble
from repro.content.placement import ContentPlacement
from repro.content.plane import ContentConfig
from repro.content.policy import (
    DurabilityReport,
    DurabilitySample,
    Push,
    ReplicationPolicy,
    Trim,
)
from repro.content.store import ContentStore
from repro.node.boot import LiveOverlay
from repro.node.framer import StreamFramer
from repro.node.peer import PeerNode
from repro.protocol.messages import (
    WHOLE_OBJECT,
    ChunkData,
    ChunkRequest,
    ManifestData,
)

_READ_SIZE = 65536


def manifest_message(descriptor_id: bytes, manifest: Manifest) -> ManifestData:
    """Wire form of a manifest (the 0x31 frame)."""
    return ManifestData(
        descriptor_id, key=manifest.key, size=manifest.size,
        chunk_size=manifest.chunk_size, chunk_digests=manifest.chunk_digests,
    )


def manifest_from_message(md: ManifestData) -> Manifest:
    """Typed manifest of a decoded 0x31 frame."""
    return Manifest(key=md.key, size=md.size, chunk_size=md.chunk_size,
                    chunk_digests=md.chunk_digests)


async def fetch_object(
    node: PeerNode, host: str, port: int, key: int, timeout: float = 5.0,
) -> Optional[Tuple[Manifest, Dict[int, bytes]]]:
    """Pull a whole object from a holder over a dedicated connection.

    Sends one ``ChunkRequest`` with the :data:`WHOLE_OBJECT` sentinel and
    collects the ``ManifestData`` + ``ChunkData`` reply stream through a
    private framer (the holder's hello Ping is ignored).  Returns
    ``(manifest, chunks)`` or None on timeout/miss; chunk verification is
    the caller's job (:func:`repro.content.manifest.reassemble`).
    """
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except (ConnectionError, OSError):
        return None
    framer = StreamFramer(max_payload=node.config.max_payload)
    manifest: Optional[Manifest] = None
    chunks: Dict[int, bytes] = {}
    try:
        writer.write(ChunkRequest(node._next_guid(), key=key,
                                  chunk_index=WHOLE_OBJECT).encode())
        await writer.drain()
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                data = await asyncio.wait_for(reader.read(_READ_SIZE),
                                              remaining)
            except asyncio.TimeoutError:
                return None
            if not data:
                return None
            for msg in framer.feed(data):
                if isinstance(msg, ManifestData) and msg.key == key:
                    manifest = manifest_from_message(msg)
                elif isinstance(msg, ChunkData) and msg.key == key:
                    chunks[msg.chunk_index] = msg.data
            if framer.desynced:
                return None
            if manifest is not None and len(chunks) >= manifest.n_chunks:
                return manifest, chunks
    except (ConnectionError, OSError):
        return None
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError, RuntimeError):
            pass


async def push_object(
    pusher: PeerNode, host: str, port: int, manifest: Manifest,
    chunks: Sequence[bytes], timeout: float = 5.0,
) -> Optional[int]:
    """Push a whole object to a peer; chunk bytes sent, or None on error.

    Success and byte count are distinct: an empty object is one manifest
    with zero chunks, so a successful push legitimately returns 0 —
    callers must test ``is not None``, never truthiness, or they will
    re-push empty objects forever.

    The receiving peer's normal read loop ingests the frames
    (``node.rx.manifest``/``node.rx.chunk_data``), verifies every chunk
    against the manifest, and advertises the key once complete — the
    receiver needs no special state beyond its content store.
    """
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except (ConnectionError, OSError):
        return None
    try:
        did = pusher._next_guid()
        writer.write(manifest_message(did, manifest).encode())
        sent = 0
        for i, chunk in enumerate(chunks):
            writer.write(ChunkData(did, key=manifest.key, chunk_index=i,
                                   data=chunk).encode())
            sent += len(chunk)
        await asyncio.wait_for(writer.drain(), timeout)
        return sent
    except (asyncio.TimeoutError, ConnectionError, OSError):
        return None
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError, RuntimeError):
            pass


class LiveContent:
    """Replica lifecycle over a live overlay (see module docstring)."""

    def __init__(
        self,
        overlay: LiveOverlay,
        objects: Sequence[ContentObject],
        placement: ContentPlacement,
        config: Optional[ContentConfig] = None,
    ):
        if placement.n_nodes != len(overlay.nodes):
            raise ValueError("placement and overlay node counts disagree")
        self.overlay = overlay
        self.placement = placement
        self.config = config if config is not None else ContentConfig(
            k=placement.k,
        )
        if self.config.k != placement.k:
            raise ValueError(
                f"config.k={self.config.k} but the placement was made "
                f"with k={placement.k}"
            )
        self.objects: Dict[int, ContentObject] = {o.key: o for o in objects}
        missing = [k for k in placement.object_keys if k not in self.objects]
        if missing:
            raise ValueError(f"placement covers unknown keys: {missing[:3]}")
        self.policy = ReplicationPolicy(
            self, placement.k, list(self.objects), placement)
        #: Same ledger (and key catalogue) as ``ContentPlane.stats``.
        self.stats = self.policy.stats
        self.samples = self.policy.samples

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def seed_stores(self) -> None:
        """Give every peer a content store and load its placed replicas.

        Local (no wire traffic) — this is t=0 state, the placement the
        overlay would have arrived at by prior transfers.  Keys land in
        each peer's ``store`` set so Query floods can locate them.
        """
        for node in self.overlay.nodes:
            if node.content is None:
                node.content = ContentStore(node_id=node.node_id)
        for key in self.placement.object_keys:
            obj = self.objects[key]
            for nid in self.placement.replicas(key):
                node = self.overlay.nodes[nid]
                node.content.put_object(obj.manifest, obj.chunks)
                node.store.add(key)
                self.stats["replicas_placed"] += 1
                self.stats["bytes_placed"] += obj.size
            self.stats["objects_placed"] += 1

    # ------------------------------------------------------------------
    # The policy's view of the running overlay (HolderView)
    # ------------------------------------------------------------------

    def live_holders(self, key: int) -> List[int]:
        """Running peers holding a complete copy of ``key`` (ascending)."""
        return [
            n.node_id for n in self.overlay.nodes
            if n.running and n.content is not None
            and n.content.has_object(key)
        ]

    #: A stopped peer is a crash and its copies are gone with it, so the
    #: copies that exist are exactly the live ones — no dark copies here.
    holders = live_holders

    def is_live(self, node: int) -> bool:
        """Whether peer ``node`` is running."""
        return self.overlay.nodes[node].running

    def n_live(self) -> int:
        """Number of running peers."""
        return sum(1 for n in self.overlay.nodes if n.running)

    def neighbors(self, node: int) -> Iterable[int]:
        """Peer ``node``'s current link table."""
        return self.overlay.nodes[node].neighbors

    @property
    def n_nodes(self) -> int:
        """Population size (stopped peers included)."""
        return len(self.overlay.nodes)

    def live_replica_count(self, key: int) -> int:
        """Number of running peers holding ``key`` (the sim-parity figure)."""
        return len(self.live_holders(key))

    # ------------------------------------------------------------------
    # Fetch with read-repair
    # ------------------------------------------------------------------

    async def fetch(self, source: int, key: int,
                    ttl: Optional[int] = None) -> Optional[bytes]:
        """Locate ``key`` by Query flood, transfer it, read-repair.

        Returns the verified bytes or None.  Wall transfer time lands in
        the requester's ``content.fetch_s`` quantile; counters use the
        sim plane's ``content.fetch.*`` names on the requester's registry.
        """
        node = self.overlay.nodes[source]
        m = node.metrics
        self.stats["fetch.requests"] += 1
        m.counter("content.fetch.requests").inc()
        data: Optional[bytes] = None
        serving = None
        if node.content is not None and node.content.has_object(key):
            serving = source
            data = node.content.get_object(key)
        else:
            state = node.begin_query(key, ttl=ttl)
            await self.overlay.settle()
            node.finish_query(state)
            if state.hits:
                best = min(state.hits, key=lambda h: (h.hops, h.server))
                server_node = self.overlay.nodes[best.server]
                t0 = time.perf_counter()
                pulled = await fetch_object(
                    node, server_node.host, server_node.port, key,
                )
                if pulled is not None:
                    manifest, chunks = pulled
                    try:
                        data = reassemble(manifest, chunks)
                    except ValueError:
                        data = None
                    if data is not None:
                        # The requester does NOT cache a replica — matching
                        # the sim plane, replica counts change only through
                        # read-repair and healing pushes.
                        serving = best.server
                        m.quantile("content.fetch_s").observe(
                            time.perf_counter() - t0
                        )
        if data is None:
            self.stats["fetch.failures"] += 1
            m.counter("content.fetch.failures").inc()
            return None
        self.stats["fetch.hits"] += 1
        m.counter("content.fetch.hits").inc()
        if self.config.read_repair:
            push = self.policy.repair(key, serving)
            if push is not None:
                await self._push(push, "repair")
        return data

    # ------------------------------------------------------------------
    # Rebalance on join
    # ------------------------------------------------------------------

    async def on_join(self, node_id: int) -> int:
        """Rebalance a rejoined peer: push its placed-but-missing keys back.

        The live executor of :meth:`ReplicationPolicy.rejoin` — the sim
        plane's worklist, source preference and ``rebalance.pushes``/
        ``.bytes`` accounting, only here the bytes actually cross TCP.
        The surplus replica is trimmed by the next heal sweep's
        placed-first keep preference.  Returns the number of pushes
        charged.
        """
        if not self.config.rebalance_on_join:
            return 0
        if not self.overlay.nodes[node_id].running:
            return 0
        pushed = 0
        for push in self.policy.rejoin(node_id):
            pushed += await self._push(push, "rebalance")
        return pushed

    # ------------------------------------------------------------------
    # Healing
    # ------------------------------------------------------------------

    async def heal(self) -> int:
        """One healing sweep over every placed object; returns pushes.

        Applies :meth:`ReplicationPolicy.sweep`'s decisions in order:
        ``< k`` live replicas are restored by pushes from the lowest-id
        live holder, ``> k`` trimmed back down (placed holders preferred,
        then ascending id); an object with no live holder is lost — a
        stopped peer is a crash, its copies are gone with it.
        """
        _obs.count("content.heal.ticks")
        pushes = 0
        for decision in self.policy.sweep():
            if isinstance(decision, Push):
                pushes += await self._push(decision, "heal")
            elif isinstance(decision, Trim):
                for nid in decision.nodes:
                    node = self.overlay.nodes[nid]
                    node.content.drop_object(decision.key)
                    node.store.discard(decision.key)
                    self.stats["heal.trims"] += 1
                    node.metrics.counter("content.heal.trims").inc()
            else:
                _obs.count("content.heal.objects_lost")
        return pushes

    async def _push(self, push: Push, kind: str) -> int:
        """Push ``push.key`` over the wire until ``push.need`` copies land.

        A candidate whose transfer fails or races a teardown is skipped
        for the next one.  Bytes are charged to ``kind`` on the ledger
        and on the serving peer's registry; returns the pushes that
        landed.
        """
        key = push.key
        server_node = self.overlay.nodes[push.source]
        store = server_node.content
        if store is None or not store.has_object(key):
            return 0
        manifest = store.manifest(key)
        chunks = [store.get_chunk(key, i) for i in range(manifest.n_chunks)]
        pushed = 0
        for target in push.candidates:
            node = self.overlay.nodes[target]
            if node.content is None:
                node.content = ContentStore(node_id=target)
            sent = await push_object(server_node, node.host, node.port,
                                     manifest, chunks)
            if sent is None:
                continue  # transfer failed (0 is a successful empty push)
            await self.overlay.settle()
            if not node.content.has_object(key):
                continue  # push raced a teardown; try the next candidate
            pushed += 1
            self.stats[f"{kind}.pushes"] += 1
            self.stats[f"{kind}.bytes"] += sent
            sm = server_node.metrics
            sm.counter(f"content.{kind}.pushes").inc()
            sm.counter(f"content.{kind}.bytes").inc(sent)
            if pushed == push.need:
                break
        return pushed

    # ------------------------------------------------------------------
    # Durability reporting (the policy's census, on process truth)
    # ------------------------------------------------------------------

    def record_sample(self, t: float) -> DurabilitySample:
        """Census the plane at virtual time ``t`` and keep the sample."""
        return self.policy.sample(t)

    def durability_report(self) -> DurabilityReport:
        """Final census + traffic ledger, shaped like the sim plane's."""
        return self.policy.report()
