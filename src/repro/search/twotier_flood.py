"""Gnutella v0.6 query routing over a two-tier overlay (paper Section 4.2).

The paper floods the v0.6 topology with "a modified flooding algorithm that
simulates the behavior of current Gnutella query routing".  Modern Gnutella
routing has three relevant behaviours, all modeled here:

* **Leaf shielding** — a leaf sends its query to its ultrapeers and takes no
  further part in routing.
* **Query Routing Protocol (QRP)** — ultrapeers hold their leaves' content
  digests and deliver a query only to leaves whose digest matches, so leaf
  deliveries cost one message per *matching* leaf (plus an optional digest
  false-positive rate).
* **Dynamic querying** — the query spreads hop by hop across the ultrapeer
  mesh and *stops as soon as enough results have been located*.  This is why
  v0.6 looks cheap at high replication ratios yet explodes at low ones
  (Table 1's crossover).

Messages counted: leaf -> ultrapeer submissions, ultrapeer mesh forwards
(with duplicate suppression, like plain flooding), and ultrapeer -> leaf
deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.search.flooding import _draw_workload
from repro.search.metrics import QueryRecord
from repro.search.replication import Placement
from repro.topology.csr import gather_neighbors
from repro.topology.graph import OverlayGraph
from repro.topology.twotier import TwoTierTopology
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_node_id, check_probability


@dataclass(frozen=True)
class TwoTierFloodResult:
    """Accounting of one v0.6 query."""

    source: int
    ttl: int
    mesh_messages: int
    leaf_messages: int
    first_hit_hop: int
    replicas_found: int
    hops_used: int
    messages_lost: int = 0

    @property
    def total_messages(self) -> int:
        """All messages: submissions + mesh forwards + leaf deliveries."""
        return self.mesh_messages + self.leaf_messages

    @property
    def success(self) -> bool:
        """Whether at least one replica was located."""
        return self.first_hit_hop >= 0

    def record(self) -> QueryRecord:
        """Collapse into the mechanism-independent per-query record."""
        return QueryRecord(
            source=self.source,
            messages=self.total_messages,
            first_hit_hop=self.first_hit_hop,
        )


class TwoTierSearch:
    """Reusable v0.6 query router for one two-tier topology.

    Precomputes the ultrapeer mesh subgraph and each ultrapeer's leaf list
    so per-query work is a vectorized mesh flood.
    """

    def __init__(self, topo: TwoTierTopology):
        self.topo = topo
        graph = topo.graph
        self._mesh, self._mesh_to_node = graph.subgraph(topo.is_ultrapeer)
        node_to_mesh = -np.ones(graph.n_nodes, dtype=np.int64)
        node_to_mesh[self._mesh_to_node] = np.arange(self._mesh_to_node.size)
        self._node_to_mesh = node_to_mesh

        # CSR of leaves per ultrapeer (in mesh ids), built from the edge
        # list in one vectorized pass: leaf->ultrapeer directed entries.
        is_up = topo.is_ultrapeer
        src = np.repeat(
            np.arange(graph.n_nodes, dtype=np.int64), np.diff(graph.indptr)
        )
        attach = (~is_up[src]) & is_up[graph.indices]
        owner = node_to_mesh[graph.indices[attach]]
        leaves = src[attach]
        order = np.argsort(owner, kind="stable")
        owner, leaves = owner[order], leaves[order]
        indptr = np.zeros(self._mesh.n_nodes + 1, dtype=np.int64)
        np.add.at(indptr, owner + 1, 1)
        np.cumsum(indptr, out=indptr)
        self._leaf_indptr = indptr
        self._leaf_ids = leaves

    @property
    def mesh(self) -> OverlayGraph:
        """The ultrapeer-only subgraph (mesh ids)."""
        return self._mesh

    def leaves_of(self, mesh_id: int) -> np.ndarray:
        """Leaf node ids shielded by mesh node ``mesh_id``."""
        return self._leaf_ids[self._leaf_indptr[mesh_id] : self._leaf_indptr[mesh_id + 1]]

    def query(
        self,
        source: int,
        ttl: int,
        replica_mask: np.ndarray,
        results_target: int = 1,
        qrp_false_positive: float = 0.0,
        qrp=None,
        key: Optional[int] = None,
        seed: SeedLike = None,
        faults=None,
        query_key: int = 0,
    ) -> TwoTierFloodResult:
        """Route one query from ``source`` (leaf or ultrapeer).

        Parameters
        ----------
        ttl:
            Maximum ultrapeer-mesh hops (leaf -> ultrapeer submission does
            not consume TTL, matching Gnutella).
        results_target:
            Dynamic querying stops after the hop at which at least this
            many replicas have been located.
        qrp_false_positive:
            Probability that a non-matching leaf's QRP digest spuriously
            matches, costing a wasted delivery message.  Ignored when real
            ``qrp`` tables are supplied.
        qrp:
            Optional :class:`~repro.search.qrp.QrpTables`; when given,
            leaf-delivery decisions use the actual Bloom digests (emergent
            false positives) and ``key`` identifies the queried object.
        key:
            The queried object's key; required with ``qrp``.
        faults:
            Optional :class:`~repro.faults.link.LinkFaults`.  Loss applies
            to overlay *transit* messages — leaf -> ultrapeer submissions
            (hop coordinate 0) and ultrapeer mesh forwards (hop ``h``) —
            with counter-based decisions keyed on global node ids, so
            execution strategy never changes which messages drop.
            Ultrapeer -> leaf QRP deliveries are exempt: they model the
            shielded last-hop handoff, and dropping them would silently
            change hit accounting rather than routing.  Lost messages are
            still paid for in the message counts (bandwidth spent), and
            are also reported in ``messages_lost``.
        query_key:
            Identity of this query in the loss stream (global workload
            index when issued in batches).
        """
        graph = self.topo.graph
        check_node_id("source", source, graph.n_nodes)
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        if replica_mask.shape != (graph.n_nodes,):
            raise ValueError("replica_mask must have one entry per node")
        if results_target < 1:
            raise ValueError(f"results_target must be >= 1, got {results_target}")
        check_probability("qrp_false_positive", qrp_false_positive)
        if qrp is not None and key is None:
            raise ValueError("key is required when routing with real QRP tables")
        rng = as_generator(seed)
        lossy = faults is not None and faults.lossy

        mesh_msgs = 0
        leaf_msgs = 0
        lost = 0
        found = 0
        first_hit = -1

        # The querying node checks its own store before sending anything.
        if replica_mask[source]:
            found += 1
            first_hit = 0
            if found >= results_target:
                return TwoTierFloodResult(
                    source=source, ttl=ttl, mesh_messages=0,
                    leaf_messages=0, first_hit_hop=0,
                    replicas_found=found, hops_used=0,
                )

        if self.topo.is_ultrapeer[source]:
            # An ultrapeer source originates the query locally: no
            # transmission, nothing to lose.
            entry = self._node_to_mesh[[source]]
        else:
            parents = self.topo.leaf_parents(source)
            entry = self._node_to_mesh[parents]
            mesh_msgs += entry.size  # leaf -> ultrapeer submissions
            if lossy and parents.size:
                drop = faults.drop(query_key, 0, source, parents)
                lost += int(np.count_nonzero(drop))
                entry = entry[~drop]

        visited = np.zeros(self._mesh.n_nodes, dtype=bool)
        frontier = np.unique(entry)
        visited[frontier] = True
        hops_used = 0
        # Leaf sources spend one hop reaching their ultrapeers; ultrapeer
        # sources start at hop 0.  Mesh-forward hops add on top.
        hop_base = 0 if self.topo.is_ultrapeer[source] else 1

        # The entry ultrapeers process the query themselves before any
        # mesh forwarding.
        found, first_hit, leaf_msgs = self._process_ups(
            frontier, replica_mask, qrp_false_positive, rng,
            found, first_hit, leaf_msgs, hop=hop_base, qrp=qrp, key=key,
        )

        indptr = self._mesh.indptr
        for h in range(1, ttl + 1):
            if found >= results_target or frontier.size == 0:
                break
            degs = indptr[frontier + 1] - indptr[frontier]
            # At h == 1 the forwarders' parent is outside the mesh (the
            # querying leaf) or absent (an ultrapeer source), so nothing is
            # excluded; afterwards each forwarder skips its mesh parent.
            sent = int(degs.sum()) - (0 if h == 1 else frontier.size)
            if sent <= 0:
                break
            mesh_msgs += sent
            hops_used = h
            nbrs, owner_pos = gather_neighbors(self._mesh, frontier)
            if lossy:
                # Drop decisions cover every gathered pair (the aggregate
                # parent exclusion in ``sent`` is orthogonal); coordinates
                # are global node ids so they match the overlay-wide loss
                # stream, not mesh-local numbering.
                drop = faults.drop(
                    query_key, h,
                    self._mesh_to_node[frontier[owner_pos]],
                    self._mesh_to_node[nbrs],
                )
                lost += int(np.count_nonzero(drop))
                nbrs = nbrs[~drop]
            fresh = nbrs[~visited[nbrs]]
            frontier = np.unique(fresh)
            visited[frontier] = True
            found, first_hit, leaf_msgs = self._process_ups(
                frontier, replica_mask, qrp_false_positive, rng,
                found, first_hit, leaf_msgs, hop=hop_base + h, qrp=qrp, key=key,
            )

        return TwoTierFloodResult(
            source=source,
            ttl=ttl,
            mesh_messages=mesh_msgs,
            leaf_messages=leaf_msgs,
            first_hit_hop=first_hit,
            replicas_found=found,
            hops_used=hops_used,
            messages_lost=lost,
        )

    def _process_ups(
        self,
        mesh_frontier: np.ndarray,
        replica_mask: np.ndarray,
        qrp_fp: float,
        rng: np.random.Generator,
        found: int,
        first_hit: int,
        leaf_msgs: int,
        hop: int,
        qrp=None,
        key: Optional[int] = None,
    ) -> tuple[int, int, int]:
        """Ultrapeers process the query: self-check plus QRP leaf delivery."""
        if mesh_frontier.size == 0:
            return found, first_hit, leaf_msgs
        up_nodes = self._mesh_to_node[mesh_frontier]
        up_hits = int(np.count_nonzero(replica_mask[up_nodes]))

        # Leaves of these ultrapeers, via the precomputed CSR.
        starts = self._leaf_indptr[mesh_frontier]
        counts = self._leaf_indptr[mesh_frontier + 1] - starts
        total = int(counts.sum())
        if total:
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            pos = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
            leaves = self._leaf_ids[pos]
            matching = replica_mask[leaves]
            if qrp is not None:
                # Real digests: deliver to every digest match; holders are
                # always matches (no Bloom false negatives), extras are the
                # emergent false positives.
                delivered = qrp.matches(leaves, key)
                deliveries = int(np.count_nonzero(delivered))
            else:
                deliveries = int(np.count_nonzero(matching))
                if qrp_fp > 0.0:
                    misses = total - deliveries
                    deliveries += int(rng.binomial(misses, qrp_fp)) if misses else 0
            leaf_msgs += deliveries
            leaf_hits = int(np.count_nonzero(matching))
        else:
            leaf_hits = 0

        if (up_hits or leaf_hits) and first_hit < 0:
            first_hit = hop
        return found + up_hits + leaf_hits, first_hit, leaf_msgs


def _run_two_tier_shard(payload) -> list[TwoTierFloodResult]:
    """One worker's slice of a v0.6 workload (module-level: picklable)."""
    (search, placement, ttl, results_target, faults,
     sources, objects, keys, rngs) = payload
    return [
        search.query(
            int(src), ttl, placement.holder_mask(int(obj)),
            results_target=results_target, seed=rng,
            faults=faults, query_key=int(key),
        )
        for src, obj, key, rng in zip(sources, objects, keys, rngs)
    ]


def two_tier_queries(
    search: TwoTierSearch,
    placement: Placement,
    n_queries: int,
    ttl: int,
    results_target: int = 1,
    seed: SeedLike = None,
    sources: Optional[Sequence[int]] = None,
    n_workers: int = 1,
    faults=None,
) -> list[TwoTierFloodResult]:
    """Issue a batch of v0.6 queries for random objects of a placement.

    Each query routes with its own child generator spawned from the seed,
    so ``n_workers > 1`` (sharding across processes via
    :func:`repro.parallel.map_shards`) returns bit-identical results in
    the same order as the serial loop.  With ``faults``, loss keys are the
    global workload indices, preserving that invariance.
    """
    from repro.parallel.runner import _run_sharded

    workload = _draw_workload(
        search.topo.graph, placement, n_queries, seed, sources, spawn=True
    )
    return _run_sharded(
        _run_two_tier_shard, (search, placement, ttl, results_target, faults),
        workload, n_workers,
    )
