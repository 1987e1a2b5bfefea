"""Overlay graph structures.

Two representations, matching their uses:

* :class:`AdjacencyBuilder` — a mutable dict-of-dicts adjacency used while
  an overlay is being *constructed* (Makalu's accept/prune loop, generator
  repair passes).  Operations are O(1) per edge.
* :class:`OverlayGraph` — a frozen CSR (compressed sparse row) snapshot used
  by every *analysis and search kernel*.  Neighbor lists are contiguous
  sorted slices of one ``indices`` array, so flood frontiers, Bloom-filter
  aggregation and spectral work are all plain vectorized gathers.

Graphs are simple (no self loops, no parallel edges) and undirected; each
edge is stored in both directions with its physical latency.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.util.segments import segment_counts
from repro.util.validation import check_node_id


class OverlayGraph:
    """Frozen CSR overlay graph with per-edge latencies.

    Attributes
    ----------
    indptr:
        ``(n_nodes + 1,)`` int64; node ``u``'s neighbors occupy
        ``indices[indptr[u]:indptr[u+1]]``.
    indices:
        ``(2 * n_edges,)`` int64 neighbor ids, sorted within each slice.
    latency:
        ``(2 * n_edges,)`` float64 edge latencies aligned with ``indices``.
    """

    __slots__ = ("_indptr", "_indices", "_latency", "_n_nodes")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, latency: np.ndarray):
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._latency = np.ascontiguousarray(latency, dtype=np.float64)
        self._n_nodes = self._indptr.size - 1
        for arr in (self._indptr, self._indices, self._latency):
            arr.flags.writeable = False
        if self._indices.shape != self._latency.shape:
            raise ValueError("indices and latency must be aligned")
        if self._indptr[0] != 0 or self._indptr[-1] != self._indices.size:
            raise ValueError("indptr does not span the indices array")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        latencies: Optional[np.ndarray] = None,
    ) -> "OverlayGraph":
        """Build from an undirected edge list (each edge listed once).

        Duplicate edges and self loops are rejected rather than silently
        merged — generators are expected to produce simple graphs.
        """
        u = np.asarray(edges_u, dtype=np.int64)
        v = np.asarray(edges_v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("edges_u and edges_v must be 1-D and equal length")
        if u.size:
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_nodes:
                raise ValueError("edge endpoints out of range")
            if np.any(u == v):
                raise ValueError("self loops are not allowed")
        if latencies is None:
            lat = np.ones(u.size, dtype=np.float64)
        else:
            lat = np.asarray(latencies, dtype=np.float64)
            if lat.shape != u.shape:
                raise ValueError("latencies must align with the edge list")
            if np.any(lat < 0):
                raise ValueError("latencies must be non-negative")

        # Symmetrize, then sort by (source, target).
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        w = np.concatenate([lat, lat])
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        if src.size > 1:
            dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if np.any(dup):
                raise ValueError("duplicate edges in the edge list")
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, w)

    @classmethod
    def from_adjacency(
        cls, n_nodes: int, adjacency: Mapping[int, Mapping[int, float]]
    ) -> "OverlayGraph":
        """Build from a dict-of-dicts ``{u: {v: latency}}`` adjacency."""
        us, vs, ws = [], [], []
        for a, nbrs in adjacency.items():
            for b, w in nbrs.items():
                if a == b:
                    raise ValueError(f"self loop at node {a}")
                if b not in adjacency or a not in adjacency[b]:
                    raise ValueError(f"asymmetric adjacency at edge ({a}, {b})")
                if a < b:  # each undirected edge once
                    us.append(a)
                    vs.append(b)
                    ws.append(w)
        return cls.from_edges(
            n_nodes,
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(ws, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes (including isolated ones)."""
        return self._n_nodes

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self._indices.size // 2

    @property
    def indptr(self) -> np.ndarray:
        """CSR offsets (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR neighbor ids (read-only)."""
        return self._indices

    @property
    def latency(self) -> np.ndarray:
        """CSR edge latencies (read-only)."""
        return self._latency

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return segment_counts(self._indptr)

    @property
    def mean_degree(self) -> float:
        """Average node degree."""
        return 2.0 * self.n_edges / self._n_nodes if self._n_nodes else 0.0

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (zero-copy view)."""
        check_node_id("u", u, self._n_nodes)
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def neighbor_latencies(self, u: int) -> np.ndarray:
        """Latencies to ``u``'s neighbors, aligned with :meth:`neighbors`."""
        check_node_id("u", u, self._n_nodes)
        return self._latency[self._indptr[u] : self._indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``(u, v)`` is an edge."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edge_latency(self, u: int, v: int) -> float:
        """Latency of edge ``(u, v)``; raises if absent."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        if i >= nbrs.size or nbrs[i] != v:
            raise KeyError(f"no edge ({u}, {v})")
        return float(self._latency[self._indptr[u] + i])

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, latency)`` with u < v."""
        for u in range(self._n_nodes):
            start, end = self._indptr[u], self._indptr[u + 1]
            for i in range(start, end):
                v = int(self._indices[i])
                if u < v:
                    yield u, v, float(self._latency[i])

    # ------------------------------------------------------------------
    # Conversions and derived graphs
    # ------------------------------------------------------------------

    def to_scipy(self, weighted: bool = False) -> sp.csr_matrix:
        """scipy CSR matrix; entries are latencies if ``weighted`` else 1."""
        data = self._latency if weighted else np.ones_like(self._latency)
        return sp.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()),
            shape=(self._n_nodes, self._n_nodes),
        )

    def to_adjacency(self) -> Dict[int, Dict[int, float]]:
        """Mutable dict-of-dicts copy (for handing to a builder)."""
        adj: Dict[int, Dict[int, float]] = {u: {} for u in range(self._n_nodes)}
        for u in range(self._n_nodes):
            start, end = self._indptr[u], self._indptr[u + 1]
            adj[u] = dict(
                zip(self._indices[start:end].tolist(), self._latency[start:end].tolist())
            )
        return adj

    def subgraph(self, keep: np.ndarray) -> Tuple["OverlayGraph", np.ndarray]:
        """Induced subgraph on the kept nodes.

        Parameters
        ----------
        keep:
            Either a boolean mask of length ``n_nodes`` or an array of node
            ids to keep.

        Returns
        -------
        (graph, old_ids):
            The relabeled subgraph, plus ``old_ids[new_id] -> old id``.
        """
        keep = np.asarray(keep)
        if keep.dtype == bool:
            if keep.size != self._n_nodes:
                raise ValueError("boolean mask length must equal n_nodes")
            mask = keep
        else:
            mask = np.zeros(self._n_nodes, dtype=bool)
            mask[keep] = True
        old_ids = np.flatnonzero(mask)
        new_id = -np.ones(self._n_nodes, dtype=np.int64)
        new_id[old_ids] = np.arange(old_ids.size)

        # Keep a directed entry when both endpoints survive.
        src = np.repeat(np.arange(self._n_nodes), segment_counts(self._indptr))
        keep_entry = mask[src] & mask[self._indices]
        src = new_id[src[keep_entry]]
        dst = new_id[self._indices[keep_entry]]
        lat = self._latency[keep_entry]
        half = src < dst
        sub = OverlayGraph.from_edges(old_ids.size, src[half], dst[half], lat[half])
        return sub, old_ids

    def remove_nodes(self, nodes: Iterable[int]) -> Tuple["OverlayGraph", np.ndarray]:
        """Subgraph with the given nodes (and their edges) deleted."""
        mask = np.ones(self._n_nodes, dtype=bool)
        nodes = np.asarray(list(nodes), dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._n_nodes):
            raise ValueError("node ids out of range")
        mask[nodes] = False
        return self.subgraph(mask)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def connected_components(self) -> Tuple[int, np.ndarray]:
        """Number of components and per-node component labels."""
        n, labels = csgraph.connected_components(self.to_scipy(), directed=False)
        return int(n), labels

    def is_connected(self) -> bool:
        """True if the graph has exactly one connected component."""
        return self.connected_components()[0] == 1

    def giant_component(self) -> Tuple["OverlayGraph", np.ndarray]:
        """Induced subgraph on the largest connected component."""
        _, labels = self.connected_components()
        biggest = np.bincount(labels).argmax()
        return self.subgraph(labels == biggest)

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for u in range(self._n_nodes):
            nbrs = self.neighbors(u)
            if nbrs.size and np.any(np.diff(nbrs) <= 0):
                raise ValueError(f"neighbor list of {u} not strictly sorted")
            if np.any(nbrs == u):
                raise ValueError(f"self loop at {u}")
        # Symmetry: the reversed edge multiset must match.
        src = np.repeat(np.arange(self._n_nodes), segment_counts(self._indptr))
        fwd = np.lexsort((self._indices, src))
        rev = np.lexsort((src, self._indices))
        if not (
            np.array_equal(src[fwd], self._indices[rev])
            and np.array_equal(self._indices[fwd], src[rev])
            and np.allclose(self._latency[fwd], self._latency[rev])
        ):
            raise ValueError("graph is not symmetric")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OverlayGraph(n_nodes={self._n_nodes}, n_edges={self.n_edges}, "
            f"mean_degree={self.mean_degree:.2f})"
        )


class AdjacencyBuilder:
    """Mutable adjacency used while constructing overlays.

    Maintains the undirected-simple-graph invariant on every mutation; call
    :meth:`freeze` to snapshot into an :class:`OverlayGraph` for analysis.
    """

    def __init__(self, n_nodes: int):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._n_nodes = n_nodes
        self._adj: list[Dict[int, float]] = [dict() for _ in range(n_nodes)]
        self._n_edges = 0

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n_nodes

    @property
    def n_edges(self) -> int:
        """Current number of undirected edges."""
        return self._n_edges

    def degree(self, u: int) -> int:
        """Current degree of ``u``."""
        return len(self._adj[u])

    def neighbors(self, u: int) -> Dict[int, float]:
        """Live neighbor->latency mapping of ``u`` (do not mutate)."""
        return self._adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``(u, v)`` is currently an edge."""
        return v in self._adj[u]

    def add_edge(self, u: int, v: int, latency: float) -> None:
        """Insert edge ``(u, v)``; raises if it exists or is a self loop."""
        if u == v:
            raise ValueError(f"self loop at node {u}")
        if v in self._adj[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        if latency < 0:
            raise ValueError(f"negative latency {latency} on edge ({u}, {v})")
        self._adj[u][v] = latency
        self._adj[v][u] = latency
        self._n_edges += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``; raises if absent."""
        if v not in self._adj[u]:
            raise KeyError(f"no edge ({u}, {v})")
        del self._adj[u][v]
        del self._adj[v][u]
        self._n_edges -= 1

    def freeze(self) -> OverlayGraph:
        """Snapshot into a frozen CSR :class:`OverlayGraph`."""
        total = 2 * self._n_edges
        indptr = np.zeros(self._n_nodes + 1, dtype=np.int64)
        indices = np.empty(total, dtype=np.int64)
        latency = np.empty(total, dtype=np.float64)
        pos = 0
        for u, nbrs in enumerate(self._adj):
            indptr[u] = pos
            if nbrs:
                ids = np.fromiter(nbrs.keys(), dtype=np.int64, count=len(nbrs))
                lats = np.fromiter(nbrs.values(), dtype=np.float64, count=len(nbrs))
                order = np.argsort(ids)
                indices[pos : pos + ids.size] = ids[order]
                latency[pos : pos + ids.size] = lats[order]
                pos += ids.size
        indptr[self._n_nodes] = pos
        return OverlayGraph(indptr, indices[:pos], latency[:pos])
