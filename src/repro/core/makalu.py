"""Makalu overlay construction (paper Section 2.2).

The builder simulates the decentralized protocol faithfully, one event at a
time:

* **Join** — a node obtains a seed peer (any already-joined node, standing
  in for the bootstrap host cache), gathers candidate peers by random-walking
  the existing overlay from that seed, and attempts connections until it has
  filled its capacity.
* **Management** — a contacted peer always accepts the incoming connection
  provisionally; if that pushes it over its capacity it rates all neighbors
  (including the newcomer) with the peer rating function and drops the
  lowest-rated one.  This is the paper's ``Manage()`` loop.
* **Refinement** — after all joins, every node runs additional acquire
  passes in which it provisionally considers new candidates even while at
  capacity ("provisionally considers the candidate peer as its neighbor and
  computes a rating for all of its neighbors including the candidate peer...
  then keeps the connections with the best rating").  This models the
  steady-state behaviour of long-lived nodes.

Node capacities are heterogeneous ("each node can have different degrees as
dictated by its connectivity on the physical network"); the default range
reproduces the paper's mean node degree of 10-12.

Everything a node does here uses only local information: its own neighbor
latencies and the neighbor lists its neighbors shared with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.membership import MembershipService

from repro.core.rating import RatingWeights, rate_neighbors, worst_neighbor
from repro.netmodel.base import NetworkModel
from repro.obs import runtime as _obs
from repro.topology.graph import AdjacencyBuilder, OverlayGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.tombstone import TombstoneList


@dataclass(frozen=True)
class MakaluConfig:
    """Tunables of the Makalu construction.

    Attributes
    ----------
    degree_min, degree_max:
        Per-node capacities are drawn uniformly from this inclusive range
        (default mean 11, matching the paper's "mean node degree of 10 to
        12").
    walk_length:
        Steps of each candidate-gathering random walk.
    min_candidates:
        Walks are repeated (up to ``max_walks``) until at least this many
        distinct candidates are collected.
    max_walks:
        Upper bound on walks per acquire pass.
    refinement_rounds:
        Post-join management rounds in which every node revisits its
        neighbor set with provisional swaps.
    min_degree_floor:
        A node pruned below this degree re-runs acquisition (the protocol's
        disconnected peers rejoin through the host cache).
    weights:
        alpha/beta weighting of the rating function.
    refine_mode:
        ``"sequential"`` (default) replays refinement one node at a time,
        exactly as the live protocol interleaves; ``"batch"`` computes each
        round synchronously against a snapshot with every stage (walks,
        provisional ratings, selection, reconciliation) vectorized across
        all nodes — see :mod:`repro.core.batch_refine`.  Batch rounds are
        deterministic but draw the RNG differently, so overlays differ
        edge-for-edge from sequential ones while matching their structural
        health; sequential stays the default because seeded golden
        trajectories pin it.
    """

    degree_min: int = 8
    degree_max: int = 14
    walk_length: int = 30
    min_candidates: int = 20
    max_walks: int = 5
    refinement_rounds: int = 2
    swap_candidates: int = 6
    fill_rounds: int = 4
    min_degree_floor: int = 2
    weights: RatingWeights = field(default_factory=RatingWeights)
    refine_mode: str = "sequential"

    def __post_init__(self):
        if not 1 <= self.degree_min <= self.degree_max:
            raise ValueError(
                f"need 1 <= degree_min <= degree_max, got "
                f"[{self.degree_min}, {self.degree_max}]"
            )
        if self.walk_length < 1 or self.max_walks < 1:
            raise ValueError("walk_length and max_walks must be >= 1")
        if self.min_candidates < 1:
            raise ValueError("min_candidates must be >= 1")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if self.swap_candidates < 1:
            raise ValueError("swap_candidates must be >= 1")
        if self.fill_rounds < 0:
            raise ValueError("fill_rounds must be >= 0")
        if self.min_degree_floor < 1:
            raise ValueError("min_degree_floor must be >= 1")
        if self.refine_mode not in ("sequential", "batch"):
            raise ValueError(
                f"refine_mode must be 'sequential' or 'batch', "
                f"got {self.refine_mode!r}"
            )


class MakaluBuilder:
    """Constructs a Makalu overlay over a physical substrate.

    Parameters
    ----------
    model:
        Physical latency substrate; also fixes the node count.  ``None``
        gives unit latencies for ``n_nodes`` nodes (connectivity-only
        rating), mainly for tests.
    n_nodes:
        Required iff ``model`` is None.
    config:
        Construction tunables.
    capacities:
        Optional explicit per-node capacity array overriding the sampled
        uniform capacities.
    seed:
        RNG seed driving arrival order, walks and capacity sampling.
    """

    def __init__(
        self,
        model: Optional[NetworkModel] = None,
        n_nodes: Optional[int] = None,
        config: Optional[MakaluConfig] = None,
        capacities: Optional[np.ndarray] = None,
        membership: Optional["MembershipService"] = None,
        seed: SeedLike = None,
    ):
        if model is None and n_nodes is None:
            raise ValueError("provide a NetworkModel or an explicit n_nodes")
        if model is not None and n_nodes is not None and model.n_nodes != n_nodes:
            raise ValueError(
                f"n_nodes ({n_nodes}) disagrees with model.n_nodes ({model.n_nodes})"
            )
        self.model = model
        self.n_nodes = model.n_nodes if model is not None else int(n_nodes)
        self.config = config or MakaluConfig()
        self.rng = as_generator(seed)

        if capacities is not None:
            capacities = np.asarray(capacities, dtype=np.int64)
            if capacities.shape != (self.n_nodes,):
                raise ValueError("capacities must have one entry per node")
            if capacities.min() < 1:
                raise ValueError("capacities must all be >= 1")
            self.capacities = capacities
        else:
            self.capacities = self.rng.integers(
                self.config.degree_min,
                self.config.degree_max + 1,
                size=self.n_nodes,
                dtype=np.int64,
            )

        self.adj = AdjacencyBuilder(self.n_nodes)
        self._joined_roster = TombstoneList()
        self._repair_queue: deque[int] = deque()
        #: Optional per-node host caches (see repro.core.membership).  When
        #: set, joiners bootstrap from their own cache (stale entries cost
        #: probes) instead of the omniscient global join list, and walks
        #: feed their discoveries back into the walker's cache.
        self.membership = membership
        #: Live-node mask consulted by cache bootstraps; the churn
        #: simulation keeps it updated.  ``None`` means everyone is up.
        self.alive_mask: Optional[np.ndarray] = None
        #: Optional reachability predicate ``(u, v) -> bool``.  While set,
        #: connection attempts failing it are refused before any protocol
        #: work — the fault injector installs one for the duration of a
        #: network partition so no cross-cut edge can form.
        self.link_filter = None
        #: Multiplier on physical link latencies, normally 1.0; latency
        #: spike windows raise it so connections formed during a spike are
        #: rated (and kept/pruned) at their degraded cost.
        self.latency_scale: float = 1.0
        #: Optional :class:`~repro.obs.health.HealthSampler` hooked into
        #: the maintenance loop: when set, each refinement round ends with
        #: a structural health sample (t = completed round index), so
        #: construction convergence is a time series, not a black box.
        self.health_sampler = None

    @property
    def _joined(self) -> TombstoneList:
        """The joined-node roster (candidate pool for walks/bootstraps).

        A :class:`~repro.util.tombstone.TombstoneList`, so failure events
        remove departed nodes in O(log n) each instead of rebuilding an
        O(n) list — the logical order (and hence every seeded pick) is
        identical to the plain list this used to be.
        """
        return self._joined_roster

    @_joined.setter
    def _joined(self, items) -> None:
        if not isinstance(items, TombstoneList):
            items = TombstoneList(items)
        self._joined_roster = items

    # ------------------------------------------------------------------
    # Local protocol primitives
    # ------------------------------------------------------------------

    def _latency(self, u: int, v: int) -> float:
        if self.model is None:
            return self.latency_scale
        return self.latency_scale * self.model.latency(u, v)

    def _neighborhood_of(self, v: int):
        """The neighbor list ``v`` shares with its peers."""
        return self.adj.neighbors(v).keys()

    def _prune_once(self, x: int) -> int:
        """Drop x's lowest-rated neighbor; returns the pruned neighbor id.

        Neighbors for whom this link is their only connection are spared
        when any alternative exists — x can see that from the neighbor
        lists peers exchange, and orphaning a peer outright (rather than
        letting it rejoin) wastes everyone's bandwidth.  With a pure
        connectivity rating (beta = 0) this guard is what lets fresh
        joiners — whose unique-reachable set is empty by construction —
        bootstrap into the overlay at all.
        """
        with _obs.span("makalu.rating"):
            ratings = rate_neighbors(
                x, self.adj.neighbors(x), self._neighborhood_of,
                self.config.weights,
            )
        _obs.count("makalu.rating_calls")
        sparable = {v: r for v, r in ratings.items() if self.adj.degree(v) > 1}
        victim = worst_neighbor(sparable if sparable else ratings)
        self.adj.remove_edge(x, victim)
        _obs.count("makalu.prunes")
        _obs.event("makalu.prune", node=x, victim=victim)
        if self.adj.degree(victim) < self.config.min_degree_floor:
            self._repair_queue.append(victim)
        return victim

    def _attempt_connection(self, u: int, c: int) -> bool:
        """u asks c for a connection; both sides apply the Manage() rule.

        Returns True if the edge survives both sides' capacity pruning.
        """
        if u == c or self.adj.has_edge(u, c):
            return False
        if self.link_filter is not None and not self.link_filter(u, c):
            _obs.count("makalu.connections_unreachable")
            return False
        _obs.count("makalu.connections_attempted")
        self.adj.add_edge(u, c, self._latency(u, c))
        # Acceptor side first: c provisionally holds the connection and
        # prunes its worst neighbor if now over capacity.
        if self.adj.degree(c) > self.capacities[c]:
            if self._prune_once(c) == u:
                _obs.event("makalu.reject", initiator=u, acceptor=c, by=c)
                return False
        # Initiator side: same rule.
        if self.adj.degree(u) > self.capacities[u]:
            if self._prune_once(u) == c:
                _obs.event("makalu.reject", initiator=u, acceptor=c, by=u)
                return False
        _obs.count("makalu.connections_accepted")
        _obs.event("makalu.accept", initiator=u, acceptor=c)
        return True

    def _seed_peers(self, u: int) -> list[int]:
        """Walk starting points for ``u``'s candidate gathering.

        With a membership service, these come from ``u``'s own host cache
        (the restart-with-a-stale-gnutella.net behaviour); otherwise from
        the global joined list standing in for an external bootstrap host.
        """
        if self.membership is not None:
            seeds, _wasted = self.membership.bootstrap_candidates(
                u, alive=self.alive_mask, k=self.config.max_walks
            )
            seeds = [s for s in seeds if s != u]
            if seeds:
                return seeds
        joined = self._joined
        if not joined or (len(joined) == 1 and joined[0] == u):
            return []
        picks = self.rng.integers(0, len(joined), size=self.config.max_walks)
        return [joined[int(i)] for i in picks if joined[int(i)] != u]

    def _gather_candidates(self, u: int) -> list[int]:
        """Random-walk the overlay from seed peers, collecting candidates."""
        cfg = self.config
        candidates: set[int] = set()
        for seed_peer in self._seed_peers(u):
            if len(candidates) >= cfg.min_candidates:
                break
            candidates.add(seed_peer)
            x = seed_peer
            for _step in range(cfg.walk_length):
                nbrs = list(self.adj.neighbors(x))
                if not nbrs:
                    break
                x = nbrs[int(self.rng.integers(0, len(nbrs)))]
                if x != u:
                    candidates.add(x)
        if self.membership is not None and candidates:
            self.membership.observe(u, candidates)
        candidates.difference_update(self.adj.neighbors(u))
        candidates.discard(u)
        out = list(candidates)
        self.rng.shuffle(out)
        return out

    def _acquire(self, u: int, allow_swap: bool) -> None:
        """One acquisition pass for ``u``.

        With ``allow_swap`` False (join phase) the node only fills spare
        capacity; with True (refinement) it attempts up to
        ``swap_candidates`` provisional connections at capacity, letting the
        rating function keep the best.
        """
        candidates = self._gather_candidates(u)
        if allow_swap:
            candidates = candidates[: self.config.swap_candidates]
        for c in candidates:
            if not allow_swap and self.adj.degree(u) >= self.capacities[u]:
                break
            self._attempt_connection(u, c)

    def _drain_repairs(self, budget: int) -> None:
        """Give pruned-below-floor nodes a rejoin pass (bounded work)."""
        seen_budget = budget
        while self._repair_queue and seen_budget > 0:
            node = self._repair_queue.popleft()
            seen_budget -= 1
            if self.adj.degree(node) < self.config.min_degree_floor:
                self._acquire(node, allow_swap=False)

    # ------------------------------------------------------------------
    # Public build API
    # ------------------------------------------------------------------

    def join(self, u: int) -> None:
        """Join node ``u`` to the overlay (bootstrap + fill capacity)."""
        self._acquire(u, allow_swap=False)
        self._joined.append(u)
        _obs.count("makalu.joins")

    def refine(self, rounds: Optional[int] = None,
               mode: Optional[str] = None) -> None:
        """Run management/refinement rounds over all joined nodes.

        ``mode`` overrides ``config.refine_mode`` for this call (either
        ``"sequential"`` or ``"batch"``).
        """
        rounds = self.config.refinement_rounds if rounds is None else rounds
        mode = self.config.refine_mode if mode is None else mode
        if mode == "batch":
            from repro.core.batch_refine import batch_refine_round

            for r in range(rounds):
                with _obs.span("makalu.refine_round"):
                    batch_refine_round(self)
                if self.health_sampler is not None:
                    self.health_sampler.sample(t=r + 1, graph=self.adj.freeze())
            return
        nodes = self._joined.to_array()
        for r in range(rounds):
            with _obs.span("makalu.refine_round"):
                order = self.rng.permutation(nodes)
                for u in order:
                    self._acquire(int(u), allow_swap=True)
                self._drain_repairs(budget=2 * len(nodes))
            if self.health_sampler is not None:
                self.health_sampler.sample(t=r + 1, graph=self.adj.freeze())

    def fill(self, rounds: Optional[int] = None) -> None:
        """Let under-capacity nodes re-acquire until full (bounded rounds).

        In the live protocol every node's Manage() loop keeps accepting
        connections whenever it is below capacity; prune cascades during
        refinement would otherwise leave a tail of weakly connected nodes,
        which caps the overlay's vertex connectivity.
        """
        rounds = self.config.fill_rounds if rounds is None else rounds
        for _ in range(rounds):
            needy = [
                u for u in range(self.n_nodes)
                if self.adj.degree(u) < self.capacities[u]
            ]
            if not needy:
                break
            self.rng.shuffle(needy)
            for u in needy:
                self._acquire(u, allow_swap=False)

    def build(self) -> OverlayGraph:
        """Run the full construction and return the frozen overlay."""
        with _obs.span("makalu.build"):
            with _obs.span("makalu.joins"):
                order = self.rng.permutation(self.n_nodes)
                for u in order:
                    self.join(int(u))
                self._drain_repairs(budget=2 * self.n_nodes)
            if self.health_sampler is not None:
                # Round 0 = the overlay as joins left it, before refinement.
                self.health_sampler.sample(t=0, graph=self.adj.freeze())
            with _obs.span("makalu.refine"):
                self.refine()
                self._drain_repairs(budget=2 * self.n_nodes)
            with _obs.span("makalu.fill"):
                self.fill()
            return self.adj.freeze()


def makalu_graph(
    model: Optional[NetworkModel] = None,
    n_nodes: Optional[int] = None,
    config: Optional[MakaluConfig] = None,
    capacities: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> OverlayGraph:
    """One-call convenience: build and freeze a Makalu overlay."""
    return MakaluBuilder(
        model=model, n_nodes=n_nodes, config=config, capacities=capacities, seed=seed
    ).build()
