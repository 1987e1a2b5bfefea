"""Per-link fault description consumed by the search kernels.

A :class:`LinkFaults` bundles the message-level failure environment a
query executes under: an i.i.d. per-message loss rate and a latency
inflation factor (the latter interpreted by latency-aware consumers such
as :class:`~repro.core.makalu.MakaluBuilder` during spike windows; the
hop-synchronous kernels only consume the loss).

Loss decisions are counter-based (:mod:`repro.faults.hashing`): a message
``sender -> receiver`` at hop ``h`` of the query with key ``k`` is dropped
iff ``hash(seed, k, h, sender, receiver) < rate * 2**64``.  Because the
decision is a pure function of those coordinates, the scalar flood, the
bit-parallel batch kernel and every worker-count of the process-parallel
runner drop exactly the same messages — the golden-parity tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.hashing import edge_hash, fold, rate_threshold
from repro.util.validation import check_probability


@dataclass(frozen=True)
class LinkFaults:
    """Message-level fault environment for one query workload.

    Attributes
    ----------
    loss_rate:
        Per-message i.i.d. drop probability in [0, 1].
    seed:
        Loss-stream key; scenarios derive one per loss window so separate
        windows make independent decisions.
    latency_factor:
        Multiplier on physical link latencies while active (latency
        spikes).  Ignored by the loss-only kernels.
    """

    loss_rate: float = 0.0
    seed: int = 0
    latency_factor: float = 1.0

    def __post_init__(self):
        check_probability("loss_rate", self.loss_rate)
        if self.latency_factor <= 0:
            raise ValueError(
                f"latency_factor must be > 0, got {self.latency_factor}"
            )

    @property
    def lossy(self) -> bool:
        """Whether any message can be dropped under this environment."""
        return self.loss_rate > 0.0

    def drop(self, query_keys, hop: int, senders, receivers) -> np.ndarray:
        """Boolean drop mask, elementwise over the broadcast arguments.

        The one decision every kernel shares: scalars broadcast against
        arrays, arrays carry one entry per message.  A scalar
        ``query_keys`` with ``(m,)`` edge arrays is one query's frontier
        (scalar flood, ABF, two-tier).
        """
        return self.drop_keyed(self.edge_hash(hop, senders, receivers), query_keys)

    def edge_hash(self, hop: int, senders, receivers) -> np.ndarray:
        """Query-independent half of :meth:`drop`, one uint64 per edge."""
        return edge_hash(self.seed, hop, senders, receivers)

    def drop_keyed(self, edge_hashes, query_keys) -> np.ndarray:
        """:meth:`drop` for messages whose :meth:`edge_hash` is already known.

        A kernel advancing many queries over the same gathered edges hashes
        each edge once and passes ``edge_hashes[edge_of_message]`` with the
        per-message ``query_keys`` here.
        """
        return fold(edge_hashes, query_keys) < rate_threshold(self.loss_rate)
