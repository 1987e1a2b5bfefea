"""Counter-based (stateless) randomness for fault injection.

Sequential RNG streams cannot give bit-identical fault decisions across
execution strategies: the scalar flood loop, the bit-parallel batch kernel
and the process-parallel runner all visit messages in different orders, so
any ``Generator`` threaded through them would hand different draws to the
same message.  Fault decisions here are instead *pure functions* of the
message's identity — ``(scenario seed, query key, hop, sender, receiver)``
— hashed through the splitmix64 finalizer.  Every execution strategy
evaluates the same function on the same coordinates and therefore drops
exactly the same messages (the EXPERIMENTS.md seed-derivation convention:
keyed per-query, never per-worker).

The mixer is the standard splitmix64 finalizer (Steele et al.), which
passes BigCrush as a counter-based generator; fault injection needs "no
visible correlation between nearby message coordinates", which it clears
by a wide margin.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)

#: Largest representable threshold; a loss rate of 1.0 maps here, making
#: survival probability 2**-64 per message — indistinguishable from "all
#: messages lost" at any simulation scale.
_MAX_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Words finalized at a time by :func:`fold` (128 KiB per temporary).
_BLOCK = 16384


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 scalars/arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U30)) * _MIX1
        z = (z ^ (z >> _U27)) * _MIX2
        return z ^ (z >> _U31)


def _as_u64(value) -> np.ndarray:
    """Copy ints / int64 arrays to uint64 (two's-complement for negatives)."""
    return np.asarray(value).astype(np.uint64)


def fold(acc, value) -> np.ndarray:
    """Fold integer ``value`` into uint64 hash ``acc``, elementwise.

    The arguments broadcast and neither is written to.  A result longer
    than one block is finalized block by block, in place: the finalizer's
    nine temporaries are then block-sized and stay in cache, where
    finalizing a message-sized array whole would stream it through memory
    nine times.
    """
    word = _as_u64(value)
    word += _GOLDEN
    z = acc ^ word
    if z.size <= _BLOCK:
        return _finalize(z)
    flat = z.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        flat[start : start + _BLOCK] = _finalize(flat[start : start + _BLOCK])
    return z


def edge_hash(seed: int, hop: int, senders, receivers) -> np.ndarray:
    """Query-independent part of :func:`message_hash`, one uint64 per edge.

    Every query crossing ``sender -> receiver`` at ``hop`` shares it, so a
    kernel advancing many queries hashes each gathered edge once and folds
    each message's query key into its edge's hash (:func:`fold`).
    """
    base = fold(_finalize(_as_u64(seed) + _GOLDEN), hop)
    return fold(fold(base, senders), receivers)


def message_hash(seed: int, query_keys, hop: int, senders, receivers) -> np.ndarray:
    """uint64 hash of each (query, sender -> receiver @ hop) message.

    All of ``query_keys``, ``senders`` and ``receivers`` broadcast
    elementwise — scalars against arrays, or equal-shaped arrays with one
    entry per message.  Element ``i`` equals the all-scalar evaluation at
    ``(query_keys[i], senders[i], receivers[i])``, which is what makes every
    kernel bit-identical to the scalar loop.
    """
    return fold(edge_hash(seed, hop, senders, receivers), query_keys)


def rate_threshold(rate: float) -> np.uint64:
    """The uint64 threshold below which a message hash means "dropped"."""
    if rate <= 0.0:
        return np.uint64(0)
    if rate >= 1.0:
        return _MAX_U64
    return np.uint64(int(rate * float(2**64)))


def uniform01(seed: int, query_key: int, hop: int, sender: int, receiver: int) -> float:
    """Scalar uniform in [0, 1) at one message coordinate (tests, docs)."""
    h = message_hash(seed, query_key, hop, np.int64(sender), np.int64(receiver))
    return float(h) / float(2**64)
