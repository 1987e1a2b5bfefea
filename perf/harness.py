"""Measurement plumbing shared by the four planes.

Nothing here imports ``repro`` or NumPy: the span recorder, seed
derivation, round statistics and metric bookkeeping are plain Python so
``perf/tests`` can exercise them without building an overlay.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import time
from contextlib import contextmanager
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar)

T = TypeVar("T")

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    """The contract file at the repo root (metric names, units, bounds)."""
    return load_json(os.path.join(REPO_ROOT, "BENCHMARK.json"))


PLANES = ("build", "search", "sim", "live")


def load_sizes(workload: str, quick: bool = False) -> dict:
    """Sizes and round counts of one workload (fixed, never host-derived).

    Every workload runs all four planes: the plane it is named for at its
    ``full`` size, the other three at the one ``probe`` size every
    workload shares.  ``quick`` is the small size ``perf/tests`` runs
    every plane at.  A plane's block is its shared parameters overlaid
    with those of the chosen size.
    """
    doc = load_json(os.path.join(PERF_DIR, "sizes.json"))
    sizes = {k: v for k, v in doc.items() if k != "planes"}
    if quick:
        sizes["setup_repeats"] = 1
    sizes["rounds"] = {}
    for plane in PLANES:
        block = doc["planes"][plane]
        size = "quick" if quick else "full" if plane == workload else "probe"
        merged = {k: v for k, v in block.items()
                  if k not in ("full", "probe", "quick")}
        merged.update(block[size])
        sizes["rounds"].update(merged.pop("rounds"))
        sizes[plane] = merged
    return sizes


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------


def derive_seed(seed: int, *labels) -> int:
    """A 31-bit seed for ``(seed, labels...)``, stable across processes.

    Every model/graph/placement/query seed of a run comes from here, so
    the run is a pure function of ``--seed``; distinct labels (phase
    name, round index) give distinct streams.
    """
    text = "/".join(str(x) for x in (seed, *labels))
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**31 - 1)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "SpanRecorder", index: int):
        self.rec = rec
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.index][2] = time.perf_counter()
        rec._stack.pop()


class SpanRecorder:
    """In-memory spans around calls into each ``repro`` layer.

    A span is ``[name, start, end, parent_index, round_id]``; the layer
    is the name's first dotted component.  One client drives the whole
    benchmark serially (the asyncio phases await each call before the
    next), so a plain stack gives the causing span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.round_id = ""

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.round_id])
        self._stack.append(index)
        return _Span(self, index)

    def durations(self, name: str) -> List[float]:
        """Seconds of every closed span called ``name``."""
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[2] is not None]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus its direct children's."""
    out = [(s[2] - s[1]) for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_table(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """``{layer: {calls, total_s, self_s}}``; self times sum to the roots'."""
    table: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        row = table.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
    return table


def format_layer_table(table: Dict[str, Dict[str, float]]) -> str:
    wall = sum(r["self_s"] for r in table.values())
    lines = [f"  {'layer':<10} {'calls':>8} {'self s':>9} {'share':>7}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        lines.append(f"  {layer:<10} {row['calls']:>8} {row['self_s']:>9.3f} "
                     f"{share:>6.1%}")
    lines.append(f"  {'(sum)':<10} {'':>8} {wall:>9.3f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def supported_percentile(n: int) -> int:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100.0 >= 10:
            return pct
    return 50


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` has them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), median(values), float(q3)


# ----------------------------------------------------------------------
# One run's bookkeeping
# ----------------------------------------------------------------------


class Run:
    """State of one ``run.py --workload`` invocation.

    Carries the sizes of the chosen workload, the span recorder, the
    overlays set-up built, the operation tally (attempted / failed),
    failed output checks, the metric values in both families, and the
    timed phases of every plane.
    """

    def __init__(self, workload: str, seed: int, sizes: dict, trace: bool,
                 seconds: Optional[float] = None):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.trace = trace
        nominal = float(sizes.get("run_seconds", 1.0))
        self.round_scale = 1.0 if not seconds else float(seconds) / nominal
        self.n_cycles = max(self.n_rounds(p) for p in sizes["rounds"])
        self.spans = SpanRecorder(enabled=trace)
        self.phases: Dict[str, "Phase"] = {}
        #: Set-up leaves the overlays the search and sim planes run on
        #: here, by node count.
        self.overlays: Dict[int, object] = {}
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: List[str] = []
        #: Per rate metric, every round's (work, seconds) as measured.
        self.round_log: Dict[str, Dict[str, List[float]]] = {}

    def seed_for(self, *labels) -> int:
        return derive_seed(self.seed, self.workload, *labels)

    def n_rounds(self, phase: str) -> int:
        """Round count of ``phase``, scaled by ``--seconds``.

        A phase sized for two or more rounds never drops to one, so a
        traced run keeps its twin round.
        """
        base = int(self.sizes["rounds"][phase])
        return max(min(base, 2), int(round(base * self.round_scale)))

    @contextmanager
    def observing(self, totals: Optional["ObsTotals"] = None,
                  measured: bool = True, counters_only: bool = False):
        """Scope of one round: what ``--trace`` switches on around it.

        A measured round of a traced run records spans and runs under the
        program's own ``repro.obs`` session with its profiler on; the
        session's counters and span totals are folded into ``totals``
        when the round ends.  The unmeasured twin round runs with both
        off.  ``counters_only`` keeps a metrics-only session on even
        untraced, for the one phase whose work count
        (``sim.events_dispatched``) is an obs counter.  Scopes do not
        nest: ``repro.obs`` has one session at a time.
        """
        traced = self.trace and measured
        was_enabled = self.spans.enabled
        self.spans.enabled = traced
        try:
            if not (traced or counters_only):
                yield
                return
            from repro import obs

            with obs.observed(profile=traced) as session:
                try:
                    yield
                finally:
                    if measured and totals is not None:
                        totals.fold(session)
        finally:
            self.spans.enabled = was_enabled

    def tally(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, ok: bool, message: str) -> bool:
        """Record an output check; a failed one fails the run."""
        if not ok:
            self.check_failures.append(message)
        return bool(ok)

    def e2e(self, name: str, value: float, note: str = "") -> None:
        self.end_to_end[name] = float(value)
        if note:
            self.notes[name] = note

    def layer(self, name: str, value: float, note: str = "") -> None:
        self.per_layer[name] = float(value)
        if note:
            self.notes[name] = note

    def e2e_rate(self, name: str, work: Sequence[float],
                 seconds: Sequence[float], note: str = "") -> float:
        """Report an end-to-end rate from its rounds, and keep the rounds."""
        self.round_log[name] = {"work": list(work), "seconds": list(seconds)}
        value = rate(work, seconds)
        self.e2e(name, value, note)
        return value


class ObsTotals:
    """Counters and span totals copied out of ``repro.obs`` sessions."""

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.spans: Dict[str, float] = {}

    def fold(self, session) -> None:
        for name, value in session.metrics.snapshot()["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        if session.profiler is not None:
            for path, row in session.profiler.report().items():
                leaf = path.rsplit("/", 1)[-1]
                self.spans[leaf] = self.spans.get(leaf, 0.0) + row["total_s"]


class Phase:
    """One timed phase: R rounds on distinct derived seeds.

    Round ``r`` runs in cycle ``r * C // R`` of the run's C cycles, so a
    phase's rounds are spread over the whole run and interleaved with
    every other phase's instead of running back to back.  This host slows
    down by 5-15 % for seconds at a time; spread out, such a spell costs
    each phase one round, not one phase all of its rounds, and the median
    round does not move.

    Untraced, every round is measured.  Traced, the last of R >= 2
    rounds replays the seed of the round before it with tracing
    suspended: it is not measured, and its wall against that round's
    gives the cost of ``--trace`` on identical input, both warm
    (``obs.trace_overhead_ratio``).  Phases that mutate their input pass
    ``twin=False``.

    ``digest`` reduces a round's result, after the clock has stopped, to
    what ``finish`` needs: ten rounds of per-query result objects kept
    alive would have the garbage collector walk them during every later
    round of every phase.
    """

    def __init__(self, run: Run, name: str, body: Callable[[int, int], T],
                 twin: bool = True, counters_only: bool = False,
                 digest: Optional[Callable] = None):
        self.run = run
        self.name = name
        self.body = body
        self.counters_only = counters_only
        self.digest = digest
        self.n = run.n_rounds(name)
        self.twin = twin and run.trace and self.n >= 2
        self.walls: List[float] = []
        self.results: List[T] = []
        self.twin_wall: Optional[float] = None
        self.twin_result: Optional[T] = None
        self.obs = ObsTotals()
        run.phases[name] = self

    def rounds_in(self, cycle: int) -> List[int]:
        """The rounds this phase runs in ``cycle``."""
        cycles = self.run.n_cycles
        return [r for r in range(self.n) if r * cycles // self.n == cycle]

    def cycle(self, cycle: int) -> None:
        for r in self.rounds_in(cycle):
            self._round(r)

    def _round(self, r: int) -> None:
        run = self.run
        measured = not (self.twin and r == self.n - 1)
        if not measured:
            r = self.n - 2
        run.spans.round_id = f"{self.name}#{r if measured else 'twin'}"
        with run.spans.span("perf.round" if measured else "obs.twin_round"):
            with run.observing(self.obs, measured, self.counters_only):
                t0 = time.perf_counter()
                result = self.body(r, run.seed_for(self.name, r))
                wall = time.perf_counter() - t0
        run.spans.round_id = ""
        if self.digest is not None:
            result = self.digest(result)
        if measured:
            self.walls.append(wall)
            self.results.append(result)
        else:
            self.twin_wall, self.twin_result = wall, result


def timing_note(samples: Sequence[float], unit_scale: float, unit: str) -> str:
    """``p50 / pXX (n=...)`` with the highest supported percentile."""
    pct = supported_percentile(len(samples))
    text = f"p50 {median(samples) * unit_scale:.3f} {unit}"
    if pct != 50:
        text += f", p{pct} {percentile(samples, pct) * unit_scale:.3f} {unit}"
    return f"{text} (n={len(samples)})"


def rate(work: Sequence[float], seconds: Sequence[float]) -> float:
    """The median round's ``work / seconds``.

    With equal work in every round this is ``work_per_round /
    median(round_s)``; taken per round because some phases' work varies
    with the round's seed (messages, events, bytes).  A round that did
    no work in no time (every operation timed out) has no rate and is
    left out; its operations are already counted as failed.
    """
    rates = [w / s for w, s in zip(work, seconds) if s > 0]
    return median(rates) if rates else 0.0
