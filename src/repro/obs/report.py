"""Offline analysis of observability artifacts: the ``repro obs`` toolkit.

Three operations over the JSON artifacts runs leave behind (metric
snapshots from ``--metrics-json``, ``BENCH_*.json`` bench run
histories, JSONL traces from ``--trace``, profile dumps
from ``--profile-json``):

* :func:`render_report` — human-readable health/metrics report of one
  snapshot, including time-series trajectories;
* :func:`diff_metrics` — per-metric relative deltas between two snapshots
  (or bench histories), with direction-aware regression flagging for CI
  gating (``repro obs diff --fail-on-regression``);
* :func:`export_chrome_trace` — convert a tracer JSONL file or a profile
  dump into Chrome's ``chrome://tracing`` / Perfetto JSON format, with
  one lane per ``query_id`` for queueing-path events;
* :func:`hot_metrics` — top-k per-entity gauge ranking
  (``repro obs top``, the hot-node report);
* ``repro obs slo`` — SLO evaluation lives in :mod:`repro.obs.slo` and
  is wired here.

Everything here is dependency-free (stdlib json only) so CI can gate on
it without installing the package's numeric stack.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.quantiles import quantiles_of_state


class UnsupportedSchemaError(ValueError):
    """An artifact announces a schema version newer than this build reads.

    CLI entry points catch this and turn it into a one-line stderr message
    with exit status 2 — a forward-compatibility file should fail loudly
    but never with a traceback.
    """


#: Newest ``schema_version`` this build knows how to read, for both metric
#: snapshots and bench run histories (currently in lockstep at 3; version
#: 3 added the ``quantiles`` section).  Older versions load fine — the
#: newer sections are simply absent.
SUPPORTED_SNAPSHOT_SCHEMA = 3

#: Metric-name fragments where *larger* values are better; a relative
#: decrease beyond the threshold is the regression.  Everything else is
#: judged conservatively as lower-is-better (more messages, more wall
#: time, more components, more staleness — all worse).
HIGHER_IS_BETTER = (
    "success",
    "giant",
    "largest",
    "expansion",
    "spectral_gap",
    "speedup",
    "online",
    "accepted",
    "mean_degree",
    "min_degree",
    "hits",
    "p99_ratio",
    "saturation_multiplier",
)


def improves_when_higher(name: str) -> bool:
    """Whether metric ``name`` is better when larger."""
    return any(frag in name for frag in HIGHER_IS_BETTER)


# ----------------------------------------------------------------------
# Loading: metric snapshots and bench run histories
# ----------------------------------------------------------------------


def load_document(path: str) -> dict:
    """Load a JSON artifact (snapshot or bench history) from ``path``.

    Raises :class:`UnsupportedSchemaError` when the artifact declares a
    ``schema_version`` newer than :data:`SUPPORTED_SNAPSHOT_SCHEMA` —
    diffing a half-understood document would silently drop the sections
    this build does not know about.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    version = doc.get("schema_version")
    if isinstance(version, int) and version > SUPPORTED_SNAPSHOT_SCHEMA:
        raise UnsupportedSchemaError(
            f"{path}: schema_version {version} is newer than the supported "
            f"version {SUPPORTED_SNAPSHOT_SCHEMA}; upgrade repro to read it"
        )
    return doc


def latest_bench_record(doc: dict) -> Optional[dict]:
    """The most recent run record of a bench history, or None.

    Accepts both the accumulating layout (``{"runs": [...]}``, schema 2)
    and the legacy single-run layout (wall times at top level, schema 1).
    """
    runs = doc.get("runs")
    if isinstance(runs, list) and runs:
        return runs[-1]
    if "wall_time_ms" in doc:
        return doc
    return None


def flatten_metrics(doc: dict) -> Dict[str, float]:
    """Numeric leaves of a snapshot or bench record, keyed by dotted path.

    This is the comparison space of :func:`diff_metrics`:

    * counters and gauges map through unchanged;
    * histograms contribute ``<name>.count`` and ``<name>.mean``;
    * quantile histograms contribute ``<name>.count``, ``<name>.mean``,
      ``<name>.p50``/``.p90``/``.p99``/``.p999`` and ``<name>.max`` —
      the latency surface SLOs and regression gates evaluate;
    * time series contribute ``<name>.samples``, ``<name>.last``,
      ``<name>.mean`` and ``<name>.min`` — the trajectory summary a
      regression gate can hold steady across runs;
    * bench records contribute ``wall_time_ms.*`` and
      ``speedup_vs_scalar.*``.
    """
    bench = latest_bench_record(doc)
    if bench is not None and "counters" not in doc:
        flat: Dict[str, float] = {}
        for section in ("wall_time_ms", "speedup_vs_scalar"):
            for name, value in bench.get(section, {}).items():
                if isinstance(value, (int, float)):
                    flat[f"{section}.{name}"] = float(value)
        return flat

    flat = {}
    for name, value in doc.get("counters", {}).items():
        flat[name] = float(value)
    for name, value in doc.get("gauges", {}).items():
        flat[name] = float(value)
    for name, h in doc.get("histograms", {}).items():
        count = float(h.get("count", 0))
        flat[f"{name}.count"] = count
        if count:
            flat[f"{name}.mean"] = float(h["sum"]) / count
    for name, q in doc.get("quantiles", {}).items():
        count = float(q.get("count", 0))
        flat[f"{name}.count"] = count
        if count:
            flat[f"{name}.mean"] = float(q["sum"]) / count
            for label, value in quantiles_of_state(q).items():
                flat[f"{name}.{label}"] = value
            if q.get("max") is not None:
                flat[f"{name}.max"] = float(q["max"])
    for name, ts in doc.get("timeseries", {}).items():
        values = [float(v) for _, v in ts.get("points", [])]
        flat[f"{name}.samples"] = float(len(values))
        if values:
            flat[f"{name}.last"] = values[-1]
            flat[f"{name}.mean"] = sum(values) / len(values)
            flat[f"{name}.min"] = min(values)
    return flat


# ----------------------------------------------------------------------
# repro obs report
# ----------------------------------------------------------------------


def _series_line(name: str, points: List[list]) -> str:
    values = [float(v) for _, v in points]
    if not values:
        return f"  {name}: (no samples)"
    lo, hi = min(values), max(values)
    mean = sum(values) / len(values)
    return (
        f"  {name}: {len(values)} samples over "
        f"t=[{points[0][0]:g}, {points[-1][0]:g}]  "
        f"min={lo:g} mean={mean:g} max={hi:g} last={values[-1]:g}"
    )


def _quantile_line(name: str, state: dict) -> str:
    count = state.get("count", 0)
    if not count:
        return f"  {name}: (no observations)"
    qs = quantiles_of_state(state)
    mean = state.get("sum", 0.0) / count
    readout = " ".join(f"{label}={value:g}" for label, value in qs.items())
    return (
        f"  {name}: count={count} mean={mean:g} {readout} "
        f"max={state.get('max', float('nan')):g}"
    )


def render_report(doc: dict, title: str = "metrics snapshot") -> str:
    """Human-readable report of one snapshot / bench history."""
    lines = [f"== {title} =="]
    bench = latest_bench_record(doc)
    if bench is not None and "counters" not in doc:
        runs = doc.get("runs", [doc])
        lines.append(f"bench history: {len(runs)} run(s)")
        for section in ("wall_time_ms", "speedup_vs_scalar"):
            body = bench.get(section, {})
            if body:
                lines.append(f"{section}:")
                for name in sorted(body):
                    lines.append(f"  {name}: {body[name]:g}")
        meta = {
            k: bench[k]
            for k in ("timestamp", "git_sha", "host")
            if k in bench
        }
        if meta:
            lines.append(f"latest run: {json.dumps(meta, sort_keys=True)}")
        return "\n".join(lines)

    version = doc.get("schema_version")
    lines.append(f"schema_version: {version}")
    counters = doc.get("counters", {})
    if counters:
        lines.append(f"counters ({len(counters)}):")
        for name in sorted(counters):
            lines.append(f"  {name}: {counters[name]}")
    gauges = doc.get("gauges", {})
    if gauges:
        lines.append(f"gauges ({len(gauges)}):")
        for name in sorted(gauges):
            lines.append(f"  {name}: {gauges[name]:g}")
    histograms = doc.get("histograms", {})
    if histograms:
        lines.append(f"histograms ({len(histograms)}):")
        for name in sorted(histograms):
            h = histograms[name]
            count = h.get("count", 0)
            mean = (h.get("sum", 0.0) / count) if count else float("nan")
            lines.append(f"  {name}: count={count} mean={mean:g}")
    quantiles = doc.get("quantiles", {})
    if quantiles:
        lines.append(f"quantiles ({len(quantiles)}):")
        for name in sorted(quantiles):
            lines.append(_quantile_line(name, quantiles[name]))
    series = doc.get("timeseries", {})
    if series:
        lines.append(f"time series ({len(series)}):")
        for name in sorted(series):
            lines.append(_series_line(name, series[name].get("points", [])))
    if len(lines) == 2:
        lines.append("(empty snapshot)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# repro obs diff
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change between two artifacts."""

    name: str
    before: Optional[float]
    after: Optional[float]
    relative: float  # (after - before) / |before|; inf/nan on edge cases

    @property
    def is_regression_candidate(self) -> bool:
        """Whether the direction of change is the bad one for this metric."""
        if self.before is None or self.after is None:
            return False
        if math.isnan(self.relative) or self.relative == 0.0:
            return False
        if improves_when_higher(self.name):
            return self.relative < 0
        return self.relative > 0

    def exceeds(self, threshold: float) -> bool:
        """Whether the change is a regression beyond ``threshold``."""
        return self.is_regression_candidate and abs(self.relative) > threshold


def diff_metrics(before: dict, after: dict) -> List[MetricDelta]:
    """Per-metric relative deltas between two artifacts, sorted by name.

    Metrics present on only one side get a ``None`` on the other and a NaN
    relative delta (reported, never gated — renames should not silently
    pass, but they are not numeric regressions either).
    """
    a, b = flatten_metrics(before), flatten_metrics(after)
    deltas = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va is None or vb is None:
            rel = float("nan")
        elif va == vb:
            rel = 0.0
        elif va == 0.0:
            rel = math.copysign(float("inf"), vb)
        else:
            rel = (vb - va) / abs(va)
        deltas.append(MetricDelta(name=name, before=va, after=vb, relative=rel))
    return deltas


def format_diff(
    deltas: List[MetricDelta],
    threshold: float = 0.05,
    show_unchanged: bool = False,
) -> str:
    """Render a diff as text; regressions beyond ``threshold`` are marked."""
    lines = []
    for d in deltas:
        if d.relative == 0.0 and not show_unchanged:
            continue
        before = "-" if d.before is None else f"{d.before:g}"
        after = "-" if d.after is None else f"{d.after:g}"
        rel = "n/a" if math.isnan(d.relative) else f"{100 * d.relative:+.1f}%"
        mark = "  REGRESSION" if d.exceeds(threshold) else ""
        lines.append(f"  {d.name}: {before} -> {after} ({rel}){mark}")
    if not lines:
        return "  (no differences)"
    return "\n".join(lines)


# ----------------------------------------------------------------------
# repro obs export-trace
# ----------------------------------------------------------------------


def _tracer_events_to_chrome(events: List[dict]) -> List[dict]:
    """Tracer events -> Chrome instant events.

    Tracer events carry a total order (``seq``) but no wall-clock stamps,
    so ``ts`` is the sequence number in microseconds — the viewer shows
    the run's causal order at one event per tick.  Events with a virtual
    time ``t`` keep it in ``args``.

    Events that carry a ``query_id`` correlation field (the queueing
    simulator's per-query causal path: enqueue -> service -> forward ->
    hit) get **one lane per query**: ``tid`` is the query id, ``ts`` is
    the event's virtual time ``t`` in microseconds, and a thread-name
    metadata record labels the lane, so a query's hop tree reads as one
    horizontal track in chrome://tracing / Perfetto.

    Events that instead carry a ``src`` tracer identity (a merged
    multi-tracer trace — live per-peer sinks, parallel shards) get
    **one lane per source** on a second process (pid 2): lanes order
    naturally (peer "10" after "2"), ``ts`` is the event's ``t``
    normalized to the earliest sourced event, and each lane's metadata
    label names the timebase — ``[wall]`` for live wall-clock traces
    (``tb: "wall"``), ``[virtual]`` for simulator time — so mixed
    exports are visibly mixed rather than silently conflated.  Live
    query hop edges (``node.query.origin``/``fwd`` -> ``rx``/``dup``
    with a shared ``trace`` correlation ID) additionally become Chrome
    flow arrows between the sender's and receiver's lanes, drawing the
    flood's causal tree across peers.
    """
    out = []
    query_lanes: List[int] = []

    def _has_query_lane(event: dict) -> bool:
        qid = event.get("query_id")
        return isinstance(qid, int) and not isinstance(qid, bool)

    # Per-src lanes: assign tids in natural src order, normalize t.
    srcs = sorted(
        {str(e["src"]) for e in events
         if "src" in e and not _has_query_lane(e)},
        key=lambda s: (0, int(s), "") if s.isdigit() else (1, 0, s),
    )
    src_tid = {s: i + 1 for i, s in enumerate(srcs)}
    src_timebase: Dict[str, str] = {}
    src_t = [
        float(e["t"]) for e in events
        if "t" in e and "src" in e and not _has_query_lane(e)
    ]
    t0 = min(src_t) if src_t else 0.0

    #: (trace, src) -> (ts, tid) of the sender's origin/fwd record.
    flow_sends: Dict[Tuple[str, str], Tuple[float, int]] = {}
    flow_edges: List[Tuple[Tuple[float, int], Tuple[float, int]]] = []

    for event in events:
        args = {k: v for k, v in event.items() if k not in ("seq", "kind")}
        record = {
            "name": event.get("kind", "event"),
            "cat": str(event.get("kind", "event")).split(".")[0],
            "ph": "i",
            "s": "t",
            "ts": int(event.get("seq", 0)),
            "pid": 1,
            "tid": 1,
            "args": args,
        }
        if _has_query_lane(event):
            qid = event["query_id"]
            record["tid"] = qid + 2  # lane 1 stays the un-correlated stream
            if "t" in event:
                record["ts"] = float(event["t"]) * 1e6
            if qid not in query_lanes:
                query_lanes.append(qid)
        elif "src" in event:
            src = str(event["src"])
            record["pid"] = 2
            record["tid"] = src_tid[src]
            if "t" in event:
                record["ts"] = (float(event["t"]) - t0) * 1e6
            src_timebase.setdefault(
                src, "wall" if event.get("tb") == "wall" else "virtual"
            )
            kind = event.get("kind")
            trace_id = event.get("trace")
            if trace_id is not None:
                pos = (record["ts"], record["tid"])
                if kind in ("node.query.origin", "node.query.fwd"):
                    flow_sends.setdefault((str(trace_id), src), pos)
                elif kind in ("node.query.rx", "node.query.dup"):
                    sender = flow_sends.get(
                        (str(trace_id), str(event.get("peer", "")))
                    )
                    if sender is not None:
                        flow_edges.append((sender, pos))
        out.append(record)
    for qid in query_lanes:
        out.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": qid + 2,
            "args": {"name": f"query {qid}"},
        })
    for src in srcs:
        tb = src_timebase.get(src, "virtual")
        out.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 2,
            "tid": src_tid[src],
            "args": {"name": f"src {src} [{tb}]"},
        })
    if srcs:
        out.append({
            "name": "process_name",
            "ph": "M",
            "pid": 2,
            "tid": 0,
            "args": {"name": "trace sources"},
        })
    for flow_id, (sender, receiver) in enumerate(flow_edges):
        for ph, (ts, tid) in (("s", sender), ("f", receiver)):
            rec = {
                "name": "query.hop",
                "cat": "flow",
                "ph": ph,
                "id": flow_id,
                "ts": ts,
                "pid": 2,
                "tid": tid,
            }
            if ph == "f":
                rec["bp"] = "e"
            out.append(rec)
    return out


def _profile_timeline_to_chrome(timeline: List[dict]) -> List[dict]:
    """Profile span records -> Chrome complete ("X") duration events."""
    if not timeline:
        return []
    t0 = min(span["start_s"] for span in timeline)
    out = []
    for span in timeline:
        path = span["path"]
        out.append({
            "name": path.rsplit("/", 1)[-1],
            "cat": path.split("/", 1)[0],
            "ph": "X",
            "ts": (span["start_s"] - t0) * 1e6,
            "dur": max((span["end_s"] - span["start_s"]) * 1e6, 0.0),
            "pid": 1,
            "tid": 1,
            "args": {"path": path},
        })
    return out


def write_chrome_trace(events: List[dict], out_path: str,
                       source: str = "merged-trace") -> int:
    """Write an in-memory tracer event list as Chrome trace JSON.

    The programmatic counterpart of :func:`export_chrome_trace` for
    callers that already merged events (``repro node trace --export``);
    returns the number of Chrome records written.
    """
    chrome = _tracer_events_to_chrome(events)
    out = {
        "traceEvents": chrome,
        "displayTimeUnit": "ms",
        "otherData": {"source": source, "converter": "repro obs (trace)"},
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh)
        fh.write("\n")
    return len(chrome)


def export_chrome_trace(in_path: str, out_path: str) -> Tuple[int, str]:
    """Convert a tracer JSONL file or a profile dump to Chrome trace JSON.

    The input kind is autodetected: JSONL lines with ``seq``/``kind``
    are tracer events; a JSON object with a ``timeline`` list is a
    ``--profile-json`` dump (its spans become duration events).  Partial
    JSONL files (e.g. from a crashed run) are converted up to the first
    unparseable line.  Returns ``(n_events, kind)``.
    """
    with open(in_path) as fh:
        text = fh.read()

    chrome: List[dict] = []
    kind = "trace"
    stripped = text.lstrip()
    profile_doc = None
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if isinstance(doc, dict) and "timeline" in doc:
            profile_doc = doc
    if profile_doc is not None:
        kind = "profile"
        chrome = _profile_timeline_to_chrome(profile_doc["timeline"])
    else:
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                break  # truncated tail of a crashed run; keep what parsed
            if isinstance(event, dict):
                events.append(event)
        if not events:
            raise ValueError(
                f"{in_path}: neither a tracer JSONL file nor a profile dump"
            )
        chrome = _tracer_events_to_chrome(events)

    out = {
        "traceEvents": chrome,
        "displayTimeUnit": "ms",
        "otherData": {"source": in_path, "converter": f"repro obs ({kind})"},
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh)
        fh.write("\n")
    return len(chrome), kind


# ----------------------------------------------------------------------
# CLI entry points (wired under ``repro obs`` by repro.cli)
# ----------------------------------------------------------------------


def cmd_report(args) -> int:
    """``repro obs report SNAPSHOT``"""
    try:
        doc = load_document(args.snapshot)
    except UnsupportedSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(doc, title=args.snapshot))
    return 0


def cmd_diff(args) -> int:
    """``repro obs diff A B [--fail-on-regression --threshold X]``"""
    try:
        before = load_document(args.before)
        after = load_document(args.after)
    except UnsupportedSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deltas = diff_metrics(before, after)
    excluded = getattr(args, "exclude", None) or []
    if excluded:
        import fnmatch

        deltas = [
            d for d in deltas
            if not any(fnmatch.fnmatch(d.name, pat) for pat in excluded)
        ]
    regressions = [d for d in deltas if d.exceeds(args.threshold)]
    print(f"diff {args.before} -> {args.after} "
          f"(threshold {100 * args.threshold:g}%):")
    print(format_diff(deltas, threshold=args.threshold,
                      show_unchanged=args.show_unchanged))
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{100 * args.threshold:g}%")
        if args.fail_on_regression:
            return 1
    else:
        print("no regressions")
    return 0


def hot_metrics(
    doc: dict, prefix: str, k: int
) -> List[Tuple[str, float]]:
    """Top-``k`` ``(suffix, value)`` pairs of metrics under ``prefix``.

    Gauges match directly; time series contribute their last sample.
    This is how ``repro obs top`` ranks per-node utilization gauges
    (``queue.node_util.<id>``) out of a capacity-run snapshot, but any
    per-entity gauge family works.  Sorted by value descending, name
    ascending on ties (deterministic output).
    """
    rows: Dict[str, float] = {}
    for name, value in doc.get("gauges", {}).items():
        if name.startswith(prefix):
            rows[name[len(prefix):]] = float(value)
    for name, ts in doc.get("timeseries", {}).items():
        if name.startswith(prefix):
            points = ts.get("points", [])
            if points:
                rows.setdefault(name[len(prefix):], float(points[-1][1]))
    ranked = sorted(rows.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: max(0, k)]


def cmd_top(args) -> int:
    """``repro obs top SNAPSHOT [-k N] [--prefix P]``"""
    try:
        doc = load_document(args.snapshot)
    except UnsupportedSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = hot_metrics(doc, args.prefix, args.k)
    if not rows:
        print(f"error: no metrics under prefix {args.prefix!r} in "
              f"{args.snapshot}", file=sys.stderr)
        return 1
    print(f"== top {len(rows)} by {args.prefix}* ==")
    width = max(len(name) for name, _ in rows)
    for rank, (name, value) in enumerate(rows, start=1):
        print(f"  {rank:3d}. {name:<{width}}  {value:g}")
    return 0


def cmd_export_trace(args) -> int:
    """``repro obs export-trace INPUT [--out OUT]``"""
    out_path = args.out or (args.input.rsplit(".", 1)[0] + ".chrome.json")
    n_events, kind = export_chrome_trace(args.input, out_path)
    print(f"wrote {out_path}: {n_events} {kind} event(s) "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def add_obs_subparsers(sub) -> None:
    """Attach the ``obs`` subcommand family to a subparsers object."""
    obs_parser = sub.add_parser(
        "obs", help="analyze observability artifacts (report/diff/export)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser(
        "report", help="human-readable report of a metrics snapshot"
    )
    p.add_argument("snapshot", help="metrics snapshot or bench history JSON")
    p.set_defaults(func=cmd_report)

    p = obs_sub.add_parser(
        "diff", help="per-metric relative deltas between two artifacts"
    )
    p.add_argument("before", help="baseline snapshot / bench history")
    p.add_argument("after", help="candidate snapshot / bench history")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative-change regression threshold "
                        "(default: %(default)s)")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit nonzero if any regression exceeds the "
                        "threshold (CI gate)")
    p.add_argument("--show-unchanged", action="store_true",
                   help="also list metrics with zero delta")
    p.add_argument("--exclude", action="append", metavar="GLOB",
                   default=None,
                   help="drop metrics matching GLOB from the diff "
                        "(repeatable; e.g. 'node.dispatch_s*' to "
                        "ignore wall-clock histograms)")
    p.set_defaults(func=cmd_diff)

    from repro.obs.slo import cmd_slo

    p = obs_sub.add_parser(
        "slo", help="evaluate a snapshot against service-level objectives"
    )
    p.add_argument("snapshot", help="metrics snapshot JSON")
    p.add_argument("--spec", default=None,
                   help="builtin SLO name or spec JSON file "
                        "(see schemas/slo_spec.schema.json)")
    p.add_argument("--require", action="append", metavar="METRIC<=X",
                   help="inline objective ('metric<=value' or "
                        "'metric>=value'); repeatable, combines with "
                        "--spec")
    p.set_defaults(func=cmd_slo)

    p = obs_sub.add_parser(
        "top", help="hot-entity report: top-k per-node metrics by value"
    )
    p.add_argument("snapshot", help="metrics snapshot JSON")
    p.add_argument("-k", type=int, default=10,
                   help="entries to show (default: %(default)s)")
    p.add_argument("--prefix", default="queue.node_util.",
                   help="metric-name prefix to rank under "
                        "(default: %(default)s)")
    p.set_defaults(func=cmd_top)

    p = obs_sub.add_parser(
        "export-trace",
        help="convert a JSONL trace or profile dump to Chrome trace format",
    )
    p.add_argument("input", help="tracer JSONL file or --profile-json dump")
    p.add_argument("--out", default=None,
                   help="output path (default: INPUT with .chrome.json)")
    p.set_defaults(func=cmd_export_trace)
