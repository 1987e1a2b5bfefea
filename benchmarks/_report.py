"""Reporting helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and prints
a paper-vs-measured comparison.  pytest captures stdout at the file-
descriptor level, so tables are buffered here and flushed by the
``pytest_terminal_summary`` hook in ``conftest.py`` — they appear at the
end of every ``pytest benchmarks/ --benchmark-only`` run and are also
persisted to ``benchmarks/results/latest.txt``.

When an observability session is active (``REPRO_BENCH_OBS=1``, see
``conftest.py``), every table is followed by the metric deltas the
experiment produced, so persisted BENCH results carry instrumentation
alongside the headline numbers.

The standalone ``bench_*.py`` scripts that keep a ``BENCH_*.json`` run
history share :func:`append_run` and :func:`git_sha` from here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Iterable, List, Optional, Sequence

from repro import obs

#: Rendered report blocks, flushed by the terminal-summary hook.
REPORTS: List[str] = []

#: Snapshot taken at the previous table flush; tables report deltas so
#: each experiment's block shows only its own metrics.
_LAST_SNAPSHOT: Optional[dict] = None


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str = "",
) -> None:
    """Render one experiment's comparison table and queue it for output."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines = []
    bar = "=" * (sum(widths) + 3 * len(widths) + 1)
    lines.append(bar)
    lines.append(f" {title}")
    lines.append(bar)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"  note: {note}")
    metrics_block = _metrics_delta_block()
    if metrics_block:
        lines.append(metrics_block)
    block = "\n".join(lines)
    REPORTS.append(block)
    # Best effort immediate echo (visible under `pytest -s`).
    print("\n" + block + "\n")


def _metrics_delta_block() -> str:
    """Render metrics accrued since the last table, if obs is active."""
    global _LAST_SNAPSHOT
    session = obs.active()
    if session is None:
        return ""
    snap = session.metrics.snapshot()
    delta = (
        obs.diff_snapshots(_LAST_SNAPSHOT, snap) if _LAST_SNAPSHOT else snap
    )
    _LAST_SNAPSHOT = snap
    counters = {k: v for k, v in delta.get("counters", {}).items() if v}
    if not counters:
        return ""
    body = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    return f"  metrics: {body}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def git_sha() -> str:
    """The current commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def append_run(path: str, record: dict) -> dict:
    """Append ``record`` to the run history at ``path`` (created if absent).

    Histories are ``{"schema_version": 2, "runs": [...]}``, newest last, so
    successive runs accumulate instead of overwriting each other.
    Unreadable files are preserved under ``<path>.corrupt`` rather than
    silently clobbered.
    """
    history = {"schema_version": 2, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                old = json.load(fh)
        except ValueError:
            os.replace(path, path + ".corrupt")
            print(f"warning: unreadable {path} moved to {path}.corrupt",
                  file=sys.stderr)
            old = None
        if isinstance(old, dict) and isinstance(old.get("runs"), list):
            history["runs"] = old["runs"]
    history["runs"].append(record)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
    return history
