"""Catalogue check: docs/OBSERVABILITY.md against what the core emits.

A first slice of "every documented metric is emitted, every emitted
metric is documented": the `makalu.*`, `maintenance.*` and
`batch_refine.*` counters.
"""

import re
from pathlib import Path

from repro import obs
from repro.core import (
    MakaluBuilder,
    handle_capacity_change,
    repair_after_failure,
)
from repro.netmodel import EuclideanModel

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
PREFIXES = ("makalu.", "maintenance.", "batch_refine.")


def _documented_counters() -> set:
    """Counter names of the catalogue rows under the three prefixes.

    A row reads ``| `makalu.joins` / `prunes` / `rating_calls` | counter |``:
    the first name carries the prefix, the rest share it.
    """
    names = set()
    for line in DOC.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) < 4 or cells[2] != "counter":
            continue
        first, *rest = re.findall(r"`([^`]+)`", cells[1])
        if not first.startswith(PREFIXES):
            continue
        prefix = first.rsplit(".", 1)[0]
        names.add(first)
        names.update(f"{prefix}.{short}" for short in rest)
    return names


def _emitted_counters() -> set:
    with obs.observed() as session:
        b = MakaluBuilder(EuclideanModel(150, seed=3), seed=5)
        b.build()
        for victim in (3, 11, 19):
            repair_after_failure(b, [victim])
        # A capacity shrink: the only caller of the Manage() prune loop
        # outside joins, and so the only source of capacity_prunes.
        handle_capacity_change(b, 40, 2)
        b.refine(rounds=1, mode="batch")
    counters = session.metrics.snapshot()["counters"]
    return {name for name in counters if name.startswith(PREFIXES)}


def test_core_counters_match_the_documented_catalogue():
    documented, emitted = _documented_counters(), _emitted_counters()
    assert emitted - documented == set(), "emitted but not documented"
    assert documented - emitted == set(), "documented but never emitted"
