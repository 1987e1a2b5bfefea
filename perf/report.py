#!/usr/bin/env python3
"""Compare two result files of ``run.py --all``.

    python3 perf/report.py A.json B.json
    python3 perf/report.py A.json

With one file, list each end-to-end metric's quartile spread as a share
of its median next to its bound (a benchmark is steady when every spread
is below a third of the bound).  With two, for every workload and
end-to-end metric: both medians and quartiles, the bound
``BENCHMARK.json`` fixes, and one verdict —

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: either side's quartile spread is wider than the bound,
  so a difference of that size could not be seen (unless every run of B
  reads better than every run of A, which no spread can explain away);
* ``agree`` otherwise.

Exits non-zero when any pairing regressed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

import harness
from harness import quartile_spread


def samples(doc: dict, trace: int) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [values]}}`` of the correct runs of one mode."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in doc["runs"]:
        if run["trace"] != trace or "metrics" not in run:
            continue
        per_metric = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return out


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    qa1, med_a, qa3 = quartile_spread(a)
    qb1, med_b, qb3 = quartile_spread(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if worse_by > bound:
        return "regressed"
    spread = max((qa3 - qa1) / abs(med_a), (qb3 - qb1) / abs(med_b))
    if spread > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "agree" if all_better else "unresolved"
    return "agree"


def _quartiles(values: List[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartile_spread(values))


def spreads(doc: dict) -> int:
    """One set: is every metric steady enough for its bound to mean anything?"""
    spec = harness.load_benchmark()
    wide = 0
    print(f"{'workload':<8} {'metric':<22} {'q1/med/q3':>32} {'spread':>8} "
          f"{'bound':>6}")
    for workload, metrics in sorted(samples(doc, 0).items()):
        for m in spec["end_to_end"]:
            values = metrics.get(m["name"])
            if not values:
                continue
            q1, med, q3 = quartile_spread(values)
            spread = (q3 - q1) / abs(med)
            mark = "" if spread <= m["bound"] / 3 else (
                "  > bound/3" if spread <= m["bound"] else "  > BOUND")
            wide += spread > m["bound"]
            print(f"{workload:<8} {m['name']:<22} "
                  f"{q1:>10.4g}/{med:>10.4g}/{q3:>10.4g} {spread:>8.2%} "
                  f"{m['bound']:>6.2f}{mark}  (n={len(values)})")
    print(f"{wide} spread(s) wider than the bound")
    return 1 if wide else 0


def compare(doc_a: dict, doc_b: dict) -> int:
    spec = harness.load_benchmark()
    a, b = samples(doc_a, 0), samples(doc_b, 0)
    regressed = 0
    print(f"{'workload':<8} {'metric':<22} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va = a[workload].get(m["name"])
            vb = b[workload].get(m["name"])
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            regressed += v == "regressed"
            print(f"{workload:<8} {m['name']:<22} "
                  f"{_quartiles(va):>32} {_quartiles(vb):>32} "
                  f"{m['bound']:>6.2f}  {v}  (n={len(va)},{len(vb)})")
    failed = [r for doc in (doc_a, doc_b) for r in doc["runs"]
              if not r.get("correct")]
    for r in failed:
        print(f"run failed its checks: {r['workload']} seed {r['seed']} "
              f"trace {r['trace']}")
    print(f"{regressed} regressed")
    return 1 if regressed or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    args = parser.parse_args(argv)
    if args.b is None:
        return spreads(harness.load_json(args.a))
    return compare(harness.load_json(args.a), harness.load_json(args.b))


if __name__ == "__main__":
    sys.exit(main())
