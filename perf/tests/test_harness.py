"""The arithmetic the benchmark's numbers rest on."""

import pytest

import harness
import report
from harness import (Phase, Run, SpanRecorder, derive_seed, layer_table,
                     self_times)


def _spans(*rows):
    """``(name, start, end, parent)`` rows as recorder spans."""
    return [[name, start, end, parent, ""] for name, start, end, parent in rows]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("perf.run", 0.0, 10.0, -1),
        ("core.build", 1.0, 7.0, 0),      # nested: two children
        ("core.join", 1.0, 3.0, 1),
        ("topology.freeze", 3.0, 4.5, 1),
        ("search.flood", 7.0, 9.0, 0),    # sibling of core.build
    )
    assert self_times(spans) == pytest.approx([2.0, 2.5, 2.0, 1.5, 2.0])
    table = layer_table(spans)
    assert table["core"]["self_s"] == pytest.approx(4.5)
    assert table["core"]["total_s"] == pytest.approx(8.0)
    assert table["perf"]["self_s"] == pytest.approx(2.0)
    # Self times of all layers add up to the root span, nothing twice.
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(10.0)


def test_recorder_links_parents_and_skips_when_disabled():
    rec = SpanRecorder(enabled=True)
    with rec.span("perf.run"):
        with rec.span("core.join"):
            pass
        rec.enabled = False
        with rec.span("core.join"):
            pass
        rec.enabled = True
        with rec.span("core.fill"):
            pass
    assert [(s[0], s[3]) for s in rec.spans] == [
        ("perf.run", -1), ("core.join", 0), ("core.fill", 0)]
    assert all(s[2] >= s[1] for s in rec.spans)
    assert len(rec.durations("core.join")) == 1


def test_seed_derivation_is_deterministic_and_distinct_per_round():
    assert derive_seed(7, "build", 0) == derive_seed(7, "build", 0)
    seeds = {derive_seed(7, phase, r)
             for phase in ("build", "flood_scalar", "queue")
             for r in range(50)}
    assert len(seeds) == 150
    assert derive_seed(7, "build", 0) != derive_seed(8, "build", 0)
    assert all(0 <= s < 2**31 for s in seeds)


def _phase_rounds(sizes, trace, name="queue", **kwargs):
    """Run a phase through every cycle; ``(cycle, round, seed)`` per call."""
    run = Run("sim", 1, sizes, trace)
    calls = []
    cycle = [None]
    phase = Phase(run, name, lambda r, seed: calls.append((cycle[0], r, seed)),
                  **kwargs)
    for c in range(run.n_cycles):
        cycle[0] = c
        phase.cycle(c)
    return run, phase, calls


def test_rounds_scale_with_seconds():
    sizes = {"run_seconds": 20, "rounds": {"queue": 4, "build": 1}}
    assert Run("sim", 1, sizes, trace=False).n_rounds("queue") == 4
    assert Run("sim", 1, sizes, False, seconds=10).n_rounds("queue") == 2
    assert Run("sim", 1, sizes, False, seconds=1).n_rounds("queue") == 2
    assert Run("sim", 1, sizes, False, seconds=1).n_rounds("build") == 1
    assert Run("sim", 1, sizes, False, seconds=10).n_cycles == 2


def test_phase_rounds_are_spread_over_the_cycles_on_distinct_seeds():
    sizes = {"run_seconds": 20, "rounds": {"queue": 3, "flood": 6, "build": 1}}
    run, phase, calls = _phase_rounds(sizes, trace=False)
    assert run.n_cycles == 6
    assert [(c, r) for c, r, _ in calls] == [(0, 0), (2, 1), (4, 2)]
    assert len({seed for _, _, seed in calls}) == 3
    assert len(phase.walls) == len(phase.results) == 3
    assert phase.twin_wall is None
    _, _, calls = _phase_rounds(sizes, trace=False, name="build")
    assert [(c, r) for c, r, _ in calls] == [(0, 0)]
    _, _, calls = _phase_rounds(sizes, trace=False, name="flood")
    assert [(c, r) for c, r, _ in calls] == [(c, c) for c in range(6)]


def test_digest_replaces_a_rounds_result_after_the_clock_stopped():
    sizes = {"run_seconds": 20, "rounds": {"queue": 3}}
    _, phase, calls = _phase_rounds(sizes, trace=False, digest=lambda _: "kept")
    assert len(calls) == 3 and phase.results == ["kept"] * 3


def test_traced_phase_replays_its_last_round_untraced_as_the_twin():
    sizes = {"run_seconds": 20, "rounds": {"queue": 4, "build": 1}}
    run, phase, calls = _phase_rounds(sizes, trace=True)
    assert [r for _, r, _ in calls] == [0, 1, 2, 2]
    assert calls[-1][2] == calls[-2][2]         # same seed as the round before
    assert len(phase.walls) == 3 and phase.twin_wall is not None
    names = [s[0] for s in run.spans.spans]
    assert names == ["perf.round"] * 3 + ["obs.twin_round"]
    assert [s[4] for s in run.spans.spans][-1] == "queue#twin"
    # A phase that mutates its input, or has one round, gets no twin.
    _, phase, calls = _phase_rounds(sizes, trace=True, twin=False)
    assert [r for _, r, _ in calls] == [0, 1, 2, 3]
    _, phase, calls = _phase_rounds(sizes, trace=True, name="build")
    assert [r for _, r, _ in calls] == [0] and phase.twin_wall is None


def test_rate_reads_the_median_round():
    # Equal rounds: work_per_round / median(round_s); one stall moves nothing.
    assert harness.rate([100, 100, 100], [1.0, 0.5, 40.0]) == 100.0
    # Per round, because the work varies by round.
    assert harness.rate([100, 300, 50], [1.0, 2.0, 1.0]) == 100.0
    # A round that timed out before doing any work has no rate.
    assert harness.rate([0, 100, 300], [0.0, 1.0, 2.0]) == 125.0


def test_sizes_full_for_the_named_plane_and_one_probe_for_the_rest():
    build, search = harness.load_sizes("build"), harness.load_sizes("search")
    assert build["build"]["n_nodes"] > search["build"]["n_nodes"]
    assert search["search"]["n_nodes"] > build["search"]["n_nodes"]
    for plane in ("sim", "live"):
        assert build[plane] == search[plane]
    assert build["search"] == harness.load_sizes("live")["search"]
    # Shared parameters reach every size; rounds are gathered in one place.
    assert build["search"]["ttl"] == search["search"]["ttl"]
    assert "rounds" not in build["search"]
    assert search["rounds"]["flood_scalar"] > build["rounds"]["flood_scalar"]


def test_supported_percentile_needs_ten_samples_beyond_it():
    assert harness.supported_percentile(20) == 50
    assert harness.supported_percentile(100) == 90
    assert harness.supported_percentile(200) == 95
    assert harness.supported_percentile(1000) == 99


def test_report_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert report.verdict(steady, [x * 0.97 for x in steady],
                          "higher", 0.10) == "agree"
    assert report.verdict(steady, [x * 0.85 for x in steady],
                          "higher", 0.10) == "regressed"
    assert report.verdict(steady, [x * 1.2 for x in steady],
                          "lower", 0.10) == "regressed"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert report.verdict(noisy, noisy, "higher", 0.10) == "unresolved"
    # Wide spread, but every run of B beats every run of A.
    assert report.verdict(noisy, [x * 2 for x in noisy],
                          "higher", 0.10) == "agree"
