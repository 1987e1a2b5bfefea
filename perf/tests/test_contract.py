"""``BENCHMARK.json`` and what ``run.py`` emits must name the same metrics."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import harness

RUN = os.path.join(harness.PERF_DIR, "run.py")
WORKLOADS = ("build", "search", "sim", "live")


def _quick(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    spec = harness.load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(harness.METRIC_NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert spec["paths"] == ["perf"] and spec["command"][-1] == "perf/run.py"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert spec["run_seconds"] == harness.load_sizes("build")["run_seconds"]


def test_every_workload_runs_quick_with_checks_on_and_emits_declared_names():
    spec = harness.load_benchmark()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    t0 = time.perf_counter()
    for workload in WORKLOADS:
        result = _quick(workload, trace=0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert time.perf_counter() - t0 < 20.0


def test_traced_run_emits_every_per_layer_metric_and_a_trace_file():
    spec = harness.load_benchmark()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result = _quick("sim", trace=1)
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(harness.METRIC_NAME.match(n) for n in result["metrics"])
    trace = harness.load_json(os.path.join(harness.OUT_DIR, "sim.trace.json"))
    table = trace["layers"]
    assert {"core", "search", "sim", "node", "content"} <= set(table)
    root = next(s for s in trace["spans"] if s[3] == -1)
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        root[2] - root[1], rel=1e-6)


def test_simulated_statistics_repeat_exactly_for_a_fixed_seed():
    exact = ("search.msgs_per_query", "search.duplicate_fraction",
             "sim.queue_p99_virtual_s", "sim.queue_util_max",
             "node.frames_per_query", "node.duplicate_fraction",
             "faults.messages_lost_share")
    a, b = _quick("search", trace=1), _quick("search", trace=1)
    for name in exact:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def _session_members(sid: int) -> list:
    """Command lines of the processes, zombies too, in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            found.append(cmd)
    return found


@pytest.mark.parametrize("trace", (0, 1))
def test_no_process_outlives_a_run(trace, tmp_path):
    """Pool workers and multiprocessing's resource tracker end with the run.

    Output goes to files and the session is read the moment ``wait``
    returns: a pipe would only reach its end once every process that
    inherited it had gone, and so hide exactly what this looks for.
    """
    with open(tmp_path / "out", "w+") as out, \
            open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, RUN, "--workload", "search", "--seed", "5",
             "--quick", "--trace", str(trace)],
            stdout=out, stderr=err, start_new_session=True)
        code = proc.wait(timeout=120)
        left = _session_members(proc.pid)
        out.seek(0), err.seek(0)
        assert code == 0, out.read()[-2000:] + err.read()[-2000:]
    assert left == []


def test_a_terminated_run_takes_its_workers_with_it():
    """SIGTERM while pool workers are alive: nothing of the run survives."""
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "search", "--seed", "5",
         "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    deadline = time.monotonic() + 60.0
    while len(_session_members(proc.pid)) < 4 and time.monotonic() < deadline:
        time.sleep(0.05)  # supervisor, workload, and at least two more
    started = len(_session_members(proc.pid))
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
    assert started >= 4
    assert code == 128 + signal.SIGTERM
    assert _session_members(proc.pid) == []


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    """Only BENCHMARK.json and perf/: the program under test is missing."""
    import shutil

    shutil.copy(os.path.join(harness.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
