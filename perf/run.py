#!/usr/bin/env python3
"""One benchmark for the four planes: build, search, sim, live.

    python3 perf/run.py --workload NAME --seed S [--seconds T] [--trace 0|1]
    python3 perf/run.py --all --repeat K [--seed S] [--out FILE]

Every workload runs all four planes — the one it is named for at full
size, the other three at the probe size all workloads share — so every
run reports every metric named in ``BENCHMARK.json``.  The run checks
its outputs, prints each metric by name with its unit, and ends with one
JSON line.  Closed loop, one client, one process (``flood_parallel``
alone adds two workers), BLAS pinned to one thread, loopback TCP only.
See ``perf/README.md``.
"""

from __future__ import annotations

import os

# Before NumPy is imported anywhere: one BLAS/OpenMP thread, so a rate is
# one core's work and does not depend on the host's core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
for _path in (SRC_DIR, PERF_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
from harness import Run, median  # noqa: E402

WORKLOADS = ("build", "search", "sim", "live")

#: What a cold interpreter imports before it can run any plane.
_IMPORTS = ("repro, repro.analysis.spectral, repro.content.experiment, "
            "repro.content.live, repro.node.boot, repro.parallel, "
            "repro.sim.queueing, repro.trace.workload")

#: Prefix of the printed line that holds every round's (work, seconds).
ROUND_LOG = "rounds: "

#: A run that has not ended by then is killed (the driver allows 180 s).
DEADLINE_S = 170.0

STATEMENT = ("closed loop, 1 client, 1 process (+2 workers in flood_parallel "
             "only), BLAS threads = 1, loopback TCP (127.0.0.1, port 0) only")


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def _keep_freed_memory() -> None:
    """Tell glibc to keep freed memory and reuse it for large arrays too.

    A run interleaves the rounds of a dozen phases.  By default malloc
    hands freed heap back to the kernel and maps every array above
    128 KiB afresh, so whether a round's temporaries come from warm pages
    or have to be faulted in depends on what the phase before it freed:
    the lossy flood read 0.06 s or 0.11 s per round, by run and by round.
    A process that does one kind of work reaches the warm state and stays
    there, so the benchmark measures that state.  No effect without glibc.
    """
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(m_trim_threshold, 2**31 - 1)
        libc.mallopt(m_top_pad, 64 * 2**20)
        libc.mallopt(m_mmap_threshold, 32 * 2**20)
    except (OSError, AttributeError):
        pass


def _adopt_orphans() -> None:
    """Make this process the parent of every process the run leaves behind.

    A descendant that outlives its parent is then re-parented here, where
    ``_stop_children`` can wait for it, instead of to init.  Linux only.
    """
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL("libc.so.6").prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and parens.
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError, IndexError):
            continue
        if int(ppid) == me and state != "Z":
            pids.append(int(entry))
    return pids


def _stop_children(grace_s: float) -> None:
    """Wait until no descendant is left; kill what outlasts ``grace_s``.

    The caller is a sub-reaper, so "no child" means "no descendant".
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def supervise(argv) -> int:
    """Run the workload in a child process; return only when it and every
    process it started have ended.

    The process that does the work cannot promise that itself: pool
    workers are joined by the program, but ``multiprocessing``'s resource
    tracker (started by the first shared-memory segment) ends only once
    its parent is gone, and whatever interpreter shutdown starts comes
    later still.  This process starts nothing but the one child, so once
    it has no child left — it is a sub-reaper: no descendant — nothing of
    the run is left.  A run that hangs is told to dump its stacks to
    stderr and is killed with everything it started after ``DEADLINE_S``,
    as it is when this process is told to terminate, so that no way out
    leaves workers blocked on a pipe behind.
    """
    _adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)
    child = None
    try:
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv, "--supervised"])
        try:
            code = child.wait(timeout=DEADLINE_S)
            return code if code >= 0 else 128 - code
        except subprocess.TimeoutExpired:
            print(f"perf: no result after {DEADLINE_S} s; stacks follow",
                  file=sys.stderr, flush=True)
            child.send_signal(signal.SIGUSR1)
            time.sleep(1.0)
            return 1
    finally:
        # After a clean exit only the resource tracker is left, on its way
        # out; on every other path nothing is worth waiting for.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        clean = child is not None and child.returncode is not None
        _stop_children(grace_s=10.0 if clean else 0.0)


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {SRC_DIR!r}); import {_IMPORTS}"],
        check=True, timeout=120)
    return time.perf_counter() - t0


def _set_up(run: Run):
    """Everything before the first timed round.

    Imports (timed in fresh interpreters), placements, corpus and peer
    boot are set up several times over and the median taken; the overlays
    the search and sim planes run on are built once, because the largest
    takes 8 s.  ``setup_s`` is the sum, so work a later change moves out
    of a timed round and into set-up shows here.
    """
    from planes import live, search, sim
    from repro.core.makalu import makalu_graph
    from repro.netmodel import EuclideanModel

    search_n = run.sizes["search"]["n_nodes"]
    queue_n = run.sizes["sim"]["n_nodes"]
    repeats = run.sizes["setup_repeats"]
    span = run.spans.span
    import_s, inputs_s = [], []
    with run.observing():
        with span("perf.setup"):
            for _ in range(repeats):
                with span("repro.import"):
                    import_s.append(_import_seconds())
                t0 = time.perf_counter()
                with span("search.place_objects"):
                    search_placement = search.make_placement(run, search_n)
                    queue_placement = sim.make_placement(run, queue_n)
                live_inputs = live.make_inputs(run)
                live.boot_and_stop(run, live_inputs)
                inputs_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for n in sorted({search_n, queue_n}):
                with span("netmodel.init"):
                    model = EuclideanModel(n, seed=run.seed_for("model", n))
                with span("core.makalu_graph"):
                    run.overlays[n] = makalu_graph(
                        model=model, seed=run.seed_for("overlay", n))
            overlays_s = time.perf_counter() - t0
    sizes = ", ".join(str(n) for n in sorted(run.overlays))
    run.e2e("setup_s", median(import_s) + median(inputs_s) + overlays_s,
            f"imports {median(import_s):.3f} s + placements, corpus, peer boot "
            f"{median(inputs_s):.3f} s (medians of {repeats}) + overlays of "
            f"{sizes} nodes {overlays_s:.3f} s (once)")
    return search_placement, queue_placement, live_inputs


def run_workload(workload: str, seed: int, seconds, trace: bool,
                 quick: bool = False) -> Run:
    """Run one workload end to end; the caller prints and exits."""
    sizes = harness.load_sizes(workload, quick=quick)
    run = Run(workload, seed, sizes, trace, seconds=seconds)
    _keep_freed_memory()
    # The program under test is this checkout's src/, never an installed copy.
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(f"perf: no program under test at {SRC_DIR}/repro")
    from planes.build import BuildPlane
    from planes.live import LivePlane
    from planes.search import SearchPlane
    from planes.sim import SimPlane

    with run.spans.span("perf.run"):
        search_placement, queue_placement, live_inputs = _set_up(run)
        live = LivePlane(run, live_inputs)
        cpu_bound = (BuildPlane(run), SearchPlane(run, search_placement),
                     SimPlane(run, queue_placement))
        try:
            # Cycle by cycle, one round of every phase that has one due:
            # each phase's rounds are spread over the whole run.  The live
            # plane cycles on its own afterwards: it mostly waits on
            # sockets, and this host's cores clock down when idle and take
            # a second or two of work to clock up again, which the
            # CPU-bound round after every live round would pay.
            for planes in (cpu_bound, (live,)):
                for cycle in range(run.n_cycles):
                    for plane in planes:
                        plane.cycle(cycle)
            for plane in cpu_bound + (live,):
                plane.finish()
        finally:
            live.close()

    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    run.e2e("peak_rss_mb", usage / 1024.0, "ru_maxrss of self + children")
    if trace:
        table = harness.layer_table(run.spans.spans)
        wall = sum(row["self_s"] for row in table.values())
        twins = [p for p in run.phases.values() if p.twin_wall is not None]
        run.layer("obs.trace_overhead_ratio",
                  sum(p.walls[-1] for p in twins)
                  / sum(p.twin_wall for p in twins),
                  f"{len(twins)} phases replayed their last traced round's "
                  f"input with tracing off")
        run.layer("obs.unattributed_share", table["perf"]["self_s"] / wall,
                  "harness self time / traced wall")
        _write_trace(run, table)
    return run


def _write_trace(run: Run, table) -> None:
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = os.path.join(harness.OUT_DIR, f"{run.workload}.trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": run.workload, "seed": run.seed,
            "span_fields": ["name", "start_s", "end_s", "parent", "round"],
            "spans": run.spans.spans, "layers": table,
            "rounds": run.round_log,
            "obs": {name: {"counters": p.obs.counters, "spans": p.obs.spans}
                    for name, p in run.phases.items()},
        }, fh)
    print(f"trace: {len(run.spans.spans)} spans -> "
          f"{os.path.relpath(path)}\nper-layer self time:")
    print(harness.format_layer_table(table))


def result_of(run: Run) -> dict:
    """The contract's result object, checked against ``BENCHMARK.json``."""
    spec = harness.load_benchmark()
    family = "per_layer" if run.trace else "end_to_end"
    values = run.per_layer if run.trace else run.end_to_end
    declared = {m["name"]: m["unit"] for m in spec[family]}
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise SystemExit(f"perf: {family} metrics out of step with "
                         f"BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def print_report(run: Run, result: dict) -> None:
    print(f"perf: workload={run.workload} seed={run.seed} "
          f"trace={int(run.trace)}")
    print(f"perf: {STATEMENT}")
    for name, m in result["metrics"].items():
        note = run.notes.get(name, "")
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<6} {note}")
    print(f"{ROUND_LOG}{json.dumps(run.round_log)}")
    share = run.failed / max(run.attempted, 1)
    print(f"operations: {run.attempted} attempted, {run.failed} failed "
          f"(failed_share {share:.6f})")
    for message in run.check_failures:
        print(f"CHECK FAILED: {message}")
    print(f"checks: {'all passed' if result['correct'] else 'FAILED'}")


# ----------------------------------------------------------------------
# Sets of runs
# ----------------------------------------------------------------------


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=PERF_DIR, capture_output=True,
            text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


def run_sets(args) -> int:
    """``--all --repeat K``: K sets of every workload on one seed, one file.

    The seed is the same in every set, so the spread between sets is the
    host's noise and nothing else.
    """
    modes = (0, 1) if args.trace is None else (args.trace,)
    doc = {"host": host_fingerprint(), "seed": args.seed,
           "repeat": args.repeat, "seconds": args.seconds,
           "quick": args.quick, "statement": STATEMENT, "runs": []}
    doc["sizes"] = {w: harness.load_sizes(w, args.quick) for w in WORKLOADS}
    bad = 0
    for k in range(args.repeat):
        for workload in WORKLOADS:
            for trace in modes:
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(args.seed),
                       "--trace", str(trace)]
                if args.seconds:
                    cmd += ["--seconds", str(args.seconds)]
                if args.quick:
                    cmd.append("--quick")
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=900)
                wall = time.perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = {"correct": False, "error": proc.stderr[-2000:]}
                bad += proc.returncode != 0
                rounds = [json.loads(line[len(ROUND_LOG):]) for line in lines
                          if line.startswith(ROUND_LOG)]
                doc["runs"].append({"workload": workload, "trace": trace,
                                    "seed": args.seed, "wall_s": wall,
                                    "exit": proc.returncode,
                                    "rounds": rounds[0] if rounds else {},
                                    **result})
                print(f"set {k} {workload:<7} trace={trace} "
                      f"exit={proc.returncode} {wall:6.1f} s", flush=True)
    out = args.out or os.path.join(
        harness.OUT_DIR, time.strftime("results-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {out}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; round counts scale with it "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="1: record spans and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="the small size perf/tests runs")
    parser.add_argument("--all", action="store_true",
                        help="run every workload (with --repeat)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="result file of --all")
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.all:
        parser.error("give --workload NAME or --all")
    if args.all:
        return run_sets(args)
    if not args.supervised:
        return supervise(sys.argv[1:] if argv is None else list(argv))
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    run = run_workload(args.workload, args.seed, args.seconds,
                       trace=bool(args.trace), quick=args.quick)
    result = result_of(run)
    print_report(run, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
