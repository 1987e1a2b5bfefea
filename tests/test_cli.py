"""Tests for the command-line interface."""

from unittest import mock

import pytest

from repro.cli import build_parser, main


ARGS_SMALL = ["--nodes", "200", "--seed", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["build"])
        assert args.nodes == 2000
        assert args.model == "euclidean"
        assert args.topology == "makalu"

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "--topology", "chord"])


class TestCommands:
    def test_build(self, capsys):
        assert main(["build", *ARGS_SMALL]) == 0
        out = capsys.readouterr().out
        assert "200 nodes" in out
        assert "connected: True" in out

    @pytest.mark.parametrize("topology", ["makalu", "kregular", "powerlaw", "twotier"])
    def test_build_all_topologies(self, topology, capsys):
        assert main(["build", *ARGS_SMALL, "--topology", topology]) == 0
        assert "edges" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["euclidean", "transit-stub", "planetlab"])
    def test_build_all_models(self, model, capsys):
        assert main(["build", *ARGS_SMALL, "--model", model]) == 0

    def test_flood(self, capsys):
        assert main([
            "flood", *ARGS_SMALL, "--ttl", "4", "--replication", "0.02",
            "--queries", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "min TTL" in out
        assert "duplicate" in out

    def test_identifier(self, capsys):
        assert main([
            "identifier", *ARGS_SMALL, "--replication", "0.02",
            "--queries", "20",
        ]) == 0
        assert "ABF identifier search" in capsys.readouterr().out

    def test_analyze(self, capsys):
        assert main(["analyze", *ARGS_SMALL]) == 0
        out = capsys.readouterr().out
        assert "algebraic connectivity" in out
        assert "targeted failures" in out

    def test_traffic(self, capsys):
        assert main(["traffic", *ARGS_SMALL, "--queries", "10"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth savings" in out

    def test_churn(self, capsys):
        assert main([
            "churn", "--nodes", "120", "--seed", "4", "--duration", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "online=" in out
        assert "health samples" not in out  # disabled by default

    def test_churn_health_interval(self, tmp_path, capsys):
        import json

        path = tmp_path / "health.json"
        assert main([
            "churn", "--nodes", "120", "--seed", "4", "--duration", "40",
            "--health-interval", "10", "--metrics-json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "health samples" in out
        assert "spectral gap=" in out
        series = json.loads(path.read_text())["timeseries"]
        gap_points = series["health.spectral_gap"]["points"]
        assert [t for t, _ in gap_points] == [10.0, 20.0, 30.0, 40.0]

    def test_identifier_per_link(self, capsys):
        assert main([
            "identifier", *ARGS_SMALL, "--per-link", "--replication", "0.02",
            "--queries", "15",
        ]) == 0
        assert "per-link" in capsys.readouterr().out

    def test_response(self, capsys):
        assert main([
            "response", *ARGS_SMALL, "--replication", "0.02", "--queries", "15",
        ]) == 0
        out = capsys.readouterr().out
        assert "response times" in out
        assert "median" in out


class TestObservabilityFlags:
    def test_flood_metrics_json_matches_reported_messages(
        self, tmp_path, capsys
    ):
        import json
        import re

        path = tmp_path / "metrics.json"
        assert main([
            "flood", *ARGS_SMALL, "--queries", "20", "--replication", "0.02",
            "--metrics-json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        snap = json.loads(path.read_text())
        assert snap["counters"]["search.flood.queries"] == 20
        # The snapshot's total must exactly match the summary the CLI
        # printed (mean msgs x queries).
        mean = float(re.search(r"mean msgs (\d+\.\d)", out).group(1))
        total = snap["counters"]["search.flood.messages_sent"]
        assert round(total / 20, 1) == mean

    def test_flood_trace_jsonl(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = tmp_path / "trace.jsonl"
        assert main([
            "flood", *ARGS_SMALL, "--queries", "5", "--replication", "0.02",
            "--trace", str(path),
        ]) == 0
        assert "trace written" in capsys.readouterr().out
        assert len(read_trace(str(path), kind="flood.query")) == 5

    @pytest.mark.parametrize("variant, digest", [
        ([], "0b3526d518c9244bf8aecc522cbc1073"
             "8122f8cb76e0242c2dc3a5b573667d4a"),
        (["--per-link"], "6c59e3266cce245c153b8d91e77a8ae0"
                         "1bcd46a3273aba9508bc5eab8d9b3607"),
    ])
    def test_identifier_trace_is_pinned(self, tmp_path, capsys, variant, digest):
        # Recorded when identifier_queries still routed one query per
        # Python iteration: overlay build, ABF build and every abf.route /
        # abf.query event of the run, byte for byte.
        import hashlib

        path = tmp_path / "trace.jsonl"
        assert main([
            "identifier", "--nodes", "300", "--seed", "2", "--queries", "20",
            "--trace", str(path), *variant,
        ]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_build_profile_report(self, capsys):
        assert main(["build", *ARGS_SMALL, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (per-phase wall time):" in out
        assert "makalu.build" in out

    def test_obs_disabled_after_run(self, tmp_path):
        from repro import obs

        assert main([
            "flood", *ARGS_SMALL, "--queries", "5",
            "--metrics-json", str(tmp_path / "m.json"),
        ]) == 0
        assert obs.active() is None

    def test_profile_json_written_and_convertible(self, tmp_path, capsys):
        import json

        profile_path = tmp_path / "profile.json"
        assert main([
            "build", *ARGS_SMALL, "--profile-json", str(profile_path),
        ]) == 0
        assert "profile written" in capsys.readouterr().out
        doc = json.loads(profile_path.read_text())
        assert doc["timeline"], "no spans recorded"
        assert all(s["end_s"] >= s["start_s"] for s in doc["timeline"])
        out = tmp_path / "profile.chrome.json"
        assert main([
            "obs", "export-trace", str(profile_path), "--out", str(out),
        ]) == 0
        chrome = json.loads(out.read_text())
        assert chrome["traceEvents"][0]["ph"] == "X"

    def test_artifacts_written_when_command_raises(self, tmp_path, capsys):
        """A crashed run must still leave readable metrics and trace files."""
        import json

        from repro import obs
        from repro.cli import build_parser

        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"

        def boom(args):
            obs.count("made.it.here")
            obs.event("made.it.here")
            raise RuntimeError("simulated crash")

        parser = build_parser()
        args = parser.parse_args([
            "build", *ARGS_SMALL,
            "--metrics-json", str(metrics_path), "--trace", str(trace_path),
        ])
        args.func = boom
        with pytest.raises(RuntimeError):
            # Re-enter main's obs plumbing with the crashing command.
            from repro import cli

            with mock.patch.object(
                cli.argparse.ArgumentParser, "parse_args", return_value=args
            ):
                main([])
        assert obs.active() is None
        snap = json.loads(metrics_path.read_text())
        assert snap["counters"]["made.it.here"] == 1
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert any(e["kind"] == "made.it.here" for e in lines)


class TestNodeParser:
    def test_boot_defaults(self):
        args = build_parser().parse_args(["node", "boot"])
        assert args.nodes == 40
        assert args.ttl == 6
        assert args.queries == 20

    def test_parity_defaults(self):
        args = build_parser().parse_args(["node", "parity"])
        assert args.nodes == 24
        assert args.threshold == 0.02
        assert not args.fail_on_divergence

    def test_boot_trace_flags(self):
        args = build_parser().parse_args([
            "node", "boot", "--trace-dir", "sinks",
            "--telemetry-interval", "0.05",
        ])
        assert args.trace_dir == "sinks"
        assert args.telemetry_interval == 0.05
        defaults = build_parser().parse_args(["node", "boot"])
        assert defaults.trace_dir is None
        assert defaults.telemetry_interval == 0.0

    def test_trace_defaults(self):
        args = build_parser().parse_args(["node", "trace", "sinks"])
        assert args.inputs == ["sinks"]
        assert args.export is None
        assert args.require_complete == 0
        assert not args.verbose

    def test_trace_requires_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node", "trace"])

    def test_churn_defaults(self):
        args = build_parser().parse_args(["node", "churn"])
        assert args.nodes == 32
        assert args.scenario == "paper-live-failures"
        assert args.objects == 12
        assert args.k == 3
        assert args.duration == 150.0
        assert args.time_scale == 0.0
        assert args.snapshot_interval == 25.0
        assert args.mean_offline == 25.0
        assert not args.no_heal
        assert not args.no_read_repair
        assert args.report_json is None

    def test_churn_flags(self):
        args = build_parser().parse_args([
            "node", "churn", "--scenario", "weekly-maintenance",
            "--time-scale", "0.01", "--no-heal",
            "--report-json", "out.json",
        ])
        assert args.scenario == "weekly-maintenance"
        assert args.time_scale == 0.01
        assert args.no_heal
        assert args.report_json == "out.json"

    def test_node_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node"])


class TestNodeCommands:
    def test_run_single_peer(self, capsys):
        assert main([
            "node", "run", "--node-id", "5", "--duration", "0.05",
            "--store", "1,2,3",
        ]) == 0
        out = capsys.readouterr().out
        assert "node 5 listening on" in out
        assert "0 protocol errors" in out

    def test_boot_small_overlay(self, capsys):
        assert main([
            "node", "boot", "--nodes", "10", "--queries", "3",
            "--objects", "4", "--replication", "0.2", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "live overlay: 10 asyncio peers" in out
        assert "0 mismatched" in out
        assert "0 protocol errors" in out

    def test_boot_metrics_json_carries_node_counters(self, tmp_path):
        import json

        path = tmp_path / "live.json"
        assert main([
            "node", "boot", "--nodes", "8", "--queries", "2",
            "--objects", "3", "--replication", "0.25", "--seed", "5",
            "--metrics-json", str(path),
        ]) == 0
        snap = json.loads(path.read_text())
        assert snap["counters"]["node.rx.query"] > 0
        assert snap["counters"].get("node.protocol_errors", 0) == 0

    def test_churn_replays_scenario_end_to_end(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "churn.json"
        report = tmp_path / "report.json"
        assert main([
            "node", "churn", "--nodes", "12", "--objects", "4",
            "--seed", "5", "--duration", "90", "--snapshot-interval", "30",
            "--metrics-json", str(metrics), "--report-json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "live churn: 12 asyncio peers" in out
        assert "membership:" in out
        assert "durability:" in out
        snap = json.loads(metrics.read_text())
        assert snap["gauges"]["live_churn.kills"] >= 1
        assert snap["gauges"]["live_churn.revives"] >= 1
        assert snap["gauges"]["live_churn.availability"] > 0
        # node-level wire counters merge in alongside the gauges
        assert snap["counters"]["node.rx.ping"] > 0
        doc = json.loads(report.read_text())
        assert doc["scenario"] == "paper-live-failures"
        assert doc["kills"] == snap["gauges"]["live_churn.kills"]
        assert doc["durability"]["objects_lost"] == 0

    def test_churn_unknown_scenario_exits_2(self, capsys):
        assert main(["node", "churn", "--scenario", "no-such"]) == 2
        assert "error" in capsys.readouterr().err

    def test_boot_trace_dir_then_trace_report(self, tmp_path, capsys):
        sink_dir = tmp_path / "sinks"
        assert main([
            "node", "boot", "--nodes", "10", "--queries", "3",
            "--objects", "4", "--replication", "0.2", "--seed", "5",
            "--trace-dir", str(sink_dir), "--telemetry-interval", "0.02",
        ]) == 0
        out = capsys.readouterr().out
        assert "causal trace:" in out
        assert "3 query tree(s) (3 complete)" in out
        assert "runtime samples" in out
        assert sorted(p.name for p in sink_dir.iterdir()) == \
            sorted(f"peer-{u}.jsonl" for u in range(10))

        chrome = tmp_path / "live.chrome.json"
        assert main([
            "node", "trace", str(sink_dir),
            "--require-complete", "3", "--export", str(chrome),
        ]) == 0
        out = capsys.readouterr().out
        assert "merged 10 sink(s)" in out
        assert "3 tree(s), 3 complete" in out
        assert chrome.exists()

    def test_trace_require_complete_gate_fails(self, tmp_path, capsys):
        sink_dir = tmp_path / "sinks"
        assert main([
            "node", "boot", "--nodes", "8", "--queries", "2",
            "--objects", "3", "--replication", "0.25", "--seed", "5",
            "--trace-dir", str(sink_dir),
        ]) == 0
        capsys.readouterr()
        assert main([
            "node", "trace", str(sink_dir), "--require-complete", "5",
        ]) == 1
        assert "only 2 complete" in capsys.readouterr().err

    def test_trace_session_sink_holds_merged_stream(self, tmp_path):
        import json

        trace_path = tmp_path / "live.jsonl"
        assert main([
            "node", "boot", "--nodes", "8", "--queries", "2",
            "--objects", "3", "--replication", "0.25", "--seed", "5",
            "--trace", str(trace_path),
        ]) == 0
        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines() if line]
        rx = [e for e in events if e["kind"] == "node.query.rx"]
        assert rx
        assert all(e["tb"] == "wall" and "src" in e for e in rx)

    def test_trace_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["node", "trace", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parity_gate_passes_and_writes_snapshots(self, tmp_path, capsys):
        import json

        sim_path = tmp_path / "sim.json"
        live_path = tmp_path / "live.json"
        assert main([
            "node", "parity", "--nodes", "12", "--queries", "3",
            "--objects", "4", "--replication", "0.2", "--seed", "7",
            "--sim-out", str(sim_path), "--live-out", str(live_path),
            "--fail-on-divergence",
        ]) == 0
        out = capsys.readouterr().out
        assert "sim vs live on 12 nodes" in out
        sim = json.loads(sim_path.read_text())
        live = json.loads(live_path.read_text())
        assert sim["counters"]["parity.messages_total"] == \
            live["counters"]["parity.messages_total"]
        assert live["gauges"]["parity.divergence.edge_mismatch"] == 0.0

    def test_parity_starved_ttl_exits_2(self, capsys):
        assert main([
            "node", "parity", "--nodes", "20", "--queries", "2",
            "--ttl", "1", "--objects", "4", "--replication", "0.2",
            "--seed", "7",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestContentParser:
    def test_place_defaults(self):
        args = build_parser().parse_args(["content", "place"])
        assert args.nodes == 120
        assert args.objects == 60
        assert args.k == 3
        assert args.seed == 1234
        assert not args.verbose
        assert args.manifest_json is None

    def test_durability_defaults(self):
        args = build_parser().parse_args(["content", "report"])
        assert args.duration == 150.0
        assert args.scenario == "paper-live-failures"
        assert not args.no_heal
        assert not args.no_read_repair
        assert args.heal_interval == 10.0
        assert args.fetch_probes == 8

    def test_content_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["content"])


class TestContentCommands:
    SMALL = ["--nodes", "60", "--objects", "12", "--seed", "9"]
    FAST = [*SMALL, "--duration", "40"]

    def test_place(self, capsys):
        assert main(["content", "place", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "placed 12 objects" in out
        assert "mean replicas/object" in out

    def test_place_manifest_json_validates(self, tmp_path):
        import json

        path = tmp_path / "manifests.json"
        assert main([
            "content", "place", *self.SMALL, "--manifest-json", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["n_objects"] == 12
        assert len(doc["manifests"]) == 12
        for m in doc["manifests"]:
            assert {"key", "size", "chunk_size", "chunk_digests",
                    "digest"} <= set(m)

    def test_place_verbose_lists_holders(self, capsys):
        assert main(["content", "place", *self.SMALL, "--verbose"]) == 0
        assert "holders=[" in capsys.readouterr().out

    def test_fetch(self, capsys):
        assert main([
            "content", "fetch", *self.FAST, "--queries", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "end-of-run fetches:" in out
        assert "read-repair:" in out

    def test_heal(self, capsys):
        assert main(["content", "heal", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "heal pushes" in out
        assert "availability" in out

    def test_heal_no_heal_flag(self, capsys):
        assert main([
            "content", "heal", *self.FAST, "--no-heal", "--no-read-repair",
        ]) == 0
        out = capsys.readouterr().out
        assert "healing off" in out
        assert "heal pushes  0" in out

    def test_report_with_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        assert main([
            "content", "report", *self.FAST, "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "final: availability=" in out
        doc = json.loads(path.read_text())
        assert 0.0 <= doc["availability"] <= 1.0
        assert doc["n_objects"] == 12

    def test_report_hub_failure_scenario(self, capsys):
        assert main([
            "content", "report", *self.FAST, "--scenario", "hub-failure",
        ]) == 0
        assert "final:" in capsys.readouterr().out
