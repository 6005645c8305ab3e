"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main

SCENARIOS = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenarios"
)
CANONICAL = os.path.join(SCENARIOS, "canonical-3isp.yaml")
CLUSTER = os.path.join(SCENARIOS, "cluster-8x16.yaml")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in (
            ["quickstart"],
            ["breakeven"],
            ["compare"],
            ["adoption", "--isps", "50"],
            ["spec-check", "--steps", "100", "--cheat"],
            ["zombie", "--limit", "10"],
            ["run", CLUSTER, "--mode", "cluster", "--shards", "4"],
            ["run", CLUSTER, "--seed", "3", "--trace", "t.jsonl"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_every_subcommand_accepts_seed(self):
        """Seed handling is uniform: no subcommand hardcodes its RNG."""
        parser = build_parser()
        for command in (
            ["quickstart"],
            ["breakeven"],
            ["compare"],
            ["adoption"],
            ["spec-check"],
            ["zombie"],
            ["audit"],
            ["soak"],
            ["run", CANONICAL],
            ["fuzz"],
            ["arena"],
        ):
            args = parser.parse_args(command + ["--seed", "123"])
            assert args.seed == 123, f"{command[0]} ignored --seed"

    def test_subcommand_set(self):
        parser = build_parser()
        commands = next(
            action for action in parser._actions
            if action.dest == "command"
        ).choices
        assert sorted(commands) == [
            "adoption", "arena", "audit", "breakeven", "compare", "fuzz",
            "quickstart", "run", "selftest", "serve", "soak",
            "spec-check", "zombie",
        ]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_quickstart(self, capsys):
        assert main(["quickstart", "--messages", "3"]) == 0
        out = capsys.readouterr().out
        assert "reconciliation consistent: True" in out
        assert "conserved: True" in out

    def test_breakeven(self, capsys):
        assert main(["breakeven"]) == 0
        out = capsys.readouterr().out
        assert "101x" in out or "cost factor" in out
        assert "pharma-bulk" in out

    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "zmail" in out
        assert "shred/vanquish" in out

    def test_adoption(self, capsys):
        assert main(["adoption", "--isps", "40"]) == 0
        out = capsys.readouterr().out
        assert "positive feedback" in out

    def test_spec_check_honest(self, capsys):
        assert main(["spec-check", "--steps", "500"]) == 0
        out = capsys.readouterr().out
        assert "flagged pairs:         0" in out

    def test_spec_check_cheater_caught(self, capsys):
        assert main(["spec-check", "--steps", "6000", "--cheat"]) == 0
        out = capsys.readouterr().out
        assert "cheater isp[1] caught: True" in out

    def test_zombie(self, capsys):
        assert main(["zombie", "--limit", "15"]) == 0
        out = capsys.readouterr().out
        assert "zombie detected: True" in out


class TestExtendedCommands:
    def test_scenario(self, tmp_path, capsys):
        # The mixed 4-ISP world, shortened to 2 days.
        from repro.scenario import load

        doc = load(os.path.join(SCENARIOS, "mixed-4isp.yaml"))
        doc["traffic"]["duration"] = 2 * 86400.0
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main(["run", str(path), "--report", str(report)]) == 0
        assert "conserved:       True" in capsys.readouterr().out
        summary = json.loads(report.read_text())
        assert summary["all_consistent"] is True
        assert summary["reconciliation_rounds"] == 2

    def test_audit_catches_minting(self, capsys):
        assert main(["audit", "--mint", "5000"]) == 0
        out = capsys.readouterr().out
        assert "ALERT: isp1" in out

    def test_audit_honest_all_clear(self, capsys):
        assert main(["audit", "--mint", "0"]) == 0
        out = capsys.readouterr().out
        assert "all clear" in out


class TestRunOptions:
    """`repro run` refuses options its drive would silently ignore."""

    @pytest.mark.parametrize("extra", [
        ["--shards", "4"],
        ["--lag", "2"],
        ["--cluster-mode", "spawn"],
        ["--cluster-mode", "inline"],
    ])
    @pytest.mark.parametrize("mode", ["direct", "columnar", "engine",
                                      "chaos"])
    def test_cluster_options_need_cluster_mode(self, mode, extra, capsys):
        assert main(["run", CANONICAL, "--mode", mode] + extra) == 2
        assert f"{extra[0]} cannot be used with --mode {mode}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("mode", ["cluster", "chaos"])
    def test_trace_needs_a_single_process_executor(
        self, mode, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["run", CANONICAL, "--mode", mode, "--trace", str(trace)]
        ) == 2
        assert "--trace cannot be used" in capsys.readouterr().err
        assert not trace.exists()

    def test_seed_overrides_the_document_seed(self, tmp_path, capsys):
        paths = [tmp_path / f"{n}.json" for n in ("a", "b", "c")]
        for path, seed in zip(paths, ("7", "8", "8")):
            assert main([
                "run", CANONICAL, "--seed", seed, "--manifest", str(path),
            ]) == 0
        capsys.readouterr()
        manifests = [json.loads(p.read_text()) for p in paths]
        assert [m["seed"] for m in manifests] == [7, 8, 8]
        assert manifests[0]["event_digest"] != manifests[1]["event_digest"]
        assert paths[1].read_bytes() == paths[2].read_bytes()


class TestTraceCommand:
    def test_trace_prints_digests(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", CANONICAL, "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace events:    5301" in out
        assert "trace digest:" in out
        assert "manifest digest:" in out
        assert "conserved:       True" in out

    def test_trace_writes_schema_valid_jsonl_and_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import RunManifest
        from repro.obs.schema import validate_trace_lines

        out_path = tmp_path / "trace.jsonl"
        assert main(["run", CANONICAL, "--mode", "columnar",
                     "--trace", str(out_path)]) == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        assert validate_trace_lines(lines) == len(lines) > 0
        manifest = RunManifest.from_json(
            (tmp_path / "trace.jsonl.manifest.json").read_text()
        )
        assert manifest.event_count == len(lines)
        assert manifest.extra["mode"] == "columnar"

    def test_trace_same_seed_byte_identical_files(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["run", CANONICAL, "--seed", "5",
                         "--trace", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        manifests = [
            (tmp_path / f"{p.name}.manifest.json").read_bytes() for p in paths
        ]
        assert manifests[0] == manifests[1]

    def test_metrics_dumps_sorted_export(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["run", CANONICAL, "--mode", "engine",
                     "--report", str(out_path)]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())["metrics"]
        assert doc["format_version"] == 1
        names = list(doc["metrics"])
        assert names == sorted(names)
        assert "zmail.deliver.delivered" in doc["metrics"]
        assert "engine.events_processed" in doc["metrics"]


class TestCluster:
    _ARGS = ["run", CLUSTER, "--mode", "cluster", "--shards", "2"]

    def test_cluster_same_seed_reruns_cmp_identical(self, tmp_path, capsys):
        """Same-seed cluster reruns write byte-identical manifests (and
        shard count doesn't matter)."""
        paths = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"]
        for path, shards in zip(paths, ("2", "2", "1")):
            code = main(
                self._ARGS[:5] + [shards]
                + ["--seed", "9", "--manifest", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == paths[2].read_bytes()

    def test_cluster_prints_summary_and_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(self._ARGS + ["--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "mode:            cluster" in out
        assert "conserved:       True" in out
        assert "manifest digest:" in out
        report = json.loads(report_path.read_text())
        assert report["n_shards"] == 2
        assert len(report["assignment"]) == 8

    def test_cluster_seed_changes_results(self, tmp_path, capsys):
        digests = []
        for seed in ("1", "2"):
            path = tmp_path / f"seed{seed}.json"
            assert main(
                self._ARGS + ["--seed", seed, "--manifest", str(path)]
            ) == 0
            digests.append(path.read_bytes())
        capsys.readouterr()
        assert digests[0] != digests[1]


class TestArenaCommand:
    ARGS = [
        "arena", "--seed", "5", "--worlds", "2", "--periods", "3",
        "--attackers", "static,zombie_fleet",
        "--defenders", "zmail_static,price_tuner",
    ]

    def test_arena_prints_summary_and_passes(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "2 attackers x 2 defenders x 2 worlds" in out
        assert "report digest:" in out
        assert "passed:         True" in out

    def test_arena_report_is_cmp_identical(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert main(self.ARGS + ["--out", str(one)]) == 0
        assert main(self.ARGS + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_arena_json_output_parses(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert len(report["cells"]) == 8

    def test_arena_unknown_strategy_is_loud(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown attacker"):
            main(["arena", "--worlds", "1", "--attackers", "nope"])
