"""Chaos campaign tests: fault injection, differential recovery, and
bit-reproducible reports.

The headline is the differential test: the *same* workload run
fault-free and run under heavy faults plus an ISP crash/restart must end
with identical accounting state (SHA-256 digest over every balance,
credit counter, and pool). Recovery is not merely "no invariant broke" —
it converges to the exact state the failure-free execution reaches.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.chaos import (
    ChaosDeployment,
    CrashEvent,
    FaultSpec,
    FaultyNetwork,
    NO_FAULTS,
)
from repro.core import ZmailConfig
from repro.errors import SimulationError
from repro.scenario import compile_scenario, load, run_plan
from repro.sim import Engine, LinkSpec, SeededStreams
from repro.sim.rng import derive_seed
from repro.sim.workload import NormalUserWorkload


def load_bench_digest():
    """Import accounting_digest from the macro benchmark (satellite 2
    requires reusing the benchmark's digest, not a reimplementation)."""
    path = pathlib.Path(__file__).resolve().parent.parent / (
        "benchmarks/bench_macro_scale.py"
    )
    spec = importlib.util.spec_from_file_location("bench_macro_scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.accounting_digest


class TestFaultyNetwork:
    def make_net(self, faults, seed=0):
        engine = Engine()
        net = FaultyNetwork(
            engine,
            SeededStreams(seed),
            default_link=LinkSpec(base_latency=0.1),
            default_faults=faults,
        )
        received = []

        class Sink:
            def on_message(self, src, payload):
                received.append(payload)

        net.register("a", Sink())
        net.register("b", Sink())
        return engine, net, received

    def test_no_faults_delivers_everything(self):
        engine, net, received = self.make_net(NO_FAULTS)
        for i in range(50):
            net.send("a", "b", i)
        engine.run()
        assert received == list(range(50))
        assert net.faults_dropped == 0
        assert net.faults_duplicated == 0
        assert net.faults_reordered == 0

    def test_drop_rate_loses_messages(self):
        engine, net, received = self.make_net(FaultSpec(drop_rate=0.5), seed=3)
        for i in range(200):
            net.send("a", "b", i)
        engine.run()
        assert net.faults_dropped > 0
        assert len(received) == 200 - net.faults_dropped
        # Survivors keep FIFO order: drops thin the stream, never shuffle it.
        assert received == sorted(received)

    def test_duplicate_rate_duplicates_messages(self):
        engine, net, received = self.make_net(
            FaultSpec(duplicate_rate=0.5), seed=4
        )
        for i in range(100):
            net.send("a", "b", i)
        engine.run()
        assert net.faults_duplicated > 0
        assert len(received) == 100 + net.faults_duplicated

    def test_reorder_rate_shuffles_delivery(self):
        engine, net, received = self.make_net(
            FaultSpec(reorder_rate=0.5, reorder_delay=5.0), seed=5
        )
        for i in range(100):
            net.send("a", "b", i)
        engine.run()
        assert net.faults_reordered > 0
        assert sorted(received) == list(range(100))
        assert received != list(range(100))

    def test_down_node_blackholes_traffic_both_directions(self):
        engine, net, received = self.make_net(NO_FAULTS)
        net.set_down("b")
        net.send("a", "b", "to-dead")
        net.send("b", "a", "from-dead")
        engine.run()
        assert received == []
        assert net.dropped_down == 2
        net.set_up("b")
        net.send("a", "b", "alive")
        engine.run()
        assert received == ["alive"]

    def test_down_node_drops_in_flight_messages(self):
        engine, net, received = self.make_net(NO_FAULTS)
        net.send("a", "b", "in-flight")  # latency 0.1: crashes at 0.05
        engine.schedule_at(0.05, lambda: net.set_down("b"))
        engine.run()
        assert received == []
        assert net.dropped_down == 1

    def test_fault_streams_are_independent_per_fault(self):
        """Changing the duplicate rate must not perturb which messages
        get dropped — each fault type draws from its own stream."""

        def dropped_set(duplicate_rate):
            engine, net, received = self.make_net(
                FaultSpec(drop_rate=0.3, duplicate_rate=duplicate_rate),
                seed=9,
            )
            for i in range(100):
                net.send("a", "b", i)
            engine.run()
            return set(range(100)) - set(received)

        assert dropped_set(0.0) == dropped_set(0.9)

    def test_fault_spec_validation(self):
        with pytest.raises(SimulationError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(SimulationError):
            FaultSpec(drop_rate=-0.1)
        with pytest.raises(SimulationError):
            FaultSpec(reorder_rate=0.5, reorder_delay=-1.0)
        assert not NO_FAULTS.active
        assert FaultSpec(drop_rate=0.1).active


class TestDifferentialRecovery:
    """Satellite 2: faults + crash/recovery converge to the exact
    accounting state of the fault-free run."""

    # Generous limits so no send is ever refused for economic reasons:
    # the letter sets of the two runs are then identical, and final
    # balances depend only on *which* letters existed, not on timing.
    CONFIG = ZmailConfig(
        default_user_balance=100_000,
        default_daily_limit=1_000_000,
        auto_topup_amount=0,
    )

    def run_workload(self, *, faults, crashes=(), seed=21, duration=200.0):
        deployment = ChaosDeployment(
            n_isps=3,
            users_per_isp=4,
            seed=seed,
            config=self.CONFIG,
            faults=faults,
            monitor_interval=5.0,
        )
        for crash in crashes:
            deployment.schedule_crash(crash)
        workload = NormalUserWorkload(
            n_isps=3,
            users_per_isp=4,
            rate_per_day=30_000.0,
            streams=SeededStreams(derive_seed(seed, "diff-workload")),
        )
        converged = deployment.run(
            workload.generate(duration), until=duration, drain_window=3_000.0
        )
        assert converged, "deployment failed to drain"
        return deployment

    def test_faults_and_crash_recovery_reach_fault_free_state(self):
        digest = load_bench_digest()
        clean = self.run_workload(faults=NO_FAULTS)
        chaotic = self.run_workload(
            faults=FaultSpec(drop_rate=0.25, duplicate_rate=0.2,
                             reorder_rate=0.25, reorder_delay=2.0),
            crashes=[
                CrashEvent(node="isp1", at=60.0, down_for=30.0),
                CrashEvent(node="bank", at=120.0, down_for=20.0),
            ],
        )
        assert chaotic.crash_controller.restarts == 2
        assert chaotic.net.faults_dropped > 0
        assert digest(clean.network) == digest(chaotic.network)
        assert clean.monitor.green and chaotic.monitor.green

    def test_digest_actually_discriminates(self):
        """Guard against a vacuous differential: different workload seeds
        must produce different digests."""
        digest = load_bench_digest()
        one = self.run_workload(faults=NO_FAULTS, seed=21, duration=100.0)
        other = self.run_workload(faults=NO_FAULTS, seed=22, duration=100.0)
        assert digest(one.network) != digest(other.network)


SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / (
    "examples/scenarios"
)
#: The built-in chaos cells, one scenario document each.
CELLS = ("clean", "lossy-dup-reorder", "crashy")


def run_cell_doc(cell, seed=None):
    """The chaos-mode report row of ``chaos-<cell>.yaml`` (``seed`` as
    ``repro run --seed`` overrides it)."""
    doc = load(str(SCENARIOS / f"chaos-{cell}.yaml"))
    if seed is not None:
        doc["seed"] = seed
    return run_plan(compile_scenario(doc), "chaos")["report"]


class TestCampaign:
    def test_default_campaign_passes_and_is_bit_reproducible(self):
        for cell in CELLS:
            first = run_cell_doc(cell, seed=7)
            second = run_cell_doc(cell, seed=7)
            assert first["passed"], cell
            assert first["cell"] == cell
            assert json.dumps(first, sort_keys=True) == json.dumps(
                second, sort_keys=True
            )

    def test_different_seed_different_report(self):
        # `repro run DOC --mode chaos --seed 99`: the cell seed derives
        # from the document seed, so every row moves, passes, and
        # repeats byte for byte.
        base = {cell: run_cell_doc(cell) for cell in CELLS}
        other = {cell: run_cell_doc(cell, seed=99) for cell in CELLS}
        for cell in CELLS:
            assert other[cell]["passed"], cell
            assert other[cell]["seed"] != base[cell]["seed"]
            assert other[cell]["digest"] != base[cell]["digest"]
            assert run_cell_doc(cell, seed=99) == other[cell]

    def test_crashy_cell_recovers_with_monitors_green(self):
        """Acceptance criterion: ISP crash + restart + dup/reorder over
        reliable links ends with all monitors green."""
        crashy = run_cell_doc("crashy", seed=7)
        assert crashy["passed"]
        assert crashy["crashes"] == 2
        assert crashy["restarts"] == 2
        assert crashy["violations"] == 0
        assert crashy["first_violation"] is None

    def test_report_table_mentions_every_cell(self, capsys):
        from repro.cli import main

        for cell in CELLS:
            doc = str(SCENARIOS / f"chaos-{cell}.yaml")
            assert main(["run", doc, "--mode", "chaos"]) == 0
            out = capsys.readouterr().out
            assert f"chaos cell:      {cell} (seed " in out
            assert "passed:          True" in out


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_chaos_cli_stdout_is_byte_identical_across_runs(self, capsys):
        for cell in CELLS:
            argv = ["run", str(SCENARIOS / f"chaos-{cell}.yaml"),
                    "--mode", "chaos", "--seed", "7"]
            code1, out1 = self.run_cli(argv, capsys)
            code2, out2 = self.run_cli(argv, capsys)
            assert code1 == 0 and code2 == 0
            assert out1 == out2
            assert "passed:          True" in out1

    def test_chaos_cli_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = self.run_cli(
            ["run", str(SCENARIOS / "chaos-crashy.yaml"), "--mode", "chaos",
             "--seed", "7", "--report", str(out_path)],
            capsys,
        )
        assert code == 0
        parsed = json.loads(out_path.read_text())
        assert parsed["passed"]
        assert parsed == run_cell_doc("crashy", seed=7)
