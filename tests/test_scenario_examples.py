"""The committed example scenarios are the built-in worlds; their pins.

``examples/scenarios/`` holds every built-in world as a declarative
document: the canonical 3-ISP scenario, all six chaos and overload
cells, the mixed 4-ISP world and the 8-ISP cluster world. There is no
second, hand-built copy of any of them, so these tests pin each world by
values recorded when the hand-built copies still existed (and agreed
with the documents): trace and manifest digests, chaos report rows and
summary counters. A change to a document, or to the code that runs it,
shows up here as a pin mismatch.
"""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.cluster import cluster_scenario
from repro.scenario import compile_scenario, run_plan

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "scenarios")


def example(name):
    return os.path.join(EXAMPLES, name)


#: SHA-256 of the canonical world's JSONL trace (= its event digest) per
#: executor, and the digest of its invariant manifest on all three.
CANONICAL_TRACE = {
    "direct": "febd3980f405720894514efdf28807e0bdd7bc993aeb3884274c35818226d8b1",
    "columnar": "febd3980f405720894514efdf28807e0bdd7bc993aeb3884274c35818226d8b1",
    "engine": "ef22b4a01a335ef639e0e8a659719226b09aa63b06b295a1cac045e9ec4cc772",
}
CANONICAL_MANIFEST = (
    "517e6adbcff73a6e41f9d70aa99e2ce80fbe6ef58212b3db695215da5491d4fb"
)


def test_canonical_document_compiles_to_the_canonical_scenario(
    tmp_path, capsys
):
    trace = tmp_path / "trace.jsonl"
    for mode, trace_digest in CANONICAL_TRACE.items():
        assert main([
            "run", example("canonical-3isp.yaml"), "--mode", mode,
            "--trace", str(trace),
        ]) == 0
        assert f"manifest digest: {CANONICAL_MANIFEST}" in (
            capsys.readouterr().out
        )
        data = trace.read_bytes()
        assert data.count(b"\n") == 5301
        assert hashlib.sha256(data).hexdigest() == trace_digest


#: Prefix of SHA-256 over ``json.dumps(row, sort_keys=True)`` for each
#: document's chaos-mode report row at the document seed.
CHAOS_ROWS = {
    "chaos-clean": "1db6547dc6f2c222",
    "chaos-lossy-dup-reorder": "914647d5a12ec09f",
    "chaos-crashy": "65e6a9f0d9dbf2fa",
    "overload-baseline": "88844b5c183d898b",
    "overload-burst-2x": "8b687dfb7dba86f1",
    "overload-flood-10x": "e21578c2ac8d22f8",
}


def row_digest(row):
    return hashlib.sha256(
        json.dumps(row, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


@pytest.mark.parametrize("stem", list(CHAOS_ROWS))
def test_campaign_documents_reproduce_cell_rows(stem):
    plan = compile_scenario(example(f"{stem}.yaml"))
    row = run_plan(plan, "chaos")["report"]
    assert row_digest(row) == CHAOS_ROWS[stem]
    assert row["passed"]


def test_cluster_document_compiles_to_cluster_scenario():
    plan = compile_scenario(example("cluster-8x16.yaml"))
    assert plan.scenario("direct") == cluster_scenario(
        9, n_isps=8, users_per_isp=16, days=1
    )
    config = plan.cluster_config()
    assert (config.n_shards, config.epoch_len, config.lag) == (4, 3600.0, 0)


def test_mixed_document_reproduces_its_summary(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main([
        "run", example("mixed-4isp.yaml"), "--report", str(report),
    ]) == 0
    capsys.readouterr()
    summary = json.loads(report.read_text())
    del summary["cut_digests"], summary["metrics"]
    assert summary == {
        "sends_attempted": 2531,
        "delivered": 1874,
        "blocked_balance": 0,
        "blocked_limit": 657,
        "junked": 581,
        "spam_delivered": 562,
        "zombies_detected": 2,
        "reconciliation_rounds": 3,
        "all_consistent": True,
        "conserved": True,
    }


def test_cli_run_writes_manifest_and_report(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    report_path = tmp_path / "report.json"
    code = main([
        "run", example("canonical-3isp.yaml"),
        "--mode", "direct",
        "--manifest", str(manifest_path),
        "--report", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario:        canonical-3isp" in out
    assert "conserved:       True" in out
    manifest = json.loads(manifest_path.read_text())
    assert manifest["extra.scenario"] == "canonical-3isp"
    assert manifest["extra.conserved"] is True
    assert json.loads(report_path.read_text())["conserved"] is True


def test_cli_run_chaos_mode(tmp_path, capsys):
    code = main([
        "run", example("chaos-clean.yaml"), "--mode", "chaos",
        "--manifest", str(tmp_path / "nope.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos cell:      clean" in out
    assert "no invariant manifest was written" in out
    assert not (tmp_path / "nope.json").exists()


def test_cli_fuzz_smoke(capsys):
    assert main(["fuzz", "--count", "1", "--seed", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"seed": 5, "count": 1, "shards": 2,
                      "failures": [], "passed": True}


def test_arena_document_byte_agrees_across_executors():
    # The committed strategy-world example: the v2 `strategies` term
    # lowers through a pilot match onto every executor, and the
    # invariant manifests must not disagree by a byte (the same oracle
    # the plain worlds above answer to).
    plan = compile_scenario(example("arena-wash-vs-tuner.yaml"))
    manifests = {
        mode: run_plan(plan, mode)["manifest"].to_json()
        for mode in ("direct", "columnar", "cluster")
    }
    assert manifests["direct"] == manifests["columnar"]
    assert manifests["direct"] == manifests["cluster"]
    assert run_plan(plan, "direct")["manifest"].extra["conserved"] is True


def test_only_single_process_drives_stream_a_trace():
    from repro.errors import SimulationError
    from repro.obs.trace import ListSink

    plan = compile_scenario(example("chaos-clean.yaml"))
    for mode in ("cluster", "chaos"):
        with pytest.raises(SimulationError, match="cannot stream a trace"):
            run_plan(plan, mode, sink=ListSink())
