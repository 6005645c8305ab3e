#!/usr/bin/env python3
"""Macro-scale throughput benchmark: the million-message canonical scenario.

Unlike the ``bench_e*.py`` experiment benchmarks (which reproduce paper
claims), this harness measures *implementation* throughput on one fixed,
adversarial, full-system scenario — 8 ISPs x 64 users over two simulated
days with three funded spam campaigns, two zombie outbreaks and daily
reconciliation — and records the results in ``BENCH_scale.json`` at the
repo root, where CI (``tools/ci.sh``) guards against regressions.

Three drive modes run the *same* workload from the same seed:

* ``columnar``      — the struct-of-arrays batch executor
  (``repro.columnar``): vectorized masked numpy ops, the fastest path;
* ``direct``        — synchronous sends, no engine (the scalar
  reference path the columnar executor is verified against);
* ``engine_stream`` — the ``engine`` executor (workload pulled lazily
  between heap events; heap stays O(timers)). The row keeps its
  historical label so committed numbers stay comparable.

Each mode runs in its own subprocess so peak-RSS figures are honest
per-mode numbers. After the runs, the harness *asserts determinism*: all
modes must report identical message accounting, identical per-user
balances/pools/bank accounts (compared via SHA-256 digest) and identical
conservation-audit totals — and the modes that take per-reconcile-cut
accounting digests (``direct``, ``columnar``) must agree on the digest
at *every* cut, not just at the end. A throughput benchmark that changed
results would be measuring a different system.

Usage::

    python benchmarks/bench_macro_scale.py                  # full 1M run
    python benchmarks/bench_macro_scale.py --messages 50000 # smoke scale
    python benchmarks/bench_macro_scale.py --million-users  # 1M-user row

The determinism cross-check compares modes pairwise at equal scales.

``--million-users`` runs only the million-user row instead: the
canonical adversaries among 16 ISPs x 65 536 users (1 048 576), each
sending 5 messages a day for two days, ~11M messages on the columnar
executor. Its set-up (network build, contact tables, first chunks) and
execution are timed apart, and the row is stored under
``million_users`` in the output without touching the other rows.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys
import uuid

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODES = ("columnar", "direct", "engine_stream")

#: Users per ISP of the million-user row: 16 x 65 536 = 1 048 576 users.
MILLION_USERS_PER_ISP = 65_536


def canonical_scenario(messages: int, seed: int, executor: str = "direct"):
    """The fixed macro benchmark scenario, scaled to ~``messages`` sends.

    Rates scale linearly, topology and duration stay fixed, so every
    scale exercises the same code paths (spam brakes, auto top-up, zombie
    detection, daily reconciliation) in the same proportions.
    """
    from repro.core.config import ZmailConfig
    from repro.core.scenario import Scenario, SpammerSpec, ZombieSpec
    from repro.sim.clock import DAY, HOUR
    from repro.sim.network import LinkSpec
    from repro.sim.workload import Address

    scale = messages / 1_000_000
    spam_volume = int(180_000 * scale)
    return Scenario(
        # Zero-latency links keep engine-mode accounting bit-identical to
        # direct mode: with real latency a credit can be in flight when
        # its recipient makes a send decision, which a synchronous run
        # cannot reproduce (at 1M messages that flips a handful of ±1
        # balances). Latency/loss behaviour has its own integration tests.
        link=LinkSpec(base_latency=0.0, jitter=0.0, loss_rate=0.0),
        n_isps=8,
        users_per_isp=64,
        config=ZmailConfig(
            default_daily_limit=5_000,
            default_user_balance=500,
            auto_topup_amount=50,
        ),
        seed=seed,
        duration=2 * DAY,
        normal_rate_per_day=450.0 * scale,
        spammers=[
            SpammerSpec(Address(0, 0), volume=spam_volume, war_chest=60_000),
            SpammerSpec(Address(3, 7), volume=spam_volume, war_chest=60_000),
            SpammerSpec(Address(7, 63), volume=spam_volume, war_chest=60_000),
        ],
        zombies=[
            ZombieSpec(
                Address(1, 9),
                rate_per_hour=2_000.0 * scale,
                start=6 * HOUR,
                end=18 * HOUR,
            ),
            ZombieSpec(
                Address(5, 40),
                rate_per_hour=2_000.0 * scale,
                start=DAY + 6 * HOUR,
                end=DAY + 18 * HOUR,
            ),
        ],
        reconcile_every=DAY,
        executor=executor,
    )


def million_user_scenario(seed: int, users_per_isp: int):
    """The canonical world widened to 16 ISPs x ``users_per_isp`` users.

    The adversaries keep their 1M-message volumes; every user sends 5
    messages a day, so at 65 536 users per ISP normal mail is ~10.5M of
    the ~11M messages.
    """
    import dataclasses

    return dataclasses.replace(
        canonical_scenario(1_000_000, seed, "columnar"),
        n_isps=16,
        users_per_isp=users_per_isp,
        normal_rate_per_day=5.0,
    )


def run_million_users(seed: int, users_per_isp: int) -> dict:
    """One columnar run of the million-user world, phases timed apart.

    Set-up ends when the executor applies its first batch of messages;
    the wrapper around its batch function only notes that time.
    """
    import resource
    import time

    import repro.columnar.executor as executor

    execute_batch = executor._execute_batch
    first: list[float] = []

    def noting_first(*args):
        if not first:
            first.append(time.perf_counter())
        return execute_batch(*args)

    scenario = million_user_scenario(seed, users_per_isp)
    executor._execute_batch = noting_first
    try:
        start = time.perf_counter()
        result = scenario.run()
        end = time.perf_counter()
    finally:
        executor._execute_batch = execute_batch
    execution = end - first[0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mode": "columnar",
        "n_isps": scenario.n_isps,
        "users_per_isp": users_per_isp,
        "users": scenario.n_isps * users_per_isp,
        "messages": result.sends_attempted,
        "setup_seconds": round(first[0] - start, 3),
        "execution_seconds": round(execution, 3),
        "messages_per_sec": round(result.sends_attempted / execution, 1),
        "peak_rss_mb": round(rss_kb / 1024, 1),
        "summary": result.summary(),
        "digest": accounting_digest(result.network),
    }


def accounting_digest(network) -> str:
    """SHA-256 over every balance in the system, for determinism checks.

    Delegates to :func:`repro.obs.manifest.accounting_digest` — the same
    digest the columnar executor asserts at every reconciliation cut —
    imported lazily so ``--help`` works without ``src`` on the path.
    """
    from repro.obs.manifest import accounting_digest as digest

    return digest(network)


def run_single(mode: str, messages: int, seed: int) -> dict:
    """Run one mode in-process and return its measurements."""
    import resource
    import time

    executor = "engine" if mode == "engine_stream" else mode
    scenario = canonical_scenario(messages, seed, executor)
    start = time.perf_counter()
    result = scenario.run()
    elapsed = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mode": mode,
        "messages": result.sends_attempted,
        "seconds": round(elapsed, 3),
        "messages_per_sec": round(result.sends_attempted / elapsed, 1),
        "peak_rss_mb": round(rss_kb / 1024, 1),
        "summary": result.summary(),
        "digest": accounting_digest(result.network),
        # Per-reconcile-cut accounting digests; empty for the engine
        # (its mid-run cut ordering differs — see ScenarioResult).
        "cut_digests": result.cut_digests,
    }


def run_subprocess(mode: str, messages: int, seed: int) -> dict:
    """Run one mode in a fresh interpreter (honest per-mode peak RSS)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "bench_macro_scale.py"),
            "--single",
            mode,
            "--messages",
            str(messages),
            "--seed",
            str(seed),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{mode} run failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def check_determinism(runs: dict[str, dict]) -> list[str]:
    """Pairwise identity of accounting across equal-scale runs."""
    failures = []
    by_scale: dict[int, list[dict]] = {}
    for run in runs.values():
        by_scale.setdefault(run["messages"], []).append(run)
    for messages, group in sorted(by_scale.items()):
        reference = group[0]
        for other in group[1:]:
            for field in ("messages", "summary", "digest"):
                if other[field] != reference[field]:
                    failures.append(
                        f"{other['mode']} vs {reference['mode']} at "
                        f"{messages} msgs: {field} differs "
                        f"({other[field]!r} != {reference[field]!r})"
                    )
            # Cut digests exist only for direct/columnar; when both
            # sides have them they must agree at every reconcile cut.
            ours, theirs = other.get("cut_digests"), reference.get("cut_digests")
            if ours and theirs and ours != theirs:
                failures.append(
                    f"{other['mode']} vs {reference['mode']} at "
                    f"{messages} msgs: per-cut accounting digests differ"
                )
    return failures


def append_results_jsonl(runs: dict[str, dict]) -> None:
    """Append one record to ``benchmarks/results.jsonl``.

    Same record shape as :func:`conftest.report` so the EXPERIMENTS.md
    renderer picks it up; every row carries the executor ``mode`` string
    explicitly (the run label alone — ``engine_stream_smoke`` — is a
    plan name, not a mode).
    """
    rows = [
        {
            "run": name,
            "mode": run["mode"],
            "messages": run["messages"],
            "seconds": run["seconds"],
            "messages_per_sec": run["messages_per_sec"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        for name, run in runs.items()
    ]
    record = {
        "experiment": "macro_scale",
        "claim": "columnar SoA executor sustains >=3x engine_stream "
        "throughput on the macro scenario with bit-identical accounting",
        "rows": rows,
        "run_id": uuid.uuid4().hex[:12],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with (HERE / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--messages",
        type=int,
        default=1_000_000,
        help="target send count for direct/engine_stream (default 1M)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=ROOT / "BENCH_scale.json",
        help="result file (seed_baseline section is preserved)",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and check only"
    )
    parser.add_argument(
        "--million-users",
        action="store_true",
        help="run only the million-user columnar row and store it under "
        "million_users in the output",
    )
    parser.add_argument(
        "--single",
        choices=MODES + ("million_users",),
        help="internal: run one mode in-process and print JSON",
    )
    args = parser.parse_args()

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    if args.single == "million_users":
        print(json.dumps(run_million_users(args.seed, MILLION_USERS_PER_ISP)))
        return
    if args.single:
        print(json.dumps(run_single(args.single, args.messages, args.seed)))
        return
    if args.million_users:
        million_users_row(args)
        return

    plan = [
        ("columnar", args.messages),
        ("direct", args.messages),
        ("engine_stream", args.messages),
    ]

    # Throughput is scale-dependent (interpreter and deployment setup
    # amortize over more messages at full scale), so CI's smoke runs are
    # compared against a smoke-scale reference, recorded alongside the
    # full-scale numbers whenever the full benchmark runs.
    smoke_messages = 50_000
    if args.messages > 4 * smoke_messages:
        plan += [
            ("columnar_smoke", smoke_messages),
            ("direct_smoke", smoke_messages),
            ("engine_stream_smoke", smoke_messages),
        ]

    runs: dict[str, dict] = {}
    for name, messages in plan:
        mode = name.replace("_smoke", "")
        print(f"[bench_macro_scale] {name}: {messages} messages ...", flush=True)
        run = run_subprocess(mode, messages, args.seed)
        print(
            f"    {run['messages']} msgs in {run['seconds']}s = "
            f"{run['messages_per_sec']:,.0f} msgs/sec, "
            f"peak RSS {run['peak_rss_mb']} MB",
            flush=True,
        )
        runs[name] = run

    failures = check_determinism(runs)
    for failure in failures:
        print(f"DETERMINISM FAILURE: {failure}", file=sys.stderr)

    document = {
        "scenario": {
            "n_isps": 8,
            "users_per_isp": 64,
            "duration_days": 2,
            "spammers": 3,
            "zombies": 2,
            "reconcile_every_days": 1,
            "seed": args.seed,
            "messages": args.messages,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed_baseline": None,
        "current": {name: run for name, run in runs.items()},
        "determinism_ok": not failures,
    }
    if args.output.exists():
        try:
            previous = json.loads(args.output.read_text())
            document["seed_baseline"] = previous.get("seed_baseline")
        except (json.JSONDecodeError, OSError):
            pass
    baseline = document["seed_baseline"]
    if baseline:
        speedups = {}
        for name, seed_run in baseline.get("runs", {}).items():
            current = runs.get(name)
            # Throughput is scale-dependent; a speedup is only
            # meaningful against the baseline at (roughly) the same
            # scale. Exact counts differ slightly across workload-
            # generator versions, so match within 10%.
            seed_messages = seed_run.get("messages") or 0
            same_scale = (
                current
                and seed_messages
                and abs(current["messages"] - seed_messages)
                <= 0.1 * seed_messages
            )
            if same_scale and seed_run.get("messages_per_sec"):
                speedups[name] = round(
                    current["messages_per_sec"]
                    / seed_run["messages_per_sec"],
                    2,
                )
        document["speedup_vs_seed"] = speedups
        if speedups:
            print(f"[bench_macro_scale] speedup vs seed: {speedups}")

    columnar = runs.get("columnar")
    engine = runs.get("engine_stream")
    if columnar and engine and engine.get("messages_per_sec"):
        ratio = round(
            columnar["messages_per_sec"] / engine["messages_per_sec"], 2
        )
        document["columnar_speedup_vs_engine_stream"] = ratio
        print(
            f"[bench_macro_scale] columnar is {ratio}x engine_stream "
            f"at {columnar['messages']} messages"
        )

    if not args.no_write:
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"[bench_macro_scale] wrote {args.output}")
        # Only runs refreshing the committed reference feed results.jsonl
        # — CI's smoke-scale runs (/tmp output) would otherwise shadow
        # the full-scale record (the renderer keeps the newest).
        if args.output.resolve() == (ROOT / "BENCH_scale.json").resolve():
            append_results_jsonl(runs)
            print(f"[bench_macro_scale] appended {HERE / 'results.jsonl'}")

    if failures:
        raise SystemExit(1)


def million_users_row(args) -> None:
    """Run the million-user row and merge it into ``args.output``."""
    print(
        f"[bench_macro_scale] million_users: 16 x {MILLION_USERS_PER_ISP} "
        "users on columnar ...",
        flush=True,
    )
    run = run_subprocess("million_users", 0, args.seed)
    print(
        f"    {run['users']:,} users, {run['messages']:,} msgs: set-up "
        f"{run['setup_seconds']}s, execution {run['execution_seconds']}s "
        f"({run['messages_per_sec']:,.0f} msgs/sec), peak RSS "
        f"{run['peak_rss_mb']} MB",
        flush=True,
    )
    summary = run["summary"]
    if not (summary["conserved"] and summary["all_consistent"]):
        raise SystemExit(f"million-user run failed its checks: {summary}")
    if args.no_write:
        return
    document = json.loads(args.output.read_text()) if args.output.exists() else {}
    document["million_users"] = {
        **run,
        "seed": args.seed,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "usable_cores": len(os.sched_getaffinity(0)),
        },
    }
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[bench_macro_scale] wrote million_users to {args.output}")


if __name__ == "__main__":
    main()
