"""Command-line interface: ``python -m repro <command>``.

Commands map onto the library's headline capabilities so a user can see
the system work without writing code:

* ``quickstart``  — tiny two-ISP deployment, zero-sum accounting.
* ``breakeven``   — the §1.2 spammer break-even table.
* ``compare``     — the §2 baseline comparison table.
* ``adoption``    — the §5 incremental-deployment S-curve.
* ``spec-check``  — model-check the §4 formal spec (optionally cheating).
* ``zombie``      — the §5 zombie-containment scenario.
* ``scenario``    — kitchen-sink mixed simulation via the Scenario API.
* ``audit``       — the solvency audit catching an e-penny-minting ISP.
* ``cluster``     — sharded multi-process run in deterministic epoch
  lockstep or bounded-lag asynchrony; the merged manifest is
  bit-identical across shard counts and drive modes.
* ``chaos``       — fault-injection campaign with invariant monitors.
* ``overload``    — burst/flood campaign against the overload-protection
  layer (admission control, bounded queues, circuit breakers).
* ``trace``       — canonical traced run: schema-valid JSONL event trace
  plus the run manifest (byte-identical across same-seed runs).
* ``metrics``     — canonical run's unified metrics export (one
  namespaced registry over protocol, overload and gateway counters).
* ``serve``       — long-running SMTP service over the durable SQLite
  store: one listener per compliant ISP, periodic barrier commits,
  restart-safe pending queues.
* ``selftest``    — operator health check of a durable store: checksum
  sweep, anti-symmetry/conservation invariants, one live SMTP round
  trip.
* ``soak``        — the recovery-equivalence soak: a crash/restart-laden
  scenario over the durable store whose manifest must be byte-identical
  to the in-memory oracle run (``--oracle``).
* ``run``         — compile a declarative scenario document (JSON/YAML)
  and execute it unchanged on any drive: direct loop, columnar batch,
  event engine, sharded cluster or fault-injecting chaos.
* ``fuzz``        — seeded differential fuzzing campaign: N generated
  worlds through every executor, byte-comparing invariant manifests;
  failures shrink to minimal worlds replayable with ``--replay``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    from .core.scenario import EXECUTORS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zmail (ICDCS 2005) reproduction — runnable scenarios",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the hottest "
        "functions afterwards (e.g. `repro --profile scenario`)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="with --profile: number of rows to print (default 25)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quickstart = sub.add_parser("quickstart", help="two-ISP zero-sum demo")
    quickstart.add_argument("--messages", type=int, default=5)
    quickstart.add_argument("--seed", type=int, default=1)

    breakeven = sub.add_parser("breakeven", help="§1.2 spammer break-even table")
    breakeven.add_argument(
        "--seed", type=int, default=0,
        help="accepted for interface uniformity; the table is closed-form",
    )
    compare = sub.add_parser("compare", help="§2 baseline comparison table")
    compare.add_argument("--seed", type=int, default=0)

    adoption = sub.add_parser("adoption", help="§5 adoption S-curve")
    adoption.add_argument("--isps", type=int, default=100)
    adoption.add_argument("--propensity", type=float, default=0.15)
    adoption.add_argument("--seed", type=int, default=3)

    spec = sub.add_parser("spec-check", help="model-check the §4 formal spec")
    spec.add_argument("--steps", type=int, default=3000)
    spec.add_argument("--isps", type=int, default=3)
    spec.add_argument("--users", type=int, default=3)
    spec.add_argument("--seed", type=int, default=7)
    spec.add_argument(
        "--cheat", action="store_true",
        help="inject a credit-inflating cheater at isp[1]",
    )

    zombie = sub.add_parser("zombie", help="§5 zombie containment scenario")
    zombie.add_argument("--limit", type=int, default=40)
    zombie.add_argument("--seed", type=int, default=2)

    scenario = sub.add_parser(
        "scenario", help="kitchen-sink mixed simulation (Scenario API)"
    )
    scenario.add_argument("--days", type=int, default=3)
    scenario.add_argument("--seed", type=int, default=42)

    audit = sub.add_parser(
        "audit", help="solvency audit demo: catch an e-penny-minting ISP"
    )
    audit.add_argument("--mint", type=int, default=5000)
    audit.add_argument("--seed", type=int, default=18)

    cluster = sub.add_parser(
        "cluster",
        help="sharded multi-process run: ISPs partitioned across worker "
        "processes in deterministic epoch lockstep or bounded-lag "
        "asynchrony (--lag K); results are bit-identical across shard "
        "counts and drive modes",
    )
    cluster.add_argument(
        "--shards", type=int, default=4,
        help="worker count (default 4); results do not depend on it",
    )
    cluster.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed; the merged manifest is bit-reproducible "
        "from it (default 0)",
    )
    cluster.add_argument("--isps", type=int, default=8)
    cluster.add_argument("--users", type=int, default=32)
    cluster.add_argument("--days", type=int, default=2)
    cluster.add_argument(
        "--epoch-hours", type=float, default=1.0,
        help="barrier spacing in virtual hours; must divide the day "
        "(default 1.0)",
    )
    cluster.add_argument(
        "--mode", choices=("spawn", "inline"), default="spawn",
        help="spawn real worker processes (default) or drive the same "
        "workers in-process",
    )
    cluster.add_argument(
        "--lag", type=int, default=0, metavar="K",
        help="bounded-lag asynchronous drive: shards may run up to K "
        "epochs apart, with streaming reconciliation (default 0 = "
        "epoch-barriered lockstep); results do not depend on it",
    )
    cluster.add_argument(
        "--journal-dir", metavar="PATH", default=None,
        help="journal worker barrier state here (enables crash recovery)",
    )
    cluster.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the merged run manifest here (byte-identical across "
        "same-seed runs and shard counts)",
    )
    cluster.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the per-run cluster report (assignment, restarts, "
        "per-shard digests) here",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection campaign (drop/dup/reorder/crash) "
        "with always-on invariant monitors",
    )
    chaos.add_argument(
        "--seed", type=int, default=None,
        help="campaign seed (default: the spec's seed); the whole run is "
        "bit-reproducible from it",
    )
    chaos.add_argument(
        "--spec", metavar="PATH", default=None,
        help="campaign spec file (JSON, or YAML if available); "
        "default: the built-in campaign",
    )
    chaos.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full report as JSON instead of the table",
    )
    chaos.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to this file",
    )

    overload = sub.add_parser(
        "overload",
        help="run a burst/flood overload campaign against the "
        "admission-control layer (bounded queues, shed/bounce, breakers)",
    )
    overload.add_argument(
        "--seed", type=int, default=None,
        help="campaign seed (default: the spec's seed); the whole run is "
        "bit-reproducible from it",
    )
    overload.add_argument(
        "--spec", metavar="PATH", default=None,
        help="campaign spec file (JSON, or YAML if available); "
        "default: the built-in overload campaign",
    )
    overload.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full report as JSON instead of the table",
    )
    overload.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to this file",
    )

    trace = sub.add_parser(
        "trace",
        help="run the canonical 3-ISP traced scenario and dump the JSONL "
        "event trace plus the run manifest",
    )
    trace.add_argument(
        "--seed", type=int, default=7,
        help="scenario seed; the trace and manifest are bit-reproducible "
        "from it (default 7)",
    )
    trace.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the JSONL trace to this file",
    )
    trace.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the run manifest here "
        "(default: <out>.manifest.json when --out is given)",
    )
    trace.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="print the last N trace lines to stdout",
    )
    trace.add_argument(
        "--mode", choices=EXECUTORS, default="direct",
        help="executor driving the canonical scenario (default direct)",
    )
    trace.add_argument(
        "--invariant-manifest", metavar="PATH", default=None,
        help="also write the executor-invariant manifest here; the file "
        "is byte-identical across --mode values for the same seed",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run the canonical scenario and dump the unified metrics "
        "export (sorted, namespaced, digestable)",
    )
    metrics.add_argument(
        "--seed", type=int, default=7,
        help="scenario seed (default 7)",
    )
    metrics.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the metrics JSON to this file",
    )

    serve = sub.add_parser(
        "serve",
        help="run the durable SMTP service: one listener per compliant "
        "ISP over the SQLite write-ahead store, with periodic barrier "
        "commits and restart-safe pending queues",
    )
    serve.add_argument(
        "--store", metavar="PATH", required=True,
        help="durable store file; created (with --isps/--users/--seed) "
        "if it does not exist yet",
    )
    serve.add_argument("--isps", type=int, default=3,
                       help="ISP count when creating a new store")
    serve.add_argument("--users", type=int, default=16,
                       help="users per ISP when creating a new store")
    serve.add_argument("--seed", type=int, default=7,
                       help="network seed when creating a new store")
    serve.add_argument(
        "--overload", action="store_true",
        help="enable outbound admission control (token bucket + bounded "
        "deferred queue); pending retries survive restarts",
    )
    serve.add_argument(
        "--commit-interval", type=float, default=5.0, metavar="SECONDS",
        help="wall seconds between automatic barrier commits (default 5)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for this long then exit cleanly "
        "(default: until interrupted)",
    )

    selftest = sub.add_parser(
        "selftest",
        help="verify a durable store: checksum sweep, anti-symmetry and "
        "conservation invariants, one live SMTP round trip",
    )
    selftest.add_argument("--store", metavar="PATH", required=True,
                          help="durable store file to verify")

    soak = sub.add_parser(
        "soak",
        help="run the recovery-equivalence soak: crash/restart cycles "
        "and an overload flood over the durable store; with --oracle the "
        "same scenario runs purely in memory and must produce a "
        "byte-identical manifest",
    )
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument("--days", type=float, default=0.5,
                      help="virtual days of workload (default 0.5)")
    soak.add_argument("--isps", type=int, default=3)
    soak.add_argument("--users", type=int, default=6)
    soak.add_argument(
        "--crashes", type=int, default=2, metavar="N",
        help="injected crash/restart cycles, alternating isp1/bank "
        "(default 2)",
    )
    soak.add_argument(
        "--store", metavar="PATH", default=None,
        help="durable store file (default: a temporary file, removed "
        "afterwards); ignored with --oracle",
    )
    soak.add_argument(
        "--oracle", action="store_true",
        help="run the uninterrupted in-memory oracle instead of the "
        "durable run",
    )
    soak.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the run manifest here (byte-identical between the "
        "durable and oracle runs of the same seed)",
    )

    run = sub.add_parser(
        "run",
        help="compile a scenario document (JSON/YAML) and execute it on "
        "one drive; the invariant manifest is byte-identical across "
        "direct/columnar/engine/cluster for the same document",
    )
    run.add_argument(
        "scenario", metavar="PATH",
        help="scenario document (.json or .yaml, schema_version-pinned)",
    )
    run.add_argument(
        "--mode",
        choices=EXECUTORS + ("cluster", "chaos"),
        default="direct",
        help="drive to execute the compiled plan on (default direct)",
    )
    run.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="cluster mode: worker count (default: the document's "
        "cluster.shards); the manifest does not depend on it",
    )
    run.add_argument(
        "--lag", type=int, default=None, metavar="K",
        help="cluster mode: bounded-lag drive, shards up to K epochs "
        "apart (default: the document's cluster.lag)",
    )
    run.add_argument(
        "--cluster-mode", choices=("inline", "spawn"), default="inline",
        help="cluster mode: drive workers in-process (default) or as "
        "spawned processes",
    )
    run.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the cross-executor invariant manifest here "
        "(unavailable in chaos mode)",
    )
    run.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the drive's native report JSON here",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign: N seeded random worlds "
        "through every executor, byte-comparing invariant manifests; "
        "failing worlds shrink to minimal reproductions",
    )
    fuzz.add_argument(
        "--count", type=int, default=25, metavar="N",
        help="number of generated worlds (default 25)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; world i generates from "
        "derive_seed(seed, 'world:i') (default 0)",
    )
    fuzz.add_argument(
        "--shards", type=int, default=2,
        help="cluster shard count for the executor matrix (default 2; "
        "clamped to the world's ISP count)",
    )
    fuzz.add_argument(
        "--out", metavar="DIR", default=None,
        help="write failing-world artifacts (original + shrunk "
        "documents) into this directory",
    )
    fuzz.add_argument(
        "--replay", metavar="SEED:INDEX", default=None,
        help="re-run (and re-shrink) one world from a failure report "
        "instead of a fresh campaign",
    )
    fuzz.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full campaign report as JSON instead of text",
    )
    fuzz.add_argument(
        "--max-shrink-steps", type=int, default=200, metavar="N",
        help="oracle-call budget per shrink descent (default 200)",
    )

    arena = sub.add_parser(
        "arena",
        help="strategy tournament: adaptive attackers vs defender "
        "policies over seeded worlds; emits a byte-reproducible report "
        "with profit/goodput frontiers and the collapse-region phase "
        "diagram",
    )
    arena.add_argument(
        "--seed", type=int, default=0,
        help="tournament seed; worlds and every cell derive from it "
        "(default 0)",
    )
    arena.add_argument(
        "--worlds", type=int, default=25, metavar="N",
        help="number of generated worlds per matchup (default 25)",
    )
    arena.add_argument(
        "--periods", type=int, default=8, metavar="N",
        help="match length in periods/virtual days (default 8)",
    )
    arena.add_argument(
        "--attackers", metavar="A,B,...", default=None,
        help="comma-separated attacker strategies (default: all "
        "registered)",
    )
    arena.add_argument(
        "--defenders", metavar="A,B,...", default=None,
        help="comma-separated defender policies (default: all "
        "registered)",
    )
    arena.add_argument(
        "--verify", type=int, default=0, metavar="N",
        help="lower the first N cells and run them through the "
        "cross-executor differential oracle (default 0)",
    )
    arena.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the canonical report JSON here (byte-identical for "
        "the same seed and arguments)",
    )
    arena.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full report JSON instead of the text summary",
    )
    return parser


def cmd_quickstart(args: argparse.Namespace) -> int:
    from .core import ZmailNetwork
    from .sim import Address

    net = ZmailNetwork(n_isps=2, users_per_isp=5, seed=args.seed)
    alice, bob = Address(0, 1), Address(1, 2)
    for _ in range(args.messages):
        net.send(alice, bob)
    sender = net.isps[0].ledger.user(1)
    receiver = net.isps[1].ledger.user(2)
    print(f"{alice} sent {sender.lifetime_sent} messages, "
          f"balance {sender.balance}")
    print(f"{bob} received {receiver.lifetime_received}, "
          f"balance {receiver.balance}")
    print(f"reconciliation consistent: {net.reconcile('direct').consistent}")
    print(f"conserved: {net.total_value() == net.expected_total_value()}")
    return 0


def cmd_breakeven(args: argparse.Namespace) -> int:
    from .economics import break_even_table, cost_increase_factor

    print(f"per-message cost factor under Zmail: {cost_increase_factor():.0f}x")
    print(f"{'campaign':<16} {'sq volume':>12} {'zmail volume':>13} survives")
    for row in break_even_table():
        print(f"{row.campaign:<16} {row.statusquo_volume:>12,} "
              f"{row.zmail_volume:>13,} {'yes' if row.survives else 'no':>8}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .baselines import ComparisonScenario, run_comparison

    results = run_comparison(
        ComparisonScenario(n_train=800, n_test=800, seed=args.seed)
    )
    print(f"{'approach':<22} {'blocked':>8} {'ham lost':>9} "
          f"{'$/msg':>8} {'needs defn':>10}")
    for result in results:
        print(f"{result.approach:<22} "
              f"{result.spam_blocked_fraction:>7.0%} "
              f"{result.ham_lost_fraction:>8.1%} "
              f"{result.sender_dollar_cost_per_msg:>8.4f} "
              f"{'yes' if result.needs_spam_definition else 'no':>10}")
    return 0


def cmd_adoption(args: argparse.Namespace) -> int:
    from .core import AdoptionParams, AdoptionSimulation

    sim = AdoptionSimulation(
        AdoptionParams(
            n_isps=args.isps,
            base_switch_propensity=args.propensity,
            seed=args.seed,
        )
    )
    sim.run(max_rounds=100)
    for record in sim.rounds[:: max(1, len(sim.rounds) // 15)]:
        bar = "#" * int(40 * record.compliant_fraction)
        print(f"round {record.round_index:>3}: {bar:<40} "
              f"{record.compliant_fraction:.0%}")
    print(f"positive feedback: {sim.has_positive_feedback()}")
    return 0


def cmd_spec_check(args: argparse.Namespace) -> int:
    from .apn import CheatMode, ZmailSpecConfig, build_zmail_protocol

    cheaters = {1: CheatMode.INFLATE_SENT} if args.cheat else {}
    config = ZmailSpecConfig(
        n=args.isps, m=args.users, seed=args.seed, key_bits=128,
        cheaters=cheaters,
    )
    protocol = build_zmail_protocol(config)
    steps = protocol.run(args.steps)
    print(f"steps executed:        {steps}")
    print(f"reconciliation rounds: {protocol.completed_rounds()}")
    print(f"flagged pairs:         {len(protocol.flagged_pairs())}")
    if args.cheat:
        flagged = {isp for pair in protocol.flagged_pairs() for isp in pair}
        caught = 1 in flagged
        print(f"cheater isp[1] caught: {caught}")
        return 0 if caught else 1
    return 0 if not protocol.flagged_pairs() else 1


def cmd_zombie(args: argparse.Namespace) -> int:
    from .core import ZmailConfig, ZmailNetwork
    from .core.zombie import ZombieMonitor
    from .sim import Address

    config = ZmailConfig(
        default_daily_limit=args.limit,
        default_user_balance=1000,
        auto_topup_amount=0,
    )
    net = ZmailNetwork(n_isps=2, users_per_isp=5, config=config,
                       seed=args.seed)
    zombie = Address(0, 1)
    for i in range(10 * args.limit):
        net.send(zombie, Address(1, i % 5))
    monitor = ZombieMonitor(net)
    monitor.poll()
    user = net.isps[0].ledger.user(1)
    print(f"daily limit:     {args.limit}")
    print(f"zombie detected: {monitor.detected(zombie)}")
    print(f"liability:       {1000 - user.balance} e-pennies (bound: "
          f"{args.limit})")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from .core import NonCompliantMailPolicy, ZmailConfig
    from .core.scenario import Scenario, SpammerSpec, ZombieSpec
    from .sim import DAY, HOUR, Address

    result = Scenario(
        n_isps=4,
        users_per_isp=10,
        compliant=[True, True, True, False],
        config=ZmailConfig(
            default_daily_limit=80,
            noncompliant_policy=NonCompliantMailPolicy.SEGREGATE,
            auto_topup_amount=0,
        ),
        seed=args.seed,
        duration=args.days * DAY,
        spammers=[
            SpammerSpec(Address(0, 0), volume=500, war_chest=100),
            SpammerSpec(Address(3, 0), volume=500),
        ],
        zombies=[
            ZombieSpec(Address(1, 9), rate_per_hour=100.0,
                       start=DAY, end=DAY + 6 * HOUR)
        ],
        reconcile_every=DAY,
    ).run()
    for key, value in result.summary().items():
        print(f"{key:<24} {value}")
    return 0 if (result.conserved and result.all_reconciliations_consistent) else 1


def cmd_audit(args: argparse.Namespace) -> int:
    import random

    from .core import ZmailConfig, ZmailNetwork
    from .core.audit import EconomicAuditor
    from .sim import Address

    config = ZmailConfig(
        initial_pool=500, minavail=200, maxavail=900,
        default_user_balance=50, auto_topup_amount=10,
    )
    net = ZmailNetwork(n_isps=3, users_per_isp=8, config=config,
                       seed=args.seed)
    auditor = EconomicAuditor()
    endowment = config.initial_pool + 8 * config.default_user_balance
    for isp_id in net.compliant_isps():
        auditor.register_isp(isp_id, initial_endowment=endowment)
    net.isps[1].ledger.pool += args.mint
    print(f"isp1 secretly minted {args.mint} e-pennies...")

    rng = random.Random(args.seed)
    for day in range(1, 15):
        for _ in range(300):
            net.send(Address(rng.randrange(3), rng.randrange(8)),
                     Address(rng.randrange(3), rng.randrange(8)))
        isps = net.compliant_isps()
        for isp in isps.values():
            isp.begin_snapshot(net.bank.next_seq)
        reports = {}
        for isp_id, isp in sorted(isps.items()):
            reports[isp_id] = isp.snapshot_reply()
            isp.resume_sending()
        net.bank.reconcile(reports)
        auditor.ingest_credit_reports(reports)
        before = {i: net.bank.account_balance(i) for i in isps}
        net.advance_day_to(day)
        for isp_id in isps:
            delta = net.bank.account_balance(isp_id) - before[isp_id]
            if delta < 0:
                auditor.note_purchase(isp_id, -delta)
            elif delta > 0:
                auditor.note_sale(isp_id, delta)
    alerts = auditor.check()
    for alert in alerts:
        print(f"ALERT: isp{alert.isp_id} sold {alert.sold} e-pennies, "
              f"solvency ceiling {alert.ceiling} (excess {alert.excess})")
    if not alerts:
        print("all clear")
    caught = any(a.isp_id == 1 for a in alerts) if args.mint else not alerts
    return 0 if caught else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    import json

    from .cluster import ClusterConfig, cluster_scenario, run_cluster
    from .sim import HOUR

    scenario = cluster_scenario(
        args.seed,
        n_isps=args.isps,
        users_per_isp=args.users,
        days=args.days,
    )
    result = run_cluster(
        ClusterConfig(
            scenario=scenario,
            n_shards=args.shards,
            epoch_len=args.epoch_hours * HOUR,
            mode=args.mode,
            journal_dir=args.journal_dir,
            lag=args.lag,
        )
    )
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as handle:
            handle.write(result.manifest.to_json())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(result.report, sort_keys=True, indent=2) + "\n"
            )
    extra = result.manifest.extra
    drive = "lockstep" if args.lag == 0 else f"bounded-lag K={args.lag}"
    print(f"shards:          {args.shards} ({args.mode}, {drive})")
    print(f"cycles:          {result.report['cycles']} "
          f"x {args.epoch_hours}h epochs")
    print(f"sends attempted: {extra['sends_attempted']}")
    print(f"events:          {result.manifest.event_count}")
    print(f"rounds:          {extra['rounds']} "
          f"(consistent: {result.all_consistent})")
    print(f"zombies caught:  {extra['zombies_detected']}")
    print(f"conserved:       {result.conserved}")
    print(f"manifest digest: {result.manifest.digest()}")
    return 0 if (result.conserved and result.all_consistent) else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .chaos import DEFAULT_SPEC, format_report, load_spec, run_campaign

    spec = load_spec(args.spec) if args.spec else DEFAULT_SPEC
    report = run_campaign(spec, seed=args.seed)
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.as_json:
        print(payload)
    else:
        print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return 0 if report["passed"] else 1


def cmd_overload(args: argparse.Namespace) -> int:
    import json

    from .chaos import (
        DEFAULT_OVERLOAD_SPEC,
        OVERLOAD_COLUMNS,
        format_report,
        load_spec,
        run_campaign,
    )

    spec = load_spec(args.spec) if args.spec else DEFAULT_OVERLOAD_SPEC
    report = run_campaign(spec, seed=args.seed)
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.as_json:
        print(payload)
    else:
        print(format_report(report, columns=OVERLOAD_COLUMNS))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return 0 if report["passed"] else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs.canonical import invariant_manifest, run_canonical
    from .obs.schema import validate_trace_lines
    from .obs.trace import ListSink

    sink = ListSink()
    result, recorder, exporter, manifest = run_canonical(
        seed=args.seed, sink=sink, mode=args.mode
    )
    lines = sink.lines()
    validate_trace_lines(lines)
    manifest_path = args.manifest
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        if manifest_path is None:
            manifest_path = f"{args.out}.manifest.json"
    if manifest_path:
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(manifest.to_json())
    if args.invariant_manifest:
        invariant = invariant_manifest(seed=args.seed, mode=args.mode)
        with open(args.invariant_manifest, "w", encoding="utf-8") as handle:
            handle.write(invariant.to_json())
    if args.tail > 0:
        for line in lines[-args.tail:]:
            print(line)
    print(f"events:          {recorder.events_emitted}")
    print(f"event digest:    {recorder.digest()}")
    print(f"metrics digest:  {exporter.digest()}")
    print(f"manifest digest: {manifest.digest()}")
    print(f"conserved:       {result.conserved}")
    return 0 if result.conserved else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    from .obs.canonical import run_canonical

    result, _recorder, exporter, _manifest = run_canonical(seed=args.seed)
    payload = exporter.to_json()
    print(payload)
    print(f"metrics digest:  {exporter.digest()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return 0 if result.conserved else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .core import ZmailNetwork
    from .core.overload import OverloadConfig
    from .store import DurableStore, init_store
    from .store.service import ZmailService

    if os.path.exists(args.store):
        store = DurableStore.open(args.store)
        print(f"opened store {args.store} at barrier {store.barrier} "
              f"({store.count()} records)")
    else:
        store = DurableStore.create(args.store)
        init_store(
            store,
            ZmailNetwork(
                n_isps=args.isps, users_per_isp=args.users, seed=args.seed
            ),
        )
        print(f"created store {args.store} "
              f"({args.isps} ISPs x {args.users} users, seed {args.seed})")
    overload = OverloadConfig() if args.overload else None

    async def _serve() -> None:
        service = ZmailService(
            store, overload=overload, commit_interval=args.commit_interval
        )
        addresses = await service.start()
        for isp_id, (host, port) in sorted(addresses.items()):
            print(f"isp{isp_id}.example listening on {host}:{port}")
        print("serving (Ctrl-C to stop)...")
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await service.stop()
            stats = service.stats()
            print(f"stopped at barrier {stats['barrier']}: "
                  f"{stats['messages_handled']} messages handled, "
                  f"{stats['pending_sends']} pending, "
                  f"conserved={stats['conserved']}")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        store.close()
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .store.service import run_selftest

    report = run_selftest(args.store)
    for key in ("records", "barrier", "isps", "anti_symmetric",
                "conserved", "roundtrip"):
        print(f"{key:<16} {report[key]}")
    print(f"{'passed':<16} {report['passed']}")
    return 0 if report["passed"] else 1


def cmd_soak(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from .store.soak import SoakSpec, run_soak

    nodes = tuple(
        ("isp1", "bank")[i % 2] for i in range(args.crashes)
    )
    spec = SoakSpec(
        seed=args.seed,
        n_isps=args.isps,
        users_per_isp=args.users,
        days=args.days,
        crash_nodes=nodes,
    )
    if args.oracle:
        report = run_soak(spec, manifest_path=args.manifest)
    elif args.store is not None:
        report = run_soak(
            spec, store_path=args.store, manifest_path=args.manifest
        )
    else:
        with tempfile.TemporaryDirectory() as tmpdir:
            report = run_soak(
                spec,
                store_path=os.path.join(tmpdir, "soak.db"),
                manifest_path=args.manifest,
            )
    print(f"mode:            {report['mode']}")
    print(f"cuts:            {report['cuts']}")
    print(f"crashes:         {report['stats']['crashes']} "
          f"(restarts {report['stats']['restarts']})")
    print(f"converged:       {report['converged']}")
    print(f"conserved:       {report['conserved']}")
    print(f"final digest:    {report['final_digest']}")
    print(f"event digest:    {report['manifest']['event_digest']}")
    print(f"passed:          {report['passed']}")
    return 0 if report["passed"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    import json

    from .scenario import compile_scenario, run_plan

    plan = compile_scenario(args.scenario)
    result = run_plan(
        plan,
        args.mode,
        shards=args.shards,
        lag=args.lag,
        cluster_mode=args.cluster_mode,
    )
    manifest = result["manifest"]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(result["report"], sort_keys=True, indent=2) + "\n"
            )
    print(f"scenario:        {plan.name}")
    print(f"scenario digest: {plan.digest}")
    print(f"mode:            {result['mode']}")
    if manifest is None:
        row = result["report"]
        print(f"chaos cell:      {row['cell']} (seed {row['seed']})")
        print(f"converged:       {row['converged']}")
        print(f"conserved:       {row['conserved']}")
        print(f"passed:          {row['passed']}")
        if args.manifest:
            print("note: chaos mode reports a campaign row; no invariant "
                  "manifest was written")
        return 0 if row["passed"] else 1
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as handle:
            handle.write(manifest.to_json())
    extra = manifest.extra
    print(f"sends attempted: {extra['sends_attempted']}")
    print(f"events:          {manifest.event_count}")
    print(f"zombies caught:  {extra['zombies_detected']}")
    print(f"conserved:       {extra['conserved']}")
    print(f"manifest digest: {manifest.digest()}")
    return 0 if extra["conserved"] else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .scenario import format_report, replay_world, run_fuzz

    if args.replay:
        report = replay_world(
            args.replay,
            shards=args.shards,
            out=args.out,
            max_shrink_steps=args.max_shrink_steps,
        )
    else:
        report = run_fuzz(
            count=args.count,
            seed=args.seed,
            shards=args.shards,
            out=args.out,
            max_shrink_steps=args.max_shrink_steps,
        )
    if args.as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(format_report(report))
    return 0 if report["passed"] else 1


def cmd_arena(args: argparse.Namespace) -> int:
    import json

    from .arena import report_digest, report_json, run_tournament

    report = run_tournament(
        seed=args.seed,
        attackers=args.attackers.split(",") if args.attackers else None,
        defenders=args.defenders.split(",") if args.defenders else None,
        worlds=args.worlds,
        periods=args.periods,
        verify=args.verify,
    )
    text = report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.as_json:
        print(text, end="")
        return 0 if report["passed"] else 1
    print(f"arena:          {len(report['attackers'])} attackers x "
          f"{len(report['defenders'])} defenders x "
          f"{report['world_count']} worlds ({report['periods']} periods)")
    print(f"seed:           {report['seed']}")
    print(f"report digest:  {report_digest(report)}")
    print(f"cells:          {len(report['cells'])} "
          f"(verified: {report['verify']['cells']}, "
          f"verify failures: {len(report['verify']['failures'])})")
    print(f"{'defender':<18} {'profitable':>10} {'collapsed':>9} "
          f"{'boundary ev $/msg':>18}")
    for defender in report["defenders"]:
        phase = report["phase"][defender]
        boundary = phase["collapse_boundary_ev"]
        shown = "-" if boundary is None else format(boundary, ".6f")
        print(f"{defender:<18} "
              f"{phase['profitable_worlds']:>7}/{phase['worlds']:<3}"
              f"{phase['collapsed_worlds']:>9} "
              f"{shown:>18}")
    print(f"passed:         {report['passed']}")
    return 0 if report["passed"] else 1


_COMMANDS = {
    "quickstart": cmd_quickstart,
    "breakeven": cmd_breakeven,
    "compare": cmd_compare,
    "adoption": cmd_adoption,
    "spec-check": cmd_spec_check,
    "zombie": cmd_zombie,
    "scenario": cmd_scenario,
    "audit": cmd_audit,
    "cluster": cmd_cluster,
    "chaos": cmd_chaos,
    "overload": cmd_overload,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "serve": cmd_serve,
    "selftest": cmd_selftest,
    "soak": cmd_soak,
    "run": cmd_run,
    "fuzz": cmd_fuzz,
    "arena": cmd_arena,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        code = profiler.runcall(command, args)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        return code
    return command(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
