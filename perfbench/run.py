"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload canonical-sweep --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` repeats the workload's unit of work (a sweep, a world, a
cluster run or a service window) for ``--seconds``, at least
``MIN_UNITS`` times, with no spans installed, and reports the
end-to-end metrics as medians over the units. ``--trace 1`` does the
same untraced pass and then one traced unit, and reports the per-layer
metrics: self time per layer in every process, the unattributed
remainder, the tracing overhead and the exact counts.

Every run also checks its outputs (conservation and reconciliation on
every unit, the reference checks of :mod:`checks`, and for the service
``repro selftest`` plus handled == accepted). It times a fixed
calibration loop before and after and records it, with the share of
the run during which tasks stalled on cpu and io, beside the run; none
of these scales a metric. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A run whose checks fail exits with status 1.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
MIN_UNITS = 3

#: Metric names and units, from the benchmark's declaration.
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Counts that repeat exactly for one seed on the batch workloads, so a
#: later change can cite them as counts. The service's outcome counts
#: depend on how its two sessions interleave and are not among them.
EXACT_COUNTS = (
    "outcome.sends",
    "outcome.delivered",
    "outcome.blocked_balance",
    "outcome.blocked_limit",
    "columnar.spills",
    "cluster.letters_exported",
    "cluster.ipc_bytes",
    "cluster.journal_writes",
    "cluster.journal_bytes",
)

def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != src / "repro":
        raise ImportError(f"repro imported from {where}, not from {src}")


def workloads() -> dict:
    """Workload name -> constructor taking ``(seed, workdir)``."""
    from cluster_load import Cluster
    from columnar_load import canonical_sweep, wide
    from smtp_load import Smtp

    return {
        "canonical-sweep": canonical_sweep,
        "wide-4k-users": wide,
        "cluster-journaled": Cluster,
        "smtp-durable": Smtp,
    }


def calibrate(repeats: int = 5, n: int = 300_000) -> list[float]:
    """Seconds per pass of a fixed pure-Python loop: host speed now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(n):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def stall_us() -> dict[str, int]:
    """Microseconds some task has stalled on cpu and on io since boot.

    Linux pressure-stall totals; empty where the kernel has none.
    """
    totals = {}
    for kind in ("cpu", "io"):
        try:
            with open(f"/proc/pressure/{kind}", encoding="ascii") as handle:
                totals[kind] = int(handle.readline().rsplit("total=", 1)[1])
        except OSError:
            pass
    return totals


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Spawning the first shard worker also starts this helper process,
    and Python lets it end only after this process has exited; stopped
    here, it ends before the run does.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def peak_rss_mb(units: list[dict]) -> float:
    """Peak memory of the run: this process plus each unit's children.

    Children (shard workers, the service) report their own peaks, summed
    per unit and averaged over the units. The sum, not the largest
    process, because which shard worker is largest depends on the
    unit's shard plan while their sum does not.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = [u["children_kb"] for u in units if "children_kb" in u]
    if children:
        own += statistics.fmean(children)
    return own / 1024.0


def measure(workload, seconds: float) -> list[dict]:
    """Untraced units until another would end past ``seconds``."""
    units: list[dict] = []
    start = time.monotonic()
    while True:
        units.append(workload.unit())
        elapsed = time.monotonic() - start
        if len(units) >= MIN_UNITS and (
            elapsed * (len(units) + 1) / len(units) > seconds
        ):
            return units


def end_to_end(units: list[dict]) -> dict[str, float]:
    """The end-to-end metrics: medians over the units, peak over all."""
    return {
        "msgs_per_s": statistics.median(u["rate"] for u in units),
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "peak_rss_mb": peak_rss_mb(units),
    }


def traced_unit(workload):
    import tracing

    log = tracing.SpanLog()
    log.begin(tracing.ROOT)
    try:
        unit = workload.unit(log)
    finally:
        log.finish(0)
    unit["processes"] = {
        "benchmark": log.summary(), **unit.get("processes", {})
    }
    return unit


def accounting(procs: dict[str, dict]) -> dict[str, dict]:
    """Per process: wall, each layer's self time and share, remainder."""
    import tracing

    table = {}
    for name, summary in procs.items():
        layers = summary["layers"]
        wall = layers[tracing.ROOT]["total_s"]
        selfs = {k: v["self_s"] for k, v in layers.items() if k != tracing.ROOT}
        unattributed = layers[tracing.ROOT]["self_s"]
        table[name] = {
            "wall_s": wall,
            "self_s": selfs,
            "share": {k: v / wall for k, v in selfs.items()},
            "unattributed_s": unattributed,
            "unattributed_share": unattributed / wall,
            "closure_error_s": wall - unattributed - sum(selfs.values()),
        }
    return table


def per_layer(names, workload, unit: dict, untraced: list[dict]) -> dict:
    """Every per-layer metric, 0 where the workload skips the layer."""
    import tracing

    procs = unit["processes"]
    metrics = dict.fromkeys(names, 0.0)
    for proc in procs.values():
        for span, layer in proc["layers"].items():
            # A metric "<span>_s" is that span's self time, summed over
            # every process of the unit.
            if f"{span}_s" in metrics:
                metrics[f"{span}_s"] += layer["self_s"]
        for name, value in proc["counts"].items():
            metrics[name] += value
    for name, value in unit.get("outcomes", {}).items():
        metrics[f"outcome.{name}"] = value
    own = procs["benchmark"]["layers"][tracing.ROOT]
    metrics["bench.traced_wall_s"] = own["total_s"]
    metrics["bench.unattributed_s"] = own["self_s"]
    # Against the untraced units that ran the traced unit's world.
    rate = statistics.median(
        u["rate"] for u in untraced if u.get("world") == unit.get("world")
    )
    metrics["bench.trace_overhead_pct"] = (rate / unit["rate"] - 1) * 100
    metrics.update(workload.layer_metrics(unit, untraced))
    return metrics


def run_checks(seed: int) -> dict[str, bool]:
    """The once-per-run reference checks (untimed)."""
    import checks

    return {
        "columnar_matches_direct": checks.columnar_matches_direct(seed),
        "cluster_matches_inline": checks.cluster_matches_inline(seed),
    }


def outcomes_repeat(units: list[dict]) -> bool:
    """Units that ran the same world counted the same outcomes."""
    first: dict = {}
    for unit in units:
        if "outcomes" in unit:
            seen = first.setdefault(unit["world"], unit["outcomes"])
            if seen != unit["outcomes"]:
                return False
    return True


def unit_failures(unit: dict) -> int:
    """Failed operations of one unit (see README.md)."""
    if not unit["correct"]:
        return unit["messages"]
    return unit.get("failed", 0)


def summarize_unit(unit: dict) -> dict:
    return {
        k: v for k, v in unit.items()
        if k not in ("accept_s", "late_s", "processes")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    units_of = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    import_program()
    known = workloads()
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(known)}")
    workdir = OUT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    workdir.mkdir(parents=True)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "calibration_before_s": calibrate(),
    }
    stalls, started = stall_us(), time.monotonic()
    workload = known[args.workload](args.seed, workdir)
    units = measure(workload, args.seconds)
    metrics = end_to_end(units)
    record["units"] = [summarize_unit(u) for u in units]
    record["extra"] = workload.extra(units)

    all_units = list(units)
    if args.trace:
        unit = traced_unit(workload)
        all_units.append(unit)
        record["traced_unit"] = summarize_unit(unit)
        record["processes"] = accounting(unit["processes"])
        metrics = per_layer(units_of, workload, unit, units)
        record["exact_counts"] = {k: metrics[k] for k in EXACT_COUNTS}

    checks = run_checks(args.seed)
    checks["outcomes_repeat"] = outcomes_repeat(all_units)
    record["checks"] = checks
    record["calibration_after_s"] = calibrate()
    wall_us = (time.monotonic() - started) * 1e6
    record["stall_share"] = {
        kind: (total - stalls[kind]) / wall_us
        for kind, total in stall_us().items()
    }

    attempted = sum(u["messages"] for u in all_units)
    failed = sum(unit_failures(u) for u in all_units)
    correct = all(checks.values()) and all(u["correct"] for u in all_units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units_of[name]}
            for name in units_of
        },
    }
    record["result"] = result
    for path in workdir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    with open(workdir / "record.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print_report(record)
    print(json.dumps(result))
    return 0 if correct else 1


def print_report(record: dict) -> None:
    """A human-readable summary ahead of the JSON line."""
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']} on {record['host']['usable_cores']} "
          f"usable cores")
    for key in ("calibration_before_s", "calibration_after_s"):
        values = record[key]
        print(f"{key:<22} median {statistics.median(values):.4f} s "
              f"min {min(values):.4f} max {max(values):.4f}")
    for kind, share in record["stall_share"].items():
        print(f"{kind} stall share during the run {100 * share:.1f} %")
    for index, unit in enumerate(record["units"], 1):
        print(f"unit {index}: {unit['messages']} msgs, set-up "
              f"{unit['setup_s']:.4f} s, exec {unit['exec_s']:.4f} s, "
              f"{unit['rate']:.1f} msgs/s, correct {unit['correct']}")
    for name, value in record["extra"].items():
        print(f"{name:<28} {value:.6g}")
    for name, proc in record.get("processes", {}).items():
        print(f"process {name}: wall {proc['wall_s']:.4f} s")
        for layer, seconds in sorted(
            proc["self_s"].items(), key=lambda kv: -kv[1]
        ):
            print(f"  {layer:<24} {seconds:10.4f} s "
                  f"{100 * proc['share'][layer]:6.2f} %")
        print(f"  {'(unattributed)':<24} {proc['unattributed_s']:10.4f} s "
              f"{100 * proc['unattributed_share']:6.2f} %")
    for name, ok in record["checks"].items():
        print(f"check {name:<26} {'pass' if ok else 'FAIL'}")
    for name, metric in record["result"]["metrics"].items():
        exact = " (exact)" if name in record.get("exact_counts", {}) else ""
        print(f"{name:<28} {metric['value']:.6g} {metric['unit']}{exact}")


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_resource_tracker()
    sys.exit(status)
