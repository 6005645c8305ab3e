"""The cluster-journaled workload: the canonical world on ``run_cluster``.

Two spawned shard workers run the world in lockstep with hourly epochs
(48 barriers) and a journal directory, so every barrier also writes one
journal per shard. The run is untraced in the program's own sense
(``ClusterConfig.traced=False``): it measures throughput.

The benchmark replaces the worker entry point the runtime starts in
each process with :class:`WorkerEntry`, a picklable wrapper around
:func:`repro.cluster.worker.worker_entry`. Just before the worker sends
its final message it writes a small report: when it started, when it
first waited for inputs (its set-up was done), its peak memory and its
final counters. Traced, it also installs span wrappers inside the
worker and adds the worker's spans to that report.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import tracing
import worlds


class TimedConn:
    """A pipe end whose waits and transfers are spans.

    ``recv``/``send`` do what ``multiprocessing.connection.Connection``
    does — pickle with ``ForkingPickler`` and move bytes — split so the
    bytes can be counted.
    """

    def __init__(self, conn, log: tracing.SpanLog, wait: str) -> None:
        self._conn = conn
        self._log = log
        self._wait = wait

    def poll(self, timeout=0.0):
        with self._log.span(self._wait):
            return self._conn.poll(timeout)

    def recv(self):
        with self._log.span("cluster.ipc"):
            buf = self._conn.recv_bytes()
            self._log.counts["cluster.ipc_bytes"] += len(buf)
            return ForkingPickler.loads(buf)

    def send(self, obj) -> None:
        with self._log.span("cluster.ipc"):
            buf = ForkingPickler.dumps(obj)
            self._log.counts["cluster.ipc_bytes"] += len(buf)
            self._conn.send_bytes(buf)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class WorkerEntry:
    """The shard worker's entry point, as the benchmark starts it."""

    def __init__(self, report_dir: str, traced: bool) -> None:
        self.report_dir = report_dir
        self.traced = traced

    def __call__(self, conn, spec) -> None:
        from repro.cluster.worker import worker_entry

        record = {"shard": spec.shard_id, "entered": time.monotonic()}
        log = patches = None
        if self.traced:
            log, patches = tracing.SpanLog(), tracing.Patches()
            _install_worker(log, patches)
            log.begin(tracing.ROOT)
        path = os.path.join(self.report_dir, f"shard{spec.shard_id}.json")
        try:
            worker_entry(_WorkerConn(conn, log, path, record), spec)
        finally:
            if patches is not None:
                patches.undo()


class _WorkerConn:
    """The worker's pipe end: notes readiness, reports before ``final``."""

    def __init__(self, conn, log, path: str, record: dict) -> None:
        self._conn = conn if log is None else TimedConn(
            conn, log, "cluster.worker_idle"
        )
        self._log = log
        self._path = path
        self._record = record

    def recv(self):
        self._record.setdefault("ready", time.monotonic())
        if self._log is not None:
            self._conn.poll(None)
        return self._conn.recv()

    def send(self, obj) -> None:
        if obj.get("type") == "final":
            # The parent may terminate the process once it has the final
            # message, so the report is written first.
            self._report(obj["counters"])
        self._conn.send(obj)

    def _report(self, counters: dict) -> None:
        record = dict(
            self._record,
            counters=counters,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if self._log is not None:
            self._log.finish(0)
            record["spans"] = self._log.summary()
        with open(self._path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def _install_worker(log: tracing.SpanLog, patches: tracing.Patches) -> None:
    from repro.cluster.worker import ShardWorker

    tracing.install_core(log, patches)
    patches.wrap(
        ShardWorker, "__init__",
        lambda fn: tracing.spanned(log, "cluster.worker_build", fn),
    )
    patches.wrap(
        ShardWorker, "handle_inputs",
        lambda fn: tracing.spanned(log, "cluster.worker_busy", fn),
    )
    patches.wrap(
        ShardWorker, "_take_cut",
        lambda fn: tracing.spanned(log, "core.reconcile", fn),
    )

    def journal(fn):
        timed = tracing.spanned(log, "cluster.journal", fn)

        def write_journal(self):
            timed(self)
            path = self.spec.journal_path
            if path is not None:
                log.counts["cluster.journal_writes"] += 1
                log.counts["cluster.journal_bytes"] += os.path.getsize(path)

        return write_journal

    patches.wrap(ShardWorker, "_write_journal", journal)


def _install_parent(log: tracing.SpanLog, patches: tracing.Patches) -> None:
    import repro.cluster.runtime as runtime

    tracing.install_core(log, patches)
    handle = runtime._SpawnHandle

    def start(fn):
        def _start(self):
            with log.span("cluster.spawn"):
                fn(self)
            self._conn = TimedConn(self._conn, log, "cluster.barrier_wait")

        return _start

    patches.wrap(handle, "_start", start)
    patches.wrap(
        handle, "close",
        lambda fn: tracing.spanned(log, "cluster.shutdown", fn),
    )
    patches.wrap(
        runtime, "_merge",
        lambda fn: tracing.spanned(log, "cluster.merge", fn),
    )


class Cluster:
    """The canonical world on two spawned, journaling shard workers.

    The world's seed also picks which shard each ISP lives on, and a
    lopsided plan (all eight ISPs on one shard happens) changes the
    throughput far more than host noise does. So every untraced unit
    runs its own seed derived from the workload seed, and a run's
    medians are taken over several shard plans. The traced unit repeats
    the first unit's world, so its counts can be compared with it.
    """

    name = "cluster-journaled"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.runs = 0

    def unit(self, log: tracing.SpanLog | None = None) -> dict:
        import repro.cluster.runtime as runtime
        from repro.cluster.runtime import run_cluster
        from repro.scenario import compile_scenario

        world = worlds.derive(
            self.seed, f"cluster{0 if log is not None else self.runs}"
        )
        doc = worlds.load("canonical-8x64", world)
        run_dir = self.workdir / f"cluster{self.runs}"
        self.runs += 1
        reports = run_dir / "workers"
        reports.mkdir(parents=True)
        patches = tracing.Patches()
        patches.set(
            runtime, "worker_entry",
            WorkerEntry(str(reports), traced=log is not None),
        )
        if log is not None:
            _install_parent(log, patches)
        try:
            start = time.monotonic()
            config = compile_scenario(doc).cluster_config(mode="spawn")
            config.traced = False
            config.journal_dir = str(run_dir / "journal")
            result = run_cluster(config)
            end = time.monotonic()
        finally:
            patches.undo()
        workers = sorted(
            (
                json.loads(path.read_text(encoding="utf-8"))
                for path in reports.glob("shard*.json")
            ),
            key=lambda w: w["shard"],
        )
        shutil.rmtree(run_dir)
        if len(workers) != config.n_shards:
            raise RuntimeError(
                f"{len(workers)} of {config.n_shards} shard reports written"
            )
        ready = max(w["ready"] for w in workers)
        sends = result.manifest.extra["sends_attempted"]
        counters: dict[str, int] = {}
        for worker in workers:
            for name, value in worker["counters"].items():
                counters[name] = counters.get(name, 0) + value
        return {
            "world": world,
            "messages": sends,
            "setup_s": ready - start,
            "exec_s": end - ready,
            "rate": sends / (end - ready),
            "correct": bool(result.conserved and result.all_consistent),
            "outcomes": {"sends": sends, **worlds.outcome_counts(counters)},
            "letters_exported": sum(
                s["exported"] for s in result.report["shards"].values()
            ),
            "spawn_s": max(w["entered"] for w in workers) - start,
            "children_kb": sum(w["maxrss_kb"] for w in workers),
            "processes": {
                f"shard{w['shard']}": w["spans"]
                for w in workers if "spans" in w
            },
        }

    def layer_metrics(self, unit: dict, untraced: list[dict]) -> dict:
        shards = [
            p["layers"] for name, p in unit["processes"].items()
            if name.startswith("shard")
        ]
        busy = [s["cluster.worker_busy"]["total_s"] for s in shards]
        return {
            "cluster.spawn_s": unit["spawn_s"],
            "cluster.worker_build_s": max(
                s["cluster.worker_build"]["total_s"] for s in shards
            ),
            "cluster.worker_busy_max_s": max(busy),
            "cluster.worker_busy_sum_s": sum(busy),
            "cluster.letters_exported": unit["letters_exported"],
        }

    def extra(self, units: list[dict]) -> dict:
        return {}
