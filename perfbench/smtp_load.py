"""The smtp-durable workload: ``repro serve`` under an open-loop client.

Each *window* starts ``repro serve`` in its own process on a fresh
store (4 ISPs x 64 users, a barrier commit every 0.1 s), connects two
SMTP sessions, and submits messages on a fixed schedule of ``RATE``
per second for ``WINDOW_S`` seconds whether or not earlier ones have
been answered (an open loop: independent users do not wait for each
other). The service is then stopped with SIGINT, which makes it commit
and print its final counters, and ``repro selftest`` checks the store
it leaves.

The two sessions go to the listeners of ISPs 0 and 1; a submission
must reach its sender's own ISP, so the senders are the users of those
two ISPs and their recipients are spread over all four. The sender and
recipient pairs are the world document's normal traffic restricted to
those senders.

A message's accept latency runs from when it was due to be sent until
its ``250`` reply, so a stall also counts against the messages queued
behind it. How late the client itself put each message on the wire is
recorded as well: a late generator would make the run invalid.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import worlds

ROOT = Path(__file__).resolve().parents[1]
RATE = 3000.0
WINDOW_S = 3.0
SENDER_ISPS = (0, 1)
#: The server closes a session after 1000 commands (3 per message), so
#: each connection starts a new session after this many messages.
MESSAGES_PER_SESSION = 300
START_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"isp(\d+)\.example listening on ([\d.]+):(\d+)")
_STOPPED = re.compile(
    r"stopped at barrier (\d+): (\d+) messages handled, (\d+) pending, "
    r"conserved=(\w+)"
)


@contextlib.contextmanager
def _no_span(name: str):
    yield


def repro_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def envelopes(doc: dict, count: int) -> list:
    """The first ``count`` messages of the world's traffic from 0 and 1."""
    from repro.scenario import compile_scenario
    from repro.sim.rng import SeededStreams
    from repro.sim.workload import merge_workloads
    from repro.smtp.address import from_sim_address
    from repro.smtp.message import MailMessage
    from repro.smtp.transport import Envelope

    scenario = compile_scenario(doc).scenario("direct")
    requests = merge_workloads(
        *scenario.workload_streams(
            SeededStreams(doc["seed"]), sender_isps=frozenset(SENDER_ISPS)
        )
    )
    result = []
    for index, request in zip(range(count), requests):
        sender = str(from_sim_address(request.sender))
        recipient = str(from_sim_address(request.recipient))
        message = MailMessage.compose(
            sender=sender,
            recipient=recipient,
            subject=f"message {index}",
            body=f"open-loop message {index} at t={request.time:.3f}",
        )
        result.append((request.sender.isp, Envelope(sender, recipient, message)))
    if len(result) < count:
        raise RuntimeError(f"world yields {len(result)} < {count} messages")
    return result


async def _open_loop(addresses, messages, rate: float):
    from repro.errors import SMTPPermanentError, SMTPTemporaryError
    from repro.smtp.client import SMTPClient

    clients = {isp: SMTPClient(*addresses[isp]) for isp in SENDER_ISPS}
    for client in clients.values():
        await client.connect()
    ready = time.monotonic()
    n = len(messages)
    due = [ready + i / rate for i in range(n)]
    done = [0.0] * n
    late = [0.0] * n
    queues = {isp: asyncio.Queue() for isp in clients}

    async def session(isp: int) -> None:
        client, queue = clients[isp], queues[isp]
        sent = 0
        while (index := await queue.get()) is not None:
            if sent == MESSAGES_PER_SESSION:
                await client.quit()
                await client.connect()
                sent = 0
            sent += 1
            try:
                await client.send(messages[index][1])
            except (SMTPPermanentError, SMTPTemporaryError):
                continue  # unanswered by 250: counted as failed
            done[index] = time.monotonic()

    sessions = [asyncio.create_task(session(isp)) for isp in clients]
    index = 0
    while index < n:
        now = time.monotonic()
        while index < n and due[index] <= now:
            queues[messages[index][0]].put_nowait(index)
            late[index] = now - due[index]
            index += 1
        if index < n:
            await asyncio.sleep(due[index] - time.monotonic())
    for queue in queues.values():
        queue.put_nowait(None)
    await asyncio.gather(*sessions)
    for client in clients.values():
        await client.quit()
    accepted = [d - t for d, t in zip(done, due) if d]
    return {
        "ready": ready,
        "accepted": len(accepted),
        "last_reply": max(done),
        "accept_s": accepted,
        "late_s": late,
    }


def _serve(command: list[str]):
    """Start the service; return it with its listener addresses."""
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=repro_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    watchdog = threading.Timer(START_TIMEOUT_S, proc.kill)
    watchdog.start()
    addresses, lines = {}, []
    try:
        for line in proc.stdout:
            lines.append(line)
            match = _LISTENING.search(line)
            if match:
                isp, host, port = match.groups()
                addresses[int(isp)] = (host, int(port))
            if line.startswith("serving"):
                return proc, addresses
    except BaseException:
        _kill(proc)
        raise
    finally:
        watchdog.cancel()
    _kill(proc)
    raise RuntimeError("repro serve did not start:\n" + "".join(lines))


def _kill(proc) -> None:
    """Kill the service unless it has ended, and wait until it has."""
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _peak_kb(pid: int) -> int:
    """The process's peak resident set so far (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _stop(proc) -> dict:
    try:
        peak_kb = _peak_kb(proc.pid)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=START_TIMEOUT_S)
    except BaseException:
        _kill(proc)
        raise
    match = _STOPPED.search(out)
    if proc.returncode != 0 or match is None:
        raise RuntimeError(f"repro serve ended badly ({proc.returncode}):\n{out}")
    return {
        "peak_kb": peak_kb,
        "handled": int(match.group(2)),
        "pending": int(match.group(3)),
        "conserved": match.group(4) == "True",
    }


def selftest(store: Path) -> bool:
    """``repro selftest`` on a stopped service's store."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "selftest", "--store", str(store)],
        cwd=ROOT,
        env=repro_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=START_TIMEOUT_S,
    )
    return proc.returncode == 0 and re.search(
        r"^passed\s+True$", proc.stdout, re.MULTILINE
    ) is not None


class Smtp:
    """Windows of open-loop SMTP submissions to a durable service."""

    name = "smtp-durable"

    def __init__(self, seed: int, workdir: Path) -> None:
        # The service is stopped with SIGINT. A shell starts background
        # jobs with SIGINT ignored, and an ignored signal stays ignored
        # across exec, so the service would never stop; a handled one is
        # reset to the default, on which Python raises KeyboardInterrupt.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self.doc = worlds.load("smtp-4x64", seed)
        self.workdir = workdir
        self.messages = envelopes(self.doc, int(RATE * WINDOW_S))
        self.windows = 0

    def unit(self, log: tracing.SpanLog | None = None) -> dict:
        store = self.workdir / f"store{self.windows}.db"
        self.windows += 1
        topology = self.doc["topology"]
        command = [
            "serve", "--store", str(store),
            "--isps", str(topology["n_isps"]),
            "--users", str(topology["users_per_isp"]),
            "--seed", str(self.doc["seed"]),
            "--commit-interval", "0.1",
        ]
        report = store.with_suffix(".spans.json")
        if log is None:
            command = [sys.executable, "-m", "repro", *command]
        else:
            launcher = Path(__file__).resolve().parent / "service.py"
            command = [sys.executable, str(launcher), str(report), *command]
        patches = tracing.Patches()
        if log is not None:
            tracing.install_event_loop(log, patches, "smtp.client")
        spans = log.span if log is not None else _no_span
        try:
            start = time.monotonic()
            with spans("service.start"):
                proc, addresses = _serve(command)
            try:
                client = asyncio.run(
                    _open_loop(addresses, self.messages, RATE)
                )
            finally:
                with spans("service.stop"):
                    stats = _stop(proc)
            with spans("service.selftest"):
                healthy = selftest(store)
        finally:
            patches.undo()
        accepted = client["accepted"]
        processes = {}
        if log is not None:
            with open(report, encoding="utf-8") as handle:
                processes["service"] = json.load(handle)
        return {
            "messages": len(self.messages),
            "accepted": accepted,
            "setup_s": client["ready"] - start,
            "exec_s": client["last_reply"] - client["ready"],
            "rate": accepted / (client["last_reply"] - client["ready"]),
            "correct": bool(
                stats["conserved"]
                and stats["handled"] == accepted
                and healthy
            ),
            "failed": len(self.messages) - accepted,
            "accept_s": client["accept_s"],
            "late_s": client["late_s"],
            "children_kb": stats.pop("peak_kb"),
            "service": stats,
            "processes": processes,
        }

    def layer_metrics(self, unit: dict, untraced: list[dict]) -> dict:
        service = unit["processes"]["service"]
        commits = service["samples"]["store.commit"]
        lags = service["samples"]["store.durable_lag"]
        base, traced = latency(untraced), latency([unit])
        metrics = {
            "store.commit_p50_ms": quantile(commits, 50) * 1e3,
            "store.commit_p99_ms": quantile(commits, 99) * 1e3,
            "store.durable_lag_p50_ms": quantile(lags, 50) * 1e3,
            "store.durable_lag_p99_ms": quantile(lags, 99) * 1e3,
            "outcome.sends": unit["messages"],
            # The service's answer time, not its (open-loop) rate,
            # is what tracing would slow down.
            "bench.trace_overhead_pct": (
                traced["client.accept_p50_ms"] / base["client.accept_p50_ms"]
                - 1
            ) * 100,
        }
        for name, value in worlds.outcome_counts(service["counters"]).items():
            metrics[f"outcome.{name}"] = value
        metrics.update(
            (k, v) for k, v in base.items() if k.startswith("client.")
        )
        return metrics

    def extra(self, units: list[dict]) -> dict:
        return latency(units)


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` cut points)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def latency(units: list[dict]) -> dict[str, float]:
    """Accept latency and generator lateness over windows, in ms."""
    accept = [v for u in units for v in u["accept_s"]]
    late = [v for u in units for v in u["late_s"]]
    return {
        "client.accept_p50_ms": quantile(accept, 50) * 1e3,
        "client.accept_p99_ms": quantile(accept, 99) * 1e3,
        "client.late_p99_ms": quantile(late, 99) * 1e3,
        "client.late_max_ms": max(late) * 1e3,
        "messages": len(accept),
    }
