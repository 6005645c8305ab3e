"""In-memory spans around the calls into each layer of the program.

The benchmark measures layers from outside: the ``install_*``
functions replace selected functions and methods of ``repro`` with
wrappers that open a span on entry and close it on return, and
:class:`Patches` puts the originals back. No file under ``src/`` knows
about it. Spans are kept in memory while the traced work runs and are
summarised when it ends.

A layer's *self time* is its span's duration minus the time covered by
its child spans, so the self times of every span under one root add up
exactly to the root's duration. The root is opened by the benchmark
around the traced work; its own self time is the *unattributed*
remainder: time spent in code that no wrapped layer covers.

Every process keeps its own :class:`SpanLog` and its own root: the
benchmark's own process, each cluster shard worker and the SMTP
service process. Their timelines overlap in wall time, so per-process
accounting is reported separately and never summed into one wall.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import selectors
import time
from array import array
from collections import Counter, defaultdict

ROOT = "bench"


class SpanLog:
    """Spans of one process: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    def begin(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.monotonic())
        return index

    def finish(self, index: int) -> float:
        now = time.monotonic()
        self.end[index] = now
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                f"span {self.names[self.name_id[index]]!r} closed out of order"
            )
        return now

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.finish(index)

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def summary(self) -> dict:
        """Per-name totals: calls, wall, self time; plus counts/samples."""
        child = [0.0] * len(self.start)
        for index in range(len(self.start)):
            parent = self.parent[index]
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        layers: dict[str, dict[str, float]] = {}
        for index in range(len(self.start)):
            name = self.names[self.name_id[index]]
            total = self.end[index] - self.start[index]
            entry = layers.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += total
            entry["self_s"] += total - child[index]
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }


def spanned(log: SpanLog, name: str, fn, *, sample: bool = False):
    """``fn`` wrapped in a span named ``name``.

    With ``sample``, every call's duration is also kept, for quantiles.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = log.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.finish(index)
            if sample:
                log.samples[name].append(log.duration(index))

    return wrapper


def spanned_generator(log: SpanLog, first: str, rest: str, fn):
    """``fn`` returning a generator whose ``next`` calls are spans.

    The call that yields the first item is named ``first`` (a
    workload's set-up: contact tables and its first chunk), every later
    one ``rest``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed(log, fn(*args, **kwargs), first, rest)

    return wrapper


def _timed(log: SpanLog, generator, first: str, rest: str):
    name = first
    while True:
        index = log.begin(name)
        try:
            item = next(generator)
        except StopIteration:
            return
        finally:
            log.finish(index)
        name = rest
        yield item


def counted(log: SpanLog, counter: str, fn):
    """``fn`` with a call counter (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def wrap(self, target, attr: str, make) -> None:
        self.set(target, attr, make(target.__dict__[attr]))

    def undo(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)


def install_columnar(log: SpanLog, patches: Patches) -> None:
    """Spans for the columnar executor and the layers it calls."""
    import repro.columnar.executor as executor
    from repro.columnar.state import ColumnarState

    install_core(log, patches)
    patches.wrap(
        executor, "run_columnar",
        lambda fn: spanned(log, "columnar.execute", fn),
    )
    patches.wrap(
        executor, "merge_column_streams",
        lambda fn: spanned_generator(
            log, "columnar.merge", "columnar.merge", fn
        ),
    )
    patches.wrap(
        executor, "accounting_digest",
        lambda fn: spanned(log, "obs.digest", fn),
    )
    patches.wrap(
        ColumnarState, "spill",
        lambda fn: counted(
            log, "columnar.spills", spanned(log, "columnar.spill_refresh", fn)
        ),
    )
    patches.wrap(
        ColumnarState, "refresh",
        lambda fn: spanned(log, "columnar.spill_refresh", fn),
    )


def install_core(log: SpanLog, patches: Patches) -> None:
    """Spans for network build, reconciliation and workload generation."""
    import repro.core.bank as bank
    import repro.core.protocol as protocol
    import repro.sim.workload as workload

    patches.wrap(
        protocol.ZmailNetwork, "__init__",
        lambda fn: spanned(log, "core.build", fn),
    )
    patches.wrap(
        protocol.ZmailNetwork, "reconcile",
        lambda fn: spanned(log, "core.reconcile", fn),
    )
    patches.wrap(
        bank.Bank, "reconcile",
        lambda fn: spanned(log, "core.bank_verify", fn),
    )
    for cls in (
        workload.NormalUserWorkload,
        workload.SpamCampaignWorkload,
        workload.ZombieBurstWorkload,
        workload.FloodWorkload,
    ):
        patches.wrap(
            cls, "generate_columns",
            lambda fn: spanned_generator(
                log, "workload.setup", "workload.generate", fn
            ),
        )


def install_event_loop(log: SpanLog, patches: Patches, name: str) -> None:
    """A span around every callback the asyncio event loop runs.

    An asyncio process interleaves its sessions at every ``await``, so
    no span may stay open across one. Each loop callback runs to
    completion, though, so a span per callback nests cleanly; whatever
    the wrapped layers inside it do not cover is the session/protocol
    work of that process. The loop's waits for I/O are ``idle`` spans.
    """
    patches.wrap(
        asyncio.events.Handle, "_run", lambda fn: spanned(log, name, fn)
    )
    patches.wrap(
        selectors.EpollSelector, "select",
        lambda fn: spanned(log, "idle", fn),
    )
