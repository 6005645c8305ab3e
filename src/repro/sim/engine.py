"""The discrete-event simulation engine.

A classic event-heap simulator: callbacks are scheduled at absolute virtual
times and executed in time order. The engine is the substrate for all of the
economics experiments — ISPs, users, spammers and the bank are ordinary
Python objects that schedule future work on a shared :class:`Engine`.

Determinism is a design requirement (DESIGN.md §6): given the same seed and
the same scheduling calls, a run is reproducible bit-for-bit. Ties at equal
times are broken first by explicit priority, then by insertion order.

Two ways to feed the engine:

* **heap events** — :meth:`Engine.schedule_at` and friends; one
  :class:`Event` object per callback, totally ordered on the heap.
* **streams** — :meth:`Engine.add_stream`; a lazily-pulled, time-ordered
  iterator of items dispatched through a single shared callback. Streams
  are the fast path for bulk workloads (millions of simulated emails):
  the heap then only carries periodic/control timers, shrinking it from
  O(messages) to O(timers) and skipping one ``Event`` + closure
  allocation per message.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generic, Iterable, Iterator, TypeVar

from ..errors import SimulationError
from ..obs.spans import NULL_SPANS, SpanRegistry
from .clock import Clock
from .events import Event, EventHandle

__all__ = ["Engine"]

T = TypeVar("T")


class _Stream(Generic[T]):
    """One attached time-ordered item source with a buffered head item.

    ``head`` is the next not-yet-dispatched item (``None`` when the
    iterator is exhausted); ``head_time`` mirrors ``head``'s time so the
    run loop can compare times without attribute-chasing per iteration.
    """

    __slots__ = ("iterator", "dispatch", "label", "head", "head_time")

    def __init__(
        self,
        iterator: Iterator[T],
        dispatch: Callable[[T], None],
        label: str,
    ) -> None:
        self.iterator = iterator
        self.dispatch = dispatch
        self.label = label
        self.head: T | None = None
        self.head_time: float = 0.0
        self.advance()

    def advance(self) -> None:
        """Pull the next item (if any) into ``head``."""
        item = next(self.iterator, None)
        self.head = item
        if item is not None:
            self.head_time = item.time  # type: ignore[attr-defined]


class Engine:
    """A deterministic discrete-event simulation engine.

    Example:
        >>> eng = Engine()
        >>> fired = []
        >>> _ = eng.schedule_at(5.0, lambda: fired.append(eng.now))
        >>> _ = eng.schedule_at(1.0, lambda: fired.append(eng.now))
        >>> eng.run()
        >>> fired
        [1.0, 5.0]
    """

    def __init__(self, *, spans: SpanRegistry | None = None) -> None:
        self.clock = Clock()
        self._heap: list[Event] = []
        self._streams: list[_Stream] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        # Wall-clock profiling of run() windows (repro.obs.spans); spans
        # never touch virtual time or determinism.
        self.spans = spans if spans is not None else NULL_SPANS

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    # -- scheduling ----------------------------------------------------------

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at t={time} "
                f"(now={self.clock.now})"
            )
        self._seq += 1
        event = Event(
            time=time,
            priority=priority,
            seq=self._seq,
            callback=callback,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` after a non-negative ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        return self.schedule_at(
            self.clock.now + delay, callback, priority=priority, label=label
        )

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start: float | None = None,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` periodically every ``interval`` seconds.

        The returned handle cancels the *entire* periodic chain. The first
        firing is at ``start`` (default: now + interval).

        Exception semantics: if ``callback`` raises, the chain is cancelled
        cleanly before the exception propagates — no further firings occur
        and the handle reports ``cancelled``. Re-arm explicitly if a
        periodic task should survive its own failures.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval}")
        first = self.clock.now + interval if start is None else start

        # A single handle is reused: each firing reschedules the same Event
        # object at the next period, so cancelling the handle stops the chain.
        chain_event = Event(
            time=first, priority=priority, seq=0, callback=lambda: None, label=label
        )
        handle = EventHandle(chain_event)

        def fire() -> None:
            if chain_event.cancelled:
                return
            try:
                callback()
            except BaseException:
                # A half-dead chain (failed but still apparently pending)
                # would be unobservable; cancel it so the failure is final.
                chain_event.cancelled = True
                raise
            if not chain_event.cancelled:
                inner = self.schedule_after(
                    interval, fire, priority=priority, label=label
                )
                chain_event.time = inner.time

        self.schedule_at(first, fire, priority=priority, label=label)
        return handle

    # -- streams ------------------------------------------------------------

    def add_stream(
        self,
        items: Iterable[T],
        dispatch: Callable[[T], None],
        *,
        label: str = "stream",
    ) -> None:
        """Attach a time-ordered item stream consumed lazily by :meth:`run`.

        ``items`` must yield objects with a ``.time`` attribute in
        non-decreasing time order; each is passed to ``dispatch`` when
        virtual time reaches it. Only one item per stream is buffered, so
        a million-message workload costs O(1) engine memory instead of one
        heap entry + closure per message.

        Ordering: a stream item due at time ``t`` fires *before* any heap
        event at the same ``t``: the order the item would take as its own
        heap event, scheduled before the periodic/control timers and so
        carrying a lower sequence number.

        Raises:
            SimulationError: from :meth:`run`, if a stream yields an item
                whose time is before the current virtual time.
        """
        stream = _Stream(iter(items), dispatch, label)
        # Exhausted streams never enter the list (run() also removes them
        # as they drain), so the run loop's scan can skip per-iteration
        # ``head is None`` checks.
        if stream.head is not None:
            self._streams.append(stream)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next pending *heap* event.

        Returns:
            ``True`` if an event was executed, ``False`` if the heap is
            empty. Streams attached via :meth:`add_stream` are only
            consumed by :meth:`run`, never by ``step``.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            self.events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, *, max_events: int | None = None) -> None:
        """Run heap events and stream items in time order.

        Args:
            until: Stop once virtual time would exceed this bound. Events
                and stream items at exactly ``until`` still fire. The clock
                is advanced to ``until`` when the bound is reached, so
                back-to-back ``run(until=...)`` calls tile time cleanly;
                an undispatched stream item stays buffered for the next
                ``run`` call.
            max_events: Safety valve; raise :class:`SimulationError` if more
                than this many events execute (runaway-loop detection).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        clock = self.clock
        streams = self._streams
        span = self.spans.span("engine.run")
        span.__enter__()
        try:
            while not self._stopped:
                # Drop cancelled heap heads so time comparisons see the
                # true next event (cancelled events must not gate streams).
                while heap and heap[0].cancelled:
                    heapq.heappop(heap)
                # Earliest live stream head, scanned inline: this loop runs
                # once per simulated message, so no helper-call overhead.
                # Exhausted streams are removed eagerly, leaving the common
                # cases (zero or one stream) nearly free.
                stream = None
                stream_time = 0.0
                for s in streams:
                    if stream is None or s.head_time < stream_time:
                        stream = s
                        stream_time = s.head_time
                if stream is not None and heap and heap[0].time < stream_time:
                    # Streams win ties (see add_stream docstring).
                    stream = None
                if stream is not None:
                    if until is not None and stream_time > until:
                        break
                    if stream_time < clock.now:
                        raise SimulationError(
                            f"stream {stream.label!r} yielded item at "
                            f"t={stream_time} (now={clock.now}); "
                            "streams must be time-ordered"
                        )
                    item = stream.head
                    # Monotonicity was just checked, so the clock can be
                    # assigned directly (advance_to would re-check).
                    clock.now = stream_time
                    stream.advance()
                    if stream.head is None:
                        streams.remove(stream)
                    self.events_processed += 1
                    stream.dispatch(item)
                elif heap:
                    event = heap[0]
                    if until is not None and event.time > until:
                        break
                    heapq.heappop(heap)
                    # Heap pops are time-monotone and schedule_at rejects
                    # past times, so direct assignment is safe here too.
                    clock.now = event.time
                    self.events_processed += 1
                    event.callback()
                else:
                    break
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
            if until is not None and until > clock.now:
                clock.advance_to(until)
        finally:
            self._running = False
            span.__exit__(None, None, None)

    def stop(self) -> None:
        """Request that the current :meth:`run` call return after this event."""
        self._stopped = True

    # -- introspection ---------------------------------------------------------

    def next_event_time(self) -> float | None:
        """Earliest live heap-event time, or ``None`` if the heap is empty.

        Cancelled heads are dropped on the way (they carry no information).
        Stream heads are not consulted; this is a heap-only peek used by
        drain loops deciding how far to run.
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled heap events."""
        return sum(1 for e in self._heap if not e.cancelled)

    def pending_labels(self) -> Iterable[str]:
        """Labels of pending events, in heap (not time) order. Debug aid."""
        return [e.label for e in self._heap if not e.cancelled]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Engine(now={self.clock.now}, pending={self.pending}, "
            f"processed={self.events_processed})"
        )
