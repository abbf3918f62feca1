"""Discrete-event simulation kernel.

:class:`Simulator` owns the clock and the event calendar (a binary heap).
Simulated entities are *processes*: generators that yield
:class:`~repro.simnet.primitives.Event` objects and are resumed when those
events fire.  The kernel is deterministic — events scheduled for the same
timestamp are processed in schedule order (FIFO), with interrupts taking
priority — so a fixed master seed reproduces a run exactly.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(3.0)
...     return sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
3.0
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional

from .primitives import (
    AllOf,
    AnyOf,
    Event,
    Process,
    Timeout,
)

__all__ = ["Simulator"]


class Simulator:
    """Event loop and simulated clock.

    Parameters
    ----------
    start_time:
        Initial value of :attr:`now` (seconds).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap entries: (time, is_not_priority, sequence, event).
        # Event.succeed, Timeout and StorePut push their entry directly,
        # numbered from the same counter as _schedule_event.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._event_count = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between resumptions)."""
        return self._active_process

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (throughput metric)."""
        return self._event_count

    # -- event construction --------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling (kernel-internal: failures and interrupts) ---------------
    def _schedule_event(
        self,
        event: Event,
        delay: float = 0.0,
        priority: bool = False,
    ) -> None:
        if delay < 0.0 or delay != delay:  # rejects negatives and NaN
            raise ValueError(
                f"invalid event delay {delay!r}: must be a non-negative number"
            )
        self._seq += 1
        heapq.heappush(
            self._queue, (self._now + delay, 0 if priority else 1, self._seq, event)
        )

    # -- execution ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event; raises IndexError on an empty calendar."""
        time, _, _, event = heapq.heappop(self._queue)
        if time < self._now:  # pragma: no cover - defensive invariant
            raise RuntimeError("event calendar went backwards")
        self._now = time
        self._event_count += 1
        event._process()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the calendar drains, a deadline, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion.  A number — run until the clock
            reaches it (the clock is advanced to the deadline even if the
            calendar drains earlier).  An :class:`Event` — run until it is
            processed and return its value (raising if it failed).
        """
        stop_event: Optional[Event] = None
        deadline = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})"
                )
        # An already-processed stop event skips the loop; it still goes
        # through the result handling below, which returns its value or
        # re-raises its failure exactly as the in-loop path would.
        if stop_event is None or not stop_event.processed:
            # Inlined step() loop: one heap pop and the event's callbacks per
            # event, with the queue and pop pre-bound.  Identical semantics
            # (same pop order, same events_processed counting) — step()
            # stays the single-event reference implementation.
            queue = self._queue
            pop = heapq.heappop
            while queue and queue[0][0] <= deadline:
                time, _, _, event = pop(queue)
                self._now = time
                self._event_count += 1
                callbacks, event._callbacks = event._callbacks, None
                for callback in callbacks:
                    callback(event)
                # Halting only here, after the whole callback list ran,
                # resumes every waiter of the stop event before the stop.
                if event is stop_event:
                    break
        if stop_event is not None:
            if not stop_event.triggered:
                raise RuntimeError(
                    "run(until=event) ended but the event never triggered"
                )
            if not stop_event.ok:
                raise stop_event._value
            return stop_event.value
        if deadline != float("inf"):
            self._now = max(self._now, deadline)
        return None
