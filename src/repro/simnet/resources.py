"""Process-synchronisation resources: stores, resources, and mailboxes.

These are the coordination primitives protocol code is written against:

* :class:`Store` — an unbounded FIFO buffer of Python objects; ``put`` and
  ``get`` return events.  Used for message queues.
* :class:`Resource` — a counted semaphore (e.g. a server worker pool).
* :class:`Mailbox` — a :class:`Store` specialised for addressed messages with
  optional predicate-matching receive, used by the MAS messaging layer.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from .primitives import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Store", "Resource", "Mailbox", "StorePut", "StoreGet"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; already triggered when returned."""

    __slots__ = ("item",)

    def __init__(self, sim: "Simulator", item: Any) -> None:
        # Born triggered and scheduled now.  The fields are set here rather
        # than through Event.__init__ because every message builds one.
        self.sim = sim
        self.item = item
        self._ok = True
        self._value = None
        self._callbacks = []
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, self))


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; succeeds with the retrieved item."""

    __slots__ = ("predicate",)

    def __init__(
        self,
        sim: "Simulator",
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.sim = sim
        self.predicate = predicate
        self._ok = True
        self._value = PENDING
        self._callbacks = []


class Store:
    """Unbounded FIFO object buffer.

    ``put`` never waits: its event is triggered before ``put`` returns.
    ``get`` waits while no (matching) item is buffered; the queue of
    waiting getters is built by the first get that has to wait, so a store
    nobody waits on holds none.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Optional[Deque[StoreGet]] = None

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Buffer ``item``; the returned event is already triggered."""
        event = StorePut(self.sim, item)
        self.items.append(item)
        # No waiting getter matched the buffer before this put, so only
        # ``item`` can wake one: the first, in arrival order, that takes it.
        if self._getters:
            for idx, get in enumerate(self._getters):
                matched = self._match(get)
                if matched is not _NO_MATCH:
                    del self._getters[idx]
                    get.succeed(matched)
                    break
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Remove and return the first item (matching ``predicate`` if given).

        ``predicate`` must depend on the item alone: the getters already
        waiting match nothing buffered, so a new getter can only take an
        item none of them wants, and arrival order is kept.
        """
        event = StoreGet(self.sim, predicate)
        matched = self._match(event) if self.items else _NO_MATCH
        if matched is _NO_MATCH:
            if self._getters is None:
                self._getters = deque()
            self._getters.append(event)
        else:
            event.succeed(matched)
        return event

    def _match(self, get: StoreGet) -> Any:
        """Take ``get``'s item from the (non-empty) buffer, or _NO_MATCH."""
        if get.predicate is None:
            return self.items.popleft()
        for i, item in enumerate(self.items):
            if get.predicate(item):
                del self.items[i]
                return item
        return _NO_MATCH


class _NoMatch:
    __slots__ = ()


_NO_MATCH = _NoMatch()


class Resource:
    """Counted resource (semaphore) with FIFO queuing.

    >>> res = Resource(sim, capacity=2)
    >>> def worker(sim, res):
    ...     req = res.request()
    ...     yield req
    ...     try:
    ...         yield sim.timeout(1.0)
    ...     finally:
    ...         res.release(req)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._users: set[Event] = set()
        self._waiters: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Request a slot; the event fires when the slot is granted."""
        event = Event(self.sim)
        if len(self._users) < self.capacity:
            self._users.add(event)
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self, request: Event) -> None:
        """Release a previously granted slot."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiters:  # cancelled before being granted
            self._waiters.remove(request)
            return
        else:
            raise ValueError("release() of a request that was never granted")
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            self._users.add(nxt)
            nxt.succeed()

    def cancel_waiting(self) -> int:
        """Drop every queued (not yet granted) request; returns the count.

        The dropped events never fire — crash semantics for in-memory
        server queues that do not survive a process restart.  Held slots
        are unaffected.
        """
        dropped = len(self._waiters)
        self._waiters.clear()
        return dropped


class Mailbox(Store):
    """Addressed message buffer used by agent messaging.

    Identical to :class:`Store` plus a convenience :meth:`receive` that
    matches on a message attribute (e.g. ``subject``).
    """

    def receive(self, subject: Optional[str] = None) -> StoreGet:
        """Get the next message, optionally filtered by ``msg.subject``."""
        if subject is None:
            return self.get()
        return self.get(lambda msg: getattr(msg, "subject", None) == subject)
