"""Gateway overload protection: admission control + exactly-once dedup.

The paper's north-star is a gateway tier that absorbs "heavy traffic from
millions of users" on behalf of weak wireless devices.  Absorbing traffic
means refusing some of it gracefully: this module supplies the three
mechanisms the gateway (and the MAS behind it) use to stay upright under
a dispatch storm.

* :class:`TokenBucket` — a rate limiter on the *simulated* clock.  Tokens
  refill lazily at ``rate`` per second up to ``burst``; admission takes one
  token, and a drained bucket can say exactly how long until the next one.
* :class:`AdmissionController` — bounded intake per **priority class**.
  Each class (e.g. ``upload`` = expensive agent dispatches, ``download`` =
  cheap result fetches) owns a worker pool (a counted
  :class:`~repro.simnet.resources.Resource`), a bounded wait queue, and an
  optional token bucket.  Separate pools are the starvation guarantee:
  a pile-up of uploads can never consume the slots result downloads need.
  When saturated the controller *sheds* — raises
  :class:`~repro.core.errors.GatewayOverloadedError` carrying a computed
  ``retry_after`` hint instead of queueing unboundedly.
* :class:`DedupTable` — the exactly-once admission index, mapping a
  device-generated task id to the ticket it already produced.  On a
  standalone gateway the table is **volatile** (it models in-memory servlet
  state); after a crash it is rebuilt from the surviving durable tickets via
  :meth:`DedupTable.rebuild`.  A fleet member keeps it across the crash.

Everything is deterministic: no wall clock, no unseeded randomness — the
same master seed replays the same sheds at the same simulated instants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..simnet.resources import Resource
from .errors import GatewayOverloadedError

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.kernel import Simulator
    from ..simnet.primitives import Event
    from ..telemetry.metrics import MetricsRegistry

__all__ = ["TokenBucket", "AdmissionController", "Admission", "DedupTable"]


class TokenBucket:
    """Lazy-refill token bucket on the simulated clock.

    ``rate`` tokens accrue per simulated second up to ``burst``.  The
    bucket starts full, so the first ``burst`` acquisitions always pass —
    rate limiting bites on *sustained* pressure, not the first arrival.
    """

    __slots__ = ("sim", "rate", "burst", "_tokens", "_stamp")

    def __init__(self, sim: "Simulator", rate: float, burst: int) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.sim = sim
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._stamp = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        if now > self._stamp:
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, n: int = 1) -> bool:
        """Take ``n`` tokens if available; False (no side effect) otherwise."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def retry_after(self, n: int = 1) -> float:
        """Seconds until ``n`` tokens will have accrued (0 if already there)."""
        self._refill()
        deficit = n - self._tokens
        return deficit / self.rate if deficit > 0 else 0.0


class Admission:
    """A granted-or-pending intake slot; ``yield admission.request`` to wait.

    Must be released exactly once (use try/finally); releasing also updates
    the controller's queue-depth gauge so operators see the drain.
    """

    __slots__ = ("_controller", "_cls", "request", "enqueued_at", "_released")

    def __init__(self, controller, cls: str, request: "Event", enqueued_at: float):
        self._controller = controller
        self._cls = cls
        self.request = request
        self.enqueued_at = enqueued_at
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._controller._release(self._cls, self.request)


class _ClassState:
    __slots__ = ("name", "resource", "queue_limit", "bucket", "retry_after_s")

    def __init__(self, name, resource, queue_limit, bucket, retry_after_s):
        self.name = name
        self.resource = resource
        self.queue_limit = queue_limit
        self.bucket = bucket
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Bounded, classed intake for a server node.

    ``enabled=False`` keeps the worker pools (requests still contend for
    slots — the physical serialisation is real either way) but turns off
    every *protection*: no queue bound, no token bucket, no shedding.  That
    is precisely the "unprotected baseline" the overload experiment
    collapses: an unbounded queue in front of the same finite workers.
    """

    def __init__(
        self,
        sim: "Simulator",
        metrics: Optional["MetricsRegistry"] = None,
        node: str = "",
        enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.metrics = metrics
        self.node = node
        self.enabled = enabled
        self.shed_total = 0
        self._classes: dict[str, _ClassState] = {}

    def add_class(
        self,
        name: str,
        workers: int,
        queue_limit: int,
        bucket: Optional[TokenBucket] = None,
        retry_after_s: float = 1.0,
    ) -> None:
        """Register priority class ``name`` with its own worker pool."""
        if name in self._classes:
            raise ValueError(f"duplicate admission class {name!r}")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        self._classes[name] = _ClassState(
            name, Resource(self.sim, capacity=workers), queue_limit, bucket,
            retry_after_s,
        )

    def queue_depth(self, name: str) -> int:
        return self._classes[name].resource.queued

    def inflight(self, name: str) -> int:
        return self._classes[name].resource.count

    def try_admit(self, name: str) -> Admission:
        """Claim an intake slot for class ``name`` — or shed.

        Returns an :class:`Admission` whose ``request`` event fires when a
        worker slot is granted (immediately if one is free).  Raises
        :class:`GatewayOverloadedError` with a ``retry_after`` hint when the
        class is saturated and protection is enabled.
        """
        st = self._classes[name]
        if self.enabled:
            if st.bucket is not None and not st.bucket.try_acquire():
                self.shed_total += 1
                raise GatewayOverloadedError(
                    f"{name} intake rate-limited at {self.node or 'gateway'}",
                    retry_after=max(st.retry_after_s, st.bucket.retry_after()),
                )
            res = st.resource
            if res.queued >= st.queue_limit and res.count >= res.capacity:
                self.shed_total += 1
                # Scale the hint with backlog: a deeper queue politely asks
                # the device to stay away longer, spreading the retry wave.
                depth = 1.0 + res.queued / max(1, res.capacity)
                raise GatewayOverloadedError(
                    f"{name} queue full at {self.node or 'gateway'} "
                    f"({res.queued} waiting)",
                    retry_after=st.retry_after_s * depth,
                )
        request = st.resource.request()
        self._set_gauges(st)
        return Admission(self, name, request, self.sim.now)

    def _release(self, name: str, request: "Event") -> None:
        st = self._classes[name]
        st.resource.release(request)
        self._set_gauges(st)

    def drop_queued(self) -> int:
        """Crash semantics: abandon every queued (not yet granted) request.

        In-memory servlet queues do not survive a process restart; callers
        waiting on a dropped request are the connections the crash reset.
        Returns how many requests were dropped.
        """
        dropped = 0
        for st in self._classes.values():
            dropped += st.resource.cancel_waiting()
            self._set_gauges(st)
        return dropped

    def _set_gauges(self, st: _ClassState) -> None:
        if self.metrics is None:
            return
        suffix = f"{st.name}@{self.node}" if self.node else st.name
        self.metrics.gauge(f"gateway.queue_depth:{suffix}").set(st.resource.queued)
        self.metrics.gauge(f"gateway.inflight:{suffix}").set(st.resource.count)


class DedupTable:
    """Task-id → ticket-id index backing exactly-once admission.

    Deliberately tiny: correctness lives in *where* it is consulted (before
    the nonce-replay check, so a retried frame dedups instead of 403-ing)
    and in the rebuild path.  Tickets are durable; whether the table
    survives a crash is :class:`~repro.core.storage.GatewayStorage`'s call.

    Bindings may carry an expiry timestamp (armed when the result they
    guard is reclaimed): an expired entry answers like a miss and is purged,
    so long simulations don't grow the index without bound.  Entries bound
    without an expiry live for the gateway's lifetime.
    """

    __slots__ = ("_by_task",)

    def __init__(self) -> None:
        self._by_task: dict[str, tuple[str, Optional[float]]] = {}

    def __len__(self) -> int:
        return len(self._by_task)

    def lookup(self, task_id: str, now: Optional[float] = None) -> Optional[str]:
        if not task_id:
            return None
        entry = self._by_task.get(task_id)
        if entry is None:
            return None
        ticket_id, expires_at = entry
        if now is not None and expires_at is not None and now >= expires_at:
            del self._by_task[task_id]
            return None
        return ticket_id

    def bind(
        self, task_id: str, ticket_id: str, expires_at: Optional[float] = None
    ) -> None:
        if task_id:
            self._by_task[task_id] = (ticket_id, expires_at)

    def set_expiry(self, task_id: str, expires_at: Optional[float]) -> None:
        """Arm (or clear) the TTL on an existing binding; miss is a no-op."""
        entry = self._by_task.get(task_id)
        if entry is not None:
            self._by_task[task_id] = (entry[0], expires_at)

    def purge_expired(self, now: float) -> int:
        """Drop every binding whose expiry has passed; returns the count."""
        dead = [
            task_id
            for task_id, (_, expires_at) in self._by_task.items()
            if expires_at is not None and now >= expires_at
        ]
        for task_id in dead:
            del self._by_task[task_id]
        return len(dead)

    def forget(self, task_id: str) -> None:
        self._by_task.pop(task_id, None)

    def items(self) -> list[tuple[str, str, Optional[float]]]:
        """Every binding as ``(task_id, ticket_id, expires_at)`` (drain scan)."""
        return [
            (task_id, ticket_id, expires_at)
            for task_id, (ticket_id, expires_at) in sorted(self._by_task.items())
        ]

    def clear(self) -> None:
        self._by_task.clear()

    def rebuild(self, tickets: Iterable) -> int:
        """Recover the index from durable ticket state after a restart.

        Every surviving ticket that recorded a task id re-binds — including
        finalized ones, so a post-restart retry of an already-completed task
        still returns its existing ticket instead of double-dispatching.
        "failed" tickets are skipped: their tasks never produced an agent
        and remain free to retry afresh.
        """
        self.clear()
        for ticket in tickets:
            task_id = getattr(ticket, "task_id", "")
            if task_id and getattr(ticket, "status", "") != "failed":
                self._by_task[task_id] = (ticket.ticket_id, None)
        return len(self._by_task)
