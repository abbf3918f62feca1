"""Core event primitives for the discrete-event kernel.

The kernel (:mod:`repro.simnet.kernel`) executes *processes* — Python
generators that ``yield`` :class:`Event` objects.  An event is a one-shot
synchronisation point: it starts *pending*, is *triggered* exactly once with a
value (success) or an exception (failure), and is then *processed* by the
kernel, which resumes every process waiting on it.

This mirrors the SimPy event model, rebuilt from scratch so the simulator has
no third-party runtime dependency and so tests can assert exact scheduling
semantics.  As in SimPy, the lifecycle is read off two fields: an event is
triggered once its value is no longer :data:`PENDING`, and processed once
the kernel has taken its callback list (``_callbacks`` is then None).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .kernel import Simulator

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "InterruptException",
    "Condition",
    "AllOf",
    "AnyOf",
]


class _PendingType:
    """Sentinel for "this event has no value yet"."""

    _instance: Optional["_PendingType"] = None

    def __new__(cls) -> "_PendingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot occurrence processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  Events may only be shared between processes of
        the same simulator.
    """

    __slots__ = ("sim", "_value", "_ok", "_callbacks", "__weakref__")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = PENDING
        self._ok: bool = True
        # None once processed: the kernel takes the list to run it.
        self._callbacks: Optional[list[Callable[["Event"], None]]] = []

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Scheduled now, at normal priority: no delay to validate.
        sim = self.sim
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process sees the exception raised at its ``yield``.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule_event(self)
        return self

    def trigger(self, other: "Event") -> None:
        """Mirror another (already triggered) event's outcome onto this one."""
        if other._value is PENDING:
            raise RuntimeError("cannot mirror a pending event")
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._value)

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event is already processed the callback runs immediately.
        """
        if self._callbacks is None:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks; invoked by :meth:`Simulator.step` exactly once.

        :meth:`Simulator.run` does the same inline.
        """
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            callback(self)

    def __iter__(self):
        """Support ``yield from event`` as well as ``yield event``.

        Both forms resume with the event's value, so protocol code can
        compose events and sub-processes uniformly.
        """
        value = yield self
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._callbacks is None:
            state = "processed"
        else:
            state = "pending" if self._value is PENDING else "triggered"
        return f"<{type(self).__name__} state={state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0 or delay != delay:  # rejects negatives and NaN
            raise ValueError(f"invalid timeout delay {delay!r}")
        # Born triggered; the fields are set here rather than through
        # Event.__init__ because every simulated wait builds one.
        self.sim = sim
        self.delay = delay
        self._ok = True
        self._value = value
        self._callbacks = []
        sim._seq += 1
        heappush(sim._queue, (sim._now + delay, 1, sim._seq, self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay}>"


class InterruptException(Exception):
    """Raised inside a process that has been interrupted.

    ``cause`` carries the value passed to :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Interrupt(Event):
    """Internal event used to deliver an interrupt to a process."""

    __slots__ = ()


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The process event succeeds with the generator's return value
    (``StopIteration.value``) or fails with the uncaught exception.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time.
        start = Event(sim)
        start._callbacks.append(self._resume)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: raise :class:`InterruptException` inside it.

        Interrupting a finished process is an error; interrupting a process
        that is about to be resumed anyway delivers the interrupt first.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise RuntimeError(f"{self!r} is being initialised; cannot interrupt")
        event = Interrupt(self.sim)
        event._ok = False
        event._value = InterruptException(cause)
        event._callbacks.append(self._resume)
        self.sim._schedule_event(event, priority=True)

    # -- kernel plumbing ----------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger event's outcome."""
        # An interrupt may arrive after the process already terminated on its
        # own; in that case there is nothing to resume.
        if self._value is not PENDING:
            return
        target = self._target
        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target may still fire later and must not resume us).
        if target is not trigger and target is not None and target._callbacks:
            try:
                target._callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        sim = self.sim
        sim._active_process = self
        generator = self._generator
        ok = trigger._ok
        value = trigger._value
        try:
            while True:
                try:
                    event = generator.send(value) if ok else generator.throw(value)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    # Interrupts included: an exception escaping the
                    # generator fails the process so waiters see it.
                    self.fail(exc)
                    return
                if not isinstance(event, Event):
                    value = TypeError(f"process yielded non-event {event!r}")
                elif event.sim is not sim:
                    value = RuntimeError("event belongs to a different simulator")
                else:
                    break
                # Thrown back in, the error's outcome is handled like any
                # resumption: caught, the generator yields or returns again.
                ok = False
        finally:
            sim._active_process = None
        self._target = event
        if event._callbacks is None:  # already processed: resume at once
            self._resume(event)
        else:
            event._callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Condition(Event):
    """Composite event over several child events.

    Succeeds when ``evaluate(children, n_triggered_ok)`` returns True; fails
    as soon as any child fails.  The success value is a dict mapping each
    *triggered* child event to its value, in trigger order.
    """

    __slots__ = ("_children", "_evaluate", "_n_ok", "_results")

    def __init__(
        self,
        sim: "Simulator",
        children: Iterable[Event],
        evaluate: Callable[[list[Event], int], bool],
    ) -> None:
        super().__init__(sim)
        self._children = list(children)
        self._evaluate = evaluate
        self._n_ok = 0
        self._results: dict[Event, Any] = {}
        for child in self._children:
            if child.sim is not sim:
                raise RuntimeError("child event belongs to a different simulator")
        if not self._children and evaluate(self._children, 0):
            self.succeed({})
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._n_ok += 1
        self._results[child] = child._value
        if self._evaluate(self._children, self._n_ok):
            self.succeed(dict(self._results))


def _all_events(children: list[Event], n_ok: int) -> bool:
    return n_ok == len(children)


def _any_event(children: list[Event], n_ok: int) -> bool:
    return n_ok > 0 or not children


class AllOf(Condition):
    """Fires when every child event has succeeded."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", children: Iterable[Event]) -> None:
        super().__init__(sim, children, _all_events)


class AnyOf(Condition):
    """Fires when the first child event succeeds."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", children: Iterable[Event]) -> None:
        super().__init__(sim, children, _any_event)
