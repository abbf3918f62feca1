"""Span-based distributed tracing for the simulated platform.

A **span** is a named interval of simulated time attributed to one node
("where did the time go"); spans nest through parent links and are grouped
under a **trace id** — one trace per user task, crossing every tier the task
touches (device pack/upload, gateway unpack/dispatch, each MAS itinerary
hop, result collection).

The correlation handle that crosses process boundaries is the
:class:`SpanContext` — a ``(trace_id, span_id)`` pair small enough to ride
inside the PI envelope, an HTTP header pair, or the travelling agent's wire
form.  The component on the far side parents its own spans onto the carried
context, so one e-banking task yields a single causal tree.

Ids are sequential counters, not random: the simulation kernel is
deterministic, so two same-seed runs produce *byte-identical* trace streams
— the reproducibility contract every exporter inherits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from .metrics import MetricsRegistry

__all__ = ["SpanContext", "Span", "InstantEvent", "Telemetry"]

#: HTTP-ish header names used to propagate a context across an exchange.
TRACE_HEADER = "x-trace-id"
PARENT_HEADER = "x-parent-span"


@dataclass(frozen=True)
class SpanContext:
    """The portable correlation handle: which trace, which parent span."""

    trace_id: str
    span_id: str

    def to_headers(self) -> dict[str, str]:
        return {TRACE_HEADER: self.trace_id, PARENT_HEADER: self.span_id}

    @staticmethod
    def from_headers(headers: dict[str, str]) -> Optional["SpanContext"]:
        trace_id = headers.get(TRACE_HEADER, "")
        span_id = headers.get(PARENT_HEADER, "")
        if not trace_id:
            return None
        return SpanContext(trace_id=trace_id, span_id=span_id)

    def to_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> Optional["SpanContext"]:
        trace_id = str(data.get("trace_id", ""))
        if not trace_id:
            return None
        return SpanContext(trace_id=trace_id, span_id=str(data.get("span_id", "")))


class Span:
    """One timed interval; create through :meth:`Telemetry.start_span`."""

    __slots__ = (
        "_telemetry",
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "node",
        "start",
        "end_time",
        "status",
        "attrs",
    )

    def __init__(
        self,
        telemetry: "Telemetry",
        span_id: str,
        trace_id: str,
        parent_id: str,
        name: str,
        node: str,
        start: float,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        self._telemetry = telemetry
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end_time: Optional[float] = None
        self.status = ""
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}

    @property
    def open(self) -> bool:
        return self.end_time is None

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError(f"span {self.span_id} ({self.name}) is still open")
        return self.end_time - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (JSON-able values only)."""
        self.attrs.update(attrs)
        return self

    def end(self, status: str = "ok", **attrs: Any) -> "Span":
        """Close the span at the current simulated time.

        Idempotent: the *first* call wins (instrumentation uses
        ``try/finally`` safety nets, so a second close must be a no-op).
        """
        if self.end_time is not None:
            return self
        self.attrs.update(attrs)
        self.status = status
        self.end_time = self._telemetry.sim.now
        self._telemetry._on_span_end(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        when = f"{self.start:g}..{'open' if self.open else format(self.end_time, 'g')}"
        return f"<Span {self.span_id} {self.name}@{self.node} {when} {self.status}>"


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (checkpoint taken, completion reported, ...)."""

    at: float
    name: str
    node: str = ""
    trace_id: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)


class Telemetry:
    """Per-network span/instant sink plus the network's metrics registry.

    ``metrics`` is the one store of counters, gauges and histograms: every
    layer writes there, and the :class:`~repro.simnet.trace.Tracer` beside
    it on the :class:`~repro.simnet.topology.Network` keeps only ledgers.
    Only needs an object exposing ``.now`` (the kernel), so the package
    stays dependency-free.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self._trace_counter = itertools.count(1)
        self._span_counter = itertools.count(1)
        self._roots: dict[str, Span] = {}

    # ------------------------------------------------------------ creation
    def new_trace(self) -> str:
        return f"t-{next(self._trace_counter):04d}"

    def start_span(
        self,
        name: str,
        node: str = "",
        parent: Union[Span, SpanContext, None] = None,
        trace_id: Optional[str] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> Span:
        """Open a span at the current simulated time.

        ``parent`` (a :class:`Span` or carried :class:`SpanContext`) wins
        over ``trace_id``; with neither, a fresh trace is started and this
        span becomes its root.
        """
        parent_id = ""
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif trace_id is None:
            trace_id = self.new_trace()
        span = Span(
            telemetry=self,
            span_id=f"s-{next(self._span_counter):04d}",
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            node=node,
            start=self.sim.now,
            attrs=attrs,
        )
        self.spans.append(span)
        if trace_id not in self._roots:
            self._roots[trace_id] = span
        return span

    def instant(
        self,
        name: str,
        node: str = "",
        trace: Union[Span, SpanContext, None] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> InstantEvent:
        """Record a point-in-time marker."""
        event = InstantEvent(
            at=self.sim.now,
            name=name,
            node=node,
            trace_id=trace.trace_id if trace is not None else "",
            attrs=dict(attrs) if attrs else {},
        )
        self.instants.append(event)
        return event

    # ------------------------------------------------------------ queries
    def root_of(self, trace_id: str) -> Optional[Span]:
        """The first span opened under ``trace_id`` (the task root)."""
        return self._roots.get(trace_id)

    def trace(self, trace_id: str) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.open]

    # ------------------------------------------------------------ lifecycle
    def _on_span_end(self, span: Span) -> None:
        self.metrics.histogram(f"span:{span.name}").observe(span.end_time - span.start)

    def finalize(self) -> int:
        """End-of-simulation close-out: finish every still-open span.

        Aborted runs (faults, deadline stops) must not leave dangling spans
        — they are closed at the simulation's current time with status
        ``"truncated"`` so totals cannot silently undercount.  Returns the
        number of spans closed; idempotent.
        """
        closed = 0
        for span in self.spans:
            if span.open:
                span.end(status="truncated", truncated=True)
                closed += 1
        if closed:
            self.metrics.counter("spans_truncated").inc(closed)
        return closed
