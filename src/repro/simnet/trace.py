"""Metric collection: counters, time series, and the connection ledger.

The connection ledger is the measurement backbone of the reproduction: the
paper's headline metric, *internet connection time*, is the total wall-clock
time a device holds network connections open.  Every transport connection
reports its ``(opened_at, closed_at, bytes)`` here, so PDAgent and all
baselines are measured by identical machinery.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["ConnectionRecord", "FaultRecord", "Tracer"]


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault (or its recovery), as logged by the fault driver."""

    at: float
    kind: str  # e.g. "link-down", "link-up", "node-crash", "node-restart"
    target: str  # human-readable subject: "pda<->tower-1", "gw-0", ...
    detail: str = ""


@dataclass
class ConnectionRecord:
    """One transport connection's lifetime, as seen by its initiator."""

    conn_id: int
    initiator: str
    peer: str
    opened_at: float
    closed_at: Optional[float] = None
    bytes_sent: int = 0
    bytes_received: int = 0
    purpose: str = ""
    #: Set by the end-of-run close-out pass when the simulation ended while
    #: this connection was still open (closed_at is then the sim end time).
    truncated: bool = False

    @property
    def open(self) -> bool:
        return self.closed_at is None

    def duration(self, now: Optional[float] = None) -> float:
        """Connection open time; open connections need ``now``."""
        if self.closed_at is not None:
            return self.closed_at - self.opened_at
        if now is None:
            raise ValueError("connection still open; pass now= for duration")
        return now - self.opened_at


@dataclass
class _Series:
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)


class Tracer:
    """Per-network metric sink.

    Since the telemetry subsystem landed, the tracer doubles as a compat
    shim: every ``count``/``record`` call is mirrored into the shared
    :class:`~repro.telemetry.metrics.MetricsRegistry` (counters, and
    histograms for distribution summaries) so existing call sites feed the
    new aggregation layer without changing.  The ``counters`` defaultdict
    keeps its original read semantics — unknown names read as 0.
    """

    def __init__(self, sim: "Simulator", metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters: dict[str, int] = defaultdict(int)
        self._series: dict[str, _Series] = defaultdict(_Series)
        self.connections: list[ConnectionRecord] = []
        # The same records split by initiator, in ledger order, so the
        # per-device queries below skip everyone else's connections.
        self._connections_by: dict[str, list[ConnectionRecord]] = defaultdict(list)
        self.faults: list[FaultRecord] = []
        self._next_conn_id = 0
        # Instrument caches: count()/observe() run per message/event, and a
        # cached instrument skips the registry's name-collision checks.
        self._counter_cache: dict[str, object] = {}
        self._hist_cache: dict[str, object] = {}

    # -- counters / series -----------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] += n
        counter = self._counter_cache.get(name)
        if counter is None:
            counter = self._counter_cache[name] = self.metrics.counter(name)
        counter.inc(n)

    def record(self, name: str, value: float) -> None:
        """Append ``(now, value)`` to time series ``name``."""
        series = self._series[name]
        series.times.append(self.sim.now)
        series.values.append(float(value))
        self.observe(name, value)

    def observe(self, name: str, value: float) -> None:
        """Feed ``value`` into histogram ``name`` without keeping the sample.

        Unlike :meth:`record`, nothing is stored per-sample — use this for
        high-frequency measurements (per-message byte counts) where the
        bucketed summary is enough.
        """
        hist = self._hist_cache.get(name)
        if hist is None:
            hist = self._hist_cache[name] = self.metrics.histogram(name)
        hist.observe(value)

    def series(self, name: str) -> tuple[list[float], list[float]]:
        """Return ``(times, values)`` for series ``name`` (empty if unknown)."""
        series = self._series.get(name)
        if series is None:
            return [], []
        return list(series.times), list(series.values)

    # -- fault ledger ----------------------------------------------------------
    def log_fault(self, kind: str, target: str, detail: str = "") -> FaultRecord:
        """Record an injected fault event at the current simulated time."""
        record = FaultRecord(at=self.sim.now, kind=kind, target=target, detail=detail)
        self.faults.append(record)
        self.count(f"fault:{kind}")
        return record

    # -- connection ledger -----------------------------------------------------
    def open_connection(self, initiator: str, peer: str, purpose: str = "") -> ConnectionRecord:
        """Register a newly opened connection and return its ledger record."""
        record = ConnectionRecord(
            conn_id=self._next_conn_id,
            initiator=initiator,
            peer=peer,
            opened_at=self.sim.now,
            purpose=purpose,
        )
        self._next_conn_id += 1
        self.connections.append(record)
        self._connections_by[initiator].append(record)
        return record

    def close_connection(self, record: ConnectionRecord) -> None:
        if record.closed_at is not None:
            raise ValueError(f"connection {record.conn_id} already closed")
        record.closed_at = self.sim.now
        self.metrics.histogram("connection.open_s").observe(record.duration())

    def connection_time(self, initiator: str, since: float = 0.0) -> float:
        """Total open time of connections initiated by ``initiator``.

        This is the paper's "internet connection time" for a device.  Open
        connections are charged up to the current simulated time.
        """
        total = 0.0
        for rec in self._connections_by.get(initiator, ()):
            if rec.opened_at >= since:
                total += rec.duration(now=self.sim.now)
        return total

    def connection_count(self, initiator: str, since: float = 0.0) -> int:
        """Number of connections ``initiator`` opened at/after ``since``."""
        return sum(
            1
            for rec in self._connections_by.get(initiator, ())
            if rec.opened_at >= since
        )

    def bytes_transferred(self, initiator: str, since: float = 0.0) -> tuple[int, int]:
        """``(sent, received)`` bytes over connections opened by ``initiator``."""
        sent = received = 0
        for rec in self._connections_by.get(initiator, ()):
            if rec.opened_at >= since:
                sent += rec.bytes_sent
                received += rec.bytes_received
        return sent, received

    def finalize(self) -> int:
        """End-of-run close-out: close every still-open connection record.

        A run aborted by faults (or simply stopped at a deadline) can leave
        connections open; charging them up to the simulation end — flagged
        ``truncated`` — keeps connection-time totals honest.  Returns the
        number of records closed; idempotent.
        """
        closed = 0
        for rec in self.connections:
            if rec.closed_at is None:
                rec.closed_at = self.sim.now
                rec.truncated = True
                closed += 1
        if closed:
            self.count("connections_truncated", closed)
        return closed

    def reset(self) -> None:
        """Clear all metrics (ledger, counters, series)."""
        self.counters.clear()
        self._series.clear()
        self.connections.clear()
        self._connections_by.clear()
        self.faults.clear()
        self._counter_cache.clear()
        self._hist_cache.clear()
        self.metrics.reset()
