"""Streaming-session experiment: sessions vs store-and-forward under faults.

The streaming layer makes two quantitative promises over the classic
§3.2/§3.3 verbs, both under the *same* reference fault schedule the
fault-tolerance experiment uses:

* **Resumable uploads retransmit less.**  A store-and-forward upload
  that dies mid-exchange (or fails over to another gateway) re-sends the
  whole frame; a chunked session resumes from the gateway's last
  acknowledged offset and re-sends at most the chunk in flight.  Both
  approaches share one device-side ledger
  (``NetworkManager.retransmitted_bytes`` — exchange retries, failover
  restarts, and session resume gaps all count), so the numbers compare
  like for like; the upload bytes actually put on the wire are reported
  alongside as a cross-check.
* **Results stream in early.**  Each itinerary hop reports its site
  result home; the device's first poll after the first hop lands the
  first answer, instead of waiting for the whole tour.  Time-to-first-
  result is ``session.first_partial_at - task start`` for streaming and
  the final collect time for store-and-forward (the earliest moment the
  classic flow shows the user *anything*).

The final document download is the unchanged :meth:`collect` path; a
post-run verification pass re-downloads every collected result over the
plain store-and-forward verb and checks byte identity (outside the
connection-time accounting, so the comparison stays fair).

Reported per approach: completion rate, connection seconds (total and per
completed task), mean/min time-to-first-result, retransmitted bytes, and
the streaming run's session ledgers (chunks, re-opens, partials).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..compressor import decompress
from ..core import PDAgentConfig
from ..core.errors import PDAgentError
from ..core.gateway import ticket_origin
from ..simnet.faults import FaultSchedule
from ..telemetry.exporters import TraceCollector
from .faults import reference_schedule
from .report import format_table
from .scenario import EvaluationScenario, build_scenario

__all__ = [
    "StreamingRunResult",
    "StreamingComparison",
    "run_streaming_under_faults",
    "run_store_forward_under_faults",
    "run_streaming_comparison",
    "main",
]

#: One task is launched every PERIOD seconds, matching the fault schedule's
#: coordinate system (odd-period LinkDowns land at +12 s in the period).
TASK_PERIOD_S = 60.0
DEFAULT_N_TASKS = 4
#: Fat batches over a four-bank tour: enough PI bytes for several chunk
#: boundaries, and a tour long enough that partial results arrive while
#: the agent is still travelling.
DEFAULT_N_TXNS = 24
BANKS = ("bank-a", "bank-b", "bank-c", "bank-d")
#: Small chunks: several chunk boundaries per outage window.
CHUNK_BYTES = 512
#: Tasks launch this far into their period, which puts the chunk burst of
#: the streaming upload squarely under the odd-period LinkDown (at +12 s):
#: the first chunk acks just before the cut, so the session resumes from
#: a real high-water mark — the resume-vs-restart comparison is exercised
#: on this very schedule, not just in unit tests.
UPLOAD_LEAD_S = 6.0

COLLECT_ATTEMPTS = 3
COLLECT_RETRY_WAIT_S = 10.0
#: Application-level deploy retry (same task id — the gateway dedups): the
#: "user taps retry" loop both approaches get, so a deployment that dies
#: against a crashed gateway plus an outage is re-attempted rather than
#: written off.
DEPLOY_ATTEMPTS = 3
DEPLOY_RETRY_WAIT_S = 20.0


@dataclass
class StreamingRunResult:
    """One approach's aggregate over the (possibly faulted) workload."""

    approach: str
    seed: int
    n_tasks: int
    n_transactions: int
    completed: int
    connection_time: float
    #: Device-side ledger: bytes re-sent by transport/shed retries (both
    #: approaches) plus duplicate session chunks (streaming only).
    retransmitted_bytes: int
    uploaded_bytes: int
    faults_injected: int
    #: Per completed task: seconds from task start to the first result
    #: information reaching the device.
    ttfr: list[float] = field(default_factory=list)
    #: Streaming only — session ledgers summed over all tasks.
    chunks_sent: int = 0
    reopens: int = 0
    partials: int = 0
    push_events: int = 0
    #: Every verified result matched its plain re-download byte for byte.
    byte_identical: bool = True
    outcomes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_tasks if self.n_tasks else 0.0

    @property
    def connection_time_per_completed(self) -> float:
        if not self.completed:
            return float("inf")
        return self.connection_time / self.completed

    @property
    def mean_ttfr(self) -> float:
        return sum(self.ttfr) / len(self.ttfr) if self.ttfr else float("inf")

    @property
    def min_ttfr(self) -> float:
        return min(self.ttfr) if self.ttfr else float("inf")


@dataclass
class StreamingComparison:
    """Streaming vs store-and-forward, same seed, same fault schedule."""

    streaming: StreamingRunResult
    store_forward: StreamingRunResult

    @property
    def retransmit_savings(self) -> int:
        return (
            self.store_forward.retransmitted_bytes
            - self.streaming.retransmitted_bytes
        )

    @property
    def ttfr_speedup(self) -> float:
        if self.streaming.mean_ttfr == 0:
            return float("inf")
        return self.store_forward.mean_ttfr / self.streaming.mean_ttfr

    def rows(self) -> list[list]:
        def row(name: str, run: StreamingRunResult) -> list:
            return [
                name,
                f"{run.completed}/{run.n_tasks}",
                round(run.connection_time, 2),
                round(run.connection_time_per_completed, 2),
                round(run.mean_ttfr, 2),
                round(run.min_ttfr, 2),
                run.retransmitted_bytes,
                run.uploaded_bytes,
            ]

        return [
            row("Streaming session", self.streaming),
            row("Store-and-forward", self.store_forward),
        ]

    def render(self) -> str:
        table = format_table(
            [
                "approach",
                "completed",
                "conn time (s)",
                "s/completed",
                "mean TTFR (s)",
                "min TTFR (s)",
                "retransmit (B)",
                "uploaded (B)",
            ],
            self.rows(),
            title=(
                "Streaming sessions vs store-and-forward under the reference "
                f"fault schedule ({self.streaming.faults_injected} fault "
                "transitions recorded)"
            ),
        )
        s = self.streaming
        extra = (
            f"streaming ledgers: {s.chunks_sent} chunk(s), {s.reopens} "
            f"re-open(s), {s.partials} partial(s), {s.push_events} push "
            f"event(s); byte-identical final documents: {s.byte_identical}; "
            f"retransmit savings vs store-and-forward: "
            f"{self.retransmit_savings} B; TTFR speedup: "
            f"{self.ttfr_speedup:.1f}x"
        )
        return f"{table}\n{extra}"


def _install(scenario: EvaluationScenario, schedule: Optional[FaultSchedule]) -> None:
    if schedule is not None and len(schedule):
        schedule.install(scenario.network)


def _upload_wire_bytes(
    scenario: EvaluationScenario, purposes: tuple[str, ...], since: float
) -> int:
    """Bytes the device actually put on the air for uploads.

    Purpose-filtered over the tracer's connection ledger (``upload-pi``
    for store-and-forward, ``session-stream`` for the chunk bursts), this
    is the wire-level cross-check for the retransmit ledger: a restart
    that re-sends a delivered frame shows up here; a dial that never got
    through does not.
    """
    device = scenario.platform.device.address
    return sum(
        rec.bytes_sent
        for rec in scenario.network.tracer.connections
        if rec.initiator == device
        and rec.opened_at >= since
        and any(rec.purpose.startswith(p) for p in purposes)
    )


def _verify_byte_identity(
    scenario: EvaluationScenario, outcomes: list[dict[str, Any]]
) -> bool:
    """Re-download every collected result plainly and compare bytes.

    Runs *after* the measured workload (its connections are not part of
    the comparison) — the streaming layer's contract is that the final
    document is exactly what store-and-forward would have delivered.
    """
    platform = scenario.platform
    sim = scenario.sim
    verdicts: list[bool] = []

    def verify() -> Generator:
        for out in outcomes:
            handle = out.get("handle")
            if handle is None or not out["ok"]:
                continue
            origin = ticket_origin(handle.ticket) or handle.gateway
            try:
                frame = yield from platform.netmanager.download_result(
                    handle.gateway, handle.ticket, origin=origin
                )
            except PDAgentError:
                continue  # result already expired; nothing to compare
            plain = decompress(platform.security.unprotect_result(frame))
            verdicts.append(plain == platform.db.get_result(handle.ticket))
        return True

    sim.run(until=sim.process(verify(), name="streaming-verify"))
    return all(verdicts)


def run_streaming_under_faults(
    seed: int = 0,
    n_tasks: int = DEFAULT_N_TASKS,
    n_transactions: int = DEFAULT_N_TXNS,
    schedule: Optional[FaultSchedule] = None,
    collector: Optional[TraceCollector] = None,
    label: str = "streaming/session",
) -> StreamingRunResult:
    """Run ``n_tasks`` periodic batches over chunked streaming sessions."""
    scenario = build_scenario(
        seed=seed,
        n_gateways=2,
        banks=BANKS,
        config=PDAgentConfig(
            selection_policy="first",
            session_enabled=True,
            session_chunk_bytes=CHUNK_BYTES,
        ),
    )
    sim = scenario.sim
    platform = scenario.platform
    _install(scenario, schedule)
    t_base = sim.now
    txns = scenario.transactions(n_transactions)
    outcomes: list[dict[str, Any]] = []
    sessions: list = []

    def task(k: int) -> Generator:
        yield sim.timeout(k * TASK_PERIOD_S + UPLOAD_LEAD_S)
        t0 = sim.now
        out: dict[str, Any] = {"task": k, "ok": False, "ttfr": None, "detail": ""}
        outcomes.append(out)
        task_id = platform.dispatcher.new_task_id()
        dispatch = None
        for attempt in range(DEPLOY_ATTEMPTS):
            try:
                dispatch = yield from platform.deploy_streaming(
                    "ebanking", {"transactions": txns},
                    stops=scenario.stops(), task_id=task_id,
                )
                break
            except PDAgentError as exc:
                out["detail"] = f"deploy failed: {exc}"
                yield sim.timeout(DEPLOY_RETRY_WAIT_S)
        if dispatch is None:
            return
        sessions.append(dispatch.session)
        out["handle"] = dispatch.handle
        for attempt in range(COLLECT_ATTEMPTS):
            try:
                result = yield from platform.collect_streaming(dispatch)
            except PDAgentError as exc:
                out["detail"] = f"collect failed: {exc}"
                yield sim.timeout(COLLECT_RETRY_WAIT_S)
                continue
            out["ok"] = result.status == "completed"
            out["detail"] = f"status {result.status!r}"
            break
        if out["ok"] and dispatch.session.first_partial_at is not None:
            out["ttfr"] = dispatch.session.first_partial_at - t0

    procs = [sim.process(task(k), name=f"stream-task:{k}") for k in range(n_tasks)]
    sim.run(until=sim.all_of(procs))
    connection_time = scenario.network.tracer.connection_time(
        platform.device.address, since=t_base
    )
    byte_identical = _verify_byte_identity(scenario, outcomes)
    if collector is not None:
        collector.add_run(label, scenario.network)
    return StreamingRunResult(
        approach="streaming",
        seed=seed,
        n_tasks=n_tasks,
        n_transactions=n_transactions,
        completed=sum(1 for o in outcomes if o["ok"]),
        connection_time=connection_time,
        retransmitted_bytes=platform.netmanager.retransmitted_bytes,
        uploaded_bytes=_upload_wire_bytes(
            scenario, ("session-stream",), t_base
        ),
        faults_injected=len(scenario.network.tracer.faults),
        ttfr=[o["ttfr"] for o in outcomes if o["ttfr"] is not None],
        chunks_sent=sum(s.chunks_sent for s in sessions),
        reopens=sum(s.reopens for s in sessions),
        partials=sum(len(s.partials) for s in sessions),
        push_events=sum(len(s.events) for s in sessions),
        byte_identical=byte_identical,
        outcomes=sorted(outcomes, key=lambda o: o["task"]),
    )


def run_store_forward_under_faults(
    seed: int = 0,
    n_tasks: int = DEFAULT_N_TASKS,
    n_transactions: int = DEFAULT_N_TXNS,
    schedule: Optional[FaultSchedule] = None,
    collector: Optional[TraceCollector] = None,
    label: str = "streaming/store-forward",
) -> StreamingRunResult:
    """The classic deploy/collect twin on the same workload and schedule.

    Time-to-first-result is the successful collect's completion time —
    store-and-forward shows the user nothing until the whole document is
    down.
    """
    scenario = build_scenario(
        seed=seed,
        n_gateways=2,
        banks=BANKS,
        config=PDAgentConfig(selection_policy="first"),
    )
    sim = scenario.sim
    platform = scenario.platform
    _install(scenario, schedule)
    t_base = sim.now
    txns = scenario.transactions(n_transactions)
    outcomes: list[dict[str, Any]] = []

    def task(k: int) -> Generator:
        yield sim.timeout(k * TASK_PERIOD_S + UPLOAD_LEAD_S)
        t0 = sim.now
        out: dict[str, Any] = {"task": k, "ok": False, "ttfr": None, "detail": ""}
        outcomes.append(out)
        task_id = platform.dispatcher.new_task_id()
        handle = None
        for attempt in range(DEPLOY_ATTEMPTS):
            try:
                handle = yield from platform.deploy(
                    "ebanking", {"transactions": txns},
                    stops=scenario.stops(), task_id=task_id,
                )
                break
            except PDAgentError as exc:
                out["detail"] = f"deploy failed: {exc}"
                yield sim.timeout(DEPLOY_RETRY_WAIT_S)
        if handle is None:
            return
        out["handle"] = handle
        for attempt in range(COLLECT_ATTEMPTS):
            try:
                # Realistic disconnected operation: the device re-dials and
                # polls (with the hop-progress adaptive interval) — the
                # same footing the streaming run's session polls are on.
                result = yield from platform.collect_poll(handle)
            except PDAgentError as exc:
                out["detail"] = f"collect failed: {exc}"
                yield sim.timeout(COLLECT_RETRY_WAIT_S)
                continue
            out["ok"] = result.status == "completed"
            out["detail"] = f"status {result.status!r}"
            break
        if out["ok"]:
            out["ttfr"] = sim.now - t0

    procs = [sim.process(task(k), name=f"sf-task:{k}") for k in range(n_tasks)]
    sim.run(until=sim.all_of(procs))
    if collector is not None:
        collector.add_run(label, scenario.network)
    return StreamingRunResult(
        approach="store-forward",
        seed=seed,
        n_tasks=n_tasks,
        n_transactions=n_transactions,
        completed=sum(1 for o in outcomes if o["ok"]),
        connection_time=scenario.network.tracer.connection_time(
            platform.device.address, since=t_base
        ),
        retransmitted_bytes=platform.netmanager.retransmitted_bytes,
        uploaded_bytes=_upload_wire_bytes(scenario, ("upload-pi",), t_base),
        faults_injected=len(scenario.network.tracer.faults),
        ttfr=[o["ttfr"] for o in outcomes if o["ttfr"] is not None],
        outcomes=sorted(outcomes, key=lambda o: o["task"]),
    )


def run_streaming_comparison(
    seed: int = 0,
    n_tasks: int = DEFAULT_N_TASKS,
    n_transactions: int = DEFAULT_N_TXNS,
    collector: Optional[TraceCollector] = None,
) -> StreamingComparison:
    """Both flows under identical copies of the reference fault schedule."""
    return StreamingComparison(
        streaming=run_streaming_under_faults(
            seed, n_tasks, n_transactions,
            schedule=reference_schedule(n_tasks, TASK_PERIOD_S),
            collector=collector,
        ),
        store_forward=run_store_forward_under_faults(
            seed, n_tasks, n_transactions,
            schedule=reference_schedule(n_tasks, TASK_PERIOD_S),
            collector=collector,
        ),
    )


def main(
    seed: int = 0, collector: Optional[TraceCollector] = None
) -> StreamingComparison:
    comparison = run_streaming_comparison(seed=seed, collector=collector)
    print(comparison.render())
    return comparison


if __name__ == "__main__":  # pragma: no cover
    main()
