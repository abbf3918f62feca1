"""Fault-tolerance experiment: the Fig. 12 workload under injected faults.

The paper's §3.5 reliability argument ("it also helps to provide a reliable
network connection") is qualitative; this experiment makes it measurable.
The e-banking workload is run as a sequence of periodic tasks while a
:class:`~repro.simnet.faults.FaultSchedule` degrades the wireless link, cuts
it entirely, and crashes a bank site and a gateway.  Both approaches face
the *same* schedule:

* **PDAgent** is online only for the short PI upload and result download;
  transport failures inside those windows are retried with backoff, a dead
  gateway fails over to the next-best one, a dead tour site is skipped (or
  recovered by the home guardian), and a lost agent is finalized "failed"
  by the ticket watchdog instead of hanging the user.
* **Client-server** holds a connection for the whole batch, so any fault
  overlapping the (much longer) session kills the task outright.

Reported per approach: task completion rate, connection time added by the
faults (vs a fault-free twin run with the same seed), and retry counts —
the reproduction's Fig. 12 companion under adverse conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..core.errors import PDAgentError
from ..simnet.faults import FaultSchedule, LinkDegrade, LinkDown, NodeCrash
from ..simnet.topology import NoRouteError
from ..simnet.transport import ConnectionClosed, TransportError
from ..telemetry.exporters import TraceCollector
from .report import format_table
from .scenario import EvaluationScenario, build_scenario

__all__ = [
    "FaultRunResult",
    "FaultComparison",
    "reference_schedule",
    "run_pdagent_under_faults",
    "run_client_server_under_faults",
    "run_fault_comparison",
    "main",
]

#: One task is launched every PERIOD seconds (a user submitting a batch).
TASK_PERIOD_S = 60.0
DEFAULT_N_TASKS = 6
DEFAULT_N_TXNS = 4

#: How often (and how long) the device re-tries collecting a finished
#: result when the first download attempt fails — the "user reconnects a
#: little later" behaviour PDAgent's disconnected operation affords.
COLLECT_ATTEMPTS = 3
COLLECT_RETRY_WAIT_S = 10.0


def reference_schedule(
    n_tasks: int = DEFAULT_N_TASKS, period: float = TASK_PERIOD_S
) -> FaultSchedule:
    """The experiment's fault script (times relative to workload start).

    * an early lossy/slow window on the wireless link (retransmissions and
      device-side retries, but no hard failures);
    * a full wireless outage in the middle of every *odd* task period —
      client-server sessions (~20–25 s long on GPRS) are still connected
      then; PDAgent's online windows are already over;
    * ``bank-b`` crashes across task 2's tour (agent skips / recovers, the
      client-server session is refused);
    * ``gw-0`` crashes just before task 3's upload (PDAgent retries, then
      fails over to ``gw-1``; client-server does not use gateways).
    """
    schedule = FaultSchedule()
    schedule.add(
        LinkDegrade(
            "pda", "backbone", at=5.0, duration=6.0,
            latency_factor=1.5, loss=0.3,
        )
    )
    for k in range(1, n_tasks, 2):
        schedule.add(LinkDown("pda", "backbone", at=k * period + 12.0, duration=8.0))
    if n_tasks > 2:
        schedule.add(NodeCrash("bank-b", at=2 * period + 2.0, duration=20.0))
    if n_tasks > 3:
        schedule.add(NodeCrash("gw-0", at=3 * period - 2.0, duration=12.0))
    return schedule


@dataclass
class FaultRunResult:
    """One approach's aggregate over the faulted (or fault-free) workload."""

    approach: str
    seed: int
    n_tasks: int
    n_transactions: int
    completed: int
    connection_time: float
    retries: int
    retransmissions: int
    faults_injected: int
    watchdog_failures: int
    sites_skipped: int
    redispatches: int
    outcomes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_tasks if self.n_tasks else 0.0

    @property
    def connection_time_per_completed(self) -> float:
        """Connection seconds spent per *successful* task.

        Failed client-server sessions still paid for their connection up to
        the fault, so this is the metric where wasted online time shows —
        total connection time alone can *shrink* under faults (sessions die
        early) while the cost of useful work explodes.
        """
        if not self.completed:
            return float("inf")
        return self.connection_time / self.completed


@dataclass
class FaultComparison:
    """Faulted runs plus their fault-free twins (same seeds)."""

    pdagent: FaultRunResult
    pdagent_baseline: FaultRunResult
    client_server: FaultRunResult
    client_server_baseline: FaultRunResult

    @property
    def pdagent_added_connection_time(self) -> float:
        return self.pdagent.connection_time - self.pdagent_baseline.connection_time

    @property
    def client_server_added_connection_time(self) -> float:
        return (
            self.client_server.connection_time
            - self.client_server_baseline.connection_time
        )

    def rows(self) -> list[list]:
        def row(
            name: str, run: FaultRunResult, baseline: FaultRunResult, added: float
        ) -> list:
            return [
                name,
                f"{run.completed}/{run.n_tasks}",
                f"{100.0 * run.completion_rate:.0f}%",
                round(run.connection_time, 2),
                round(added, 2),
                round(run.connection_time_per_completed, 2),
                round(baseline.connection_time_per_completed, 2),
                run.retries,
                run.retransmissions,
            ]

        return [
            row(
                "PDAgent",
                self.pdagent,
                self.pdagent_baseline,
                self.pdagent_added_connection_time,
            ),
            row(
                "Client-Server",
                self.client_server,
                self.client_server_baseline,
                self.client_server_added_connection_time,
            ),
        ]

    def render(self) -> str:
        table = format_table(
            [
                "approach",
                "completed",
                "rate",
                "conn time (s)",
                "added by faults (s)",
                "s/completed",
                "fault-free s/completed",
                "retries",
                "retransmits",
            ],
            self.rows(),
            title=(
                "Fault tolerance: e-banking workload under the reference "
                f"fault schedule ({self.pdagent.faults_injected} fault "
                "transitions recorded)"
            ),
        )
        extra = (
            f"PDAgent recovery: {self.pdagent.sites_skipped} site(s) skipped, "
            f"{self.pdagent.redispatches} checkpoint re-dispatch(es), "
            f"{self.pdagent.watchdog_failures} watchdog-failed ticket(s)"
        )
        return f"{table}\n{extra}"


def _install(scenario: EvaluationScenario, schedule: Optional[FaultSchedule]) -> None:
    if schedule is not None and len(schedule):
        schedule.install(scenario.network)


def _collect_counters(scenario: EvaluationScenario) -> dict[str, int]:
    counters = scenario.network.telemetry.metrics.snapshot()["counters"]
    return {
        "watchdog_failures": counters.get("gateway_watchdog_failures", 0),
        "sites_skipped": counters.get("sites_skipped", 0),
        "redispatches": counters.get("agents_redispatched", 0),
        "retransmissions": sum(l.retransmissions for l in scenario.network.links),
    }


def run_pdagent_under_faults(
    seed: int = 0,
    n_tasks: int = DEFAULT_N_TASKS,
    n_transactions: int = DEFAULT_N_TXNS,
    schedule: Optional[FaultSchedule] = None,
    collector: Optional[TraceCollector] = None,
    label: str = "faults/pdagent",
) -> FaultRunResult:
    """Run ``n_tasks`` periodic PDAgent batches under ``schedule``.

    A task succeeds when its ticket completes and the result document is
    collected with status ``"completed"``.  Tickets the watchdog finalizes
    as ``"failed"``, deployments that exhaust retry + failover, and
    uncollectable results count as failures.

    Selection runs with the ``"first"`` policy (always ``gw-0``) instead of
    the paper's RTT-nearest one so the schedule's ``gw-0`` crash provably
    hits the gateway the device is about to use — the retry budget, the
    circuit breaker, and the failover to ``gw-1`` are all exercised on the
    same seed every run.
    """
    from ..core import PDAgentConfig

    scenario = build_scenario(
        seed=seed, n_gateways=2, config=PDAgentConfig(selection_policy="first")
    )
    sim = scenario.sim
    platform = scenario.platform
    _install(scenario, schedule)
    t_base = sim.now
    txns = scenario.transactions(n_transactions)
    outcomes: list[dict[str, Any]] = []

    def task(k: int) -> Generator:
        yield sim.timeout(k * TASK_PERIOD_S)
        out: dict[str, Any] = {"task": k, "ok": False, "detail": ""}
        outcomes.append(out)
        try:
            handle = yield from platform.deploy(
                "ebanking", {"transactions": txns}, stops=scenario.stops()
            )
        except PDAgentError as exc:
            out["detail"] = f"deploy failed: {exc}"
            return
        ticket = scenario.deployment.gateway(handle.gateway).ticket(handle.ticket)
        disposition = yield ticket.completed
        if disposition != "completed":
            out["detail"] = f"ticket finalized {disposition!r}"
            return
        for attempt in range(COLLECT_ATTEMPTS):
            try:
                result = yield from platform.collect(handle)
            except PDAgentError as exc:
                out["detail"] = f"collect failed: {exc}"
                yield sim.timeout(COLLECT_RETRY_WAIT_S)
                continue
            out["ok"] = result.status == "completed"
            out["detail"] = f"status {result.status!r} via {handle.gateway}"
            return

    procs = [sim.process(task(k), name=f"fault-task:{k}") for k in range(n_tasks)]
    sim.run(until=sim.all_of(procs))
    if collector is not None:
        collector.add_run(label, scenario.network)
    counters = _collect_counters(scenario)
    return FaultRunResult(
        approach="pdagent",
        seed=seed,
        n_tasks=n_tasks,
        n_transactions=n_transactions,
        completed=sum(1 for o in outcomes if o["ok"]),
        connection_time=scenario.network.tracer.connection_time(
            platform.device.address, since=t_base
        ),
        retries=platform.netmanager.retries,
        faults_injected=len(scenario.network.tracer.faults),
        outcomes=sorted(outcomes, key=lambda o: o["task"]),
        **counters,
    )


def run_client_server_under_faults(
    seed: int = 0,
    n_tasks: int = DEFAULT_N_TASKS,
    n_transactions: int = DEFAULT_N_TXNS,
    schedule: Optional[FaultSchedule] = None,
    collector: Optional[TraceCollector] = None,
    label: str = "faults/client-server",
) -> FaultRunResult:
    """Client-server twin of :func:`run_pdagent_under_faults`.

    Each task is one connected session per bank; a transport failure while
    the session is open fails the whole task (there is no agent to carry
    the work through the outage).
    """
    scenario = build_scenario(seed=seed, n_gateways=2)
    sim = scenario.sim
    _install(scenario, schedule)
    t_base = sim.now
    txns = scenario.transactions(n_transactions)
    outcomes: list[dict[str, Any]] = []

    def task(k: int) -> Generator:
        yield sim.timeout(k * TASK_PERIOD_S)
        out: dict[str, Any] = {"task": k, "ok": False, "detail": ""}
        outcomes.append(out)
        runner = scenario.client_server_runner()
        try:
            res = yield from runner.run(list(txns))
        except (TransportError, NoRouteError, ConnectionClosed) as exc:
            out["detail"] = f"session failed: {exc}"
            return
        ok_details = [d for d in res.details if d.get("status") == "ok"]
        out["ok"] = len(ok_details) == len(txns)
        out["detail"] = f"{len(ok_details)}/{len(txns)} transactions ok"

    procs = [sim.process(task(k), name=f"cs-fault-task:{k}") for k in range(n_tasks)]
    sim.run(until=sim.all_of(procs))
    if collector is not None:
        collector.add_run(label, scenario.network)
    counters = _collect_counters(scenario)
    return FaultRunResult(
        approach="client-server",
        seed=seed,
        n_tasks=n_tasks,
        n_transactions=n_transactions,
        completed=sum(1 for o in outcomes if o["ok"]),
        connection_time=scenario.network.tracer.connection_time("pda", since=t_base),
        retries=0,  # the model has no application-level retry to count
        faults_injected=len(scenario.network.tracer.faults),
        outcomes=sorted(outcomes, key=lambda o: o["task"]),
        **counters,
    )


def run_fault_comparison(
    seed: int = 0,
    n_tasks: int = DEFAULT_N_TASKS,
    n_transactions: int = DEFAULT_N_TXNS,
    collector: Optional[TraceCollector] = None,
) -> FaultComparison:
    """Both approaches, faulted and fault-free, same seed throughout."""
    schedule = reference_schedule(n_tasks)
    return FaultComparison(
        pdagent=run_pdagent_under_faults(
            seed, n_tasks, n_transactions, schedule=schedule,
            collector=collector, label="faults/pdagent",
        ),
        pdagent_baseline=run_pdagent_under_faults(
            seed, n_tasks, n_transactions,
            collector=collector, label="faults/pdagent-baseline",
        ),
        client_server=run_client_server_under_faults(
            seed, n_tasks, n_transactions, schedule=reference_schedule(n_tasks),
            collector=collector, label="faults/client-server",
        ),
        client_server_baseline=run_client_server_under_faults(
            seed, n_tasks, n_transactions,
            collector=collector, label="faults/client-server-baseline",
        ),
    )


def main(seed: int = 0, collector: Optional[TraceCollector] = None) -> FaultComparison:
    comparison = run_fault_comparison(seed=seed, collector=collector)
    print(comparison.render())
    return comparison


if __name__ == "__main__":  # pragma: no cover
    main()
