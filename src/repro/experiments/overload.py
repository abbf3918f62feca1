"""Overload experiment: graceful degradation vs collapse under retry storms.

The paper positions the gateway tier as the tier that absorbs "heavy
traffic from millions of users" on behalf of weak wireless devices; this
experiment makes that claim measurable at simulation scale.  A growing
population of PDAs all dispatch an e-banking agent through a *single*
deliberately under-provisioned gateway (one dispatch worker, a fixed
per-dispatch cost) while a fault schedule cuts the gateway's uplink
mid-burst.  Outages that swallow in-flight *responses* are the nasty case:
the agent was dispatched but the device never learned its ticket, so it
retries — a retry storm against an already-loaded gateway.

Two configurations face the same seed, population and fault schedule:

* **protected** — PR-3's overload layer on: bounded intake queues, a token
  bucket, 503 load sheds with ``Retry-After`` (breaker-neutral), and the
  exactly-once dedup table, so a retried upload lands on its existing
  ticket without paying the dispatch cost again.
* **unprotected** — admission control *and* dedup off: the same finite
  worker pool behind an unbounded queue.  A retried frame trips the
  nonce-replay 403, the application retries with a fresh dispatch, and the
  gateway happily runs **duplicate agents** — each one more load.

Reported per (population, mode): completion rate, p50/p99 task latency,
real dispatches vs duplicate dispatches, load sheds, dedup hits and
device-side retry totals.  The headline: the protected gateway sheds but
keeps p99 bounded and duplicates at zero; the unprotected one's tail and
duplicate count grow with the population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..core import PDAgentConfig
from ..core.errors import PDAgentError
from ..simnet.faults import FaultSchedule, LinkDown
from ..telemetry.exporters import TraceCollector
from .fleet import (
    ACCESS_POINT,
    PopulationSweep,
    SweepLayout,
    build_world,
    count_dispatches,
    deploy_ebanking,
    population_sweep,
)

__all__ = [
    "OverloadRunResult",
    "overload_config",
    "overload_schedule",
    "percentile",
    "run_overload",
    "run_overload_sweep",
]

#: The one gateway every device dispatches through.
GATEWAY = "gw-0"

#: Device populations swept (the CLI caps this via ``--max-n``).
DEFAULT_POPULATIONS = (2, 4, 8, 12)

#: Device ``k`` submits its task at ``k * STAGGER_S`` — close enough to
#: pile up on the single dispatch worker, spread enough that arrival order
#: is deterministic.
STAGGER_S = 0.15

#: Application-level retry: on a failed deployment the user resubmits the
#: *same task* (same idempotency key) a little later.
APP_RETRY_ATTEMPTS = 4
APP_RETRY_WAIT_S = 10.0
COLLECT_ATTEMPTS = 3
COLLECT_RETRY_WAIT_S = 5.0


def overload_config(protected: bool) -> PDAgentConfig:
    """The experiment's gateway sizing; ``protected`` toggles PR-3's layer.

    One dispatch worker plus a fixed 1 s dispatch cost make the gateway
    the bottleneck by construction: every duplicate dispatch the
    unprotected gateway accepts costs another full worker-second, while
    the protected gateway's dedup fast path answers retries without
    touching the worker at all.  A generous retry budget keeps devices
    alive across the outage windows so the difference between the modes is
    the *gateway's* behaviour, not the devices giving up.
    """
    return PDAgentConfig(
        selection_policy="first",
        gateway_dispatch_workers=1,
        dispatch_cost_s=1.0,
        admission_queue_limit=2,
        admission_rate=4.0,
        admission_burst=4,
        shed_retry_after_s=1.5,
        retry_max_attempts=8,
        retry_deadline_s=600.0,
        retry_after_cap_s=30.0,
        admission_enabled=protected,
        dedup_enabled=protected,
    )


def overload_schedule() -> FaultSchedule:
    """Two gateway-uplink outages timed to swallow dispatch *responses*.

    With a 0.15 s submission stagger and ~0.25 s per dispatch, the first
    window (0.8 s in) opens while the single worker is still draining the
    initial burst: agents dispatched during the window complete, but their
    ticket responses die on the downed link, so those devices retry.  The
    second window catches the application-level resubmissions (~10 s after
    their failed deploys) for a second storm.  Times are offsets from
    workload start (:meth:`FaultSchedule.install` time).

    Cutting the access point's uplink severs every device<->gateway path
    at once while the wired side — the gateway, the banks, the agents
    already touring — keeps working.  That isolates the nasty failure:
    work done, response lost, device retries.
    """
    schedule = FaultSchedule()
    schedule.add(LinkDown(ACCESS_POINT, "backbone", at=0.8, duration=5.0))
    schedule.add(LinkDown(ACCESS_POINT, "backbone", at=14.0, duration=4.0))
    return schedule


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 1] (nan when empty)."""
    if not values:
        return float("nan")
    xs = sorted(values)
    k = (len(xs) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


@dataclass
class OverloadRunResult:
    """One (population, mode) run's aggregates."""

    mode: str
    seed: int
    n_devices: int
    completed: int
    latencies: list[float]
    dispatches: int
    duplicate_dispatches: int
    sheds: int
    dedup_hits: int
    shed_waits: int
    transport_retries: int
    outcomes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_devices if self.n_devices else 0.0

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)

    @property
    def device_retries(self) -> int:
        """Transport retries plus load-shed waits, over all devices."""
        return self.transport_retries + self.shed_waits


def run_overload(
    seed: int = 0,
    n_devices: int = 8,
    protected: bool = True,
    schedule: Optional[FaultSchedule] = None,
    collector: Optional[TraceCollector] = None,
    label: str = "",
) -> OverloadRunResult:
    """One population under one mode; same seed ⇒ identical replay.

    Every device pre-generates its task id and reuses it across
    application-level resubmissions, so the gateway can tell "the same
    task, retried" from "a new task" — the exactly-once contract under
    test.  A task succeeds when its ticket completes and the result
    collects with status ``"completed"``.
    """
    mode = "protected" if protected else "unprotected"
    deployment = build_world(
        seed, n_devices, overload_config(protected), gateways=(GATEWAY,)
    )
    sim = deployment.sim
    network = deployment.network
    if schedule is not None and len(schedule):
        schedule.install(network)
    outcomes: list[dict[str, Any]] = []
    latencies: list[float] = []

    def task(k: int) -> Generator:
        platform = deployment.platform(f"pda-{k}")
        yield sim.timeout(k * STAGGER_S)
        t0 = sim.now
        out: dict[str, Any] = {"device": k, "ok": False, "detail": ""}
        outcomes.append(out)
        task_id = platform.dispatcher.new_task_id()
        handle = None
        for attempt in range(APP_RETRY_ATTEMPTS):
            try:
                handle = yield from deploy_ebanking(platform, GATEWAY, task_id)
            except PDAgentError as exc:
                out["detail"] = f"deploy attempt {attempt + 1} failed: {exc}"
                yield sim.timeout(APP_RETRY_WAIT_S)
                continue
            ticket = deployment.gateway(GATEWAY).ticket(handle.ticket)
            disposition = yield ticket.completed
            if disposition == "completed":
                break
            # A "failed" finalization unbinds the dedup entry, so this
            # resubmission (same task id) legitimately dispatches afresh.
            out["detail"] = f"ticket finalized {disposition!r}"
            handle = None
            yield sim.timeout(APP_RETRY_WAIT_S)
        if handle is None:
            return
        for _ in range(COLLECT_ATTEMPTS):
            try:
                result = yield from platform.collect(handle)
            except PDAgentError as exc:
                out["detail"] = f"collect failed: {exc}"
                yield sim.timeout(COLLECT_RETRY_WAIT_S)
                continue
            out["ok"] = result.status == "completed"
            out["detail"] = f"status {result.status!r}"
            if out["ok"]:
                latencies.append(sim.now - t0)
            return

    procs = [
        sim.process(task(k), name=f"overload-task:{k}")
        for k in range(n_devices)
    ]
    sim.run(until=sim.all_of(procs))
    if collector is not None:
        collector.add_run(label or f"overload/{mode}-{n_devices}", network)
    counters = network.telemetry.metrics.snapshot()["counters"]
    dispatches, duplicates = count_dispatches(deployment, (GATEWAY,))
    platforms = [deployment.platform(f"pda-{k}") for k in range(n_devices)]
    return OverloadRunResult(
        mode=mode,
        seed=seed,
        n_devices=n_devices,
        completed=sum(1 for o in outcomes if o["ok"]),
        latencies=sorted(latencies),
        dispatches=dispatches,
        duplicate_dispatches=duplicates,
        sheds=counters.get("gateway.shed", 0),
        dedup_hits=counters.get("gateway.dedup_hit", 0),
        shed_waits=sum(p.netmanager.shed_waits for p in platforms),
        transport_retries=sum(p.netmanager.retries for p in platforms),
        outcomes=sorted(outcomes, key=lambda o: o["device"]),
    )


OVERLOAD_LAYOUT = SweepLayout(
    title=(
        "Overload: e-banking dispatch storm through one "
        "single-worker gateway under uplink outages"
    ),
    table={
        "p50 (s)": "p50",
        "p99 (s)": "p99",
        "dispatches": "dispatches",
        "dup dispatches": "duplicate_dispatches",
        "sheds": "sheds",
        "dedup hits": "dedup_hits",
        "device retries": "device_retries",
    },
    csv={
        "p50_s": "p50",
        "p99_s": "p99",
        "dispatches": "dispatches",
        "duplicate_dispatches": "duplicate_dispatches",
        "sheds": "sheds",
        "dedup_hits": "dedup_hits",
        "shed_waits": "shed_waits",
        "transport_retries": "transport_retries",
    },
    headline=lambda prot, unprot: (
        f"At n={prot.n_devices}: protected p99 {prot.p99:.2f}s with "
        f"{prot.duplicate_dispatches} duplicate dispatch(es); unprotected "
        f"p99 {unprot.p99:.2f}s with {unprot.duplicate_dispatches}"
    ),
)


def run_overload_sweep(
    seed: int = 0,
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    collector: Optional[TraceCollector] = None,
) -> PopulationSweep:
    """Protected vs unprotected per population, fresh schedule each run."""

    def run(seed: int, n: int, protected: bool, collector) -> OverloadRunResult:
        return run_overload(
            seed, n, protected, schedule=overload_schedule(), collector=collector
        )

    return population_sweep(run, OVERLOAD_LAYOUT, seed, populations, collector)
