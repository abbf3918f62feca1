"""Scenario harness: build a deployment from a spec, drive it, report.

:func:`run_spec` is the single entry point of the model checker: it wires a
full PDAgent deployment (central + gateways + sites + access points +
devices) from a :class:`~repro.simtest.spec.ScenarioSpec`, spawns one kernel
process per user task (plus fault drivers, gateway crash drivers, mobility
movers and the optional overload burst), runs the simulation to quiescence,
evaluates every global invariant, and exports the run's telemetry as the
same byte-stable JSONL the experiments use — the replay contract:

    run_spec(spec).jsonl == run_spec(spec).jsonl   # always, byte for byte

Task processes catch *expected* platform errors (:class:`PDAgentError`
subclasses) and record them as structured outcomes; anything else is
recorded as ``unexpected:`` and condemned by the loss invariant regardless
of fault activity — an exception class the harness does not know about is a
bug even in a chaos run.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from typing import Any, Generator, Optional

from ..apps import mix
from ..core import DeploymentBuilder, PDAgentConfig
from ..core.deployment import Deployment
from ..core.gateway import ticket_origin
from ..core.errors import (
    DeadlineExpiredError,
    GatewayOverloadedError,
    PDAgentError,
    ResultNotReadyError,
)
from ..device import link_profile
from ..device.mobility import schedule as mobility_schedule
from ..mas import Stop
from ..simnet.faults import FaultSchedule, LinkDegrade, LinkDown, NodeCrash
from ..telemetry.exporters import TraceCollector
from .invariants import RunContext, Violation, check_all
from .spec import DeviceSpec, ScenarioSpec, TaskSpec

__all__ = ["TaskOutcome", "RunReport", "run_spec", "build_deployment"]

#: Application-level retry counts/waits.  Bounded so every task process
#: terminates far before the scenario horizon even when everything fails.
DEPLOY_ATTEMPTS = 3
DEPLOY_RETRY_WAIT_S = 5.0
COLLECT_ATTEMPTS = 6
COLLECT_RETRY_WAIT_S = 10.0


@dataclass
class TaskOutcome:
    """What one logical user task ended as."""

    device: str
    app: str
    task_id: str = ""
    ok: bool = False
    #: Structured failure class, e.g. "deploy:GatewayError" or
    #: "unexpected: ZeroDivisionError(...)"; "" on success.
    detail: str = ""
    gateway: str = ""
    ticket: str = ""
    finished_at: float = -1.0
    burst: bool = False
    injected: bool = False
    #: Task rode the streaming session layer (chunked upload + poll).
    session: bool = False
    #: Absolute sim-time deadline carried in the PI (0 = none) — the
    #: ``deadline-dispatch`` invariant audits gateway tickets against it.
    deadline: float = 0.0
    #: The shard sites a jobfarm task fanned out over — the
    #: ``jobfarm-merge`` invariant compares the merged result against them.
    sites: tuple = ()
    #: The collected result document's data payload (None until collected).
    data: Any = None


@dataclass
class RunReport:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    outcomes: list[TaskOutcome]
    violations: list[Violation]
    events_processed: int
    sim_end: float
    #: Byte-stable telemetry export — identical across replays of the spec.
    jsonl: str

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    def summary(self) -> str:
        head = (
            f"seed {self.spec.seed}: {self.completed}/{len(self.outcomes)} "
            f"task(s) ok, {self.events_processed} events, "
            f"{len(self.violations)} violation(s)"
        )
        lines = [head]
        lines += [f"  VIOLATION {v.invariant}: {v.detail}" for v in self.violations]
        return "\n".join(lines)


# ---------------------------------------------------------------- building
def _config_for(spec: ScenarioSpec) -> PDAgentConfig:
    """Platform tuning for swarm runs.

    Small admission pools make the overload burst actually shed; the "first"
    selection policy keeps auto-selection deterministic without probe RTT
    noise dominating scenario variety; a 60s watchdog bounds every stuck
    ticket well inside the horizon.  Dedup goes off only for the deliberate
    exactly-once injection.

    Fleet specs additionally share one fleet across the gateways, whose
    members keep their dedup index and sessions across a crash, with a
    dedup TTL; other specs keep each gateway a fleet of one under the
    pre-fleet configuration, so their timelines (and stored artifacts)
    stay stable.
    Streaming specs likewise turn on the session layer — with chunks small
    enough that a generated mid-upload LinkDown really lands between
    chunks, exercising resume rather than a single-exchange retry.
    """
    extra_knobs: dict[str, Any] = {}
    if spec.fleet:
        extra_knobs.update(
            fleet_enabled=True,
            dedup_ttl_s=300.0,
            # Membership lifecycle: tight deterministic timers so failure
            # detection, drain quiesce, and rejoin all settle well inside
            # the horizon even when a scenario stacks churn on faults.
            fleet_suspicion_timeout_s=4.0,
            fleet_drain_timeout_s=20.0,
        )
    if spec.streaming:
        extra_knobs.update(
            session_enabled=True,
            session_chunk_bytes=256,
        )
    return PDAgentConfig(
        selection_policy="first",
        ticket_watchdog_s=60.0,
        retry_deadline_s=30.0,
        gateway_dispatch_workers=2,
        admission_queue_limit=3,
        breaker_cooldown_s=10.0,
        dedup_enabled=not spec.inject_double_dispatch,
        **extra_knobs,
    )


def build_deployment(spec: ScenarioSpec) -> Deployment:
    """Wire the scenario's world: infrastructure, apps, access points."""
    builder = DeploymentBuilder(master_seed=spec.seed, config=_config_for(spec))
    builder.add_central("central")
    for gw in spec.gateways:
        builder.add_gateway(gw)
    mix.install(builder, spec.sites)
    # Access points: router nodes between device radios and the backbone,
    # so mobility (re-homing to another AP) and AP-uplink faults are real
    # topology events, not no-ops.
    for j in range(spec.n_aps):
        builder.add_access_point(f"ap-{j}")
    for dev in spec.devices:
        builder.add_device(
            dev.name,
            profile=dev.profile,
            wireless=dev.wireless,
            attach_to=f"ap-{dev.ap}",
        )
    return builder.build()


def _fault_edge(spec: ScenarioSpec, target: str) -> tuple[str, str]:
    """Resolve a symbolic fault target to a concrete link edge."""
    kind, _, name = target.partition(":")
    if kind == "ap":
        return (f"ap-{name}", "backbone")
    if kind in ("gw", "site"):
        return (name, "backbone")
    if kind == "dev":
        for dev in spec.devices:
            if dev.name == name:
                return (name, f"ap-{dev.ap}")
        raise ValueError(f"fault targets unknown device {name!r}")
    raise ValueError(f"unknown fault target {target!r}")


def _fault_schedule(spec: ScenarioSpec) -> FaultSchedule:
    schedule = FaultSchedule()
    for fault in spec.faults:
        if fault.kind == "site-crash":
            _, _, site = fault.target.partition(":")
            schedule.add(NodeCrash(site, at=fault.at, duration=fault.duration))
            continue
        src, dst = _fault_edge(spec, fault.target)
        if fault.kind == "link-down":
            schedule.add(LinkDown(src, dst, at=fault.at, duration=fault.duration))
        else:
            schedule.add(
                LinkDegrade(
                    src,
                    dst,
                    at=fault.at,
                    duration=fault.duration,
                    latency_factor=fault.latency_factor,
                    loss=fault.loss,
                )
            )
    return schedule


# ---------------------------------------------------------------- task drive
class _Harness:
    """One scenario run's mutable state (ledgers the invariants audit)."""

    def __init__(self, spec: ScenarioSpec, deployment: Deployment) -> None:
        self.spec = spec
        self.deployment = deployment
        self.sim = deployment.sim
        self.outcomes: list[TaskOutcome] = []
        #: Every task_id this run handed to the platform — the "no phantom
        #: tickets" side of conservation.
        self.issued_task_ids: set[str] = set()
        #: Every (gateway, ticket_id) a successful deploy returned — the
        #: "tickets survive crash/restart" side of conservation.
        self.ticket_births: list[tuple[str, str]] = []
        #: First task_id issued per device — resolves symbolic
        #: ``owner:<device>`` crash targets against the fleet hash ring.
        self._first_task_id: dict[str, str] = {}
        #: Every (device, DeviceSession) a streaming task created — the
        #: session invariants audit these ledgers against the gateways.
        self.sessions: list[tuple[str, Any]] = []

    # -- fleet-aware ticket addressing ------------------------------------
    def _ticket_home(self, fallback: str, ticket_id: str) -> str:
        """The gateway a ticket lives on: its id prefix (fleet handoff may
        hand a device a ticket minted elsewhere), else the deploy target."""
        origin = ticket_origin(ticket_id)
        return origin if origin in self.deployment.gateways else fallback

    def _birth(self, handle) -> None:
        self.ticket_births.append(
            (self._ticket_home(handle.gateway, handle.ticket), handle.ticket)
        )

    def _await_ticket_final(self, handle) -> Generator:
        """Wait for the handle's ticket to finalize, following supersede
        pointers: a locally-accepted ticket the reconciler later superseded
        finalizes as "superseded" while the *winner* keeps running."""
        gateway = self._ticket_home(handle.gateway, handle.ticket)
        ticket = self.deployment.gateway(gateway).ticket(handle.ticket)
        for _ in range(4):
            yield ticket.completed
            if ticket.status == "superseded" and ticket.superseded_by:
                gateway = self._ticket_home(gateway, ticket.superseded_by)
                ticket = self.deployment.gateway(gateway).ticket(
                    ticket.superseded_by
                )
                continue
            return

    # -- one logical user task -------------------------------------------
    def _drive(
        self,
        outcome: TaskOutcome,
        service: str,
        params: dict[str, Any],
        stops: list[Stop],
        gateway: Optional[str],
        start: float,
        deploy_twice: bool = False,
        roam_retry: bool = False,
        session: bool = False,
        deadline: float = 0.0,
    ) -> Generator:
        platform = self.deployment.platform(outcome.device)
        yield self.sim.timeout(start)
        task_id = platform.dispatcher.new_task_id()
        outcome.task_id = task_id
        self.issued_task_ids.add(task_id)
        self._first_task_id.setdefault(outcome.device, task_id)
        try:
            if not platform.is_subscribed(service):
                yield from platform.subscribe(service, gateway=gateway)
            handle = None
            dispatch = None
            last: Optional[Exception] = None
            for attempt in range(DEPLOY_ATTEMPTS):
                try:
                    if session:
                        # Streaming path: chunked resumable upload; the
                        # session then serves the collect below.
                        dispatch = yield from platform.deploy_streaming(
                            service, params, stops=stops, gateway=gateway,
                            task_id=task_id, deadline=deadline,
                        )
                        handle = dispatch.handle
                        self.sessions.append(
                            (outcome.device, dispatch.session)
                        )
                    else:
                        handle = yield from platform.deploy(
                            service, params, stops=stops, gateway=gateway,
                            task_id=task_id, deadline=deadline,
                        )
                    self._birth(handle)
                    if deploy_twice and attempt == 0:
                        # The deliberate exactly-once violation: re-deploy
                        # the same task_id immediately (dedup is disabled
                        # for injected specs, so a second agent launches).
                        dupe = yield from platform.deploy(
                            service, params, stops=stops, gateway=gateway,
                            task_id=task_id,
                        )
                        self._birth(dupe)
                    break
                except DeadlineExpiredError as exc:
                    # Deterministic: the deadline will not un-expire at any
                    # gateway, so further attempts would only burn airtime.
                    last = exc
                    break
                except PDAgentError as exc:
                    last = exc
                    yield self.sim.timeout(DEPLOY_RETRY_WAIT_S)
            if handle is None:
                outcome.detail = f"deploy:{type(last).__name__}"
                return
            outcome.gateway = handle.gateway
            outcome.ticket = handle.ticket
            if roam_retry and len(self.spec.gateways) > 1:
                # The device "moves": retry the same task_id at a different
                # gateway.  The fleet tier must hand back the one winning
                # ticket (claim forwarding / supersede), and the collect
                # below then runs through the *second* gateway — the
                # collect-anywhere path under test.
                other = next(
                    g for g in self.spec.gateways if g != handle.gateway
                )
                try:
                    dupe = yield from platform.deploy(
                        service, params, stops=stops, gateway=other,
                        task_id=task_id,
                    )
                    self._birth(dupe)
                    handle = dupe
                    outcome.gateway = handle.gateway
                    outcome.ticket = handle.ticket
                except PDAgentError:
                    pass  # roam leg failed; collect via the original handle
            # Tickets are durable, so the completion event survives gateway
            # crashes; the watchdog guarantees it fires (status "failed")
            # even if the agent is lost for good.
            yield from self._await_ticket_final(handle)
            last = None
            for _ in range(COLLECT_ATTEMPTS):
                try:
                    if dispatch is not None:
                        # Streaming collect: session polls (draining the
                        # partial stream and push events) gate the final
                        # download, which stays byte-identical to collect().
                        result = yield from platform.collect_streaming(
                            dispatch
                        )
                    else:
                        result = yield from platform.collect(handle)
                    outcome.ok = result.status in ("completed", "retracted")
                    outcome.data = result.data
                    if not outcome.ok:
                        outcome.detail = f"result:{result.status}"
                    return
                except ResultNotReadyError as exc:
                    last = exc
                except PDAgentError as exc:
                    last = exc
                yield self.sim.timeout(COLLECT_RETRY_WAIT_S)
            outcome.detail = f"collect:{type(last).__name__}"
            if dispatch is not None:
                # Best-effort leak hygiene: a task that gave up on its
                # result must still release the gateway-side session.
                try:
                    yield from dispatch.session.close()
                except PDAgentError:
                    pass
        except GatewayOverloadedError:
            outcome.detail = "shed:GatewayOverloadedError"
        except PDAgentError as exc:
            outcome.detail = f"platform:{type(exc).__name__}"
        except Exception as exc:  # noqa: BLE001 - condemned by the invariant
            outcome.detail = f"unexpected:{type(exc).__name__}({exc})"
        finally:
            outcome.finished_at = self.sim.now

    def _user_task(self, dev: DeviceSpec, spec_task: TaskSpec) -> Generator:
        outcome = TaskOutcome(
            device=dev.name, app=spec_task.app, session=spec_task.session,
            deadline=spec_task.deadline,
            sites=spec_task.sites if spec_task.app == "jobfarm" else (),
        )
        self.outcomes.append(outcome)
        yield from self._drive(
            outcome, *mix.task(**asdict(spec_task)),
            dev.pinned_gateway, spec_task.start,
            roam_retry=spec_task.roam_retry,
            session=spec_task.session,
            deadline=spec_task.deadline,
        )

    def _quick_search(self) -> tuple[str, dict[str, Any], list[Stop]]:
        """The burst's and the injection's search of the first site."""
        return mix.task(
            "foodsearch", self.spec.sites[:1], cuisine="thai", max_price=200, limit=3
        )

    def _burst_task(self, k: int) -> Generator:
        burst = self.spec.burst
        assert burst is not None
        outcome = TaskOutcome(device=burst.device, app="foodsearch", burst=True)
        self.outcomes.append(outcome)
        yield from self._drive(
            outcome, *self._quick_search(), burst.gateway, burst.at
        )

    def _injected_task(self) -> Generator:
        dev = self.spec.devices[0]
        outcome = TaskOutcome(device=dev.name, app="foodsearch", injected=True)
        self.outcomes.append(outcome)
        yield from self._drive(
            outcome, *self._quick_search(), self.spec.gateways[0], 1.0,
            deploy_twice=True,
        )

    # -- environment drivers ---------------------------------------------
    def _mover(self, dev: DeviceSpec) -> Generator:
        yield self.sim.timeout(dev.move_at)
        platform = self.deployment.platform(dev.name)
        platform.relocate(f"ap-{dev.move_to_ap}", link_profile(dev.wireless))
        self.deployment.network.tracer.log_fault(
            "device-move", dev.name, detail=f"to ap-{dev.move_to_ap}"
        )

    def _route_mover(self, dev: DeviceSpec) -> Generator:
        """Walk a city-scale mobility route: one relocation per waypoint.

        Waypoints that name the cell the device already occupies are
        skipped (a hotspot bounce may repeat a cell; tearing the link down
        just to re-attach in place would fake a handoff that never
        happened), so the relocation count equals the real cell crossings.
        """
        platform = self.deployment.platform(dev.name)
        tracer = self.deployment.network.tracer
        current = dev.ap
        for at, ap in mobility_schedule(dev.mobility):
            wait = at - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            if ap == current:
                continue
            platform.relocate(f"ap-{ap}", link_profile(dev.wireless))
            current = ap
            tracer.log_fault(
                "device-move", dev.name,
                detail=f"{dev.mobility.model} to ap-{ap}",
            )

    def _crash_target(self, point) -> str:
        """Resolve a crash point's gateway, including symbolic ``owner:``.

        Resolution happens at crash *time* (not launch) so the device's
        first task_id exists and the hash ring can name the owner; a device
        that never issued a task degrades to the first gateway.
        """
        name = point.gateway
        if not name.startswith("owner:"):
            return name
        device = name.partition(":")[2]
        task_id = self._first_task_id.get(device)
        fleet = self.deployment.fleet
        if task_id and fleet is not None:
            return fleet.owner(task_id)
        return self.spec.gateways[0]

    def _gateway_crash(self, point) -> Generator:
        tracer = self.deployment.network.tracer
        yield self.sim.timeout(point.at)
        target = self._crash_target(point)
        gateway = self.deployment.gateway(target)
        gateway.crash()
        tracer.log_fault(
            "gateway-crash", target, detail=f"for {point.down_for:g}s"
        )
        yield self.sim.timeout(point.down_for)
        rebuilt = gateway.restart()
        tracer.log_fault(
            "gateway-restart", target, detail=f"{rebuilt} dedup bindings rebuilt"
        )

    def _gateway_drain(self, point) -> Generator:
        """Drive one membership-churn event: drain, then optionally rejoin.

        A member a concurrent crash point already took down is skipped —
        the failure detector owns that departure; racing a graceful drain
        against it would just re-enter through the restart path anyway.
        """
        tracer = self.deployment.network.tracer
        yield self.sim.timeout(point.at)
        gateway = self.deployment.gateway(point.gateway)
        if gateway.node.crashed or gateway.draining:
            return
        migrated = yield from gateway.drain()
        tracer.log_fault(
            "gateway-drain", point.gateway,
            detail=f"{migrated} item(s) handed off",
        )
        if point.down_for is None:
            return  # left for good: the strictest drain-handoff audit
        gateway.crash()
        yield self.sim.timeout(point.down_for)
        gateway.restart()
        tracer.log_fault("gateway-rejoin", point.gateway)

    # -- launch ------------------------------------------------------------
    def launch(self) -> None:
        spec = self.spec
        _fault_schedule(spec).install(self.deployment.network)
        for point in spec.crashes:
            self.sim.process(
                self._gateway_crash(point), name=f"simtest-crash:{point.gateway}"
            )
        for point in spec.drains:
            self.sim.process(
                self._gateway_drain(point), name=f"simtest-drain:{point.gateway}"
            )
        for dev in spec.devices:
            if dev.move_at is not None:
                self.sim.process(self._mover(dev), name=f"simtest-move:{dev.name}")
            if dev.mobility is not None:
                self.sim.process(
                    self._route_mover(dev), name=f"simtest-route:{dev.name}"
                )
            for k, spec_task in enumerate(dev.tasks):
                self.sim.process(
                    self._user_task(dev, spec_task),
                    name=f"simtest-task:{dev.name}:{k}",
                )
        if spec.burst is not None:
            for k in range(spec.burst.n_tasks):
                self.sim.process(self._burst_task(k), name=f"simtest-burst:{k}")
        if spec.inject_double_dispatch:
            self.sim.process(self._injected_task(), name="simtest-inject")


# ---------------------------------------------------------------- running
def run_spec(spec: ScenarioSpec) -> RunReport:
    """Build, drive, check, and export one scenario.  Deterministic."""
    deployment = build_deployment(spec)
    harness = _Harness(spec, deployment)
    harness.launch()
    sim = deployment.sim
    sim.run(until=spec.horizon)

    ctx = RunContext(
        spec=spec,
        deployment=deployment,
        outcomes=harness.outcomes,
        issued_task_ids=harness.issued_task_ids,
        ticket_births=harness.ticket_births,
        sessions=harness.sessions,
    )
    violations = check_all(ctx)

    collector = TraceCollector()
    collector.add_run("simtest", deployment.network)
    buf = io.StringIO()
    collector.write_jsonl(buf)

    return RunReport(
        spec=spec,
        outcomes=harness.outcomes,
        violations=violations,
        events_processed=sim.events_processed,
        sim_end=sim.now,
        jsonl=buf.getvalue(),
    )
