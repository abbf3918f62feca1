"""The four benchmark workloads, driven through the platform's public API.

Each workload is a function ``(seed, scale) -> run``.  Calling it is the
set-up phase: it turns the seed into the workload's inputs and builds and
pre-warms whatever the timed phase needs.  Calling ``run()`` is the timed
phase; it returns a :class:`Batch`.  Every workload is open-loop on the
simulated clock: each task has a fixed due time, and its latency is measured
from that due time, whether or not earlier tasks have finished.

The workloads import only the platform's stable packages (``repro.core``,
``repro.apps``, ``repro.baselines``, ``repro.simtest``, ``repro.simnet``,
``repro.device``, ``repro.telemetry``, plus the ``Stop`` itinerary type from
``repro.mas``), never ``repro.experiments``: the experiment modules are due
to be folded into simtest specs, and the benchmark must outlive that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.apps import (
    AuctionHouseServiceAgent,
    AuctionSnipeAgent,
    BankServiceAgent,
    DirectoryServiceAgent,
    DriverBoardServiceAgent,
    EBankingAgent,
    FoodSearchAgent,
    GridForemanServiceAgent,
    GridWorkerServiceAgent,
    JobCourierAgent,
    JobFarmAgent,
    RideDispatchAgent,
    ShoppingAgent,
    VendorServiceAgent,
    auction_service_code,
    ebanking_service_code,
    foodsearch_service_code,
    jobfarm_service_code,
    make_drivers,
    make_inventory,
    make_listings,
    make_lots,
    make_transactions,
    mcommerce_service_code,
    ridedispatch_service_code,
)
from repro.baselines import BankWebServer, ClientServerRunner, WebBasedRunner
from repro.core import DeploymentBuilder, PDAgentConfig, PDAgentError
from repro.core.errors import DeadlineExpiredError
from repro.device import link_profile
from repro.mas import Stop
from repro.simnet import StreamFactory
from repro.simtest import generate, run_spec
from repro.simtest.traffic import TrafficSpec, sample_arrivals

from hostclock import Laps

__all__ = ["Batch", "TaskRecord", "WORKLOADS", "percentile"]


@dataclass
class TaskRecord:
    """One user task: when it was due and when its outcome was in hand."""

    id: str
    due: float
    finished: float = -1.0
    ok: bool = False


@dataclass
class Batch:
    """What one timed phase produced."""

    tasks: list[TaskRecord]
    #: Kernel events over every simulator the phase ran.
    events: int
    #: Device-initiated connection seconds (the paper's connection time).
    conn_s: float
    #: Operations counted for ``attempted``/``failed``: user tasks, except
    #: on ``swarm``, where the unit is one audited scenario.
    ops: int
    ops_failed: int
    #: Host time of each slice of the timed phase.  A slice is a fixed piece
    #: of the simulated work (a span of simulated time, the cells of one
    #: approach, a scenario), so every repetition of a seed has the same
    #: slices.
    laps: Laps
    #: Spans and connection records the deployments held when they ended.
    retained_spans: int = 0
    retained_connections: int = 0
    #: Failed output checks; any entry fails the benchmark run.
    problems: list[str] = field(default_factory=list)

    def digest(self) -> str:
        """sha256 over the simulated timeline: event count plus every task's
        (id, due, finished, status), so tracing or host speed can never
        change it while any simulated behaviour change does."""
        rows = sorted(
            (t.id, repr(t.due), repr(t.finished), "ok" if t.ok else "failed")
            for t in self.tasks
        )
        blob = json.dumps([self.events, rows], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Slices of simulated time that cut the one-simulation workloads.
SIM_SLICES = 40


def _run_sliced(sim, start: float, end: float, laps: Laps) -> None:
    """Advance ``sim`` to ``end`` in ``SIM_SLICES`` equal spans of simulated
    time, lapping after each.  ``run(until=t)`` inserts no event and keeps
    the pop order, so the timeline is the one a single ``run`` gives."""
    for k in range(1, SIM_SLICES + 1):
        sim.run(until=start + (end - start) * k / SIM_SLICES)
        laps.lap()


def _size(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _retained(network) -> tuple[int, int]:
    return len(network.telemetry.spans), len(network.tracer.connections)


# ------------------------------------------------------------------ city-rush
CITY_DEVICES = 500
CITY_GATEWAYS = 3
#: Sim seconds between consecutive devices' due times.
CITY_SPACING_S = 0.05
CITY_WLAN = link_profile("WLAN")


def city_rush(seed: int, scale: float) -> Callable[[], Batch]:
    """Hub-and-spoke population: every WLAN device runs one e-banking task.

    The same shape as the population scale sweep (round-robin gateways,
    subscribe → deploy → await ticket → collect, one device due every
    50 ms), so at 1,500 devices and seed 0 it replays that sweep's row.
    """
    n = _size(CITY_DEVICES, scale)
    builder = DeploymentBuilder(master_seed=seed)
    builder.add_central("central")
    for g in range(CITY_GATEWAYS):
        builder.add_gateway(f"gw-{g}")
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="bank-a")])
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    for i in range(n):
        builder.add_device(f"dev-{i}", wireless=CITY_WLAN)
    dep = builder.build()
    sim = dep.sim
    txns = make_transactions(["bank-a"], 1)
    stops = [Stop("bank-a", task="banking")]
    tasks = [TaskRecord(f"dev-{i}", due=i * CITY_SPACING_S) for i in range(n)]

    def one_task(i: int, rec: TaskRecord) -> Generator:
        platform = dep.platform(rec.id)
        gateway = f"gw-{i % CITY_GATEWAYS}"
        yield sim.timeout(rec.due)
        try:
            yield from platform.subscribe("ebanking", gateway=gateway)
            handle = yield from platform.deploy(
                "ebanking", {"transactions": txns}, stops=stops, gateway=gateway
            )
            yield dep.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            rec.ok = result.status == "completed"
        except PDAgentError:
            rec.ok = False
        rec.finished = sim.now

    def run() -> Batch:
        laps = Laps()
        start = sim.now
        for i, rec in enumerate(tasks):
            sim.process(one_task(i, rec), name=f"scale-task-{i}")
        _run_sliced(sim, start, start + tasks[-1].due, laps)
        sim.run()
        tracer = dep.network.tracer
        failed = sum(not t.ok for t in tasks)
        spans, conns = _retained(dep.network)
        conn_s = sum(tracer.connection_time(t.id) for t in tasks)
        laps.lap()
        return Batch(
            tasks=tasks,
            events=sim.events_processed,
            conn_s=conn_s,
            ops=n,
            ops_failed=failed,
            retained_spans=spans,
            retained_connections=conns,
            problems=[f"{failed}/{n} tasks failed"] if failed else [],
            laps=laps,
        )

    return run


# ------------------------------------------------------------------ flash-day
FLASH_DEVICES = 300
FLASH_GATEWAYS = 3
FLASH_APS = 6
FLASH_SITES = ("metro-a", "metro-b", "metro-c")
#: The 1,000-device day: double diurnal peak (4x the trough) and a flash
#: crowd at cells 0±1 just after the midday trough.  Smaller populations
#: compress the day in proportion, which keeps the arrival rates, and so
#: the admission pressure, of the full-size day.
FLASH_DAY_1000 = TrafficSpec(
    day_s=240.0, peak_ratio=4.0, peaks=2, flash_at=132.0,
    flash_magnitude=3.0, flash_decay_s=8.0, flash_epicenter_ap=0,
    flash_radius=1,
)
#: Device app mix, weighted toward the interactive classes.
FLASH_APP_MIX = (
    ("ebanking",) * 3 + ("foodsearch",) * 2 + ("mcommerce",) * 2
    + ("ridedispatch",) * 3 + ("auctionsnipe",) * 3 + ("jobfarm",) * 2
)
FLASH_JOIN_P = 0.75
#: The day's plan (arrivals, flash crowd, app mix) is part of the workload's
#: definition; the benchmark seed draws the network's randomness, like a
#: re-run of the same day.
FLASH_PLAN_SEED = 0
FLASH_DEADLINE_SLACK_S = (90.0, 150.0)
_ZONES = ("downtown", "airport", "harbor", "uptown")

_ALL_AGENTS = (
    EBankingAgent, FoodSearchAgent, ShoppingAgent, RideDispatchAgent,
    AuctionSnipeAgent, JobFarmAgent, JobCourierAgent,
)
_ALL_CODE = (
    ebanking_service_code, foodsearch_service_code, mcommerce_service_code,
    ridedispatch_service_code, auction_service_code, jobfarm_service_code,
)


def _flash_config() -> PDAgentConfig:
    """Admission sized for the diurnal peaks, not the flash crowd: the
    epicenter gateway sheds at the onset and devices retry per
    Retry-After."""
    return PDAgentConfig(
        selection_policy="first",
        fleet_enabled=True,
        gateway_dispatch_workers=4,
        dispatch_cost_s=0.2,
        admission_queue_limit=8,
        admission_rate=4.0,
        admission_burst=4,
        shed_retry_after_s=1.0,
        retry_max_attempts=40,
        retry_deadline_s=600.0,
        retry_after_cap_s=15.0,
    )


def _flash_plan(n: int, traffic: TrafficSpec) -> list[dict[str, Any]]:
    """One task per device, every draw from a named stream of the plan seed."""
    streams = StreamFactory(master_seed=FLASH_PLAN_SEED)
    arrivals_s = streams.get("diversity:arrivals")
    flash_s = streams.get("diversity:flash")
    apps_s = streams.get("diversity:apps")
    params_s = streams.get("diversity:params")
    arrivals = sample_arrivals(arrivals_s, traffic.curve(daily_tasks=float(n)), n)
    flash = traffic.flash()
    plans = []
    for i in range(n):
        arrival = arrivals[i]
        weight = flash.cell_weight(i % FLASH_APS)
        if weight > 0.0 and flash_s.bernoulli(FLASH_JOIN_P * weight):
            offset = flash.sample_offset(flash_s.uniform(0.0, 1.0))
            arrival = round(flash.at + offset, 3)
        app = str(apps_s.choice(list(FLASH_APP_MIX)))
        site = FLASH_SITES[i % len(FLASH_SITES)]
        deadline = 0.0
        if app == "ebanking":
            params = {"transactions": make_transactions([site], 1)}
            task = "banking"
        elif app == "foodsearch":
            params = {
                "cuisine": str(params_s.choice(["cantonese", "thai", "italian"])),
                "max_price": params_s.randint(80, 200),
                "limit": 5,
            }
            task = "search"
        elif app == "mcommerce":
            params = {
                "item": str(params_s.choice(["camera", "phone", "pda"])),
                "budget": round(params_s.uniform(250.0, 450.0), 3),
            }
            task = "shopping"
        elif app == "ridedispatch":
            params = {"zone": str(params_s.choice(list(_ZONES))), "max_eta_s": 600.0}
            task = "match"
        elif app == "auctionsnipe":
            deadline = round(arrival + params_s.uniform(*FLASH_DEADLINE_SLACK_S), 3)
            params = {
                "lot": f"lot-{params_s.randint(0, 5)}",
                "budget": round(params_s.uniform(150.0, 520.0), 3),
                "deadline": deadline,
            }
            task = "quote"
        else:  # jobfarm: the master fans couriers out over both shard sites
            size = params_s.randint(1, 3)
            params = {
                "job": {
                    "name": f"{params_s.choice(['render', 'index'])}-{size}",
                    "size": size,
                },
                "sites": [site, FLASH_SITES[(i + 1) % len(FLASH_SITES)]],
            }
            task = "farm"
        plans.append({
            "app": app, "params": params, "stops": [Stop(site, task=task)],
            "arrival": arrival, "deadline": deadline,
        })
    return plans


def flash_day(seed: int, scale: float) -> Callable[[], Batch]:
    """A diurnal day with a flash crowd over a three-gateway fleet."""
    n = _size(FLASH_DEVICES, scale)
    f = n / 1000.0
    traffic = dataclasses.replace(
        FLASH_DAY_1000,
        day_s=FLASH_DAY_1000.day_s * f,
        flash_at=FLASH_DAY_1000.flash_at * f,
        flash_decay_s=FLASH_DAY_1000.flash_decay_s * f,
    )
    builder = DeploymentBuilder(master_seed=seed, config=_flash_config())
    builder.add_central("central")
    for g in range(FLASH_GATEWAYS):
        builder.add_gateway(f"gw-{g}")
    for i, site in enumerate(FLASH_SITES):
        builder.add_site(site, services=[
            BankServiceAgent(bank_name=site),
            DirectoryServiceAgent(
                make_listings(i), partner=FLASH_SITES[(i + 1) % len(FLASH_SITES)]
            ),
            VendorServiceAgent(make_inventory(i)),
            DriverBoardServiceAgent(make_drivers(i)),
            AuctionHouseServiceAgent(make_lots(i)),
            GridWorkerServiceAgent(),
            GridForemanServiceAgent(),
        ])
    for cls in _ALL_AGENTS:
        builder.register_agent_class(cls)
    for code in _ALL_CODE:
        builder.publish(code())
    for j in range(FLASH_APS):
        builder.network.add_node(f"ap-{j}", kind="router")
        builder.network.add_duplex_link(f"ap-{j}", "backbone", link_profile("LAN"))
    for i in range(n):
        builder.add_device(
            f"dev-{i}", profile="PDA", wireless="WLAN", attach_to=f"ap-{i % FLASH_APS}"
        )
    dep = builder.build()
    sim = dep.sim
    plans = _flash_plan(n, traffic)

    def gateway_of(i: int) -> str:
        return f"gw-{(i % FLASH_APS) % FLASH_GATEWAYS}"

    def prewarm(i: int, plan: dict[str, Any]) -> Generator:
        platform = dep.platform(f"dev-{i}")
        yield from platform.selector.refresh_list()
        yield from platform.subscribe(plan["app"], gateway=gateway_of(i))

    sim.run(until=sim.all_of([
        sim.process(prewarm(i, plan), name=f"flash-prewarm:{i}")
        for i, plan in enumerate(plans)
    ]))
    t0 = sim.now
    tasks = [TaskRecord(f"dev-{i}", due=t0 + plan["arrival"]) for i, plan in enumerate(plans)]
    deadline_missed: list[str] = []

    def one_task(i: int, plan: dict[str, Any], rec: TaskRecord) -> Generator:
        platform = dep.platform(rec.id)
        yield sim.timeout(plan["arrival"])
        try:
            handle = yield from platform.deploy(
                plan["app"], plan["params"], stops=plan["stops"],
                gateway=gateway_of(i), deadline=plan["deadline"],
            )
            yield dep.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            rec.ok = result.status == "completed"
        except DeadlineExpiredError:
            deadline_missed.append(rec.id)
        except PDAgentError:
            rec.ok = False
        rec.finished = sim.now

    def run() -> Batch:
        laps = Laps()
        done = sim.all_of([
            sim.process(one_task(i, plan, rec), name=f"flash-task:{i}")
            for i, (plan, rec) in enumerate(zip(plans, tasks))
        ])
        # No task ends at its due time, so every slice ends before ``done``.
        _run_sliced(sim, t0, max(t.due for t in tasks), laps)
        sim.run(until=done)
        tracer = dep.network.tracer
        failed = sum(not t.ok for t in tasks)
        problems = [f"{failed}/{n} tasks failed"] if failed else []
        if deadline_missed:
            problems.append(f"{len(deadline_missed)} deadline misses")
        spans, conns = _retained(dep.network)
        conn_s = sum(tracer.connection_time(t.id, since=t0) for t in tasks)
        laps.lap()
        return Batch(
            tasks=tasks,
            events=sim.events_processed,
            conn_s=conn_s,
            ops=n,
            ops_failed=failed,
            retained_spans=spans,
            retained_connections=conns,
            problems=problems,
            laps=laps,
        )

    return run


# ----------------------------------------------------------------- paper-figs
#: Consecutive simulation seeds per benchmark seed.  Each simulation seed is
#: one Fig. 12 sweep and one Fig. 13 trial; four seeds make a Fig. 13 panel.
PAPER_SEEDS = 12
PAPER_NS = tuple(range(1, 11))
PAPER_BANKS = ("bank-a", "bank-b")
#: PDAgent's connection time must be flat in n within this factor.
PAPER_FLAT = 1.05


def _paper_scenario(sim_seed: int):
    """The paper's §4 environment: central, one gateway, two banks (each a
    MAS service agent plus an HTTP front), a GPRS PDA and a LAN desktop;
    pre-warmed with the gateway list and the e-banking subscription."""
    builder = DeploymentBuilder(master_seed=sim_seed)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    services = {bank: BankServiceAgent(bank_name=bank) for bank in PAPER_BANKS}
    for bank, service in services.items():
        builder.add_site(bank, services=[service])
    builder.add_device("pda", profile="PDA", wireless="GPRS")
    builder.add_device("desktop", profile="DESKTOP", wireless="LAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    dep = builder.build()
    for bank, service in services.items():
        BankWebServer(dep.network.node(bank), think_time=service.processing_time)
    platform = dep.platform("pda")

    def prewarm() -> Generator:
        yield from platform.selector.refresh_list()
        if platform.config.selection_policy == "nearest":
            yield from platform.selector.probe_all()
        yield from platform.subscribe("ebanking", gateway="gw-0")

    dep.sim.run(until=dep.sim.process(prewarm(), name="scenario-prewarm"))
    return dep


def _paper_cell(sim_seed: int, approach: str, n: int) -> tuple[TaskRecord, float, int, tuple]:
    """One (approach, n) cell on a fresh deployment.

    Returns the task, the approach's connection seconds, the events, and
    the retained telemetry counts."""
    dep = _paper_scenario(sim_seed)
    sim = dep.sim
    txns = make_transactions(list(PAPER_BANKS), n)
    rec = TaskRecord(f"{sim_seed}/{approach}/{n}", due=sim.now)
    if approach == "pdagent":
        platform = dep.platform("pda")
        tracer = dep.network.tracer

        def batch() -> Generator:
            mark = len(tracer.connections)
            handle = yield from platform.deploy(
                "ebanking", {"transactions": txns},
                stops=[Stop(bank, task="banking") for bank in PAPER_BANKS],
                gateway="gw-0",
            )
            yield dep.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            mine = [r for r in tracer.connections[mark:] if r.initiator == "pda"]
            conn = sum(r.duration(now=sim.now) for r in mine)
            return result.status == "completed", conn

        rec.ok, conn = sim.run(until=sim.process(batch()))
    else:
        device = dep.devices["pda" if approach == "client-server" else "desktop"]
        runner = (ClientServerRunner if approach == "client-server" else WebBasedRunner)(device)
        result = sim.run(until=sim.process(runner.run(txns)))
        rec.ok = len(result.details) == n and all(
            d["status"] == "ok" for d in result.details
        )
        conn = result.connection_time
    rec.finished = sim.now
    return rec, conn, sim.events_processed, _retained(dep.network)


def paper_figs(seed: int, scale: float) -> Callable[[], Batch]:
    """Figs. 12 and 13: PDAgent, client-server and web-based e-banking at
    n = 1..10 transactions, every cell on a fresh deployment, over
    ``PAPER_SEEDS`` consecutive simulation seeds."""
    sim_seeds = [seed * PAPER_SEEDS + k for k in range(_size(PAPER_SEEDS, scale))]

    def run() -> Batch:
        laps = Laps()
        tasks: list[TaskRecord] = []
        conn_total = events = spans = conns = 0
        problems: list[str] = []
        for sim_seed in sim_seeds:
            series: dict[str, list[float]] = {}
            for approach in ("pdagent", "client-server", "web-based"):
                for n in PAPER_NS:
                    rec, conn, ev, (s, c) = _paper_cell(sim_seed, approach, n)
                    tasks.append(rec)
                    series.setdefault(approach, []).append(conn)
                    conn_total += conn
                    events += ev
                    spans += s
                    conns += c
                laps.lap()
            pd, cs = series["pdagent"], series["client-server"]
            if max(pd) >= min(pd) * PAPER_FLAT:
                problems.append(
                    f"sim seed {sim_seed}: PDAgent connection time not flat in n "
                    f"(max/min {max(pd) / min(pd):.3f})"
                )
            if not cs[-1] > 4 * cs[0]:
                problems.append(
                    f"sim seed {sim_seed}: client-server connection time does not "
                    f"grow with n ({cs[0]:.2f}s at n=1, {cs[-1]:.2f}s at n=10)"
                )
        failed = sum(not t.ok for t in tasks)
        if failed:
            problems.append(f"{failed}/{len(tasks)} tasks failed")
        return Batch(
            tasks=tasks, events=events, conn_s=conn_total, ops=len(tasks),
            ops_failed=failed, retained_spans=spans, retained_connections=conns,
            problems=problems, laps=laps,
        )

    return run


# ---------------------------------------------------------------------- swarm
#: The swarm's first ``SWARM_SCENARIOS`` generated scenarios (the head of
#: the CI swarm's seed range).  The benchmark seed re-seeds each scenario's
#: network randomness, so a seed is a re-run of the same scenarios: the
#: scenario mix, which sets the latency distribution, stays fixed.
SWARM_SCENARIOS = 80
#: Benchmark seed S runs scenario k under master seed S * SWARM_STRIDE + k.
SWARM_STRIDE = 1000


def _swarm_dues(spec) -> list[float]:
    """Due time of each task outcome, in the harness's launch order: user
    tasks device by device, then the overload burst, then the injected
    double-dispatch task."""
    dues = [task.start for dev in spec.devices for task in dev.tasks]
    if spec.burst is not None:
        dues += [spec.burst.at] * spec.burst.n_tasks
    if spec.inject_double_dispatch:
        dues.append(1.0)
    return dues


def _device_conn_s(jsonl: str, devices: set[str]) -> tuple[float, int, int]:
    """Device-initiated connection seconds from an exported JSONL trace,
    plus the trace's span and connection counts."""
    total = 0.0
    spans = conns = 0
    for line in jsonl.splitlines():
        if '"type":"meta"' in line:
            meta = json.loads(line)
            spans += meta["spans"]
            conns += meta["connections"]
        elif '"type":"connection"' in line:
            rec = json.loads(line)
            if rec["initiator"] in devices:
                total += rec["closed"] - rec["opened"]
    return total, spans, conns


def swarm(seed: int, scale: float) -> Callable[[], Batch]:
    """The simtest swarm: generated scenarios with faults, crashes, drains,
    sessions and mobility, each run, audited against every invariant and
    exported as JSONL.  At seed 0 these are exactly the swarm's first
    ``SWARM_SCENARIOS`` scenarios."""
    specs = [
        dataclasses.replace(generate(k), seed=seed * SWARM_STRIDE + k)
        for k in range(_size(SWARM_SCENARIOS, scale))
    ]

    def run() -> Batch:
        laps = Laps()
        tasks: list[TaskRecord] = []
        conn_total = 0.0
        events = spans = conns = 0
        problems: list[str] = []
        bad = 0
        for spec in specs:
            report = run_spec(spec)
            dues = _swarm_dues(spec)
            if len(dues) != len(report.outcomes):
                problems.append(
                    f"seed {spec.seed}: {len(report.outcomes)} outcomes for "
                    f"{len(dues)} launched tasks"
                )
            for k, (due, out) in enumerate(zip(dues, report.outcomes)):
                tasks.append(TaskRecord(
                    f"{spec.seed}/{out.device}/{k}", due=due,
                    finished=out.finished_at, ok=out.ok,
                ))
            if report.violations:
                bad += 1
                problems.append(report.summary())
            devices = {dev.name for dev in spec.devices}
            c, s, n = _device_conn_s(report.jsonl, devices)
            conn_total += c
            spans += s
            conns += n
            events += report.events_processed
            laps.lap()
        return Batch(
            tasks=tasks, events=events, conn_s=conn_total, ops=len(specs),
            ops_failed=bad, retained_spans=spans, retained_connections=conns,
            problems=problems, laps=laps,
        )

    return run


WORKLOADS: dict[str, Callable[[int, float], Callable[[], Batch]]] = {
    "city-rush": city_rush,
    "flash-day": flash_day,
    "paper-figs": paper_figs,
    "swarm": swarm,
}
