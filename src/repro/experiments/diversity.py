"""Diversity experiment: a diurnal + flash-crowd day at city scale.

The swarm exercises the scenario-diversity machinery a few devices at a
time; this experiment runs it at population scale.  One simulated "day"
of traffic — a commute double peak shaped by a
:class:`~repro.simtest.traffic.DiurnalCurve` with a stadium-letting-out
:class:`~repro.simtest.traffic.FlashCrowd` pinned to two access-point
cells — drives 1,000+ devices through a three-gateway fleet.  Every
device runs one task drawn from the full application mix (e-banking,
food search, m-commerce, ride dispatch, auction sniping, grid job
farming), with auction tasks carrying real PI ``<deadline>`` elements
that the gateway tier enforces.

Cells map to gateways (``gw = cell % 3``), so the flash crowd
concentrates on the epicenter cells' gateway rather than smearing evenly
across the fleet — the admission layer there sheds, devices back off per
``Retry-After``, and the latency tail grows for exactly the app classes
caught in the spike.  Reported per app class: task count, completions,
completion rate, p50/p99 end-to-end latency; plus fleet-wide load sheds,
device-side shed waits, transport retries and deadline misses.

Determinism: arrivals, the app mix and every task parameter come from
named streams under the master seed (``diversity:arrivals``,
``diversity:flash``, ``diversity:apps``, ``diversity:params``), so a
fixed (seed, population) replays the simulated timeline byte-for-byte —
the property ``benchmarks/bench_diversity.py`` gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..apps import mix
from ..core import Deployment, DeploymentBuilder, PDAgentConfig
from ..core.errors import DeadlineExpiredError, PDAgentError
from ..simnet.rng import StreamFactory
from ..simtest.traffic import FlashCrowd, TrafficSpec, sample_arrivals
from ..telemetry.exporters import TraceCollector
from .overload import percentile
from .report import format_table

__all__ = [
    "ClassStats",
    "DiversityResult",
    "DEFAULT_DEVICES",
    "DEFAULT_TRAFFIC",
    "diversity_config",
    "run_diversity",
    "main",
]

#: The "1000+ devices" headline population (CI smoke caps via ``--max-n``).
DEFAULT_DEVICES = 1000
N_GATEWAYS = 3
N_APS = 6
SITES = ("metro-a", "metro-b", "metro-c")

#: The day's shape: a 240-simulated-second "day" with the classic commute
#: double hump (peak rate 4x the trough) and a flash crowd erupting just
#: after the midday trough at cells 0-1 — the stadium next to gw-0.
DEFAULT_TRAFFIC = TrafficSpec(
    day_s=240.0,
    peak_ratio=4.0,
    peaks=2,
    flash_at=132.0,
    flash_magnitude=3.0,
    flash_decay_s=8.0,
    flash_epicenter_ap=0,
    flash_radius=1,
)

#: App mix drawn per device from ``diversity:apps`` — every archetype the
#: platform ships, weighted toward the interactive classes.
APP_MIX = (
    ("ebanking",) * 3
    + ("foodsearch",) * 2
    + ("mcommerce",) * 2
    + ("ridedispatch",) * 3
    + ("auctionsnipe",) * 3
    + ("jobfarm",) * 2
)

#: Probability that a device in a flash cell joins the crowd, scaled by
#: the cell's spike weight (1 at the epicenter, attenuated to the edge).
FLASH_JOIN_P = 0.75

#: Auction deadlines are generous relative to quiet-day latency but real:
#: a device stuck behind enough shed waits arrives after its lot closes
#: and the gateway refuses the dispatch outright.
DEADLINE_SLACK_S = (90.0, 150.0)


def diversity_config() -> PDAgentConfig:
    """Fleet sizing that makes the flash crowd *visible* but survivable.

    Admission is provisioned for the diurnal peaks, not the flash: the
    token bucket rides out the commute humps, while the onset pile-up at
    the epicenter gateway overflows the queue and sheds.  Shed devices
    retry per ``Retry-After`` and complete late — degradation, not
    collapse — which is exactly the tail the per-class p99 measures.
    """
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


@dataclass
class ClassStats:
    """Per-app-class aggregates for one run."""

    app: str
    n: int = 0
    completed: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n if self.n else 0.0

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)


@dataclass
class DiversityResult:
    """One diversity day's measurements."""

    seed: int
    n_devices: int
    gateways: int
    traffic: TrafficSpec
    classes: dict[str, ClassStats]
    flash_retimed: int
    sheds: int
    shed_waits: int
    transport_retries: int
    deadline_missed: int
    failed: int
    events_processed: int
    sim_time_s: float
    outcomes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(c.completed for c in self.classes.values())

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_devices if self.n_devices else 0.0

    def rows(self) -> list[list]:
        return [
            [
                stats.app,
                stats.n,
                f"{stats.completed}/{stats.n}",
                round(stats.completion_rate, 3),
                round(stats.p50, 2),
                round(stats.p99, 2),
            ]
            for stats in sorted(self.classes.values(), key=lambda s: s.app)
            if stats.n
        ]

    def render(self) -> str:
        table = format_table(
            ["app class", "tasks", "completed", "rate", "p50 (s)", "p99 (s)"],
            self.rows(),
            title=(
                f"Diversity day: {self.n_devices} devices, "
                f"{self.gateways}-gateway fleet, diurnal x{self.traffic.peak_ratio:.0f} "
                f"double peak, flash crowd at t={self.traffic.flash_at:.0f}s "
                f"(cells {self.traffic.flash_epicenter_ap}"
                f"±{self.traffic.flash_radius})"
            ),
        )
        extra = (
            f"overall {self.completed}/{self.n_devices} "
            f"({self.completion_rate:.1%}) | flash re-timed "
            f"{self.flash_retimed} device(s) | sheds {self.sheds}, "
            f"shed waits {self.shed_waits}, transport retries "
            f"{self.transport_retries} | deadline misses "
            f"{self.deadline_missed}, other failures {self.failed}"
        )
        return f"{table}\n{extra}"

    def to_csv(self) -> str:
        lines = ["app,tasks,completed,completion_rate,p50_s,p99_s"]
        for stats in sorted(self.classes.values(), key=lambda s: s.app):
            if stats.n:
                lines.append(
                    f"{stats.app},{stats.n},{stats.completed},"
                    f"{stats.completion_rate!r},{stats.p50!r},{stats.p99!r}"
                )
        lines.append(
            f"_total,{self.n_devices},{self.completed},"
            f"{self.completion_rate!r},,"
        )
        lines.append(f"_sheds,{self.sheds},,,,")
        lines.append(f"_shed_waits,{self.shed_waits},,,,")
        lines.append(f"_deadline_missed,{self.deadline_missed},,,,")
        return "\n".join(lines) + "\n"


def _build(seed: int, n_devices: int) -> Deployment:
    builder = DeploymentBuilder(master_seed=seed, config=diversity_config())
    builder.add_central("central")
    for g in range(N_GATEWAYS):
        builder.add_gateway(f"gw-{g}")
    mix.install(builder, SITES)
    # City cells: AP routers between the device radios and the backbone.
    for j in range(N_APS):
        builder.add_access_point(f"ap-{j}")
    for i in range(n_devices):
        builder.add_device(
            f"dev-{i}",
            profile="PDA",
            wireless="WLAN",
            attach_to=f"ap-{i % N_APS}",
        )
    return builder.build()


def _plan_tasks(
    seed: int, n_devices: int, traffic: TrafficSpec
) -> tuple[list[dict[str, Any]], int]:
    """The day's task list: (plans, flash_retimed_count).

    One plan per device — app class, service params, stops, arrival time,
    deadline — all drawn from named streams so the plan (and therefore
    the whole simulated day) is a pure function of (seed, n_devices,
    traffic).
    """
    streams = StreamFactory(master_seed=seed)
    arrivals_s = streams.get("diversity:arrivals")
    flash_s = streams.get("diversity:flash")
    apps_s = streams.get("diversity:apps")
    params_s = streams.get("diversity:params")

    curve = traffic.curve(daily_tasks=float(n_devices))
    arrivals = sample_arrivals(arrivals_s, curve, n_devices)
    flash: Optional[FlashCrowd] = traffic.flash()

    plans: list[dict[str, Any]] = []
    flash_retimed = 0
    for i in range(n_devices):
        arrival = arrivals[i]
        cell = i % N_APS
        if flash is not None:
            weight = flash.cell_weight(cell)
            if weight > 0.0 and flash_s.bernoulli(FLASH_JOIN_P * weight):
                arrival = round(
                    flash.at + flash.sample_offset(flash_s.uniform(0.0, 1.0)),
                    3,
                )
                flash_retimed += 1
        app = apps_s.choice(APP_MIX)
        sites = [SITES[i % len(SITES)]]
        deadline = 0.0
        if app == "ebanking":
            fields: dict[str, Any] = {"n_transactions": 1}
        elif app == "foodsearch":
            fields = {
                "cuisine": params_s.choice(mix.CUISINES),
                "max_price": params_s.randint(80, 200),
            }
        elif app == "mcommerce":
            fields = {
                "item": params_s.choice(mix.ITEMS),
                "budget": round(params_s.uniform(250.0, 450.0), 3),
            }
        elif app == "ridedispatch":
            fields = {"zone": params_s.choice(mix.ZONES)}
        elif app == "auctionsnipe":
            deadline = round(
                arrival + params_s.uniform(*DEADLINE_SLACK_S), 3
            )
            fields = {
                "lot": f"lot-{params_s.randint(0, 5)}",
                "budget": round(params_s.uniform(150.0, 520.0), 3),
                "deadline": deadline,
            }
        else:  # jobfarm: shards on the device's site and the next one
            size = params_s.randint(1, 3)
            fields = {
                "job": f"{params_s.choice(['render', 'index'])}-{size}",
                "job_size": size,
            }
            sites.append(SITES[(i + 1) % len(SITES)])
        service, params, stops = mix.task(app, sites, **fields)
        plans.append(
            {
                "device": i,
                "app": app,
                "service": service,
                "params": params,
                "stops": stops,
                "arrival": arrival,
                "deadline": deadline,
            }
        )
    return plans, flash_retimed


def run_diversity(
    seed: int = 0,
    n_devices: int = DEFAULT_DEVICES,
    traffic: TrafficSpec = DEFAULT_TRAFFIC,
    collector: Optional[TraceCollector] = None,
    label: str = "",
) -> DiversityResult:
    """One diversity day; same (seed, n_devices, traffic) ⇒ identical replay.

    Every device pre-subscribes to its service (the un-measured morning
    sync), then at its sampled arrival time deploys its agent through its
    cell's gateway, waits for the ticket and collects.  Auction tasks
    deploy with their PI deadline; a gateway refusing an expired dispatch
    counts as a deadline miss, not a retryable failure.
    """
    deployment = _build(seed, n_devices)
    sim = deployment.sim
    plans, flash_retimed = _plan_tasks(seed, n_devices, traffic)
    classes = {app: ClassStats(app=app) for app in sorted(set(APP_MIX))}
    outcomes: list[dict[str, Any]] = []
    deadline_missed = 0
    failed = 0

    def prewarm(plan: dict[str, Any]) -> Generator:
        platform = deployment.platform(f"dev-{plan['device']}")
        yield from platform.selector.refresh_list()
        gateway = f"gw-{(plan['device'] % N_APS) % N_GATEWAYS}"
        yield from platform.subscribe(plan["service"], gateway=gateway)
        return True

    procs = [
        sim.process(prewarm(plan), name=f"diversity-prewarm:{plan['device']}")
        for plan in plans
    ]
    sim.run(until=sim.all_of(procs))

    def one_task(plan: dict[str, Any]) -> Generator:
        nonlocal deadline_missed, failed
        i = plan["device"]
        platform = deployment.platform(f"dev-{i}")
        gateway = f"gw-{(i % N_APS) % N_GATEWAYS}"
        stats = classes[plan["app"]]
        stats.n += 1
        yield sim.timeout(plan["arrival"])
        t0 = sim.now
        out = {"device": i, "app": plan["app"], "ok": False, "detail": ""}
        outcomes.append(out)
        try:
            handle = yield from platform.deploy(
                plan["service"],
                plan["params"],
                stops=plan["stops"],
                gateway=gateway,
                deadline=plan["deadline"],
            )
            yield deployment.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
        except DeadlineExpiredError as exc:
            deadline_missed += 1
            out["detail"] = f"deadline: {exc}"
            return
        except PDAgentError as exc:
            failed += 1
            out["detail"] = f"{type(exc).__name__}: {exc}"
            return
        out["ok"] = result.status == "completed"
        out["detail"] = f"status {result.status!r}"
        if out["ok"]:
            stats.completed += 1
            stats.latencies.append(round(sim.now - t0, 6))
        else:
            failed += 1

    workload = [
        sim.process(one_task(plan), name=f"diversity-task:{plan['device']}")
        for plan in plans
    ]
    sim.run(until=sim.all_of(workload))
    if collector is not None:
        collector.add_run(
            label or f"diversity/{n_devices}", deployment.network
        )
    counters = deployment.network.telemetry.metrics.snapshot()["counters"]
    platforms = [deployment.platform(f"dev-{i}") for i in range(n_devices)]
    for stats in classes.values():
        stats.latencies.sort()
    return DiversityResult(
        seed=seed,
        n_devices=n_devices,
        gateways=N_GATEWAYS,
        traffic=traffic,
        classes=classes,
        flash_retimed=flash_retimed,
        sheds=counters.get("gateway.shed", 0),
        shed_waits=sum(p.netmanager.shed_waits for p in platforms),
        transport_retries=sum(p.netmanager.retries for p in platforms),
        deadline_missed=deadline_missed,
        failed=failed,
        events_processed=sim.events_processed,
        sim_time_s=sim.now,
        outcomes=sorted(outcomes, key=lambda o: o["device"]),
    )


def main(
    seed: int = 0,
    n_devices: int = DEFAULT_DEVICES,
    collector: Optional[TraceCollector] = None,
) -> DiversityResult:
    result = run_diversity(seed=seed, n_devices=n_devices, collector=collector)
    print(result.render())
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
