"""Fleet experiment: exactly-once and collect-anywhere across a gateway tier.

The paper's operating environment (Fig. 3) deploys *multiple* gateways so a
moving device can always reach a nearby one.  That mobility has a sharp
correctness edge: a device that uploads a task at gateway A, loses the
reply, and retries the same task at gateway B is asking the *tier* — not
any single gateway — to keep the task exactly-once.  Per-gateway dedup
tables cannot see each other, so the pre-fleet platform launches a second
agent for every roamed retry.

This experiment drives that exact pattern at population scale.  Device
``k`` uploads through ``gw-(k%3)``, immediately re-uploads the *same
task_id* through ``gw-((k+1)%3)`` (the roamed retry), and later collects
through ``gw-((k+2)%3)`` — a third gateway that never saw the upload.
Mid-collect, one gateway crashes and restarts, so the collect path must
also survive an owner outage.  Two modes face identical seeds and timing:

* **fleet** — this PR's tier: consistent-hash task ownership, claim
  forwarding to the owner, sqlite-backed durable stores, collect-anywhere
  relays.  The roamed retry is answered with the *winning* ticket (claim
  verdict ``bound``), so exactly one agent runs per task.
* **baseline** — the pre-fleet platform: same dedup logic, but per-gateway
  and memory-backed.  Gateway B has never heard of the task, so every
  roamed retry dispatches a **duplicate agent**.

Reported per (population, mode): completion rate, agents actually
dispatched vs duplicates, claim verdicts, supersedes, relays and dedup
hits.  The headline: the fleet keeps duplicates at zero and completes every
collect through a third gateway across the crash; the baseline duplicates
every roamed task.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from ..core import Deployment, DeploymentBuilder, PDAgentConfig
from ..core.errors import PDAgentError
from ..core.gateway import ticket_origin
from ..device import link_profile
from ..mas import Stop
from ..telemetry.exporters import TraceCollector
from .report import format_table

__all__ = [
    "FleetRunResult",
    "FleetSweepResult",
    "fleet_config",
    "run_fleet",
    "run_fleet_sweep",
    "main",
]

GATEWAYS = ("gw-0", "gw-1", "gw-2")
BANKS = ("bank-a", "bank-b")
ACCESS_POINT = "ap"

#: Device populations swept (CI smoke caps this via ``--max-n``).
DEFAULT_POPULATIONS = (3, 6, 9, 12)

#: Device ``k`` uploads at ``k * STAGGER_S``; all uploads (and their fleet
#: claims) complete well before the crash window below.
STAGGER_S = 0.2
N_TXNS = 1

#: One gateway crashes mid-experiment and restarts ``CRASH_DOWN_S`` later.
#: The window sits *after* the upload/claim phase (so the fleet's zero
#: duplicates are earned by the protocol, not by luck) and *inside* the
#: collect phase (so collects provably ride through an owner outage).
CRASH_GATEWAY = "gw-1"
CRASH_AT_S = 8.0
CRASH_DOWN_S = 5.0

#: Collects start mid-outage and retry until the tier recovers.
COLLECT_AT_S = 9.0
COLLECT_ATTEMPTS = 8
COLLECT_RETRY_WAIT_S = 2.5


def fleet_config(enabled: bool) -> PDAgentConfig:
    """Identical platform tuning for both modes; only the tier differs.

    The baseline keeps dedup *on* — it is not a strawman; each gateway
    faithfully deduplicates what it can see.  The failure under test is
    structural: per-gateway tables cannot cover a roaming retry.
    """
    return PDAgentConfig(
        selection_policy="first",
        retry_deadline_s=600.0,
        fleet_enabled=enabled,
        storage_backend="sqlite" if enabled else "memory",
        dedup_ttl_s=120.0 if enabled else 0.0,
    )


@dataclass
class FleetRunResult:
    """One (population, mode) run's aggregates."""

    mode: str
    seed: int
    n_devices: int
    completed: int
    collected_elsewhere: int
    dispatches: int
    duplicate_dispatches: int
    claims_granted: int
    claims_bound: int
    local_accepts: int
    supersedes: int
    relays: int
    dedup_hits: int
    #: Simulated completion time of the whole run and the kernel's event
    #: count — the determinism/overhead handles the benchmark gate uses.
    sim_end: float = 0.0
    events_processed: int = 0
    outcomes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_devices if self.n_devices else 0.0


def _build(seed: int, n_devices: int, enabled: bool) -> Deployment:
    builder = DeploymentBuilder(master_seed=seed, config=fleet_config(enabled))
    builder.add_central("central")
    for gw in GATEWAYS:
        builder.add_gateway(gw)
    for bank in BANKS:
        builder.add_site(bank, services=[BankServiceAgent(bank_name=bank)])
    lan = link_profile("LAN")
    builder.network.add_node(ACCESS_POINT, kind="router")
    builder.network.add_duplex_link(ACCESS_POINT, "backbone", lan)
    for k in range(n_devices):
        builder.add_device(
            f"pda-{k}", profile="PDA", wireless="WLAN", attach_to=ACCESS_POINT
        )
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    deployment = builder.build()
    _prewarm(deployment, n_devices)
    return deployment


def _prewarm(deployment: Deployment, n_devices: int) -> None:
    """Address list + subscription per device, before the measured phase."""
    sim = deployment.sim

    def setup(k: int) -> Generator:
        platform = deployment.platform(f"pda-{k}")
        yield from platform.selector.refresh_list()
        yield from platform.subscribe("ebanking", gateway=GATEWAYS[0])
        return True

    procs = [
        sim.process(setup(k), name=f"fleet-prewarm:{k}")
        for k in range(n_devices)
    ]
    sim.run(until=sim.all_of(procs))


def _final_ticket(deployment: Deployment, gateway: str, ticket_id: str):
    """The ticket object a handle names, following supersede pointers."""
    origin = ticket_origin(ticket_id)
    home = origin if origin in deployment.gateways else gateway
    ticket = deployment.gateway(home).ticket(ticket_id)
    for _ in range(4):
        if ticket.status == "superseded" and ticket.superseded_by:
            winner = ticket.superseded_by
            origin = ticket_origin(winner)
            home = origin if origin in deployment.gateways else home
            ticket = deployment.gateway(home).ticket(winner)
            continue
        return ticket
    return ticket


def run_fleet(
    seed: int = 0,
    n_devices: int = 6,
    enabled: bool = True,
    collector: Optional[TraceCollector] = None,
    label: str = "",
) -> FleetRunResult:
    """One population under one mode; same seed ⇒ identical replay.

    Per device ``k``: upload at ``gw-(k%3)``, roamed retry of the same
    ``task_id`` at ``gw-((k+1)%3)``, collect at ``gw-((k+2)%3)`` starting
    mid-crash-window.  A task succeeds when the collect through the third
    gateway returns status ``"completed"``.
    """
    mode = "fleet" if enabled else "baseline"
    deployment = _build(seed, n_devices, enabled)
    sim = deployment.sim
    network = deployment.network
    txns = make_transactions(list(BANKS), N_TXNS)
    stops = [Stop(bank, task="banking") for bank in BANKS]
    outcomes: list[dict[str, Any]] = []

    def task(k: int) -> Generator:
        platform = deployment.platform(f"pda-{k}")
        upload_gw = GATEWAYS[k % len(GATEWAYS)]
        retry_gw = GATEWAYS[(k + 1) % len(GATEWAYS)]
        collect_gw = GATEWAYS[(k + 2) % len(GATEWAYS)]
        out: dict[str, Any] = {
            "device": k, "ok": False, "detail": "",
            "upload": upload_gw, "retry": retry_gw, "collect": collect_gw,
        }
        outcomes.append(out)
        yield sim.timeout(k * STAGGER_S)
        task_id = platform.dispatcher.new_task_id()
        try:
            handle = yield from platform.deploy(
                "ebanking", {"transactions": txns}, stops=stops,
                gateway=upload_gw, task_id=task_id,
            )
        except PDAgentError as exc:
            out["detail"] = f"upload failed: {exc}"
            return
        # The roamed retry: the device moved (or never saw the reply) and
        # re-uploads the same task through a different gateway.
        try:
            handle = yield from platform.deploy(
                "ebanking", {"transactions": txns}, stops=stops,
                gateway=retry_gw, task_id=task_id,
            )
        except PDAgentError as exc:
            out["detail"] = f"roamed retry failed: {exc}"
        ticket = _final_ticket(deployment, handle.gateway, handle.ticket)
        yield ticket.completed
        # Collect through a third gateway, starting inside the crash window.
        if sim.now < COLLECT_AT_S + k * STAGGER_S:
            yield sim.timeout(COLLECT_AT_S + k * STAGGER_S - sim.now)
        last = ""
        for _ in range(COLLECT_ATTEMPTS):
            try:
                result = yield from platform.collect(handle, via=collect_gw)
            except PDAgentError as exc:
                last = f"collect failed: {exc}"
                yield sim.timeout(COLLECT_RETRY_WAIT_S)
                continue
            out["ok"] = result.status == "completed"
            out["detail"] = f"status {result.status!r}"
            return
        out["detail"] = last

    def crash() -> Generator:
        gateway = deployment.gateway(CRASH_GATEWAY)
        yield sim.timeout(CRASH_AT_S)
        gateway.crash()
        network.tracer.log_fault(
            "gateway-crash", CRASH_GATEWAY, detail=f"for {CRASH_DOWN_S:g}s"
        )
        yield sim.timeout(CRASH_DOWN_S)
        rebuilt = gateway.restart()
        network.tracer.log_fault(
            "gateway-restart", CRASH_GATEWAY,
            detail=f"{rebuilt} dedup bindings rebuilt",
        )

    procs = [
        sim.process(task(k), name=f"fleet-task:{k}")
        for k in range(n_devices)
    ]
    sim.process(crash(), name="fleet-crash")
    sim.run(until=sim.all_of(procs))
    if collector is not None:
        collector.add_run(label or f"fleet/{mode}-{n_devices}", network)
    counters = network.tracer.counters
    dispatched = [
        t
        for gw in GATEWAYS
        for t in deployment.gateway(gw).tickets()
        if t.agent_id
    ]
    per_task = Counter(t.task_id for t in dispatched if t.task_id)
    return FleetRunResult(
        mode=mode,
        seed=seed,
        n_devices=n_devices,
        completed=sum(1 for o in outcomes if o["ok"]),
        collected_elsewhere=sum(
            1 for o in outcomes if o["ok"] and o["collect"] != o["upload"]
        ),
        dispatches=len(dispatched),
        duplicate_dispatches=sum(c - 1 for c in per_task.values() if c > 1),
        claims_granted=counters.get("fleet.claims_granted", 0),
        claims_bound=counters.get("fleet.claim_bound", 0),
        local_accepts=counters.get("fleet.local_accepts", 0),
        supersedes=counters.get("gateway_superseded", 0),
        relays=counters.get("gateway_relays", 0),
        dedup_hits=counters.get("gateway.dedup_hit", 0),
        sim_end=sim.now,
        events_processed=sim.events_processed,
        outcomes=sorted(outcomes, key=lambda o: o["device"]),
    )


@dataclass
class FleetSweepResult:
    """Fleet vs baseline across the population sweep (same seeds)."""

    seed: int
    populations: tuple[int, ...]
    fleet: list[FleetRunResult]
    baseline: list[FleetRunResult]

    def pairs(self) -> list[tuple[FleetRunResult, FleetRunResult]]:
        return list(zip(self.fleet, self.baseline))

    def rows(self) -> list[list]:
        rows = []
        for pair in self.pairs():
            for run in pair:
                rows.append(
                    [
                        run.n_devices,
                        run.mode,
                        f"{run.completed}/{run.n_devices}",
                        run.collected_elsewhere,
                        run.dispatches,
                        run.duplicate_dispatches,
                        run.claims_bound,
                        run.supersedes,
                        run.relays,
                        run.dedup_hits,
                    ]
                )
        return rows

    def render(self) -> str:
        table = format_table(
            [
                "devices",
                "mode",
                "completed",
                "collect-anywhere",
                "dispatches",
                "dup dispatches",
                "claims bound",
                "supersedes",
                "relays",
                "dedup hits",
            ],
            self.rows(),
            title=(
                "Fleet: roamed retries + third-gateway collects across a "
                f"{CRASH_GATEWAY} crash at t={CRASH_AT_S:g}s"
            ),
        )
        worst = self.pairs()[-1]
        extra = (
            f"At n={worst[0].n_devices}: fleet dispatched "
            f"{worst[0].dispatches} agent(s) for {worst[0].n_devices} "
            f"task(s) ({worst[0].duplicate_dispatches} duplicate(s)); "
            f"baseline dispatched {worst[1].dispatches} "
            f"({worst[1].duplicate_dispatches} duplicate(s))"
        )
        return f"{table}\n{extra}"

    def to_csv(self) -> str:
        lines = [
            "devices,mode,completed,completion_rate,collected_elsewhere,"
            "dispatches,duplicate_dispatches,claims_granted,claims_bound,"
            "local_accepts,supersedes,relays,dedup_hits"
        ]
        for pair in self.pairs():
            for run in pair:
                lines.append(
                    f"{run.n_devices},{run.mode},{run.completed},"
                    f"{run.completion_rate!r},{run.collected_elsewhere},"
                    f"{run.dispatches},{run.duplicate_dispatches},"
                    f"{run.claims_granted},{run.claims_bound},"
                    f"{run.local_accepts},{run.supersedes},{run.relays},"
                    f"{run.dedup_hits}"
                )
        return "\n".join(lines) + "\n"


def run_fleet_sweep(
    seed: int = 0,
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    collector: Optional[TraceCollector] = None,
) -> FleetSweepResult:
    """Both modes per population, same seeds, identical timing."""
    fleet_runs, baseline_runs = [], []
    for n in populations:
        fleet_runs.append(
            run_fleet(
                seed, n, enabled=True,
                collector=collector, label=f"fleet/fleet-{n}",
            )
        )
        baseline_runs.append(
            run_fleet(
                seed, n, enabled=False,
                collector=collector, label=f"fleet/baseline-{n}",
            )
        )
    return FleetSweepResult(
        seed=seed,
        populations=tuple(populations),
        fleet=fleet_runs,
        baseline=baseline_runs,
    )


def main(
    seed: int = 0,
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    collector: Optional[TraceCollector] = None,
) -> FleetSweepResult:
    result = run_fleet_sweep(
        seed=seed, populations=populations, collector=collector
    )
    print(result.render())
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
