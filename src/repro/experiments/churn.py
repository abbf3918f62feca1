"""Churn experiment: rolling restart of the whole fleet under live traffic.

The membership-lifecycle capstone.  Every gateway in a three-member fleet
is taken through a full maintenance cycle — graceful ``drain`` (state
handed to ring successors), a crash window, then ``restart`` (rejoin +
rebalance) — one member at a time, while a roaming device population keeps
uploading, retrying at other gateways, and collecting results through
gateways that never saw the upload.

Per device ``k``: upload targeted at ``gw-(k%3)``, an immediate roamed
retry of the *same task_id* at ``gw-((k+1)%3)``, and a collect starting at
``gw-((k+2)%3)``.  Any of those gateways may be draining or down when the
device arrives; the device then walks the ring (mirroring the successor
hint a draining gateway returns) until a healthy member answers.  Collects
are staggered so they land throughout the rolling restart.

Two modes face identical seeds, populations and timing:

* **churn** — the rolling restart runs; the fleet must still complete
  every task exactly once and serve every collect.
* **control** — same traffic, no restarts; the self-relative overhead and
  determinism reference.

The headline: 100% completion, zero duplicate dispatches and full
collect-anywhere *through* three drains, three crashes and three rejoins,
with a byte-identical replay under the same seed.
"""

from __future__ import annotations

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
from ..device import link_profile
from ..mas import Stop
from ..telemetry.exporters import TraceCollector
from .report import format_table

__all__ = [
    "ChurnRunResult",
    "ChurnSweepResult",
    "churn_config",
    "run_churn",
    "run_churn_sweep",
    "main",
]

GATEWAYS = ("gw-0", "gw-1", "gw-2")
BANKS = ("bank-a", "bank-b")
ACCESS_POINT = "ap"

#: Device populations swept (CI smoke caps this via ``--max-n``).
DEFAULT_POPULATIONS = (3, 6, 9)

#: Device ``k`` uploads at ``k * STAGGER_S``.  The stagger is deliberately
#: wide: uploads keep arriving *throughout* the rolling restart below, so
#: some provably land on a draining member (structured 503 + successor
#: hint) or a crashed one (refused connection) and must walk the ring.
STAGGER_S = 2.0
N_TXNS = 1

#: The rolling restart: the first drain begins at ``ROLL_START_S``.  After
#: a member's drain completes it *dwells* for ``ROLL_DWELL_S`` — drained
#: but still up, refusing every upload with the structured 503 + successor
#: hint (the operator watching the drain settle before stopping the
#: process).  It is then crashed for ``ROLL_DOWN_S``, restarted, and given
#: ``ROLL_GAP_S`` to rejoin and rebalance before the next member's turn.
#: Exactly one member is ever in maintenance at a time.
ROLL_START_S = 5.0
ROLL_DWELL_S = 2.0
ROLL_DOWN_S = 3.0
ROLL_GAP_S = 3.0

#: Collects are spread across the whole roll so some provably land on a
#: draining or crashed gateway and must walk the ring.
COLLECT_AT_S = 6.0
COLLECT_SPREAD_S = 2.0
COLLECT_ATTEMPTS = 12
COLLECT_RETRY_WAIT_S = 2.0


def churn_config() -> PDAgentConfig:
    """The fleet tier with the membership lifecycle fully armed."""
    return PDAgentConfig(
        selection_policy="first",
        retry_deadline_s=600.0,
        fleet_enabled=True,
        storage_backend="sqlite",
        dedup_ttl_s=300.0,
        fleet_suspicion_timeout_s=5.0,
        fleet_drain_timeout_s=15.0,
    )


@dataclass
class ChurnRunResult:
    """One (population, mode) run's aggregates."""

    mode: str
    seed: int
    n_devices: int
    completed: int
    collected_elsewhere: int
    dispatches: int
    duplicate_dispatches: int
    drains_completed: int
    migrated_out: int
    rebalanced: int
    claims_stale: int
    drain_refusals: int
    drain_redirects: int
    marked_down: int
    final_epoch: int
    sim_end: float = 0.0
    events_processed: int = 0
    outcomes: list[dict[str, Any]] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_devices if self.n_devices else 0.0

    def replay_key(self) -> tuple:
        """Everything a byte-identical replay must reproduce."""
        return (
            self.completed,
            self.collected_elsewhere,
            self.dispatches,
            self.duplicate_dispatches,
            self.drains_completed,
            self.migrated_out,
            self.rebalanced,
            self.claims_stale,
            self.final_epoch,
            self.sim_end,
            self.events_processed,
            tuple(tuple(sorted(o.items())) for o in self.outcomes),
        )


def _build(seed: int, n_devices: int) -> Deployment:
    builder = DeploymentBuilder(master_seed=seed, config=churn_config())
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
        sim.process(setup(k), name=f"churn-prewarm:{k}")
        for k in range(n_devices)
    ]
    sim.run(until=sim.all_of(procs))


def run_churn(
    seed: int = 0,
    n_devices: int = 6,
    churn: bool = True,
    collector: Optional[TraceCollector] = None,
    label: str = "",
) -> ChurnRunResult:
    """One population under one mode; same seed ⇒ identical replay.

    A task succeeds when a collect — retried around drains and crash
    windows, walking the ring from its preferred gateway — returns status
    ``"completed"``.
    """
    mode = "churn" if churn else "control"
    deployment = _build(seed, n_devices)
    sim = deployment.sim
    network = deployment.network
    txns = make_transactions(list(BANKS), N_TXNS)
    stops = [Stop(bank, task="banking") for bank in BANKS]
    outcomes: list[dict[str, Any]] = []

    def deploy_walking(platform, task_id: str, preferred: int) -> Generator:
        """Upload at the preferred gateway, walking the ring on refusal.

        A draining gateway answers with a structured 503 naming its ring
        successor; a crashed one refuses the connection.  Either way the
        device's reaction is the same — try the next member — which is
        exactly what the successor hint tells it to do in a 3-ring.
        """
        last: Optional[PDAgentError] = None
        for attempt in range(len(GATEWAYS) * 3):
            gw = GATEWAYS[(preferred + attempt) % len(GATEWAYS)]
            try:
                handle = yield from platform.deploy(
                    "ebanking", {"transactions": txns}, stops=stops,
                    gateway=gw, task_id=task_id,
                )
                return handle
            except PDAgentError as exc:
                last = exc
                yield sim.timeout(0.5)
        raise last  # pragma: no cover - the walk always finds a member

    def task(k: int) -> Generator:
        platform = deployment.platform(f"pda-{k}")
        out: dict[str, Any] = {
            "device": k, "ok": False, "detail": "",
            "upload": "", "collect": "",
        }
        outcomes.append(out)
        yield sim.timeout(k * STAGGER_S)
        task_id = platform.dispatcher.new_task_id()
        try:
            handle = yield from deploy_walking(platform, task_id, k)
        except PDAgentError as exc:
            out["detail"] = f"upload failed: {exc}"
            return
        out["upload"] = handle.gateway
        # The roamed retry: same task_id through the next gateway over.
        # The fleet claim protocol must bind it to the winning ticket even
        # if ownership moved an epoch ago.
        try:
            handle = yield from deploy_walking(platform, task_id, k + 1)
        except PDAgentError as exc:
            out["detail"] = f"roamed retry failed: {exc}"
        # Collect through a third gateway, starting mid-roll; rotate on
        # failure — collect-anywhere means any live member can serve it.
        start = COLLECT_AT_S + k * COLLECT_SPREAD_S
        if sim.now < start:
            yield sim.timeout(start - sim.now)
        last = ""
        for attempt in range(COLLECT_ATTEMPTS):
            collect_gw = GATEWAYS[(k + 2 + attempt) % len(GATEWAYS)]
            try:
                result = yield from platform.collect(handle, via=collect_gw)
            except PDAgentError as exc:
                last = f"collect failed: {exc}"
                yield sim.timeout(COLLECT_RETRY_WAIT_S)
                continue
            if result.status != "completed":
                last = f"status {result.status!r}"
                yield sim.timeout(COLLECT_RETRY_WAIT_S)
                continue
            out["ok"] = True
            out["collect"] = collect_gw
            out["detail"] = "status 'completed'"
            return
        out["detail"] = last

    def roll() -> Generator:
        """The rolling restart: drain → crash → restart, member by member."""
        yield sim.timeout(ROLL_START_S)
        for name in GATEWAYS:
            gateway = deployment.gateway(name)
            migrated = yield from gateway.drain()
            network.tracer.log_fault(
                "gateway-drain", name, detail=f"{migrated} item(s) handed off"
            )
            yield sim.timeout(ROLL_DWELL_S)
            gateway.crash()
            yield sim.timeout(ROLL_DOWN_S)
            rebuilt = gateway.restart()
            network.tracer.log_fault(
                "gateway-restart", name,
                detail=f"{rebuilt} dedup bindings rebuilt",
            )
            yield sim.timeout(ROLL_GAP_S)

    procs = [
        sim.process(task(k), name=f"churn-task:{k}")
        for k in range(n_devices)
    ]
    if churn:
        procs.append(sim.process(roll(), name="churn-roll"))
    sim.run(until=sim.all_of(procs))
    if collector is not None:
        collector.add_run(label or f"churn/{mode}-{n_devices}", network)
    counters = network.tracer.counters
    # Fleet migration is at-least-once: a lost ack may leave the same
    # ticket id on two members.  A *duplicate dispatch* is therefore a
    # task with more than one distinct dispatched ticket identity.
    per_task: dict[str, set] = {}
    for gw in GATEWAYS:
        for t in deployment.gateway(gw).tickets():
            if t.agent_id and t.task_id:
                per_task.setdefault(t.task_id, set()).add(t.ticket_id)
    view = deployment.fleet.view
    return ChurnRunResult(
        mode=mode,
        seed=seed,
        n_devices=n_devices,
        completed=sum(1 for o in outcomes if o["ok"]),
        collected_elsewhere=sum(
            1 for o in outcomes if o["ok"] and o["collect"] != o["upload"]
        ),
        dispatches=sum(len(ids) for ids in per_task.values()),
        duplicate_dispatches=sum(
            len(ids) - 1 for ids in per_task.values() if len(ids) > 1
        ),
        drains_completed=counters.get("fleet.drains_completed", 0),
        migrated_out=counters.get("fleet.migrated_out", 0),
        rebalanced=counters.get("fleet.rebalanced", 0),
        claims_stale=counters.get("fleet.claims_stale", 0),
        drain_refusals=counters.get("gateway.drain_refusals", 0),
        drain_redirects=counters.get("device_drain_redirects", 0),
        marked_down=counters.get("fleet.marked_down", 0),
        final_epoch=view.epoch,
        sim_end=sim.now,
        events_processed=sim.events_processed,
        outcomes=sorted(outcomes, key=lambda o: o["device"]),
    )


@dataclass
class ChurnSweepResult:
    """Churn vs no-churn control across the population sweep (same seeds)."""

    seed: int
    populations: tuple[int, ...]
    churn: list[ChurnRunResult]
    control: list[ChurnRunResult]

    def pairs(self) -> list[tuple[ChurnRunResult, ChurnRunResult]]:
        return list(zip(self.churn, self.control))

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
                        run.duplicate_dispatches,
                        run.drains_completed,
                        run.migrated_out,
                        run.rebalanced,
                        run.drain_refusals,
                        run.final_epoch,
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
                "dup dispatches",
                "drains",
                "migrated",
                "rebalanced",
                "refusals",
                "epoch",
            ],
            self.rows(),
            title=(
                "Churn: rolling restart of all "
                f"{len(GATEWAYS)} fleet members under roaming traffic"
            ),
        )
        worst = self.pairs()[-1]
        extra = (
            f"At n={worst[0].n_devices}: the roll drained "
            f"{worst[0].drains_completed} member(s), migrated "
            f"{worst[0].migrated_out} item(s), reached epoch "
            f"{worst[0].final_epoch}, and still completed "
            f"{worst[0].completed}/{worst[0].n_devices} task(s) with "
            f"{worst[0].duplicate_dispatches} duplicate(s); the quiet "
            f"control completed {worst[1].completed}/{worst[1].n_devices}"
        )
        return f"{table}\n{extra}"

    def to_csv(self) -> str:
        lines = [
            "devices,mode,completed,completion_rate,collected_elsewhere,"
            "dispatches,duplicate_dispatches,drains_completed,migrated_out,"
            "rebalanced,claims_stale,drain_refusals,drain_redirects,"
            "marked_down,final_epoch,sim_end,events_processed"
        ]
        for pair in self.pairs():
            for run in pair:
                lines.append(
                    f"{run.n_devices},{run.mode},{run.completed},"
                    f"{run.completion_rate!r},{run.collected_elsewhere},"
                    f"{run.dispatches},{run.duplicate_dispatches},"
                    f"{run.drains_completed},{run.migrated_out},"
                    f"{run.rebalanced},{run.claims_stale},"
                    f"{run.drain_refusals},{run.drain_redirects},"
                    f"{run.marked_down},{run.final_epoch},"
                    f"{run.sim_end!r},{run.events_processed}"
                )
        return "\n".join(lines) + "\n"


def run_churn_sweep(
    seed: int = 0,
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    collector: Optional[TraceCollector] = None,
) -> ChurnSweepResult:
    """Both modes per population, same seeds, identical timing."""
    churn_runs, control_runs = [], []
    for n in populations:
        churn_runs.append(
            run_churn(
                seed, n, churn=True,
                collector=collector, label=f"churn/churn-{n}",
            )
        )
        control_runs.append(
            run_churn(
                seed, n, churn=False,
                collector=collector, label=f"churn/control-{n}",
            )
        )
    return ChurnSweepResult(
        seed=seed,
        populations=tuple(populations),
        churn=churn_runs,
        control=control_runs,
    )


def main(
    seed: int = 0,
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    collector: Optional[TraceCollector] = None,
) -> ChurnSweepResult:
    result = run_churn_sweep(
        seed=seed, populations=populations, collector=collector
    )
    print(result.render())
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
