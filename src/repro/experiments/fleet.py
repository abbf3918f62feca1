"""Gateway-tier capstones: roamed retries across a crash, and a rolling restart.

The paper's operating environment (Fig. 3) deploys *multiple* gateways so a
moving device can always reach a nearby one.  That mobility has a sharp
correctness edge: a device that uploads a task at gateway A, loses the
reply, and retries the same task at gateway B is asking the *tier* — not
any single gateway — to keep the task exactly-once.  Per-gateway dedup
tables cannot see each other, so the pre-fleet platform launches a second
agent for every roamed retry.

**fleet** drives that exact pattern at population scale.  Device ``k``
uploads through ``gw-(k%3)``, immediately re-uploads the *same task_id*
through ``gw-((k+1)%3)`` (the roamed retry), and later collects through
``gw-((k+2)%3)`` — a third gateway that never saw the upload.  Mid-collect,
one gateway crashes and restarts, so the collect path must also survive an
owner outage.  Two modes face identical seeds and timing:

* **fleet** — consistent-hash task ownership, claim forwarding to the
  owner, a dedup index that outlives a gateway crash, collect-anywhere
  relays.  The roamed retry is answered with the *winning* ticket (claim
  verdict ``bound``), so exactly one agent runs per task.
* **baseline** — the pre-fleet platform: same dedup logic, but per-gateway,
  with an index a crash wipes and restart rebuilds.  Gateway B has never
  heard of the task, so every roamed retry dispatches a **duplicate
  agent**.

**churn** is the membership-lifecycle capstone.  Every gateway in the
three-member fleet is taken through a full maintenance cycle — graceful
``drain`` (state handed to ring successors), a crash window, then
``restart`` (rejoin + rebalance) — one member at a time, while the same
roaming upload/retry/collect traffic keeps flowing.  Any gateway a device
picks may be draining or down when it arrives; the device then walks the
ring (mirroring the successor hint a draining gateway returns) until a
healthy member answers.  Its modes: **churn** (the rolling restart runs)
and **control** (same traffic, no restarts; the self-relative overhead and
determinism reference).

Both capstones, and ``overload``, run in the world :func:`build_world`
builds and report through :class:`PopulationSweep`: one row per
(population, mode) with completion, dispatches vs duplicates and the tier
counters each one exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

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
from .report import format_table, to_csv

__all__ = [
    "FleetRunResult",
    "PopulationSweep",
    "SweepLayout",
    "build_world",
    "churn_config",
    "count_dispatches",
    "deploy_ebanking",
    "fleet_config",
    "population_sweep",
    "run_churn",
    "run_churn_sweep",
    "run_fleet",
    "run_fleet_sweep",
]

GATEWAYS = ("gw-0", "gw-1", "gw-2")
BANKS = ("bank-a", "bank-b")

#: All PDAs share one access-point router on the backbone, so cutting its
#: uplink severs every device<->gateway path at once.
ACCESS_POINT = "ap"
N_TXNS = 1


# -- the world every capstone runs in ------------------------------------------


def build_world(
    seed: int,
    n_devices: int,
    config: PDAgentConfig,
    gateways: tuple[str, ...] = GATEWAYS,
) -> Deployment:
    """Central, ``gateways``, two banks and ``n_devices`` WLAN PDAs behind
    one access point, prewarmed: every device holds the address list and an
    e-banking subscription at the first gateway before the measured phase."""
    builder = DeploymentBuilder(master_seed=seed, config=config)
    builder.add_central("central")
    for gw in gateways:
        builder.add_gateway(gw)
    for bank in BANKS:
        builder.add_site(bank, services=[BankServiceAgent(bank_name=bank)])
    builder.network.add_node(ACCESS_POINT, kind="router")
    builder.network.add_duplex_link(ACCESS_POINT, "backbone", link_profile("LAN"))
    for k in range(n_devices):
        builder.add_device(
            f"pda-{k}", profile="PDA", wireless="WLAN", attach_to=ACCESS_POINT
        )
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    deployment = builder.build()
    sim = deployment.sim

    def prewarm(k: int) -> Generator:
        platform = deployment.platform(f"pda-{k}")
        yield from platform.selector.refresh_list()
        yield from platform.subscribe("ebanking", gateway=gateways[0])

    procs = [sim.process(prewarm(k), name=f"prewarm:{k}") for k in range(n_devices)]
    sim.run(until=sim.all_of(procs))
    return deployment


def deploy_ebanking(platform, gateway: str, task_id: str) -> Generator:
    """Process: upload one e-banking task over both banks at ``gateway``."""
    return platform.deploy(
        "ebanking",
        {"transactions": make_transactions(list(BANKS), N_TXNS)},
        stops=[Stop(bank, task="banking") for bank in BANKS],
        gateway=gateway,
        task_id=task_id,
    )


def count_dispatches(
    deployment: Deployment, gateways: tuple[str, ...] = GATEWAYS
) -> tuple[int, int]:
    """``(agents dispatched, duplicate dispatches)`` across ``gateways``.

    Fleet migration is at-least-once: a lost ack may leave the same ticket
    id on two members.  A *duplicate dispatch* is therefore a task with
    more than one distinct dispatched ticket identity.
    """
    per_task: dict[str, set] = {}
    for gw in gateways:
        for t in deployment.gateway(gw).tickets():
            if t.agent_id and t.task_id:
                per_task.setdefault(t.task_id, set()).add(t.ticket_id)
    return (
        sum(len(ids) for ids in per_task.values()),
        sum(len(ids) - 1 for ids in per_task.values()),
    )


# -- the two-mode population sweep ---------------------------------------------


@dataclass(frozen=True)
class SweepLayout:
    """How one capstone's sweep prints.

    ``table`` and ``csv`` map a column header to the run attribute it
    shows; both follow the shared devices/mode/completed columns.  The
    headline is one line about the largest population's pair of runs.
    """

    title: str
    table: dict[str, str]
    csv: dict[str, str]
    headline: Callable[[Any, Any], str]


@dataclass
class PopulationSweep:
    """Two modes per population, same seeds and timing."""

    seed: int
    populations: tuple[int, ...]
    #: mode -> one run per population; the first mode is the one under test.
    runs: dict[str, list]
    layout: SweepLayout

    def pairs(self) -> list[tuple[Any, Any]]:
        return list(zip(*self.runs.values()))

    def _rows(self, head: Callable[[Any], list], columns: dict[str, str]) -> list[list]:
        return [
            head(run) + [getattr(run, attr) for attr in columns.values()]
            for pair in self.pairs()
            for run in pair
        ]

    def render(self) -> str:
        table = format_table(
            ["devices", "mode", "completed", *self.layout.table],
            self._rows(
                lambda r: [r.n_devices, r.mode, f"{r.completed}/{r.n_devices}"],
                self.layout.table,
            ),
            title=self.layout.title,
        )
        return f"{table}\n{self.layout.headline(*self.pairs()[-1])}"

    def to_csv(self) -> str:
        return to_csv(
            ["devices", "mode", "completed", "completion_rate", *self.layout.csv],
            self._rows(
                lambda r: [r.n_devices, r.mode, r.completed, r.completion_rate],
                self.layout.csv,
            ),
        )


def population_sweep(
    run: Callable[..., Any],
    layout: SweepLayout,
    seed: int,
    populations: tuple[int, ...],
    collector: Optional[TraceCollector],
) -> PopulationSweep:
    """``run(seed, n, flag, collector=...)`` with the flag on, then off, for
    each population in turn."""
    runs: dict[str, list] = {}
    for n in populations:
        for flag in (True, False):
            result = run(seed, n, flag, collector=collector)
            runs.setdefault(result.mode, []).append(result)
    return PopulationSweep(seed, tuple(populations), runs, layout)


def _same(*names: str) -> dict[str, str]:
    """CSV columns whose header is the attribute's own name."""
    return {name: name for name in names}


# -- results shared by fleet and churn -----------------------------------------

#: FleetRunResult field -> the registry counter it reports.
_COUNTERS = {
    "claims_granted": "fleet.claims_granted",
    "claims_bound": "fleet.claim_bound",
    "local_accepts": "fleet.local_accepts",
    "supersedes": "gateway_superseded",
    "relays": "gateway_relays",
    "dedup_hits": "gateway.dedup_hit",
    "drains_completed": "fleet.drains_completed",
    "migrated_out": "fleet.migrated_out",
    "rebalanced": "fleet.rebalanced",
    "claims_stale": "fleet.claims_stale",
    "drain_refusals": "gateway.drain_refusals",
    "drain_redirects": "device_drain_redirects",
    "marked_down": "fleet.marked_down",
}


@dataclass
class FleetRunResult:
    """One (population, mode) run's aggregates, fleet or churn.

    Two same-seed runs must compare equal: every field, the outcomes
    included, is part of the replay the benchmark gates check.
    """

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
    drains_completed: int
    migrated_out: int
    rebalanced: int
    claims_stale: int
    drain_refusals: int
    drain_redirects: int
    marked_down: int
    #: The shared membership view's epoch at the end (0 without a fleet).
    final_epoch: int
    #: Simulated completion time of the whole run and the kernel's event
    #: count — the determinism/overhead handles the benchmark gates use.
    sim_end: float
    events_processed: int
    outcomes: list[dict[str, Any]]

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_devices if self.n_devices else 0.0


def _fleet_result(
    deployment: Deployment,
    mode: str,
    seed: int,
    n_devices: int,
    outcomes: list[dict[str, Any]],
    collector: Optional[TraceCollector],
    label: str,
) -> FleetRunResult:
    network = deployment.network
    if collector is not None:
        collector.add_run(label, network)
    counters = network.telemetry.metrics.snapshot()["counters"]
    dispatches, duplicates = count_dispatches(deployment)
    return FleetRunResult(
        mode=mode,
        seed=seed,
        n_devices=n_devices,
        completed=sum(1 for o in outcomes if o["ok"]),
        collected_elsewhere=sum(
            1 for o in outcomes if o["ok"] and o["collect"] != o["upload"]
        ),
        dispatches=dispatches,
        duplicate_dispatches=duplicates,
        final_epoch=deployment.fleet.view.epoch if deployment.fleet else 0,
        sim_end=deployment.sim.now,
        events_processed=deployment.sim.events_processed,
        outcomes=sorted(outcomes, key=lambda o: o["device"]),
        **{name: counters.get(counter, 0) for name, counter in _COUNTERS.items()},
    )


# -- fleet: roamed retries and third-gateway collects across a crash -----------

#: Device populations swept (the CLI caps this via ``--max-n``).
DEFAULT_POPULATIONS = (3, 6, 9, 12)

#: Device ``k`` uploads at ``k * STAGGER_S``; all uploads (and their fleet
#: claims) complete well before the crash window below.
STAGGER_S = 0.2

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
        dedup_ttl_s=120.0 if enabled else 0.0,
    )


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
    deployment = build_world(seed, n_devices, fleet_config(enabled))
    sim = deployment.sim
    network = deployment.network
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
            handle = yield from deploy_ebanking(platform, upload_gw, task_id)
        except PDAgentError as exc:
            out["detail"] = f"upload failed: {exc}"
            return
        # The roamed retry: the device moved (or never saw the reply) and
        # re-uploads the same task through a different gateway.
        try:
            handle = yield from deploy_ebanking(platform, retry_gw, task_id)
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
    return _fleet_result(
        deployment, mode, seed, n_devices, outcomes,
        collector, label or f"fleet/{mode}-{n_devices}",
    )


FLEET_LAYOUT = SweepLayout(
    title=(
        "Fleet: roamed retries + third-gateway collects across a "
        f"{CRASH_GATEWAY} crash at t={CRASH_AT_S:g}s"
    ),
    table={
        "collect-anywhere": "collected_elsewhere",
        "dispatches": "dispatches",
        "dup dispatches": "duplicate_dispatches",
        "claims bound": "claims_bound",
        "supersedes": "supersedes",
        "relays": "relays",
        "dedup hits": "dedup_hits",
    },
    csv=_same(
        "collected_elsewhere", "dispatches", "duplicate_dispatches",
        "claims_granted", "claims_bound", "local_accepts", "supersedes",
        "relays", "dedup_hits",
    ),
    headline=lambda fleet, baseline: (
        f"At n={fleet.n_devices}: fleet dispatched {fleet.dispatches} "
        f"agent(s) for {fleet.n_devices} task(s) "
        f"({fleet.duplicate_dispatches} duplicate(s)); baseline dispatched "
        f"{baseline.dispatches} ({baseline.duplicate_dispatches} duplicate(s))"
    ),
)


def run_fleet_sweep(
    seed: int = 0,
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    collector: Optional[TraceCollector] = None,
) -> PopulationSweep:
    """Fleet vs baseline per population, same seeds, identical timing."""
    return population_sweep(run_fleet, FLEET_LAYOUT, seed, populations, collector)


# -- churn: a rolling restart of every member under roaming traffic ------------

#: Device populations swept (the CLI caps this via ``--max-n``).
CHURN_POPULATIONS = (3, 6, 9)

#: Device ``k`` uploads at ``k * CHURN_STAGGER_S``.  The stagger is
#: deliberately wide: uploads keep arriving *throughout* the rolling restart
#: below, so some provably land on a draining member (structured 503 +
#: successor hint) or a crashed one (refused connection) and must walk the
#: ring.
CHURN_STAGGER_S = 2.0

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
CHURN_COLLECT_AT_S = 6.0
CHURN_COLLECT_SPREAD_S = 2.0
CHURN_COLLECT_ATTEMPTS = 12
CHURN_COLLECT_RETRY_WAIT_S = 2.0


def churn_config() -> PDAgentConfig:
    """The fleet tier with the membership lifecycle fully armed."""
    return PDAgentConfig(
        selection_policy="first",
        retry_deadline_s=600.0,
        fleet_enabled=True,
        dedup_ttl_s=300.0,
        fleet_suspicion_timeout_s=5.0,
        fleet_drain_timeout_s=15.0,
    )


def run_churn(
    seed: int = 0,
    n_devices: int = 6,
    churn: bool = True,
    collector: Optional[TraceCollector] = None,
    label: str = "",
) -> FleetRunResult:
    """One population under one mode; same seed ⇒ identical replay.

    Per device ``k``: upload targeted at ``gw-(k%3)``, an immediate roamed
    retry of the same task_id at ``gw-((k+1)%3)``, and a collect starting
    at ``gw-((k+2)%3)``.  A task succeeds when a collect — retried around
    drains and crash windows, walking the ring from its preferred gateway —
    returns status ``"completed"``.
    """
    mode = "churn" if churn else "control"
    deployment = build_world(seed, n_devices, churn_config())
    sim = deployment.sim
    network = deployment.network
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
                return (yield from deploy_ebanking(platform, gw, task_id))
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
        yield sim.timeout(k * CHURN_STAGGER_S)
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
        start = CHURN_COLLECT_AT_S + k * CHURN_COLLECT_SPREAD_S
        if sim.now < start:
            yield sim.timeout(start - sim.now)
        last = ""
        for attempt in range(CHURN_COLLECT_ATTEMPTS):
            collect_gw = GATEWAYS[(k + 2 + attempt) % len(GATEWAYS)]
            try:
                result = yield from platform.collect(handle, via=collect_gw)
            except PDAgentError as exc:
                last = f"collect failed: {exc}"
                yield sim.timeout(CHURN_COLLECT_RETRY_WAIT_S)
                continue
            if result.status != "completed":
                last = f"status {result.status!r}"
                yield sim.timeout(CHURN_COLLECT_RETRY_WAIT_S)
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
    return _fleet_result(
        deployment, mode, seed, n_devices, outcomes,
        collector, label or f"churn/{mode}-{n_devices}",
    )


CHURN_LAYOUT = SweepLayout(
    title=(
        "Churn: rolling restart of all "
        f"{len(GATEWAYS)} fleet members under roaming traffic"
    ),
    table={
        "collect-anywhere": "collected_elsewhere",
        "dup dispatches": "duplicate_dispatches",
        "drains": "drains_completed",
        "migrated": "migrated_out",
        "rebalanced": "rebalanced",
        "refusals": "drain_refusals",
        "epoch": "final_epoch",
    },
    csv=_same(
        "collected_elsewhere", "dispatches", "duplicate_dispatches",
        "drains_completed", "migrated_out", "rebalanced", "claims_stale",
        "drain_refusals", "drain_redirects", "marked_down", "final_epoch",
        "sim_end", "events_processed",
    ),
    headline=lambda churn, control: (
        f"At n={churn.n_devices}: the roll drained {churn.drains_completed} "
        f"member(s), migrated {churn.migrated_out} item(s), reached epoch "
        f"{churn.final_epoch}, and still completed "
        f"{churn.completed}/{churn.n_devices} task(s) with "
        f"{churn.duplicate_dispatches} duplicate(s); the quiet control "
        f"completed {control.completed}/{control.n_devices}"
    ),
)


def run_churn_sweep(
    seed: int = 0,
    populations: tuple[int, ...] = CHURN_POPULATIONS,
    collector: Optional[TraceCollector] = None,
) -> PopulationSweep:
    """Churn vs the no-churn control per population, same seeds and timing."""
    return population_sweep(run_churn, CHURN_LAYOUT, seed, populations, collector)
