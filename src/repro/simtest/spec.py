"""Scenario specifications for the deterministic simulation swarm.

A :class:`ScenarioSpec` is a *complete, declarative* description of one
randomized end-to-end scenario: topology sizes, device population, per-device
task mix over the three demo applications, mobility, a fault schedule,
gateway crash-restart points, and an optional overload burst.  Two
properties make it the unit of the model checker:

* **pure function of the seed** — :func:`generate` draws every choice from
  named :class:`~repro.simnet.rng.StreamFactory` streams, so
  ``generate(s) == generate(s)`` on any machine, forever;
* **JSON round-trippable** — :meth:`ScenarioSpec.to_json` /
  :func:`spec_from_json` lose nothing, so a failing scenario (possibly
  shrunk) is storable as an artifact and replayable without the seed.

The shrinker edits specs structurally (drop a device, drop a fault, shorten
an itinerary); the harness only ever consumes the spec, never the seed
directly, which is what makes shrunk — no-longer-seed-derivable — scenarios
runnable at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Optional

from ..device.mobility import (
    MOBILITY_MODELS,
    MobilityRoute,
    corridor_route,
    hotspot_route,
    roaming_route,
)
from ..simnet.rng import StreamFactory
from .traffic import TrafficSpec, sample_arrivals

__all__ = [
    "TaskSpec",
    "DeviceSpec",
    "FaultSpec",
    "CrashPoint",
    "DrainPoint",
    "OverloadBurst",
    "ScenarioSpec",
    "generate",
    "spec_from_json",
    "APPS",
    "LEGACY_APPS",
    "DIVERSE_APPS",
]

#: The paper's three demo applications (ROADMAP §apps).  The generator's
#: original population draw chooses among exactly these — the tuple must
#: never grow, or every pre-diversity seed would reshuffle its app mix.
LEGACY_APPS = ("ebanking", "foodsearch", "mcommerce")

#: The scenario-diversity archetypes: latency-critical geo-sharded
#: matching, deadline-critical sniping, throughput-critical fan-out/merge.
#: Drawn only from the appended ``simtest:archetypes`` stream.
DIVERSE_APPS = ("ridedispatch", "auctionsnipe", "jobfarm")

#: Every application a :class:`TaskSpec` may name.
APPS = LEGACY_APPS + DIVERSE_APPS

#: Fault kinds the generator composes.  ``site-crash`` maps to a simnet
#: NodeCrash (kills resident agents, durable state survives); the link kinds
#: hit an access-point/gateway/site uplink or a static device's radio.
FAULT_KINDS = ("link-down", "link-degrade", "site-crash")

#: Hard wall for one scenario run (simulated seconds).  Every process the
#: harness spawns is deadline-bounded far below this, so a run that still
#: has calendar entries at the horizon has genuinely wedged.
DEFAULT_HORIZON_S = 1800.0


@dataclass(frozen=True)
class TaskSpec:
    """One user task: which app, over which sites, starting when."""

    app: str
    sites: tuple[str, ...]
    start: float
    #: e-banking: transfers in the batch.
    n_transactions: int = 1
    #: m-commerce knobs.
    item: str = "camera"
    budget: float = 400.0
    #: foodsearch knobs.
    cuisine: str = "thai"
    max_price: int = 160
    #: Fleet scenarios: immediately re-deploy the same ``task_id`` at a
    #: *different* gateway (a roaming device retrying an upload) and collect
    #: through the second gateway — the collect-anywhere path.
    roam_retry: bool = False
    #: Streaming scenarios: upload the PI over a chunked resumable session
    #: and collect via session polls (partial results + push events) instead
    #: of the store-and-forward verbs.
    session: bool = False
    #: ride-dispatch: the pickup zone to match in.
    zone: str = ""
    #: auction-sniping: the lot to snipe, and the absolute sim-time deadline
    #: carried inside the PI (0 = no deadline).  The ``deadline-dispatch``
    #: invariant audits that no ticket is ever minted past it.
    lot: str = ""
    deadline: float = 0.0
    #: job-farming: the job's name and size (shards fan out over ``sites``;
    #: ``sites[0]`` is the rendezvous the master lands at).
    job: str = ""
    job_size: int = 0

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}")
        if not self.sites:
            raise ValueError("task needs at least one site")
        if self.start < 0:
            raise ValueError(f"negative start {self.start!r}")


@dataclass(frozen=True)
class DeviceSpec:
    """One wireless device, its attachment point, and its task list."""

    name: str
    profile: str
    wireless: str
    ap: int
    #: Explicit gateway ("gw-<i>") or None for policy-driven auto selection.
    pinned_gateway: Optional[str]
    tasks: tuple[TaskSpec, ...]
    #: Mobility: relocate to access point ``move_to_ap`` at ``move_at``.
    move_at: Optional[float] = None
    move_to_ap: Optional[int] = None
    #: City-scale mobility: a multi-waypoint route (commute corridor, dense
    #: hotspot, vehicle-speed roaming) the harness walks through repeated
    #: relocations.  Mutually exclusive with the legacy one-hop move above.
    mobility: Optional[MobilityRoute] = None


@dataclass(frozen=True)
class FaultSpec:
    """One injected network fault, in harness-level coordinates.

    ``target`` is symbolic — ``"ap:<j>"``, ``"gw:<addr>"``, ``"site:<addr>"``
    (uplink to the backbone) or ``"dev:<name>"`` (the device's radio link) —
    so the spec stays meaningful when the shrinker removes other elements.
    """

    kind: str
    target: str
    at: float
    duration: float
    latency_factor: float = 2.0
    loss: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0 or self.duration <= 0:
            raise ValueError("fault needs at >= 0 and duration > 0")


@dataclass(frozen=True)
class CrashPoint:
    """A gateway software crash (volatile state lost) + restart.

    ``gateway`` is usually a concrete address ("gw-1"); fleet scenarios may
    use the symbolic form ``"owner:<device>"``, which the harness resolves —
    at crash time, against the deployment's hash ring — to the gateway that
    *owns* that device's first task, so the crash provably hits the fleet
    tier's authoritative node rather than a random bystander.
    """

    gateway: str
    at: float
    down_for: float


@dataclass(frozen=True)
class DrainPoint:
    """A graceful gateway departure: drain (state handoff) then optionally
    a rejoin ``down_for`` seconds after the drain completes.

    ``down_for=None`` means the member leaves the fleet for good — the
    strictest case for the drain-handoff invariant, since nothing it still
    holds can ever be rebalanced home again.
    """

    gateway: str
    at: float
    down_for: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative drain time {self.at!r}")
        if self.down_for is not None and self.down_for <= 0:
            raise ValueError(f"down_for must be positive, got {self.down_for!r}")


@dataclass(frozen=True)
class OverloadBurst:
    """N concurrent quick deployments slammed at one gateway."""

    gateway: str
    device: str
    at: float
    n_tasks: int


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything the harness needs to build and drive one scenario."""

    seed: int
    n_gateways: int
    n_sites: int
    n_aps: int
    devices: tuple[DeviceSpec, ...]
    faults: tuple[FaultSpec, ...] = ()
    crashes: tuple[CrashPoint, ...] = ()
    #: Membership churn: graceful drains (with optional rejoin) — only ever
    #: generated for fleet scenarios with at least two gateways.
    drains: tuple[DrainPoint, ...] = ()
    burst: Optional[OverloadBurst] = None
    horizon: float = DEFAULT_HORIZON_S
    #: Run the gateways as a fleet tier: consistent-hash task ownership,
    #: claim forwarding, dedup indexes and sessions that outlive a gateway
    #: crash, dedup TTL.
    fleet: bool = False
    #: Test hook: disable gateway dedup and deploy one task twice with the
    #: same task_id — a deliberate exactly-once violation the shrinker
    #: acceptance test minimizes.  Never set by :func:`generate`.
    inject_double_dispatch: bool = False
    #: Scenario diversity: diurnal load shaping (plus an optional flash
    #: crowd) the generator used to place task start times.  Recorded so a
    #: stored spec documents *why* its arrivals cluster; the harness itself
    #: only ever consumes the already-materialized task starts.
    traffic: Optional[TrafficSpec] = None

    # ------------------------------------------------------------ helpers
    @property
    def gateways(self) -> tuple[str, ...]:
        return tuple(f"gw-{i}" for i in range(self.n_gateways))

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(f"site-{i}" for i in range(self.n_sites))

    @property
    def quiet(self) -> bool:
        """No fault/crash/churn/overload activity: every task must succeed."""
        return (
            not self.faults
            and not self.crashes
            and not self.drains
            and self.burst is None
        )

    @property
    def streaming(self) -> bool:
        """At least one task rides the streaming session layer."""
        return any(t.session for d in self.devices for t in d.tasks)

    def describe(self) -> str:
        n_tasks = sum(len(d.tasks) for d in self.devices)
        bits = [
            f"{len(self.devices)} device(s)",
            f"{n_tasks} task(s)",
            f"{self.n_gateways} gateway(s)",
            f"{self.n_sites} site(s)",
            f"{len(self.faults)} fault(s)",
            f"{len(self.crashes)} crash point(s)",
        ]
        if self.drains:
            n_rejoin = sum(1 for d in self.drains if d.down_for is not None)
            bits.append(f"{len(self.drains)} drain(s) ({n_rejoin} rejoining)")
        if self.fleet:
            n_roam = sum(
                1 for d in self.devices for t in d.tasks if t.roam_retry
            )
            bits.append(f"fleet tier ({n_roam} roaming retr{'y' if n_roam == 1 else 'ies'})")
        if self.streaming:
            n_stream = sum(
                1 for d in self.devices for t in d.tasks if t.session
            )
            bits.append(f"{n_stream} streaming session(s)")
        n_diverse = sum(
            1 for d in self.devices for t in d.tasks if t.app in DIVERSE_APPS
        )
        if n_diverse:
            bits.append(f"{n_diverse} diversity task(s)")
        if self.traffic is not None:
            shape = "diurnal traffic"
            if self.traffic.flash() is not None:
                shape += " + flash crowd"
            bits.append(shape)
        n_routes = sum(1 for d in self.devices if d.mobility is not None)
        if n_routes:
            bits.append(f"{n_routes} mobility route(s)")
        if self.burst is not None:
            bits.append(f"burst of {self.burst.n_tasks} at {self.burst.gateway}")
        if self.inject_double_dispatch:
            bits.append("double-dispatch injection")
        return ", ".join(bits)

    # ------------------------------------------------------------ JSON
    def to_json(self) -> dict[str, Any]:
        doc = asdict(self)
        # Diversity fields are scrubbed at their defaults so every spec
        # minted before they existed serializes to byte-identical JSON —
        # stored swarm artifacts stay stable across the schema growth.
        for dev in doc["devices"]:
            if dev["mobility"] is None:
                del dev["mobility"]
            for task in dev["tasks"]:
                for key, default in _TASK_DIVERSITY_DEFAULTS:
                    if task[key] == default:
                        del task[key]
        if doc["traffic"] is None:
            del doc["traffic"]
        doc["schema"] = "pdagent-simtest-spec/1"
        return doc

    def with_(self, **changes: Any) -> "ScenarioSpec":
        return replace(self, **changes)


#: (field, default) pairs scrubbed from serialized tasks when unset.
_TASK_DIVERSITY_DEFAULTS = (
    ("zone", ""),
    ("lot", ""),
    ("deadline", 0.0),
    ("job", ""),
    ("job_size", 0),
)


def _route_from_json(doc: Optional[dict[str, Any]]) -> Optional[MobilityRoute]:
    if doc is None:
        return None
    return MobilityRoute(
        model=doc["model"],
        waypoints=tuple(doc["waypoints"]),
        start=doc["start"],
        dwell_s=doc["dwell_s"],
    )


def spec_from_json(doc: dict[str, Any]) -> ScenarioSpec:
    """Inverse of :meth:`ScenarioSpec.to_json`."""
    doc = dict(doc)
    doc.pop("schema", None)
    devices = tuple(
        DeviceSpec(
            name=d["name"],
            profile=d["profile"],
            wireless=d["wireless"],
            ap=d["ap"],
            pinned_gateway=d["pinned_gateway"],
            tasks=tuple(
                TaskSpec(**{**t, "sites": tuple(t["sites"])}) for t in d["tasks"]
            ),
            move_at=d.get("move_at"),
            move_to_ap=d.get("move_to_ap"),
            mobility=_route_from_json(d.get("mobility")),
        )
        for d in doc.pop("devices")
    )
    faults = tuple(FaultSpec(**f) for f in doc.pop("faults", ()))
    crashes = tuple(CrashPoint(**c) for c in doc.pop("crashes", ()))
    drains = tuple(DrainPoint(**d) for d in doc.pop("drains", ()))
    burst_doc = doc.pop("burst", None)
    burst = OverloadBurst(**burst_doc) if burst_doc is not None else None
    traffic_doc = doc.pop("traffic", None)
    traffic = TrafficSpec(**traffic_doc) if traffic_doc is not None else None
    return ScenarioSpec(
        devices=devices,
        faults=faults,
        crashes=crashes,
        drains=drains,
        burst=burst,
        traffic=traffic,
        **doc,
    )


# ---------------------------------------------------------------- generator
def _round(x: float) -> float:
    """Keep generated times readable (and JSON-stable) at millisecond grain."""
    return round(float(x), 3)


def _make_task(stream, app: str, sites: tuple[str, ...]) -> TaskSpec:
    n_stops = stream.randint(1, len(sites))
    itinerary = list(sites)
    stream.shuffle(itinerary)
    itinerary = tuple(itinerary[:n_stops])
    start = _round(stream.uniform(0.0, 40.0))
    if app == "ebanking":
        return TaskSpec(
            app=app, sites=itinerary, start=start,
            n_transactions=stream.randint(1, 3),
        )
    if app == "mcommerce":
        return TaskSpec(
            app=app, sites=itinerary, start=start,
            item=str(stream.choice(["camera", "phone", "pda"])),
            budget=_round(stream.uniform(250.0, 450.0)),
        )
    return TaskSpec(
        app=app, sites=itinerary, start=start,
        cuisine=str(stream.choice(["cantonese", "thai", "italian"])),
        max_price=stream.randint(80, 200),
    )


#: Zones the ride-dispatch driver pools shard over (see apps.ridedispatch).
_ZONES = ("downtown", "airport", "harbor", "uptown")

#: Job kinds the grid farm renders (see apps.jobfarm).
_JOB_KINDS = ("render", "align", "index", "simulate")


def _make_diverse_task(stream, app: str, sites: tuple[str, ...]) -> TaskSpec:
    """One scenario-diversity task (ride-dispatch / auction / job-farm)."""
    n_stops = stream.randint(1, len(sites))
    itinerary = list(sites)
    stream.shuffle(itinerary)
    itinerary = tuple(itinerary[:n_stops])
    start = _round(stream.uniform(0.0, 40.0))
    if app == "ridedispatch":
        return TaskSpec(
            app=app, sites=itinerary, start=start,
            zone=str(stream.choice(list(_ZONES))),
        )
    if app == "auctionsnipe":
        # Deadlines are generous relative to a quiet run's deploy path
        # (subscribe + pack + upload lands within a couple of seconds of
        # the start) so only genuine chaos — sheds, outages, retry loops —
        # can push a dispatch past one.
        deadline = 0.0
        if stream.bernoulli(0.7):
            deadline = _round(start + stream.uniform(45.0, 90.0))
        return TaskSpec(
            app=app, sites=itinerary, start=start,
            lot=f"lot-{stream.randint(0, 5)}",
            budget=_round(stream.uniform(150.0, 520.0)),
            deadline=deadline,
        )
    size = stream.randint(1, 4)
    return TaskSpec(
        app=app, sites=itinerary, start=start,
        job=f"{stream.choice(list(_JOB_KINDS))}-{size}",
        job_size=size,
    )


def generate(seed: int) -> ScenarioSpec:
    """Derive a full scenario from one integer seed — pure and stable.

    Each aspect draws from its own named stream, so enlarging one aspect's
    choice space in a future PR does not reshuffle the others (the same
    stability argument the simulator itself relies on).
    """
    streams = StreamFactory(master_seed=seed)
    topo = streams.get("simtest:topology")
    n_gateways = topo.randint(1, 2)
    n_sites = topo.randint(1, 3)
    n_aps = topo.randint(1, 2)
    gateways = tuple(f"gw-{i}" for i in range(n_gateways))
    sites = tuple(f"site-{i}" for i in range(n_sites))

    pop = streams.get("simtest:population")
    devices: list[DeviceSpec] = []
    for i in range(pop.randint(1, 4)):
        ap = pop.randint(0, n_aps - 1)
        pinned = str(pop.choice(list(gateways))) if pop.bernoulli(0.7) else None
        tasks = tuple(
            _make_task(pop, str(pop.choice(list(LEGACY_APPS))), sites)
            for _ in range(pop.randint(1, 2))
        )
        move_at = move_to = None
        if n_aps > 1 and pop.bernoulli(0.3):
            move_at = _round(pop.uniform(10.0, 80.0))
            move_to = (ap + 1) % n_aps
        devices.append(
            DeviceSpec(
                name=f"dev-{i}",
                profile=str(pop.choice(["PDA", "PHONE"])),
                wireless=str(pop.choice(["GPRS", "WLAN"])),
                ap=ap,
                pinned_gateway=pinned,
                tasks=tasks,
                move_at=move_at,
                move_to_ap=move_to,
            )
        )

    chaos = streams.get("simtest:faults")
    # Link faults only ever target edges that exist for the whole run:
    # infrastructure uplinks, or the radio of a device that never moves.
    link_targets = (
        [f"ap:{j}" for j in range(n_aps)]
        + [f"gw:{g}" for g in gateways]
        + [f"site:{s}" for s in sites]
        + [f"dev:{d.name}" for d in devices if d.move_at is None]
    )
    faults: list[FaultSpec] = []
    for _ in range(chaos.randint(0, 3)):
        kind = str(chaos.choice(list(FAULT_KINDS)))
        if kind == "site-crash":
            target = f"site:{chaos.choice(list(sites))}"
            duration = _round(chaos.uniform(5.0, 20.0))
        else:
            target = str(chaos.choice(link_targets))
            duration = _round(chaos.uniform(2.0, 12.0))
        faults.append(
            FaultSpec(
                kind=kind,
                target=target,
                at=_round(chaos.uniform(5.0, 90.0)),
                duration=duration,
                latency_factor=_round(chaos.uniform(1.5, 3.0)),
                loss=_round(chaos.uniform(0.1, 0.5)),
            )
        )

    crashes: list[CrashPoint] = []
    crash_stream = streams.get("simtest:crashes")
    if crash_stream.bernoulli(0.35):
        crashes.append(
            CrashPoint(
                gateway=str(crash_stream.choice(list(gateways))),
                at=_round(crash_stream.uniform(10.0, 70.0)),
                down_for=_round(crash_stream.uniform(3.0, 10.0)),
            )
        )

    burst = None
    burst_stream = streams.get("simtest:burst")
    if burst_stream.bernoulli(0.3):
        burst = OverloadBurst(
            gateway=str(burst_stream.choice(list(gateways))),
            device=str(burst_stream.choice([d.name for d in devices])),
            at=_round(burst_stream.uniform(10.0, 50.0)),
            n_tasks=burst_stream.randint(4, 8),
        )

    # Fleet tier: its own stream, so adding it never reshuffles the draws
    # any pre-fleet aspect makes (old seeds keep their old scenarios).
    fleet = False
    fleet_stream = streams.get("simtest:fleet")
    if n_gateways >= 2 and fleet_stream.bernoulli(0.5):
        fleet = True
        devices = [
            replace(
                dev,
                tasks=tuple(
                    replace(task, roam_retry=fleet_stream.bernoulli(0.35))
                    for task in dev.tasks
                ),
            )
            for dev in devices
        ]
        if fleet_stream.bernoulli(0.3):
            # Crash the *owner* of some device's first task mid-run — the
            # harness resolves the symbolic target against the hash ring.
            victim = str(fleet_stream.choice([d.name for d in devices]))
            crashes.append(
                CrashPoint(
                    gateway=f"owner:{victim}",
                    at=_round(fleet_stream.uniform(10.0, 60.0)),
                    down_for=_round(fleet_stream.uniform(3.0, 8.0)),
                )
            )

    # Streaming sessions: again a dedicated stream appended after every
    # earlier aspect, so turning the layer on reshuffles nothing that came
    # before (old seeds keep their old scenarios).
    session_stream = streams.get("simtest:session")
    if session_stream.bernoulli(0.4):
        devices = [
            replace(
                dev,
                tasks=tuple(
                    replace(task, session=True)
                    if not task.roam_retry and session_stream.bernoulli(0.6)
                    else task
                    for task in dev.tasks
                ),
            )
            for dev in devices
        ]
        streaming_tasks = [
            (dev, task)
            for dev in devices
            for task in dev.tasks
            if task.session
        ]
        if streaming_tasks and session_stream.bernoulli(0.6):
            # Cut the session device's AP uplink just after its task starts
            # so the LinkDown lands mid-upload (or mid-partial-stream) —
            # the resume handshake and cursor resync are what's under test.
            dev, task = streaming_tasks[
                session_stream.randint(0, len(streaming_tasks) - 1)
            ]
            faults.append(
                FaultSpec(
                    kind="link-down",
                    target=f"ap:{dev.ap}",
                    at=_round(task.start + session_stream.uniform(0.05, 2.0)),
                    duration=_round(session_stream.uniform(2.0, 8.0)),
                )
            )

    # Membership churn: yet another appended stream (old seeds keep their
    # old scenarios).  Only fleet runs with a spare member drain — somebody
    # must stay active to receive the handoff.
    drains: list[DrainPoint] = []
    churn_stream = streams.get("simtest:churn")
    if fleet and n_gateways >= 2 and churn_stream.bernoulli(0.35):
        candidates = list(gateways)
        churn_stream.shuffle(candidates)
        n_drains = churn_stream.randint(1, min(2, n_gateways - 1))
        for member in candidates[:n_drains]:
            drains.append(
                DrainPoint(
                    gateway=member,
                    at=_round(churn_stream.uniform(10.0, 60.0)),
                    down_for=_round(churn_stream.uniform(2.0, 6.0))
                    if churn_stream.bernoulli(0.7)
                    else None,
                )
            )

    # ---- scenario diversity: three more appended streams, each drawn
    # after everything above, so every pre-diversity seed keeps its exact
    # scenario (the pinned-JSON regression test enforces this). ----

    # New app archetypes: extra tasks appended to existing devices; the
    # population draw itself still chooses among LEGACY_APPS only.
    arch_stream = streams.get("simtest:archetypes")
    if arch_stream.bernoulli(0.45):
        for _ in range(arch_stream.randint(1, 2)):
            idx = arch_stream.randint(0, len(devices) - 1)
            app = str(arch_stream.choice(list(DIVERSE_APPS)))
            task = _make_diverse_task(arch_stream, app, sites)
            devices[idx] = replace(
                devices[idx], tasks=devices[idx].tasks + (task,)
            )

    # Diurnal / flash-crowd traffic: re-time task starts onto a load curve.
    # Session tasks keep their legacy starts — the session stream above
    # timed its mid-upload LinkDown against them.  A re-timed task with a
    # deadline keeps its deadline *slack*, not the absolute instant.
    traffic = None
    traffic_stream = streams.get("simtest:traffic")
    if traffic_stream.bernoulli(0.35):
        flash_knobs: dict[str, Any] = {}
        if traffic_stream.bernoulli(0.5):
            flash_knobs = dict(
                flash_at=_round(traffic_stream.uniform(20.0, 120.0)),
                flash_magnitude=_round(traffic_stream.uniform(2.0, 5.0)),
                flash_decay_s=_round(traffic_stream.uniform(5.0, 15.0)),
                flash_epicenter_ap=traffic_stream.randint(0, n_aps - 1),
                flash_radius=traffic_stream.randint(0, 1),
            )
        traffic = TrafficSpec(
            day_s=_round(traffic_stream.uniform(180.0, 360.0)),
            peak_ratio=_round(traffic_stream.uniform(2.0, 6.0)),
            peaks=traffic_stream.randint(1, 2),
            **flash_knobs,
        )
        movable = [
            (i, k)
            for i, dev in enumerate(devices)
            for k, task in enumerate(dev.tasks)
            if not task.session
        ]
        curve = traffic.curve(daily_tasks=len(movable))
        arrivals = sample_arrivals(traffic_stream, curve, len(movable))
        flash = traffic.flash()
        for (i, k), arrival in zip(movable, arrivals):
            dev = devices[i]
            task = dev.tasks[k]
            start = arrival
            if flash is not None and flash.cell_weight(dev.ap) > 0:
                # Devices inside the spike's cells pile onto the onset
                # instead: flash offset, attenuated by cell distance.
                u = traffic_stream.uniform(0.0, 1.0)
                if traffic_stream.bernoulli(flash.cell_weight(dev.ap)):
                    start = _round(flash.at + flash.sample_offset(u))
            changed = {"start": start}
            if task.deadline > 0:
                changed["deadline"] = _round(
                    start + (task.deadline - task.start)
                )
            tasks = list(dev.tasks)
            tasks[k] = replace(task, **changed)
            devices[i] = replace(dev, tasks=tuple(tasks))

    # City-scale mobility: corridor / hotspot / roaming routes for devices
    # that neither carry the legacy one-hop move nor anchor a dev-radio
    # fault (the fault edge is resolved against the home AP and must exist
    # when it fires).
    mobility_stream = streams.get("simtest:mobility")
    if n_aps >= 2 and mobility_stream.bernoulli(0.4):
        fault_devs = {
            f.target.partition(":")[2]
            for f in faults
            if f.target.startswith("dev:")
        }
        candidates = [
            i
            for i, dev in enumerate(devices)
            if dev.move_at is None and dev.name not in fault_devs
        ]
        if candidates:
            n_routes = mobility_stream.randint(1, min(2, len(candidates)))
            mobility_stream.shuffle(candidates)
            for i in candidates[:n_routes]:
                dev = devices[i]
                model = str(mobility_stream.choice(list(MOBILITY_MODELS)))
                if model == "corridor":
                    route = corridor_route(mobility_stream, n_aps, dev.ap)
                elif model == "hotspot":
                    route = hotspot_route(mobility_stream, n_aps, dev.ap)
                else:
                    route = roaming_route(mobility_stream, n_aps, dev.ap)
                devices[i] = replace(dev, mobility=route)

    return ScenarioSpec(
        fleet=fleet,
        seed=seed,
        n_gateways=n_gateways,
        n_sites=n_sites,
        n_aps=n_aps,
        devices=tuple(devices),
        faults=tuple(faults),
        crashes=tuple(crashes),
        drains=tuple(drains),
        burst=burst,
        traffic=traffic,
    )
