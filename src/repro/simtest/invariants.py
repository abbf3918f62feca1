"""Global invariants the simulation swarm checks after every scenario.

Each checker inspects the *whole* post-run world — gateways, MAS servers,
telemetry, the tracer's fault ledger, the kernel calendar — and returns
:class:`Violation` records.  The catalogue (also documented in DESIGN.md):

``exactly-once``
    At most one live (non-failed, non-superseded) ticket per ``task_id``
    per gateway, always; across gateways too unless the run had fault/crash
    activity (failover legitimately re-dispatches a task at another
    gateway).
``fleet-exactly-once``
    Fleet runs tighten the cross-gateway clause: at most one live ticket
    *identity* per ``task_id`` across the whole fleet at quiescence, fault
    and membership churn included — claim forwarding, hinted handoff and
    the reconciler must always converge on a single winner (losers end
    "superseded" or "failed").  A migration batch whose ack was lost may
    leave the same ticket id resident on two members (at-least-once
    transfer); two *distinct* live ids never.
``epoch-monotonic``
    Fleet runs: the shared membership view's epoch log is strictly
    increasing, ends at the current epoch, and every bump names a known
    transition (join/drain/down).
``membership-consistency``
    Fleet runs: every member is in a legal lifecycle state, the ownership
    ring is built over exactly the active members (whenever any are), and
    the view knows exactly the deployment's gateways.
``drain-handoff``
    A member whose graceful drain completed (and that never rejoined)
    holds nothing beyond what the drain explicitly declared as left
    behind (dispatch stragglers, unacked batches) — no silently skipped
    ticket, session record, or dedup binding.
``no-lost-task``
    In a quiet run every task completes.  In a chaos run a failed task must
    carry a *recognized* failure class and the fault ledger must be
    non-empty — "unexpected:" failures are condemned unconditionally.
``ticket-conservation``
    Every ticket a deploy ever returned still exists at its gateway (the
    durable store survives crash/restart); every end-state ticket's task_id
    was actually issued by this run (no phantom dispatches); no ticket is
    still "dispatched" at quiescence (the watchdog guarantees finality).
``span-tree``
    Every span's parent exists, lives in the same trace, and does not start
    after its child; every trace has exactly one root.
``clock-monotonic``
    No span, connection, or fault record ever runs backwards, and the fault
    ledger is append-ordered in time.
``rng-isolation``
    Every named RNG stream still carries the seed derived from
    ``(master_seed, name)`` — nobody reseeded or aliased a stream — and no
    two streams share a seed.
``leak-freedom``
    Gateway FileDirectory allocations match live result documents byte for
    byte; admission queues and worker pools are empty; no connection is
    still open and no MAS agent is still running once the calendar drains
    (quiet runs; chaos runs may legitimately strand both).
``session-stream``
    The streaming session layer's three safety claims: no assembled frame
    ever failed its digest check; every device's accumulated partial list
    is seq-contiguous and a prefix of the gateway's authoritative stream
    for the ticket; committed sessions point at real tickets; and in quiet
    runs no session record survives quiescence (a chaos run may strand a
    session whose device gave up mid-outage — the TTL reaps it on the next
    contact, which a drained calendar never delivers).
``deadline-dispatch``
    No gateway ever mints a ticket for a deadline-carrying task after the
    deadline passed — not even when the frame sat out an admission shed's
    Retry-After wait or a device retry loop.  Audited unconditionally:
    chaos is exactly what pushes dispatches late, and late dispatch is
    exactly what the PI's ``<deadline>`` element forbids.
``jobfarm-merge``
    The job-farm master merges each courier's shard report exactly once —
    duplicate shard sites in a merged result are condemned unconditionally
    — and when nothing disruptive happened, the merged shard set equals
    the expected shard site set exactly (one result per sub-agent, none
    lost, none invented).
``quiescence``
    The calendar truly drained before the horizon — anything still
    scheduled at the end of a run is a wedged process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..mas.state import AgentState
from ..simnet.rng import _derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from ..core.deployment import Deployment
    from .harness import TaskOutcome
    from .spec import ScenarioSpec

__all__ = ["Violation", "RunContext", "check_all", "INVARIANTS"]

#: Failure classes the harness can explain.  Anything else a task records
#: is a harness/platform bug, chaos or not.
RECOGNIZED_FAILURES = ("deploy:", "collect:", "result:", "platform:", "shed:")

#: Ticket end states whose result document is still held on the gateway.
_DOCUMENT_STATES = ("completed", "retracted", "failed")
_TERMINAL_STATES = (
    "completed", "retracted", "disposed", "failed", "expired", "superseded",
)

#: End states that release a ticket's claim on its task_id: "failed"
#: unbinds dedup, "superseded" lost a fleet claim race to another ticket.
_NOT_LIVE_STATES = ("failed", "superseded")

#: Agent lifecycle states that mean "still doing something" — impossible
#: once the event calendar has drained.
_LIVE_AGENT_STATES = (AgentState.CREATED, AgentState.ACTIVE, AgentState.MIGRATING)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough detail to debug from the artifact."""

    invariant: str
    detail: str
    subject: str = ""

    def __str__(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        return f"{self.invariant}{where}: {self.detail}"


@dataclass
class RunContext:
    """Everything the checkers need about one finished run."""

    spec: "ScenarioSpec"
    deployment: "Deployment"
    outcomes: list["TaskOutcome"]
    issued_task_ids: set[str]
    ticket_births: list[tuple[str, str]] = field(default_factory=list)
    #: (device, DeviceSession) pairs streaming tasks drove — audited
    #: against the gateway-side partial streams and session stores.
    sessions: list[tuple[str, object]] = field(default_factory=list)

    @property
    def sim(self):
        return self.deployment.sim

    @property
    def tracer(self):
        return self.deployment.network.tracer

    @property
    def fault_active(self) -> bool:
        """Did anything disruptive actually happen this run?"""
        return bool(self.tracer.faults) or not self.spec.quiet


# ---------------------------------------------------------------- checkers
def check_exactly_once(ctx: RunContext) -> Iterable[Violation]:
    """No duplicate live tickets for one task_id (the paper's §3.2 claim)."""
    per_task: dict[str, list[tuple[str, str, str]]] = {}
    for gw_addr, gateway in ctx.deployment.gateways.items():
        for ticket in gateway.tickets():
            if ticket.task_id:
                per_task.setdefault(ticket.task_id, []).append(
                    (gw_addr, ticket.ticket_id, ticket.status)
                )
    for task_id, entries in sorted(per_task.items()):
        # "failed" released its dedup binding — a retried task may own a
        # fresh live ticket alongside any number of failed ones; a
        # "superseded" ticket lost its fleet claim to the listed winner.
        live = [e for e in entries if e[2] not in _NOT_LIVE_STATES]
        by_gateway: dict[str, int] = {}
        for gw_addr, _, _ in live:
            by_gateway[gw_addr] = by_gateway.get(gw_addr, 0) + 1
        for gw_addr, count in sorted(by_gateway.items()):
            if count > 1:
                yield Violation(
                    "exactly-once",
                    f"{count} live tickets for task {task_id} on one gateway: "
                    f"{[e[1] for e in live if e[0] == gw_addr]}",
                    subject=gw_addr,
                )
        if len(by_gateway) > 1 and not ctx.fault_active:
            yield Violation(
                "exactly-once",
                f"task {task_id} holds live tickets on several gateways "
                f"{sorted(by_gateway)} with no fault to justify failover",
                subject=task_id,
            )


def check_fleet_exactly_once(ctx: RunContext) -> Iterable[Violation]:
    """Fleet runs: one live ticket identity per task, fleet-wide, always.

    The single-gateway checker tolerates cross-gateway duplicates when a
    fault explains them; the fleet tier exists precisely to remove that
    excuse — the claim protocol, hinted handoff and the reconciler must
    have converged on one winner by quiescence (the reconcile window is
    far shorter than any generated outage-free tail), so neither fault
    activity nor membership churn relaxes this check.  Duplicates are
    counted by distinct ticket *id*: drain migration is at-least-once (the
    sender retains anything whose ack was lost), so one id legitimately
    resident on two members is conservation, not duplication.
    """
    if not ctx.spec.fleet or ctx.spec.inject_double_dispatch:
        return
    per_task: dict[str, dict[str, list[str]]] = {}
    for gw_addr, gateway in ctx.deployment.gateways.items():
        for ticket in gateway.tickets():
            if ticket.task_id and ticket.status not in _NOT_LIVE_STATES:
                per_task.setdefault(ticket.task_id, {}).setdefault(
                    ticket.ticket_id, []
                ).append(gw_addr)
    for task_id, by_ticket in sorted(per_task.items()):
        if len(by_ticket) > 1:
            yield Violation(
                "fleet-exactly-once",
                f"task {task_id} holds {len(by_ticket)} distinct live "
                f"tickets across the fleet: {sorted(by_ticket)}",
                subject=task_id,
            )


def check_no_lost_task(ctx: RunContext) -> Iterable[Violation]:
    """Loss must be attributable to the fault ledger, never silent."""
    for outcome in ctx.outcomes:
        if outcome.ok:
            continue
        if outcome.detail.startswith("unexpected:"):
            yield Violation(
                "no-lost-task",
                f"task {outcome.task_id or '<unissued>'} died outside the "
                f"platform error model: {outcome.detail}",
                subject=outcome.device,
            )
            continue
        if outcome.injected:
            continue  # the deliberate duplicate may race itself to any end
        if not ctx.fault_active:
            yield Violation(
                "no-lost-task",
                f"task {outcome.task_id} failed ({outcome.detail or 'no detail'}) "
                "in a quiet run — nothing in the fault ledger explains it",
                subject=outcome.device,
            )
            continue
        if not outcome.detail.startswith(RECOGNIZED_FAILURES):
            yield Violation(
                "no-lost-task",
                f"task {outcome.task_id} failed with unrecognized class "
                f"{outcome.detail!r}",
                subject=outcome.device,
            )


def check_ticket_conservation(ctx: RunContext) -> Iterable[Violation]:
    """Tickets are durable, attributable, and final at quiescence.

    Fleet runs check births against the *whole* fleet rather than the
    minting gateway: drain migration and join rebalancing legitimately
    move a ticket between members — what may never happen is the ticket
    vanishing from every store.
    """
    fleet_held: set[str] = set()
    if ctx.spec.fleet:
        fleet_held = {
            t.ticket_id
            for gateway in ctx.deployment.gateways.values()
            for t in gateway.tickets()
        }
    for gw_addr, ticket_id in ctx.ticket_births:
        if ctx.spec.fleet:
            if ticket_id not in fleet_held:
                yield Violation(
                    "ticket-conservation",
                    f"ticket {ticket_id} vanished from every fleet member "
                    "(migration must conserve, not lose)",
                    subject=gw_addr,
                )
            continue
        gateway = ctx.deployment.gateways[gw_addr]
        if ticket_id not in {t.ticket_id for t in gateway.tickets()}:
            yield Violation(
                "ticket-conservation",
                f"ticket {ticket_id} vanished from {gw_addr} "
                "(durable store must survive crash/restart)",
                subject=gw_addr,
            )
    for gw_addr, gateway in ctx.deployment.gateways.items():
        for ticket in gateway.tickets():
            if ticket.task_id and ticket.task_id not in ctx.issued_task_ids:
                yield Violation(
                    "ticket-conservation",
                    f"phantom ticket {ticket.ticket_id}: task_id "
                    f"{ticket.task_id} was never issued by this run",
                    subject=gw_addr,
                )
            if ticket.status not in _TERMINAL_STATES:
                yield Violation(
                    "ticket-conservation",
                    f"ticket {ticket.ticket_id} still {ticket.status!r} at "
                    "quiescence (watchdog should have finalized it)",
                    subject=gw_addr,
                )


def check_span_tree(ctx: RunContext) -> Iterable[Violation]:
    """One rooted, time-consistent tree per trace; no orphan spans."""
    telemetry = ctx.deployment.network.telemetry
    by_id = {span.span_id: span for span in telemetry.spans}
    roots: dict[str, list[str]] = {}
    for span in telemetry.spans:
        if not span.parent_id:
            roots.setdefault(span.trace_id, []).append(span.span_id)
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            yield Violation(
                "span-tree",
                f"span {span.span_id} ({span.name}) references missing "
                f"parent {span.parent_id}",
                subject=span.trace_id,
            )
            continue
        if parent.trace_id != span.trace_id:
            yield Violation(
                "span-tree",
                f"span {span.span_id} in trace {span.trace_id} has parent "
                f"{parent.span_id} from trace {parent.trace_id}",
                subject=span.trace_id,
            )
        if parent.start > span.start + 1e-9:
            yield Violation(
                "span-tree",
                f"span {span.span_id} starts at {span.start:g} before its "
                f"parent {parent.span_id} at {parent.start:g}",
                subject=span.trace_id,
            )
    for trace_id, root_ids in sorted(roots.items()):
        if len(root_ids) != 1:
            yield Violation(
                "span-tree",
                f"trace {trace_id} has {len(root_ids)} roots: {sorted(root_ids)}",
                subject=trace_id,
            )
    for trace_id in {s.trace_id for s in telemetry.spans}:
        if trace_id not in roots:
            yield Violation(
                "span-tree", f"trace {trace_id} has no root span", subject=trace_id
            )


def check_clock_monotonic(ctx: RunContext) -> Iterable[Violation]:
    """Nothing recorded ever runs backwards against the sim clock."""
    now = ctx.sim.now
    telemetry = ctx.deployment.network.telemetry
    for span in telemetry.spans:
        end = span.end_time if span.end_time is not None else now
        if span.start < 0 or end < span.start or end > now + 1e-9:
            yield Violation(
                "clock-monotonic",
                f"span {span.span_id} ({span.name}) spans "
                f"[{span.start:g}, {end:g}] outside [0, {now:g}]",
            )
    for rec in ctx.tracer.connections:
        closed = rec.closed_at if rec.closed_at is not None else now
        if rec.opened_at < 0 or closed < rec.opened_at:
            yield Violation(
                "clock-monotonic",
                f"connection {rec.conn_id} closed at {closed:g} before it "
                f"opened at {rec.opened_at:g}",
            )
    last = 0.0
    for fault in ctx.tracer.faults:
        if fault.at < last - 1e-9:
            yield Violation(
                "clock-monotonic",
                f"fault ledger out of order: {fault.kind}@{fault.at:g} "
                f"after an entry at {last:g}",
            )
        last = max(last, fault.at)


def check_rng_isolation(ctx: RunContext) -> Iterable[Violation]:
    """Streams still carry their derived seeds, and no seed is shared."""
    streams = ctx.deployment.network.streams
    master = streams.master_seed
    seen: dict[int, str] = {}
    for stream in streams:
        expected = _derive_seed(master, stream.name)
        if stream.seed != expected:
            yield Violation(
                "rng-isolation",
                f"stream {stream.name!r} carries seed {stream.seed}, "
                f"expected derive({master}, name) = {expected}",
                subject=stream.name,
            )
        owner = seen.get(stream.seed)
        if owner is not None:
            yield Violation(
                "rng-isolation",
                f"streams {owner!r} and {stream.name!r} share seed {stream.seed}",
            )
        seen[stream.seed] = stream.name


def check_leak_freedom(ctx: RunContext) -> Iterable[Violation]:
    """No resource outlives its owner once the calendar drains."""
    for gw_addr, gateway in ctx.deployment.gateways.items():
        tickets = {t.ticket_id: t for t in gateway.tickets()}
        held_total = 0
        for ticket_id in gateway.file_directory.tracked():
            held = gateway.file_directory.held(ticket_id)
            held_total += held
            ticket = tickets.get(ticket_id)
            if ticket is None:
                yield Violation(
                    "leak-freedom",
                    f"FileDirectory holds {held} bytes for unknown ticket "
                    f"{ticket_id}",
                    subject=gw_addr,
                )
                continue
            if ticket.status not in _DOCUMENT_STATES:
                yield Violation(
                    "leak-freedom",
                    f"FileDirectory holds {held} bytes for {ticket.status!r} "
                    f"ticket {ticket_id} (should be released)",
                    subject=gw_addr,
                )
            elif ticket.result_frame is None or held != len(ticket.result_frame):
                expected = 0 if ticket.result_frame is None else len(ticket.result_frame)
                yield Violation(
                    "leak-freedom",
                    f"FileDirectory holds {held} bytes for ticket {ticket_id} "
                    f"but its result document is {expected} bytes",
                    subject=gw_addr,
                )
        if gateway.file_directory.used_bytes != held_total:
            yield Violation(
                "leak-freedom",
                f"FileDirectory used_bytes {gateway.file_directory.used_bytes} "
                f"!= sum of tracked allocations {held_total}",
                subject=gw_addr,
            )
        for cls in ("upload", "download", "session"):
            depth = gateway.admission.queue_depth(cls)
            inflight = gateway.admission.inflight(cls)
            if depth or inflight:
                yield Violation(
                    "leak-freedom",
                    f"admission class {cls!r} not drained: queue={depth} "
                    f"inflight={inflight}",
                    subject=gw_addr,
                )
    if not ctx.fault_active:
        for rec in ctx.tracer.connections:
            if rec.open:
                yield Violation(
                    "leak-freedom",
                    f"connection {rec.conn_id} {rec.initiator}->{rec.peer} "
                    f"({rec.purpose}) still open at quiescence in a quiet run",
                    subject=rec.initiator,
                )
        for mas_addr, mas in ctx.deployment.mas_servers.items():
            for agent_id in mas.resident_agents():
                lifecycle = mas.get_agent(agent_id).lifecycle
                if lifecycle in _LIVE_AGENT_STATES:
                    yield Violation(
                        "leak-freedom",
                        f"agent {agent_id} still {lifecycle.value!r} with an "
                        "empty calendar — it can never finish",
                        subject=mas_addr,
                    )


def check_session_stream(ctx: RunContext) -> Iterable[Violation]:
    """Streaming sessions: frames intact, partial prefixes, no leaked records.

    The per-device ledger checks are pure reads of :class:`DeviceSession`
    attributes; the prefix comparison runs only where it is meaningful —
    the device's last-seen stream epoch must match the gateway's (a device
    that never re-polled after a restart legitimately holds a stale copy),
    and a gateway stream reclaimed with an expired/disposed result document
    excuses a shorter authoritative list.
    """
    counters = ctx.deployment.network.telemetry.metrics.snapshot()["counters"]
    mismatches = counters.get("gateway.session_digest_mismatch", 0)
    if mismatches:
        yield Violation(
            "session-stream",
            f"{mismatches} assembled frame(s) failed the digest check "
            "(chunked reassembly corrupted an upload)",
        )
    all_tickets = {
        t.ticket_id: t
        for gateway in ctx.deployment.gateways.values()
        for t in gateway.tickets()
    }
    for device, session in ctx.sessions:
        seqs = [p["seq"] for p in session.partials]
        if seqs != list(range(1, len(seqs) + 1)):
            yield Violation(
                "session-stream",
                f"device partial stream is not seq-contiguous from 1: {seqs}",
                subject=device,
            )
        if not session.ticket_id:
            continue
        if session.ticket_id not in all_tickets:
            yield Violation(
                "session-stream",
                f"committed session {session.session_id or '<closed>'} points "
                f"at a ticket {session.ticket_id} no gateway holds",
                subject=device,
            )
            continue
        gateway = ctx.deployment.gateways.get(session.gateway)
        if gateway is None or gateway.crash_epoch != session.epoch:
            continue
        mine = [(p["seq"], p["site"], p["payload"]) for p in session.partials]
        stream = [
            (p["seq"], p["site"], p["payload"])
            for p in gateway.storage.sessions.partials(session.ticket_id)
        ]
        if len(stream) < len(mine):
            ticket = all_tickets[session.ticket_id]
            if ticket.result_frame is not None:
                yield Violation(
                    "session-stream",
                    f"device holds {len(mine)} partial(s) for ticket "
                    f"{session.ticket_id} but the gateway stream has only "
                    f"{len(stream)} with the result document still live",
                    subject=device,
                )
            continue  # stream reclaimed with the result document
        if stream[: len(mine)] != mine:
            yield Violation(
                "session-stream",
                f"device partials diverge from the gateway stream for ticket "
                f"{session.ticket_id} (must be a prefix)",
                subject=device,
            )
    if not ctx.fault_active:
        for gw_addr, gateway in ctx.deployment.gateways.items():
            leaked = gateway.sessions.open_sessions()
            if leaked:
                yield Violation(
                    "session-stream",
                    f"{len(leaked)} session record(s) survive quiescence in "
                    f"a quiet run: {sorted(r.session_id for r in leaked)}",
                    subject=gw_addr,
                )


def check_epoch_monotonic(ctx: RunContext) -> Iterable[Violation]:
    """The membership view's epoch history is a strictly increasing log."""
    fleet = ctx.deployment.fleet
    if fleet is None:
        return
    view = fleet.view
    epochs = [epoch for epoch, _, _ in view.epoch_log]
    if epochs != sorted(set(epochs)):
        yield Violation(
            "epoch-monotonic",
            f"epoch log is not strictly increasing: {epochs}",
        )
    if not epochs or view.epoch != epochs[-1]:
        yield Violation(
            "epoch-monotonic",
            f"view epoch {view.epoch} disagrees with the last logged "
            f"entry {epochs[-1] if epochs else '<none>'}",
        )
    for epoch, reason, member in view.epoch_log[1:]:
        if reason not in ("join", "drain", "down"):
            yield Violation(
                "epoch-monotonic",
                f"epoch {epoch} bumped for unknown transition {reason!r}",
                subject=member,
            )


def check_membership_consistency(ctx: RunContext) -> Iterable[Violation]:
    """States are legal, the ring tracks the active set, nobody is missing."""
    fleet = ctx.deployment.fleet
    if fleet is None:
        return
    from ..core.fleet import MEMBER_STATES

    view = fleet.view
    for member, state in sorted(view.states.items()):
        if state not in MEMBER_STATES:
            yield Violation(
                "membership-consistency",
                f"member in unknown lifecycle state {state!r}",
                subject=member,
            )
    active = set(view.active_members)
    ring_members = set(view._ring.members)
    if active and ring_members != active:
        yield Violation(
            "membership-consistency",
            f"ownership ring {sorted(ring_members)} diverges from the "
            f"active set {sorted(active)}",
        )
    known = set(view.members)
    gateways = set(ctx.deployment.gateways)
    if known != gateways:
        yield Violation(
            "membership-consistency",
            f"view members {sorted(known)} != deployment gateways "
            f"{sorted(gateways)}",
        )


def check_drain_handoff(ctx: RunContext) -> Iterable[Violation]:
    """A completed drain leaves nothing behind it did not declare.

    Audited only for members that never rejoined — a rejoin pulls state
    back home, so the post-run store of a rejoined member legitimately
    holds items again.  The declared-leftover ledger covers the two lawful
    residues (dispatch stragglers the quiesce window missed, batches whose
    ack never arrived); anything else on a drained member is a migration
    bug, not an operational accident.
    """
    fleet = ctx.deployment.fleet
    if fleet is None:
        return
    view = fleet.view
    for member, at_epoch in view.drains_completed:
        rejoined = any(
            epoch > at_epoch and reason == "join" and who == member
            for epoch, reason, who in view.epoch_log
        )
        if rejoined:
            continue
        gateway = ctx.deployment.gateways[member]
        declared = gateway.drain_leftover
        stray_tickets = sorted(
            t.ticket_id
            for t in gateway.tickets()
            if t.ticket_id not in declared
        )
        stray_sessions = sorted(
            record.session_id
            for record in gateway.storage.sessions.values()
            if record.session_id not in declared
        )
        stray_bindings = sorted(
            task_id
            for task_id, _, _ in gateway.dedup.items()
            if task_id not in declared
        )
        for kind, stray in (
            ("ticket(s)", stray_tickets),
            ("session record(s)", stray_sessions),
            ("dedup binding(s)", stray_bindings),
        ):
            if stray:
                yield Violation(
                    "drain-handoff",
                    f"drained member still holds undeclared {kind}: {stray}",
                    subject=member,
                )


def check_deadline_dispatch(ctx: RunContext) -> Iterable[Violation]:
    """No ticket for a deadline task is ever created past the deadline.

    The harness stamps each outcome with the deadline its PI carried;
    every gateway ticket bound to such a task must have been minted at or
    before that instant — the gateway-side refusal
    (:class:`~repro.core.errors.DeadlineExpiredError`) is the mechanism,
    this checker is the proof.  Unconditional: fault activity explains a
    *failed* deadline task, never a late-minted ticket.
    """
    deadlines = {
        o.task_id: o.deadline
        for o in ctx.outcomes
        if o.task_id and o.deadline > 0
    }
    if not deadlines:
        return
    for gw_addr, gateway in ctx.deployment.gateways.items():
        for ticket in gateway.tickets():
            deadline = deadlines.get(ticket.task_id)
            if deadline is None:
                continue
            if ticket.created_at > deadline + 1e-9:
                yield Violation(
                    "deadline-dispatch",
                    f"ticket {ticket.ticket_id} for task {ticket.task_id} "
                    f"minted at {ticket.created_at:g}, past its deadline "
                    f"{deadline:g}",
                    subject=gw_addr,
                )


def check_jobfarm_merge(ctx: RunContext) -> Iterable[Violation]:
    """The fan-out/merge master receives exactly one result per sub-agent.

    ``reports`` ledgers every message the master merged; a site appearing
    twice means a courier's report was double-merged (or two couriers ran
    the same shard) — condemned whatever else happened.  In an undisturbed
    run the merged shard set must equal the expected shard sites exactly.
    """
    for outcome in ctx.outcomes:
        if outcome.app != "jobfarm" or not isinstance(outcome.data, dict):
            continue
        reports = outcome.data.get("reports", [])
        merged_sites = [r.get("site") for r in reports]
        dupes = sorted(
            {site for site in merged_sites if merged_sites.count(site) > 1}
        )
        if dupes:
            yield Violation(
                "jobfarm-merge",
                f"task {outcome.task_id} merged duplicate shard site(s) "
                f"{dupes} (each courier must report exactly once)",
                subject=outcome.device,
            )
        if ctx.fault_active or not outcome.ok:
            continue
        expected = sorted(set(outcome.sites))
        shards = sorted(
            {s.get("site") for s in outcome.data.get("shards", [])}
        )
        if shards != expected:
            yield Violation(
                "jobfarm-merge",
                f"task {outcome.task_id} merged shard sites {shards} but "
                f"fanned out over {expected} with nothing disruptive in "
                "the run",
                subject=outcome.device,
            )


def check_quiescence(ctx: RunContext) -> Iterable[Violation]:
    """The run must end because it finished, not because time ran out."""
    pending = ctx.sim.peek()
    if pending != float("inf"):
        yield Violation(
            "quiescence",
            f"calendar still holds events at the horizon "
            f"({ctx.spec.horizon:g}s); next fires at {pending:g}",
        )


#: Name → checker, in report order.
INVARIANTS = {
    "exactly-once": check_exactly_once,
    "fleet-exactly-once": check_fleet_exactly_once,
    "epoch-monotonic": check_epoch_monotonic,
    "membership-consistency": check_membership_consistency,
    "drain-handoff": check_drain_handoff,
    "no-lost-task": check_no_lost_task,
    "ticket-conservation": check_ticket_conservation,
    "span-tree": check_span_tree,
    "clock-monotonic": check_clock_monotonic,
    "rng-isolation": check_rng_isolation,
    "leak-freedom": check_leak_freedom,
    "session-stream": check_session_stream,
    "deadline-dispatch": check_deadline_dispatch,
    "jobfarm-merge": check_jobfarm_merge,
    "quiescence": check_quiescence,
}


def check_all(ctx: RunContext) -> list[Violation]:
    """Run every invariant; returns all violations (empty == healthy run)."""
    violations: list[Violation] = []
    for checker in INVARIANTS.values():
        violations.extend(checker(ctx))
    return violations
