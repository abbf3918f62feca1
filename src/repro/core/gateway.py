"""The Gateway: PDAgent's middle-tier service bridge (§3.2, Figs. 4–6).

The gateway accepts Packed Information over HTTP, verifies and unpacks it,
validates the dispatch key, materialises a mobile agent on the attached MAS
(through the :class:`~repro.mas.adapters.MASAdapter` boundary — never a
concrete runtime), and hands the device back a **ticket** it can later
redeem for the result XML document.

Internal components mirror the paper's Fig. 6 architecture:

* :class:`AgentDispatchHandler` — separates a received PI into modules;
* :class:`XmlWriter` — "read[s] the xml document and parse[s] all the user
  requirement parameters";
* :class:`AgentCreator` — "generate[s] mobile agent classes from the
  information if the supplied unique key is valid";
* :class:`DocumentCreator` — "create[s] different files … for the Mobile
  Agent Server to collect";
* :class:`FileDirectory` — "allocate[s] a space for storing these document
  and classes, and then … signal[s] the Mobile Agent Server".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Union

from ..compressor import CompressionError, compress
from ..crypto import CryptoError, IntegrityError, KeyVault, validate_dispatch_key
from ..mas.adapters import MASAdapter
from ..mas.itinerary import Itinerary
from ..simnet.http import HttpRequest, HttpResponse, HttpServer
from ..simnet.primitives import Event
from ..telemetry.spans import Span, SpanContext
from ..xmlcodec import (
    XML_DECLARATION, Element, XmlError, attr_text, leaf_text, parse_bytes, write_bytes,
)
from ..mas.serializer import typed_xml
from .admission import AdmissionController, TokenBucket
from .config import PDAgentConfig
from .errors import (
    AuthorizationError,
    DeadlineExpiredError,
    DeploymentError,
    GatewayError,
    GatewayOverloadedError,
)
from .fleet import (
    FLEET_HEARTBEAT_PATH,
    FLEET_MIGRATE_PATH,
    Fleet,
    FleetClient,
    claim_reply,
    heartbeat_request,
)
from .packed_info import PIContent, unpack
from .security import GatewaySecurity
from .session import (
    HOPS_REMAINING_HEADER,
    HOPS_VISITED_HEADER,
    SessionManager,
)
from .storage import GatewayStorage, SessionRecord
from .subscription import ServiceCatalog, SubscriptionDirectory, code_to_xml

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.topology import Network

__all__ = [
    "Gateway",
    "Ticket",
    "ticket_origin",
    "GATEWAY_PORT",
    "TASK_ID_HEADER",
    "AgentDispatchHandler",
    "XmlWriter",
    "AgentCreator",
    "DocumentCreator",
    "FileDirectory",
]

GATEWAY_PORT = 80
#: Request header carrying the device task id: the exactly-once fast path —
#: the gateway can dedup a retried upload before paying the unpack cost.
TASK_ID_HEADER = "x-task-id"
#: Fixed servlet overhead per gateway request (nominal seconds).
SERVICE_TIME_S = 0.008
#: The "download" admission class (result downloads and agent ops): its
#: worker pool, and the requests allowed to wait for a worker before shedding.
DOWNLOAD_WORKERS = 32
DOWNLOAD_QUEUE_LIMIT = 128
#: The "session" admission class (chunks, polls, hop reports): its worker
#: pool, and the requests allowed to wait for a worker before shedding.
SESSION_WORKERS = 8
SESSION_QUEUE_LIMIT = 32
#: Result retention: seconds past the *first successful download* after
#: which the result document expires and its workspace is reclaimed.
RESULT_TTL_S = 600.0
#: Timed re-claims of a locally-accepted task before reconciliation gives
#: up, and the wait before each.
FLEET_RECONCILE_ATTEMPTS = 10
FLEET_RECONCILE_INTERVAL_S = 5.0
#: Failure detector: suspicion-probe cadence, and each heartbeat's timeout.
FLEET_HEARTBEAT_INTERVAL_S = 1.0
#: Items per ``/fleet/migrate`` batch, and send attempts per drain batch (a
#: resend is first-wins at the receiver, so retries are safe).
FLEET_MIGRATE_BATCH = 32
FLEET_MIGRATE_ATTEMPTS = 3


def ticket_origin(ticket_id: str) -> str:
    """The gateway that minted ``ticket_id`` (``<gateway>/t-<n>``), else ``""``."""
    origin, sep, _ = ticket_id.partition("/t-")
    return origin if sep else ""


@dataclass
class Ticket:
    """Gateway-side record of one deployed application instance."""

    ticket_id: str
    agent_id: str
    device_id: str
    service: str
    #: dispatched | completed | retracted | disposed | failed | expired |
    #: superseded
    status: str
    created_at: float
    #: Succeeds with the disposition when the ticket leaves "dispatched".
    completed: Event
    result_frame: Optional[bytes] = None
    children: list[str] = field(default_factory=list)  # clone tickets
    #: Device-generated idempotency key ("" for legacy dispatches).  Stored
    #: on the ticket so a standalone gateway can rebuild its dedup index
    #: after a restart.
    task_id: str = ""
    #: When the result document was first successfully downloaded; starts
    #: the retention-TTL clock.
    first_downloaded_at: Optional[float] = None
    #: Fleet tier: the winning ticket this one lost its task to.  A
    #: superseded ticket holds no result; collects against it are
    #: redirected to the winner.
    superseded_by: str = ""
    #: Telemetry span covering the ticket's pending lifetime (dispatch →
    #: finalize); ``None`` for tickets created outside a traced dispatch.
    span: Optional[Span] = None


class XmlWriter:
    """Parses the decrypted PI document into parameters (Fig. 6)."""

    def __init__(self, security: GatewaySecurity) -> None:
        self._security = security

    def extract(self, frame: bytes) -> PIContent:
        try:
            return unpack(frame, self._security)
        except IntegrityError:
            raise
        except (CompressionError, XmlError, ValueError, KeyError) as exc:
            raise DeploymentError(f"malformed PI: {exc}") from exc


class AgentCreator:
    """Validates the dispatch key and deploys through the MAS adapter."""

    def __init__(self, directory: SubscriptionDirectory, adapter: MASAdapter) -> None:
        self._directory = directory
        self._adapter = adapter
        self._seen_nonces: set[tuple[str, str]] = set()

    def authorize(self, content: PIContent) -> None:
        """The §3.2 check: the unique key must match the subscription.

        Also enforces nonce freshness: a captured PI replayed later (same
        code id + nonce) is rejected, closing the §3.4 threat of stolen
        packages being re-submitted.
        """
        sub = self._directory.lookup(content.code_id)
        if sub is None:
            raise AuthorizationError(f"unknown code id {content.code_id!r}")
        if sub.device_id != content.device_id:
            raise AuthorizationError(
                f"code {content.code_id!r} belongs to {sub.device_id!r}"
            )
        if not validate_dispatch_key(
            content.dispatch_key, content.code_id, content.device_id, content.nonce
        ):
            raise AuthorizationError("invalid dispatch key")
        nonce_key = (content.code_id, content.nonce)
        if nonce_key in self._seen_nonces:
            raise AuthorizationError(
                f"replayed dispatch: nonce {content.nonce!r} already used "
                f"for {content.code_id!r}"
            )
        self._seen_nonces.add(nonce_key)

    def forget_nonces(self) -> None:
        """Drop the replay cache — it is process memory, lost on crash."""
        self._seen_nonces.clear()

    def create(
        self, content: PIContent, home: str, trace: Optional[SpanContext] = None
    ) -> Generator:
        """Process: instantiate + dispatch the agent; returns agent id."""
        if not self._adapter.supports(content.agent_class):
            raise DeploymentError(
                f"MAS does not support agent class {content.agent_class!r}"
            )
        itinerary = content.itinerary or Itinerary(origin=home)
        agent_id = yield from self._adapter.deploy(
            content.agent_class,
            owner=content.device_id,
            itinerary=itinerary,
            state={"params": content.params, "results": []},
            trace=trace,
        )
        return agent_id


class DocumentCreator:
    """Builds the result XML documents the device later downloads (§3.3)."""

    def build(self, ticket: "Ticket", result: Any, disposition: str) -> bytes:
        """The result document (UTF-8) for ``ticket``."""
        attrs = attr_text("ticket", ticket.ticket_id) + attr_text("status", disposition)
        agent = leaf_text("agent", "", ticket.agent_id) + leaf_text("service", "", ticket.service)
        data = typed_xml(result, "data")
        return f"{XML_DECLARATION}<result{attrs}>{agent}{data}</result>".encode("utf-8")


class FileDirectory:
    """Workspace allocator for per-dispatch documents and classes."""

    def __init__(self, quota_bytes: int = 64 * 1024 * 1024) -> None:
        self.quota_bytes = quota_bytes
        self._used = 0
        self._spaces: dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return self._used

    def allocate(self, ticket_id: str, size: int) -> None:
        if self._used + size > self.quota_bytes:
            raise GatewayError("gateway file directory quota exceeded")
        self._spaces[ticket_id] = self._spaces.get(ticket_id, 0) + size
        self._used += size

    def release(self, ticket_id: str) -> None:
        self._used -= self._spaces.pop(ticket_id, 0)

    def tracked(self) -> list[str]:
        """Ticket ids currently holding workspace (for orphan audits)."""
        return list(self._spaces)

    def held(self, ticket_id: str) -> int:
        """Bytes currently allocated to ``ticket_id`` (0 if none)."""
        return self._spaces.get(ticket_id, 0)


class AgentDispatchHandler:
    """Separates a received PI and drives the Fig. 6 pipeline."""

    def __init__(self, gateway: "Gateway") -> None:
        self.gateway = gateway

    def handle(self, frame: bytes, trace: Optional[SpanContext] = None) -> Generator:
        """Process: full PI intake; returns ``(ticket_id, agent_id)``.

        ``trace`` is the device's exchange context (from the HTTP headers);
        when absent, the trace carried inside the PI document links the
        dispatch back to the device anyway.
        """
        gw = self.gateway
        epoch = gw.crash_epoch
        tele = gw.network.telemetry
        unpack_span = tele.start_span(
            "gateway.unpack",
            node=gw.address,
            parent=trace,
            attrs={"frame_bytes": len(frame)},
        )
        content: Optional[PIContent] = None
        try:
            # Unpack cost scales with the received frame; dispatch_cost_s
            # adds the fixed per-dispatch overhead (class loading, servlet
            # bookkeeping) the overload experiments stress.
            yield gw.node.compute(
                gw.config.unpack_cost(len(frame)) + gw.config.dispatch_cost_s
            )
            content = gw.xml_writer.extract(frame)
        finally:
            unpack_span.end(status="ok" if content is not None else "error")
        if trace is None and content.trace_id:
            # No headers (legacy client) — join the trace the PI carries.
            parent: Union[Span, SpanContext] = SpanContext(
                content.trace_id, content.trace_parent
            )
        else:
            parent = unpack_span.context
        # A crash during the unpack yield killed this servlet thread in the
        # real world: abort before minting a ticket, or the device's retry
        # (deduped against the restart-rebuilt index, which cannot know
        # about a ticket that does not exist yet) would race us into a
        # duplicate dispatch.  The 503 sends the device back through its
        # shed-retry path, which lands on the rebuilt index.
        if gw.crash_epoch != epoch:
            raise GatewayOverloadedError(
                "gateway restarted during PI intake; retry",
                retry_after=gw.config.shed_retry_after_s,
            )
        # Exactly-once admission, checked against the *authenticated* task id
        # from inside the PI, and crucially BEFORE the nonce-replay check in
        # authorize(): a byte-identical retried frame must dedup to its
        # existing ticket, not 403 as a replay.
        existing = gw._dedup_answer(content.task_id)
        if existing is not None:
            return existing
        # Deadline admission: a task whose useful life ended in the queue
        # (shed wait, retry loop, slow uplink) must never mint a ticket.
        # Checked after dedup — a retry of a task dispatched *in* time must
        # still find its ticket — and before authorize, so the nonce is not
        # burned for a frame that will not dispatch.
        if content.deadline and gw.sim.now > content.deadline:
            raise DeadlineExpiredError(
                f"task {content.task_id or content.dispatch_key!r} deadline "
                f"{content.deadline:.3f} passed at {gw.sim.now:.3f}"
            )
        dispatch_span = tele.start_span(
            "gateway.dispatch",
            node=gw.address,
            parent=parent,
            attrs={"service": content.service, "device": content.device_id},
        )
        try:
            gw.agent_creator.authorize(content)
            ticket = gw._new_ticket(content)
            ticket.span = tele.start_span(
                "gateway.ticket",
                node=gw.address,
                parent=dispatch_span,
                attrs={"ticket": ticket.ticket_id},
            )
            # Fleet tier: mint first, then claim the task at its owner.  A
            # claim that comes back "bound" means another gateway already
            # dispatched this task — hand its ticket to the device and
            # retire the local prospective one, never launching an agent.
            if content.task_id and gw.config.dedup_enabled:
                verdict, winner, winner_agent = yield from gw.fleet_client.claim(
                    content.task_id, ticket.ticket_id
                )
                if gw.crash_epoch != epoch:
                    # Crashed mid-claim: the prospective ticket cannot be
                    # dispatched by this dead servlet thread.
                    gw._fail_unlaunched_ticket(ticket)
                    dispatch_span.end(status="error")
                    raise GatewayOverloadedError(
                        "gateway restarted during fleet claim; retry",
                        retry_after=gw.config.shed_retry_after_s,
                    )
                if verdict == "bound":
                    gw._supersede_ticket(ticket, winner)
                    dispatch_span.end(status="superseded")
                    return winner, winner_agent
                if verdict in ("handoff", "unreachable"):
                    gw._accept_unreconciled(content.task_id, ticket, verdict)
            gw.file_directory.allocate(
                ticket.ticket_id, len(content.code_body) + 2048
            )
            try:
                agent_id = yield from gw.agent_creator.create(
                    content, gw.address, trace=dispatch_span.context
                )
            except Exception:
                gw.file_directory.release(ticket.ticket_id)
                ticket.status = "failed"
                ticket.span.end(status="error")
                # The task produced no agent: unbind so a future retry may
                # legitimately dispatch afresh.
                gw.dedup.forget(ticket.task_id)
                gw._release_fleet_claim(ticket)
                raise
            ticket.agent_id = agent_id
            gw.metrics.counter("gateway_dispatches").inc()
            # Background: watch for the agent's completion and build the doc,
            # with a watchdog so a lost agent cannot wedge the ticket.
            gw.sim.process(
                gw._await_completion(ticket), name=f"gw-await:{ticket.ticket_id}"
            )
            gw._watch_ticket(ticket)
            dispatch_span.end(agent=agent_id)
            return ticket.ticket_id, agent_id
        finally:
            if dispatch_span.open:
                dispatch_span.end(status="error")


class Gateway:
    """A PDAgent gateway node.

    Parameters
    ----------
    network, address:
        Where the gateway lives (the node must already exist).
    adapter:
        The MAS boundary (usually a
        :class:`~repro.mas.adapters.LocalServerAdapter` over a co-located
        server).
    catalog, directory:
        Shared service catalogue and subscriber directory of the deployment.
    vault:
        Shared key vault; this gateway uses the keypair for its address.
    """

    def __init__(
        self,
        network: "Network",
        address: str,
        adapter: MASAdapter,
        catalog: ServiceCatalog,
        directory: SubscriptionDirectory,
        vault: KeyVault,
        config: Optional[PDAgentConfig] = None,
        port: int = GATEWAY_PORT,
    ) -> None:
        self.network = network
        self.metrics = network.telemetry.metrics
        self.node = network.node(address)
        self.adapter = adapter
        self.catalog = catalog
        self.directory = directory
        self.config = config or PDAgentConfig()
        self.security = GatewaySecurity(self.config, vault.keypair(address))
        self.xml_writer = XmlWriter(self.security)
        self.agent_creator = AgentCreator(directory, adapter)
        self.document_creator = DocumentCreator()
        self.file_directory = FileDirectory()
        self.dispatch_handler = AgentDispatchHandler(self)
        #: Tickets, the dedup index and upload sessions.  A fleet member's
        #: index and sessions survive a crash; see :mod:`.storage`.
        self.storage = GatewayStorage(durable=self.config.fleet_enabled)
        #: Exactly-once admission index (a standalone gateway rebuilds it
        #: on restart(); a fleet member's is kept across the crash).
        self.dedup = self.storage.dedup
        self._ticket_counter = itertools.count(1)
        #: Incremented by crash(): in-flight intake handlers compare their
        #: entry epoch before minting a ticket, so a dispatch that straddled
        #: a crash aborts instead of racing the restarted dedup index.
        self.crash_epoch = 0
        #: Fleet tier: a fleet of one until :meth:`enable_fleet` joins the
        #: deployment's shared fleet (``config.fleet_enabled``).  Alone, every
        #: task is owned here, so claims resolve "local" without a message.
        self.enable_fleet(Fleet([address]))
        #: Locally-accepted task claims awaiting owner reconciliation.
        self._unreconciled: dict[str, str] = {}
        #: Graceful departure: while True, new uploads are refused with a
        #: structured 503 naming the ring successor.
        self.draining = False
        #: Items a completed drain knowingly left behind (dispatch
        #: stragglers, unacked batches) — audited by the simtest swarm.
        self.drain_leftover: frozenset[str] = frozenset()
        #: Hinted handoff — claims this gateway arbitrated on behalf of a
        #: suspected-down owner: ``task_id -> (ticket_id, owner)``, replayed
        #: at the owner when it answers heartbeats again.
        self._handoff_hints: dict[str, tuple[str, str]] = {}
        #: Members with a suspicion probe in flight (one probe per suspect).
        self._probing: set[str] = set()
        #: Bounded, classed intake.  "upload" is the expensive agent-dispatch
        #: class; "download" the cheap result/agent-op class with its own
        #: pool, so a dispatch storm can never starve result collection.
        #: With admission disabled the same finite pools remain (the physical
        #: serialisation is real) but nothing sheds — the unbounded-queue
        #: baseline the overload experiment measures against.
        self.admission = AdmissionController(
            self.sim,
            metrics=self.metrics,
            node=address,
            enabled=self.config.admission_enabled,
        )
        upload_bucket = (
            TokenBucket(
                self.sim, self.config.admission_rate, self.config.admission_burst
            )
            if self.config.admission_rate > 0
            else None
        )
        self.admission.add_class(
            "upload",
            workers=self.config.gateway_dispatch_workers,
            queue_limit=self.config.admission_queue_limit,
            bucket=upload_bucket,
            retry_after_s=self.config.shed_retry_after_s,
        )
        self.admission.add_class(
            "download",
            workers=DOWNLOAD_WORKERS,
            queue_limit=DOWNLOAD_QUEUE_LIMIT,
            retry_after_s=self.config.shed_retry_after_s,
        )
        # Streaming session traffic (chunks, polls, hop reports) gets its
        # own pool: a chunk flood can starve neither dispatches nor result
        # downloads.  The completing chunk additionally takes an "upload"
        # slot for the dispatch itself — different pools, no deadlock.
        self.admission.add_class(
            "session",
            workers=SESSION_WORKERS,
            queue_limit=SESSION_QUEUE_LIMIT,
            retry_after_s=self.config.shed_retry_after_s,
        )
        #: Streaming session layer (resumable uploads, partial streams,
        #: reconnect push).  Always constructed — its storage-backed state
        #: participates in crash/restart — but the HTTP surface answers 404
        #: unless ``config.session_enabled``.
        self.sessions = SessionManager(self)
        self.catalog.add_listener(self.sessions.notify_service_updated)
        self.http = HttpServer(self.node, port=port, service_time=SERVICE_TIME_S)
        self.http.route("/subscribe", self._handle_subscribe)
        self.http.route("/pi", self._handle_pi)
        self.http.route("/result/", self._handle_result)
        self.http.route("/relay/", self._handle_relay)
        self.http.route("/agent", self._handle_agent_op)
        self.http.route("/status", self._handle_status)
        self.http.route("/fleet/claim", self._handle_fleet_claim)
        self.http.route("/fleet/release", self._handle_fleet_release)
        self.http.route("/fleet/heartbeat", self._handle_fleet_heartbeat)
        self.http.route("/fleet/migrate", self._handle_fleet_migrate)
        self.http.route("/session/", self._handle_session)

    # ------------------------------------------------------------ plumbing
    @property
    def address(self) -> str:
        return self.node.address

    @property
    def sim(self):
        return self.network.sim

    def enable_fleet(self, fleet: Fleet) -> None:
        """Join ``fleet``: consistent-hash task ownership + claim forwarding."""
        self.fleet = fleet
        self.fleet_client = FleetClient(self, fleet)
        fleet.view.add_listener(self._on_epoch_change)

    def _mint_ticket(
        self, device_id: str, service: str, task_id: str = "", agent_id: str = ""
    ) -> Ticket:
        """Create and store a "dispatched" ticket with the next local id."""
        ticket = Ticket(
            ticket_id=f"{self.address}/t-{next(self._ticket_counter)}",
            agent_id=agent_id,
            device_id=device_id,
            service=service,
            status="dispatched",
            created_at=self.sim.now,
            completed=Event(self.sim),
            task_id=task_id,
        )
        self.storage.tickets.insert(ticket)
        return ticket

    def _new_ticket(self, content: PIContent) -> Ticket:
        ticket = self._mint_ticket(
            content.device_id, content.service, task_id=content.task_id
        )
        # Bind before the (slow) agent creation so a retry arriving while
        # the first dispatch is still materialising dedups onto it instead
        # of racing a sibling dispatch through authorize().
        if self.config.dedup_enabled:
            self.dedup.bind(content.task_id, ticket.ticket_id)
        return ticket

    def _foreign_fleet_ticket(self, ticket_id: str) -> bool:
        """Was ``ticket_id`` minted by another member of this fleet?"""
        origin = ticket_origin(ticket_id)
        return bool(origin) and origin != self.address and origin in self.fleet

    def _dedup_answer(self, task_id: str) -> Optional[tuple[str, str]]:
        """``(ticket_id, agent_id)`` for a retried upload, or ``None``.

        The bound ticket may live on *another* fleet gateway (a roaming
        retry claimed there, or a claim bound here as owner): the id is
        answered as-is — the device collects through any gateway — and the
        binding is kept.  Only a binding to a vanished *local* ticket is
        treated as stale and dropped.
        """
        if not (task_id and self.config.dedup_enabled):
            return None
        ticket_id = self.dedup.lookup(task_id, self.sim.now)
        if ticket_id is None:
            return None
        ticket = self.storage.tickets.get(ticket_id)
        if ticket is not None:
            if ticket.status == "superseded" and ticket.superseded_by:
                self.metrics.counter("gateway.dedup_hit").inc()
                return ticket.superseded_by, ""
            self.metrics.counter("gateway.dedup_hit").inc()
            return ticket.ticket_id, ticket.agent_id
        if self._foreign_fleet_ticket(ticket_id):
            self.metrics.counter("gateway.dedup_hit").inc()
            return ticket_id, ""
        self.dedup.forget(task_id)  # ticket evicted out-of-band; stale index
        return None

    def ticket(self, ticket_id: str) -> Ticket:
        found = self.storage.tickets.get(ticket_id)
        if found is None:
            raise GatewayError(f"unknown ticket {ticket_id!r}")
        return found

    def tickets(self) -> list[Ticket]:
        """Every ticket this gateway has minted (auditing/experiments)."""
        return self.storage.tickets.values()

    # ------------------------------------------------------------ crash model
    def crash(self) -> None:
        """Gateway process dies: volatile state is lost, durable state kept.

        Mirrors the PR-1 fault model: the node stops listening (clients see
        resets/refusals) and the admission queues vanish, but the ticket
        store — the servlet container's persistent session state — survives
        for :meth:`restart` to recover from.  A standalone gateway also
        loses its dedup index and open upload sessions; a fleet member
        keeps both.
        """
        if not self.node.crashed:
            self.node.suspend_listeners()
        self.crash_epoch += 1
        self.storage.on_crash()
        self.admission.drop_queued()
        self.agent_creator.forget_nonces()
        self.sessions.on_crash()
        self.metrics.counter("gateway_crashes").inc()

    def restart(self) -> int:
        """Bring the gateway back; recover the dedup index.

        Exactly-once must hold *across* the crash: a device retrying a
        pre-crash task after the restart has to land on its original
        ticket.  A standalone gateway rebuilds its index from the ticket
        store before any request is served; a fleet member's index never
        died.  Orphaned workspace — allocations
        whose ticket vanished mid-dispatch — is reclaimed.  Returns the
        number of usable dedup bindings.
        """
        rebuilt = self.storage.on_restart()
        for ticket_id in self.file_directory.tracked():
            if self.storage.tickets.get(ticket_id) is None:
                self.file_directory.release(ticket_id)
        if self.node.crashed:
            self.node.resume_listeners()
        self.draining = False
        # Rejoining after a detected failure (or a completed drain) is a
        # ring event: a new epoch, so stale claims get re-answered and peers
        # rebalance this member's key range back to it.
        view = self.fleet.view
        if view.state(self.address) != "active":
            view.rejoin(self.address)
        view.record_heartbeat(self.address, self.sim.now)
        self.metrics.counter("gateway_restarts").inc()
        return rebuilt

    def _await_completion(self, ticket: Ticket) -> Generator:
        result = yield self.adapter.wait_completion(ticket.agent_id)
        self._finalize_ticket(ticket, result, "completed")

    def _watch_ticket(self, ticket: Ticket) -> None:
        """Arm the per-ticket watchdog."""
        self.sim.process(
            self._ticket_watchdog(ticket), name=f"gw-watchdog:{ticket.ticket_id}"
        )

    def _ticket_watchdog(self, ticket: Ticket) -> Generator:
        """Finalize a ticket still "dispatched" after the deadline as "failed".

        A lost agent (crashed site, wedged MAS) must not leave the device —
        or a driving test — waiting on ``ticket.completed`` forever.  The
        failure document is marked retriable so the device knows a fresh
        deployment is worth attempting.
        """
        yield self.sim.timeout(self.config.ticket_watchdog_s)
        if self.storage.tickets.get(ticket.ticket_id) is not ticket:
            return  # migrated away (drain/rebalance): no longer ours to fail
        if ticket.status != "dispatched":
            return
        error = {
            "error": "watchdog-timeout",
            "reason": (
                f"agent {ticket.agent_id or '<unassigned>'} did not complete "
                f"within {self.config.ticket_watchdog_s:g}s"
            ),
            "retriable": True,
        }
        self._finalize_ticket(ticket, error, "failed")
        self.metrics.counter("gateway_watchdog_failures").inc()

    def _finalize_ticket(self, ticket: Ticket, result: Any, disposition: str) -> None:
        if ticket.status in (
            "completed", "retracted", "disposed", "failed", "expired", "superseded",
        ):
            return
        document = self.document_creator.build(ticket, result, disposition)
        payload = compress(document, self.config.codec)
        ticket.result_frame = self.security.protect_result(payload)
        ticket.status = disposition
        # The dispatch workspace (agent classes + scratch) is done with —
        # release it in *every* finalize path (watchdog included) and keep
        # only the result document, otherwise finalized tickets leak their
        # code-body allocation until dispose, or forever.
        self.file_directory.release(ticket.ticket_id)
        self.file_directory.allocate(ticket.ticket_id, len(ticket.result_frame))
        if not ticket.completed.triggered:
            ticket.completed.succeed(disposition)
        if disposition == "failed":
            # Exactly-once covers *successful* dispatch; a failed task may
            # be retried afresh, so its idempotency key is released —
            # locally and, for a forwarded claim, at the task's owner.
            self.dedup.forget(ticket.task_id)
            self._release_fleet_claim(ticket)
        self.metrics.counter(f"gateway_results:{disposition}").inc()
        # Reconnect-window push: devices holding an open session learn the
        # outcome on their next contact instead of blind-polling for it.
        self.sessions.notify_result_ready(ticket)
        if ticket.span is not None:
            ticket.span.end(status=disposition)

    def _expire_result(self, ticket: Ticket) -> Generator:
        """Process: reclaim a downloaded result after the retention TTL.

        Armed at the *first successful download*; when it fires, the
        document and its workspace are dropped and later downloads get the
        distinct 410 "expired" answer (vs 404 "unknown ticket").  The
        dedup binding is kept — a very late retry of the task still maps to
        this ticket instead of dispatching a fresh agent — unless
        ``dedup_ttl_s`` arms its expiry, bounding the index for long runs.
        """
        yield self.sim.timeout(RESULT_TTL_S)
        if self.storage.tickets.get(ticket.ticket_id) is not ticket:
            return  # migrated away (drain/rebalance): the new home owns TTL
        if ticket.result_frame is None:
            return
        ticket.result_frame = None
        ticket.status = "expired"
        self.file_directory.release(ticket.ticket_id)
        # The partial stream shares the result document's lifetime.
        self.storage.sessions.drop_partials(ticket.ticket_id)
        self.metrics.counter("gateway_results_expired").inc()
        self._arm_dedup_expiry(ticket)

    def _arm_dedup_expiry(self, ticket: Ticket) -> None:
        """Schedule the task's dedup binding to lapse with its result."""
        ttl = self.config.dedup_ttl_s
        if ttl <= 0 or not ticket.task_id:
            return
        if self.dedup.lookup(ticket.task_id) != ticket.ticket_id:
            return  # rebound elsewhere (e.g. superseded): not ours to expire
        self.dedup.set_expiry(ticket.task_id, self.sim.now + ttl)
        self.sim.process(
            self._purge_expired_dedup(), name=f"gw-dedup-ttl:{ticket.ticket_id}"
        )

    def _purge_expired_dedup(self) -> Generator:
        yield self.sim.timeout(self.config.dedup_ttl_s)
        purged = self.dedup.purge_expired(self.sim.now)
        if purged:
            self.metrics.counter("gateway_dedup_expired").inc(purged)

    # ------------------------------------------------------------ fleet tier
    def _release_fleet_claim(self, ticket: Ticket) -> None:
        """Background: undo this ticket's claim at the task's owner."""
        if not ticket.task_id:
            return
        self._unreconciled.pop(ticket.task_id, None)
        if self.fleet.owner(ticket.task_id) == self.address:
            return
        self.sim.process(
            self.fleet_client.release(ticket.task_id, ticket.ticket_id),
            name=f"fleet-release:{ticket.ticket_id}",
        )

    def _fail_unlaunched_ticket(self, ticket: Ticket) -> None:
        """Retire a minted ticket whose dispatch never launched an agent."""
        ticket.status = "failed"
        self.dedup.forget(ticket.task_id)
        if not ticket.completed.triggered:
            ticket.completed.succeed("failed")
        if ticket.span is not None and ticket.span.open:
            ticket.span.end(status="error")
        self._release_fleet_claim(ticket)

    def _supersede_ticket(self, ticket: Ticket, winner_id: str) -> None:
        """This ticket lost its task to ``winner_id`` on another gateway.

        The local record is kept (status "superseded", pointing at the
        winner) so collects against it redirect instead of 404ing; the
        local dedup binding is repointed at the winner so later retries
        here answer with the authoritative ticket directly.
        """
        if ticket.status == "superseded":
            return
        ticket.status = "superseded"
        ticket.superseded_by = winner_id
        ticket.result_frame = None
        self.file_directory.release(ticket.ticket_id)
        if ticket.task_id:
            self.dedup.bind(ticket.task_id, winner_id)
        self._unreconciled.pop(ticket.task_id, None)
        if not ticket.completed.triggered:
            ticket.completed.succeed("superseded")
        if ticket.span is not None and ticket.span.open:
            ticket.span.end(status="superseded")
        self.metrics.counter("gateway_superseded").inc()

    def _accept_unreconciled(self, task_id: str, ticket: Ticket, verdict: str) -> None:
        """Dispatch without the owner's verdict; reconcile in the background.

        ``"handoff"``: the owner's standby granted the claim, serializing
        concurrent roaming retries, but the real owner's verdict must still
        land once it answers again.  ``"unreachable"``: availability over
        strict dedup — the device is answered now; a duplicate this may
        create is superseded (agent retracted) as soon as the owner answers
        a re-claim.
        """
        self._unreconciled[task_id] = ticket.ticket_id
        self.metrics.counter(
            "fleet.handoff_accepts" if verdict == "handoff" else "fleet.local_accepts"
        ).inc()
        self.sim.process(
            self._reconcile(task_id, ticket), name=f"fleet-reconcile:{ticket.ticket_id}"
        )

    def _reconcile(self, task_id: str, ticket: Ticket) -> Generator:
        for _ in range(FLEET_RECONCILE_ATTEMPTS):
            yield self.sim.timeout(FLEET_RECONCILE_INTERVAL_S)
            if self._unreconciled.get(task_id) != ticket.ticket_id:
                return  # released, superseded, or failed meanwhile
            verdict, winner, _agent = yield from self.fleet_client.claim(
                task_id, ticket.ticket_id
            )
            settled = yield from self._settle_reconcile(task_id, ticket, verdict, winner)
            if settled:
                return
        self._unreconciled.pop(task_id, None)
        self.metrics.counter("fleet.reconcile_abandoned").inc()

    def _settle_reconcile(
        self, task_id: str, ticket: Ticket, verdict: str, winner: str
    ) -> Generator:
        """Process: apply a re-claim's verdict; True once the task is settled."""
        if verdict in ("granted", "local"):
            self._unreconciled.pop(task_id, None)
            self.metrics.counter("fleet.reconciled").inc()
            return True
        if verdict == "bound":
            yield from self._supersede_with_retract(ticket, winner)
            self.metrics.counter("fleet.reconciled_superseded").inc()
            return True
        return False

    def _supersede_with_retract(self, ticket: Ticket, winner_id: str) -> Generator:
        """Supersede a ticket whose agent may already be running."""
        if ticket.status == "dispatched" and ticket.agent_id:
            try:
                yield from self.adapter.retract(ticket.agent_id)
            except Exception:  # noqa: BLE001 - agent already gone is fine
                pass
        if ticket.status in ("dispatched", "completed", "expired"):
            self._supersede_ticket(ticket, winner_id)

    # ------------------------------------------------------------ HTTP handlers
    def _handle_subscribe(self, req: HttpRequest) -> HttpResponse:
        """§3.1 code download: body is ``<subscribe service device>``."""
        try:
            doc = parse_bytes(req.body)
            service = doc.require("service")
            device_id = doc.require("device")
            code = self.catalog.lookup(service)
        except Exception as exc:
            return HttpResponse(400, reason=str(exc))
        sub = self.directory.subscribe(device_id, code)
        xml = write_bytes(code_to_xml(code, sub.code_id))
        frame = self.security.protect_result(compress(xml, self.config.codec))
        self.metrics.counter("gateway_subscriptions").inc()
        return HttpResponse(200, body=frame, body_size=len(frame))

    def _dispatched_response(self, ticket_id: str, agent_id: str) -> HttpResponse:
        doc = Element("dispatched")
        doc.add("ticket", text=ticket_id)
        doc.add("agent", text=agent_id)
        body = write_bytes(doc)
        return HttpResponse(200, body=body, body_size=len(body))

    def _shed_response(self, exc: GatewayOverloadedError) -> HttpResponse:
        """Structured load shed: 503 + Retry-After header + XML error doc."""
        self.metrics.counter("gateway.shed").inc()
        retry_after = exc.retry_after
        doc = Element("overloaded", {"retry-after": f"{retry_after:g}"})
        doc.add("reason", text=str(exc))
        body = write_bytes(doc)
        return HttpResponse(
            503,
            body=body,
            body_size=len(body),
            reason=str(exc),
            headers={"Retry-After": f"{retry_after:g}"},
        )

    def _handle_pi(self, req: HttpRequest) -> Generator:
        """§3.2 service execution: body is the PI wire frame.

        Intake discipline, in order: (1) the exactly-once fast path — a
        task id already bound to a ticket answers immediately, costing no
        worker slot and no unpack; (2) admission for the "upload" class —
        shed with 503 + Retry-After when saturated; (3) the Fig. 6 dispatch
        pipeline under a held worker slot.
        """
        if not isinstance(req.body, (bytes, bytearray)):
            return HttpResponse(400, reason="PI body must be bytes")
            yield  # pragma: no cover - unreachable; keeps handler a generator
        arrived = self.sim.now
        try:
            resp = yield from self._intake_frame(
                bytes(req.body),
                task_id=req.headers.get(TASK_ID_HEADER, ""),
                trace=SpanContext.from_headers(req.headers),
            )
            return resp
        finally:
            # Per-priority latency histogram (sheds and dedup hits included:
            # what the device experienced, whatever the outcome).
            self.metrics.histogram("gateway.latency:upload").observe(
                self.sim.now - arrived
            )

    def _intake_frame(
        self, frame: bytes, task_id: str = "", trace: Optional[SpanContext] = None
    ) -> Generator:
        """Process: the shared PI intake — dedup, admission, dispatch.

        The one-shot ``/pi`` handler and the session layer's completing
        chunk both drive this exact path, so exactly-once and overload
        protection hold identically however the frame arrived.  ``task_id``
        is the unauthenticated fast-path hint (the header for ``/pi``, the
        session record for a chunked upload); the authoritative id inside
        the PI is re-checked by the dispatch pipeline.
        """
        existing = self._dedup_answer(task_id)
        if existing is not None:
            return self._dispatched_response(*existing)
        if self.draining:
            # Graceful departure: dedup answers above still serve (cheap,
            # and the ticket may live elsewhere anyway), but no NEW work is
            # admitted — the device is pointed at the ring successor.
            return self._drain_response()
        try:
            admission = self.admission.try_admit("upload")
        except GatewayOverloadedError as exc:
            return self._shed_response(exc)
        try:
            yield admission.request
            self.metrics.histogram("gateway.queue_wait:upload").observe(
                self.sim.now - admission.enqueued_at
            )
            # Re-check after the queue wait: an identical retry may have
            # been admitted and dispatched while this one waited.
            existing = self._dedup_answer(task_id)
            if existing is not None:
                return self._dispatched_response(*existing)
            try:
                ticket_id, agent_id = yield from self.dispatch_handler.handle(
                    frame, trace=trace
                )
            except GatewayOverloadedError as exc:
                # Crash-epoch abort mid-intake: answer like a shed so
                # the device retries onto the restarted gateway.
                return self._shed_response(exc)
            except AuthorizationError as exc:
                return HttpResponse(403, reason=str(exc))
            except DeadlineExpiredError as exc:
                # Deterministic refusal: the deadline will not un-expire, so
                # the marker header tells the device to stop retrying — and
                # to not fail over, since every gateway shares the clock.
                return HttpResponse(
                    400, reason=str(exc), headers={"x-deadline-expired": "1"}
                )
            except (DeploymentError, IntegrityError, CryptoError) as exc:
                # Structural damage (bad envelope/frame) and integrity
                # failures are the client's problem, not a server fault.
                return HttpResponse(400, reason=str(exc))
        finally:
            admission.release()
        return self._dispatched_response(ticket_id, agent_id)

    def _handle_session(self, req: HttpRequest) -> Generator:
        """Streaming session endpoint: ``/session/<op>[/<session-id>]``.

        All session traffic — open/resume handshakes, chunks, polls,
        closes, and MAS hop reports — runs under the dedicated "session"
        admission class.  The completing chunk's dispatch additionally
        passes through the "upload" class inside
        :meth:`SessionManager._commit`, so chunk floods contend with
        uploads only at the moment they become one.
        """
        if not self.config.session_enabled:
            return HttpResponse(404, reason="streaming sessions not enabled")
            yield  # pragma: no cover - unreachable; keeps handler a generator
        if self.draining and req.path.startswith("/session/open"):
            # New-session handshakes are new uploads: refuse with the
            # successor hint.  In-flight session ops keep flowing so the
            # drain can quiesce them.
            return self._drain_response()
        arrived = self.sim.now
        try:
            try:
                admission = self.admission.try_admit("session")
            except GatewayOverloadedError as exc:
                return self._shed_response(exc)
            try:
                yield admission.request
                self.metrics.histogram("gateway.queue_wait:session").observe(
                    self.sim.now - admission.enqueued_at
                )
                rest = req.path[len("/session/") :]
                op, _, session_id = rest.partition("/")
                if op == "open":
                    return self.sessions.handle_open(req)
                if op == "chunk":
                    resp = yield from self.sessions.handle_chunk(req, session_id)
                    return resp
                if op == "poll":
                    return self.sessions.handle_poll(req, session_id)
                if op == "close":
                    return self.sessions.handle_close(req, session_id)
                if op == "partial":
                    return self.sessions.receive_hop_report(req)
                return HttpResponse(404, reason=f"unknown session op {op!r}")
            finally:
                admission.release()
        finally:
            self.metrics.histogram("gateway.latency:session").observe(self.sim.now - arrived)

    def _handle_result(self, req: HttpRequest) -> Generator:
        """§3.3 result collection: GET /result/<ticket-id>.

        Runs under the "download" admission class — its own worker pool, so
        result collection stays responsive through an upload storm.  The
        first successful download arms the retention TTL; a ticket whose
        document has been reclaimed answers 410 ("expired" — the task ran,
        you came back too late), distinct from 404 ("unknown ticket").
        """
        arrived = self.sim.now
        try:
            try:
                admission = self.admission.try_admit("download")
            except GatewayOverloadedError as exc:
                return self._shed_response(exc)
            try:
                yield admission.request
                ticket_id = req.path[len("/result/") :]
                local = self.storage.tickets.get(ticket_id)
                hopped = "x-fleet-hop" in req.headers
                if (
                    local is not None
                    and local.status == "superseded"
                    and local.superseded_by
                ):
                    # Collect-anywhere: this ticket lost its task; follow
                    # the winner (never itself superseded — at most one
                    # extra hop, so safe even on a relayed request).
                    resp = yield from self._follow_supersede(local)
                    return resp
                origin = ticket_origin(ticket_id)
                if local is None and origin == self.address:
                    # One of OUR ticket ids that we no longer hold: it was
                    # migrated out during a drain.  The current ring
                    # successor is the deterministic next home — relay even
                    # on a hopped request (the successor answers locally or
                    # 404s, so this terminates).
                    successor = self.fleet.view.successor(self.address)
                    if successor:
                        resp = yield from self._relay_fetch(successor, ticket_id)
                        return resp
                if local is None and not hopped and self._foreign_fleet_ticket(
                    ticket_id
                ):
                    # A fleet sibling minted this ticket: fetch from its
                    # origin instead of answering 404 to a roaming device.
                    # A non-active origin (draining/down) can't answer —
                    # its migrated state lives at its ring successor.
                    target = origin
                    if self.fleet.view.state(origin) != "active":
                        target = self.fleet.view.successor(origin) or origin
                        self.metrics.counter("fleet.collect_rerouted").inc()
                    resp = yield from self._relay_fetch(target, ticket_id)
                    return resp
                return self._result_response(ticket_id)
            finally:
                admission.release()
        finally:
            self.metrics.histogram("gateway.latency:download").observe(self.sim.now - arrived)

    def _follow_supersede(self, ticket: Ticket) -> Generator:
        winner = ticket.superseded_by
        self.metrics.counter("gateway_supersede_redirects").inc()
        if not self._foreign_fleet_ticket(winner):
            return self._result_response(winner)
        resp = yield from self._relay_fetch(ticket_origin(winner), winner)
        return resp

    def _result_response(self, ticket_id: str) -> HttpResponse:
        try:
            ticket = self.ticket(ticket_id)
        except GatewayError as exc:
            return HttpResponse(404, reason=str(exc))
        if ticket.status == "expired":
            return HttpResponse(
                410, reason=f"result for {ticket_id} expired after download"
            )
        if ticket.result_frame is None:
            return HttpResponse(
                204,
                reason="result not ready",
                headers=self._hop_progress_headers(ticket),
            )
        if ticket.first_downloaded_at is None:
            ticket.first_downloaded_at = self.sim.now
            self.sim.process(
                self._expire_result(ticket), name=f"gw-expire:{ticket.ticket_id}"
            )
        return HttpResponse(
            200, body=ticket.result_frame, body_size=len(ticket.result_frame)
        )

    def _hop_progress_headers(self, ticket: Ticket) -> dict[str, str]:
        """Itinerary progress headers for a "result not ready" answer.

        The counts come from the live agent's (or its latest checkpoint's)
        itinerary cursor via the adapter; adapters without the optional
        ``hop_progress`` hook — or agents the MAS no longer knows — yield
        no headers, and the device falls back to fixed-interval polling.
        """
        probe = getattr(self.adapter, "hop_progress", None)
        if probe is None or not ticket.agent_id:
            return {}
        progress = probe(ticket.agent_id)
        if progress is None:
            return {}
        visited, remaining = progress
        return {
            HOPS_VISITED_HEADER: str(visited),
            HOPS_REMAINING_HEADER: str(remaining),
        }

    def _handle_status(self, req: HttpRequest) -> HttpResponse:
        """Gateway self-monitoring: ticket counts and workspace usage.

        Administration endpoint for operators (and for tests/benchmarks
        verifying gateway-side state without reaching into internals).
        """
        by_status: dict[str, int] = {}
        for ticket in self.storage.tickets.values():
            by_status[ticket.status] = by_status.get(ticket.status, 0) + 1
        doc = Element("gatewaystatus", {"address": self.address})
        doc.add("mas", text=getattr(self.adapter, "name", "unknown"))
        doc.add(
            "workspace",
            {
                "used": str(self.file_directory.used_bytes),
                "quota": str(self.file_directory.quota_bytes),
            },
        )
        tickets = doc.add("tickets", {"total": str(len(self.storage.tickets))})
        for status, count in sorted(by_status.items()):
            tickets.add("bucket", {"status": status, "count": str(count)})
        body = write_bytes(doc)
        return HttpResponse(200, body=body, body_size=len(body))

    def _handle_relay(self, req: HttpRequest) -> Generator:
        """Result relay (mobility extension to §3.3).

        ``GET /relay/<origin-gateway>/<ticket-id>``: a user who moved after
        dispatching collects from *this* (now-nearest) gateway; we fetch the
        result document from the dispatching gateway over the wired network
        and hand it through.  The wired hop is cheap; the user's wireless hop
        stays short — the same asymmetry the whole design exploits.
        """
        rest = req.path[len("/relay/") :]
        origin, _, ticket_id = rest.partition("/")
        if not origin or not ticket_id:
            return HttpResponse(400, reason="need /relay/<gateway>/<ticket>")
            yield  # pragma: no cover - keeps the handler a generator
        if origin == self.address:
            resp = yield from self._handle_result(
                HttpRequest(method="GET", path=f"/result/{ticket_id}", client=req.client)
            )
            return resp
        resp = yield from self._relay_fetch(origin, ticket_id)
        return resp

    def _relay_fetch(self, origin: str, ticket_id: str) -> Generator:
        """Process: fetch ``/result/<ticket_id>`` from ``origin``, pass through.

        Shared by the explicit ``/relay/`` endpoint, foreign-ticket collects
        and supersede redirects.  The ``x-fleet-hop`` marker stops a
        confused peer from relaying an unknown ticket back out (supersede
        redirects stay allowed — the winner is never itself superseded, so
        they terminate in one extra hop).
        """
        from ..simnet.http import request as http_request
        from ..simnet.transport import TransportError

        try:
            upstream = yield from http_request(
                self.network,
                self.address,
                origin,
                "GET",
                f"/result/{ticket_id}",
                port=GATEWAY_PORT,
                purpose="gw-relay",
                raise_for_status=False,
                headers={"x-fleet-hop": "1"},
            )
        except TransportError as exc:
            return HttpResponse(502, reason=f"origin gateway unreachable: {exc}")
        if upstream.status == 204:
            # Keep the origin's hop-progress headers: the device's adaptive
            # poll works the same through a relay as it does directly.
            return HttpResponse(
                204, reason="result not ready", headers=dict(upstream.headers)
            )
        if not upstream.ok:
            # Pass the structured error through — status AND headers (e.g.
            # the origin's Retry-After), not just a collapsed reason string.
            return HttpResponse(
                upstream.status,
                reason=upstream.reason,
                headers=dict(upstream.headers),
            )
        self.metrics.counter("gateway_relays").inc()
        # The frame is integrity-tagged by the origin gateway; pass through.
        return HttpResponse(
            200, body=upstream.body, body_size=upstream.body_size
        )

    def _handle_agent_op(self, req: HttpRequest) -> Generator:
        """§3.6 remote agent management: ``<agentop op ticket>``."""
        try:
            doc = parse_bytes(req.body)
            op = doc.require("op")
            ticket = self.ticket(doc.require("ticket"))
        except (XmlError, KeyError, GatewayError, TypeError) as exc:
            return HttpResponse(400, reason=str(exc))
            yield  # pragma: no cover - unreachable; keeps handler a generator
        if op == "status":
            try:
                state = yield from self.adapter.status(ticket.agent_id)
            except Exception:
                state = ticket.status
            body = _op_reply(ticket, state=state)
        elif op == "retract":
            try:
                yield from self.adapter.retract(ticket.agent_id)
            except Exception as exc:
                return HttpResponse(409, reason=f"retract failed: {exc}")
            # A retracted agent yields a partial-result document.
            self._finalize_ticket(ticket, {"partial": True}, "retracted")
            body = _op_reply(ticket, state="retracted")
        elif op == "clone":
            try:
                clone_id = yield from self.adapter.clone(ticket.agent_id)
            except Exception as exc:
                return HttpResponse(409, reason=f"clone failed: {exc}")
            clone_ticket = self._mint_ticket(
                ticket.device_id, ticket.service, agent_id=clone_id
            )
            ticket.children.append(clone_ticket.ticket_id)
            self.sim.process(
                self._await_completion(clone_ticket),
                name=f"gw-await:{clone_ticket.ticket_id}",
            )
            self._watch_ticket(clone_ticket)
            body = _op_reply(clone_ticket, state="dispatched")
        elif op == "dispose":
            try:
                yield from self.adapter.dispose(ticket.agent_id)
            except Exception as exc:
                return HttpResponse(409, reason=f"dispose failed: {exc}")
            ticket.status = "disposed"
            self.file_directory.release(ticket.ticket_id)
            self.storage.sessions.drop_partials(ticket.ticket_id)
            self._arm_dedup_expiry(ticket)
            if ticket.span is not None:
                ticket.span.end(status="disposed")
            body = _op_reply(ticket, state="disposed")
        else:
            return HttpResponse(400, reason=f"unknown op {op!r}")
        return HttpResponse(200, body=body, body_size=len(body))

    # ------------------------------------------------------------ fleet HTTP
    def _handle_fleet_claim(self, req: HttpRequest) -> HttpResponse:
        """Owner side of the claim protocol: ``<claim task ticket from>``.

        Atomic (plain handler, no yields): first claim binds and is
        granted; a claim for an already-bound task answers "bound" with
        the winning ticket, so concurrent roaming retries serialize here.
        """
        try:
            doc = parse_bytes(req.body)
            task_id = doc.require("task")
            ticket_id = doc.require("ticket")
            epoch = doc.get("epoch", "")
            claim_epoch = int(epoch) if epoch else None
        except (XmlError, KeyError, TypeError, ValueError) as exc:
            return HttpResponse(400, reason=str(exc))
        view = self.fleet.view
        on_behalf_of = doc.get("for", "")
        if claim_epoch is not None and claim_epoch != view.epoch:
            # The claimant resolved ownership on a ring this fleet no
            # longer runs: answering "granted"/"bound" would be a verdict
            # from the wrong owner.  Send the new view; the claimant's next
            # round re-resolves.
            self.metrics.counter("fleet.claims_stale").inc()
            body = claim_reply(
                "stale", "", epoch=view.epoch, owner=view.owner(task_id)
            )
            return HttpResponse(200, body=body, body_size=len(body))
        if on_behalf_of and view.owner_excluding(task_id, on_behalf_of) != self.address:
            # Hinted handoff aimed at the wrong standby (the view moved
            # under the claimant): refuse rather than arbitrate a task this
            # gateway has no standing for.
            self.metrics.counter("fleet.claims_misdirected").inc()
            body = claim_reply(
                "stale", "", epoch=view.epoch, owner=view.owner(task_id)
            )
            return HttpResponse(200, body=body, body_size=len(body))
        existing = self.dedup.lookup(task_id, self.sim.now)
        if existing is not None and existing != ticket_id:
            agent = ""
            local = self.storage.tickets.get(existing)
            if local is not None:
                if local.status == "superseded" and local.superseded_by:
                    existing = local.superseded_by
                else:
                    agent = local.agent_id
            self.metrics.counter("fleet.claims_refused").inc()
            if on_behalf_of and task_id not in self._handoff_hints:
                # Make sure the absent owner learns the winner on recovery
                # even when the winning binding predates the handoff.
                self._record_handoff_hint(task_id, existing, on_behalf_of)
            body = claim_reply("bound", existing, agent)
            return HttpResponse(200, body=body, body_size=len(body))
        self.dedup.bind(task_id, ticket_id)
        self.metrics.counter("fleet.claims_granted").inc()
        if on_behalf_of:
            # Standby grant: remember it for the owner's return, and start
            # probing so recovery is noticed promptly.
            self._record_handoff_hint(task_id, ticket_id, on_behalf_of)
        body = claim_reply("granted", ticket_id)
        return HttpResponse(200, body=body, body_size=len(body))

    def _handle_fleet_release(self, req: HttpRequest) -> HttpResponse:
        """Undo a claim: only if the task is still bound to that ticket."""
        try:
            doc = parse_bytes(req.body)
            task_id = doc.require("task")
            ticket_id = doc.require("ticket")
        except (XmlError, KeyError, TypeError) as exc:
            return HttpResponse(400, reason=str(exc))
        released = self.dedup.lookup(task_id) == ticket_id
        if released:
            self.dedup.forget(task_id)
            self.metrics.counter("fleet.claims_released").inc()
        body = write_bytes(
            Element("releaseack", {"released": "1" if released else "0"})
        )
        return HttpResponse(200, body=body, body_size=len(body))

    def _handle_fleet_heartbeat(self, req: HttpRequest) -> HttpResponse:
        """Liveness probe: answering at all is the proof.

        The ack carries this member's epoch and state; the probe sender
        records the heartbeat in the shared view, which rejoins a
        ``down`` member automatically.
        """
        try:
            doc = parse_bytes(req.body)
            sender = doc.require("from")
        except (XmlError, KeyError, TypeError) as exc:
            return HttpResponse(400, reason=str(exc))
        view = self.fleet.view
        if sender != self.address:
            # Gossip both ways: hearing from a peer proves it lives too.
            view.record_heartbeat(sender, self.sim.now)
        ack = Element(
            "heartbeatack",
            {"epoch": str(view.epoch), "state": view.state(self.address)},
        )
        body = write_bytes(ack)
        return HttpResponse(200, body=body, body_size=len(body))

    def _handle_fleet_migrate(self, req: HttpRequest) -> HttpResponse:
        """Receive a batch of migrated state (drain or rebalance).

        Atomic and idempotent: the whole batch is decoded before any item
        applies, so a malformed one gets a 400 and changes nothing; every
        item then applies first-wins through the stores, so a retried batch
        (the sender never saw the ack) re-applies as a no-op and is
        re-acked.  The ack is the sender's licence to drop its local copy.
        """
        try:
            items = [self._decode_migrated(el) for el in parse_bytes(req.body)]
        except (XmlError, KeyError, TypeError, ValueError) as exc:
            return HttpResponse(400, reason=f"bad migrate batch: {exc}")
        for apply in items:
            apply()
        self.metrics.counter("fleet.migrated_in").inc(len(items))
        ack = Element(
            "migrateack",
            {"accepted": str(len(items)), "epoch": str(self.fleet.view.epoch)},
        )
        body = write_bytes(ack)
        return HttpResponse(200, body=body, body_size=len(body))

    def _decode_migrated(self, el: Element) -> Callable[[], None]:
        """Parse one migrated item; the returned call applies it.

        Raises ``KeyError`` or ``ValueError`` on a malformed item.  An
        unknown tag applies as a no-op.
        """
        if el.tag == "binding":
            task_id = el.require("task")
            ticket_id = el.require("ticket")
            expires = el.get("expires", "")
            expires_at = float(expires) if expires else None
            return lambda: self._adopt_binding(task_id, ticket_id, expires_at)
        if el.tag == "ticket":
            downloaded = el.get("downloaded", "")
            ticket = Ticket(
                ticket_id=el.require("id"),
                agent_id=el.get("agent", ""),
                device_id=el.get("device", ""),
                service=el.get("service", ""),
                status=el.get("status", "completed"),
                created_at=float(el.get("created", "0")),
                completed=Event(self.sim),
                task_id=el.get("task", ""),
                first_downloaded_at=float(downloaded) if downloaded else None,
                superseded_by=el.get("superseded-by", ""),
                children=[c for c in el.get("children", "").split(",") if c],
            )
            frame_hex = el.findtext("frame")
            if frame_hex:
                ticket.result_frame = bytes.fromhex(frame_hex)
            partials = [
                json.loads(child.text) for child in el.findall("partial") if child.text
            ]
            return lambda: self._adopt_ticket(ticket, partials)
        if el.tag == "session":
            record = SessionRecord(
                session_id=el.require("id"),
                device_id=el.get("device", ""),
                task_id=el.get("task", ""),
                total_bytes=int(el.get("total", "0")),
                digest=el.get("digest", ""),
                created_at=float(el.get("created", "0")),
                last_contact=float(el.get("contact", "0")),
                ticket_id=el.get("ticket", ""),
            )
            chunks = [
                (int(child.get("offset", "0")), bytes.fromhex(child.text))
                for child in el.findall("chunk")
                if child.text
            ]
            return lambda: self._adopt_session(record, chunks)
        return lambda: None

    def _adopt_binding(
        self, task_id: str, ticket_id: str, expires_at: Optional[float]
    ) -> None:
        existing = self.dedup.lookup(task_id, self.sim.now)
        if existing is None:
            self.dedup.bind(task_id, ticket_id, expires_at)
        elif existing != ticket_id:
            self.metrics.counter("fleet.migrate_conflicts").inc()

    def _adopt_ticket(self, ticket: Ticket, partials: list[dict]) -> None:
        if self.storage.tickets.get(ticket.ticket_id) is not None:
            return
        if ticket.status != "dispatched":
            ticket.completed.succeed(ticket.status)
        if ticket.result_frame is not None:
            self.file_directory.allocate(ticket.ticket_id, len(ticket.result_frame))
        self.storage.tickets.insert(ticket)
        for entry in partials:
            self.storage.sessions.append_partial(ticket.ticket_id, entry)
        if ticket.result_frame is not None and ticket.first_downloaded_at is not None:
            # The origin's TTL timer died with the migration; restart
            # retention from arrival here.
            self.sim.process(
                self._expire_result(ticket), name=f"gw-expire:{ticket.ticket_id}"
            )

    def _adopt_session(
        self, record: SessionRecord, chunks: list[tuple[int, bytes]]
    ) -> None:
        if self.storage.sessions.get(record.session_id) is not None:
            return
        self.storage.sessions.create(record)
        for offset, data in chunks:
            self.storage.sessions.put_chunk(record.session_id, offset, data)

    # ---------------------------------------------------- membership lifecycle
    def _on_epoch_change(self, epoch: int, reason: str, member: str) -> None:
        """Synchronous listener on the shared view: react to every bump.

        Reconciliation re-runs (the new view may finally name a reachable
        owner), recorded hints replay toward a rejoining member, and a join
        triggers the rebalance sweep that moves the joiner's key range —
        and any state parked with a stand-in — back where it belongs.
        """
        if self.node.crashed:
            return
        for task_id, ticket_id in list(self._unreconciled.items()):
            ticket = self.storage.tickets.get(ticket_id)
            if ticket is not None:
                self.sim.process(
                    self._reconcile_once(task_id, ticket),
                    name=f"fleet-reconcile-epoch:{ticket_id}",
                )
        if reason == "join" and member != self.address:
            self._replay_hints_for(member)
            if not self.draining:
                self.sim.process(
                    self._rebalance_after_join(member),
                    name=f"fleet-rebalance:{member}",
                )

    def _reconcile_once(self, task_id: str, ticket: Ticket) -> Generator:
        """One immediate re-claim after an epoch change (vs the timed loop)."""
        if self._unreconciled.get(task_id) != ticket.ticket_id:
            return
        verdict, winner, _agent = yield from self.fleet_client.claim(
            task_id, ticket.ticket_id
        )
        if self._unreconciled.get(task_id) != ticket.ticket_id:
            return  # raced the timed reconciler; it already settled
        yield from self._settle_reconcile(task_id, ticket, verdict, winner)

    # -------------------------------------------------------- failure detector
    def _suspect_member(self, member: str) -> None:
        """Arm a suspicion probe for ``member`` (one at a time, bounded).

        Called when a claim round fails against a member and when a handoff
        hint is recorded.  Event-driven rather than a standing heartbeat
        loop: quiescent simulations stay quiescent.
        """
        if member == self.address or self.node.crashed:
            return
        if self.fleet.view.state(member) != "active" or member in self._probing:
            return
        self._probing.add(member)
        self.metrics.counter("fleet.suspects").inc()
        self.sim.process(
            self._probe_suspect(member), name=f"fleet-probe:{member}:{self.address}"
        )

    def _probe_suspect(self, member: str) -> Generator:
        view = self.fleet.view
        deadline = self.sim.now + self.config.fleet_suspicion_timeout_s
        try:
            while True:
                if self.node.crashed or view.state(member) != "active":
                    return
                alive = yield from self._heartbeat_probe(member)
                if alive:
                    view.record_heartbeat(member, self.sim.now)
                    self.metrics.counter("fleet.suspicion_cleared").inc()
                    self._replay_hints_for(member)
                    return
                if self.sim.now >= deadline:
                    self.metrics.counter("fleet.marked_down").inc()
                    view.mark_down(member)
                    return
                yield self.sim.timeout(FLEET_HEARTBEAT_INTERVAL_S)
        finally:
            self._probing.discard(member)

    def _heartbeat_probe(self, member: str) -> Generator:
        """Process: one bounded heartbeat round-trip; True iff it answered."""
        body = heartbeat_request(self.address, self.fleet.view.epoch)
        rpc = self.sim.process(
            self.fleet_client._rpc(
                member, FLEET_HEARTBEAT_PATH, body, purpose="fleet-heartbeat"
            ),
            name=f"fleet-hb:{member}",
        )
        deadline = self.sim.timeout(FLEET_HEARTBEAT_INTERVAL_S)
        fired = yield self.sim.any_of([rpc, deadline])
        if rpc not in fired:
            return False
        ok, _payload = fired[rpc]
        return ok

    # ---------------------------------------------------------- hinted handoff
    def _record_handoff_hint(self, task_id: str, ticket_id: str, owner: str) -> None:
        self._handoff_hints[task_id] = (ticket_id, owner)
        self.metrics.counter("fleet.hints_recorded").inc()
        self._suspect_member(owner)

    def _replay_hints_for(self, member: str) -> None:
        """Spawn a replay of every hint held on ``member``'s behalf."""
        if self.node.crashed:
            return
        hints = [
            (task_id, ticket_id)
            for task_id, (ticket_id, owner) in sorted(self._handoff_hints.items())
            if owner == member
        ]
        if hints:
            self.sim.process(
                self._replay_hints(member, hints),
                name=f"fleet-hint-replay:{member}",
            )

    def _replay_hints(
        self, member: str, hints: list[tuple[str, str]]
    ) -> Generator:
        for task_id, ticket_id in hints:
            if self._handoff_hints.get(task_id) != (ticket_id, member):
                continue  # superseded or replayed by a racing pass
            outcome = yield from self.fleet_client.claim_at(
                member, task_id, ticket_id
            )
            if outcome is None:
                return  # gone again; the next recovery replays the rest
            verdict, winner, _agent = outcome
            if verdict == "stale":
                continue  # view moved mid-replay; the next epoch retriggers
            self._handoff_hints.pop(task_id, None)
            if verdict == "bound" and winner != ticket_id:
                # The owner knew a different winner all along (durable
                # index): repoint locally; the hinted ticket's claimant
                # reconciles itself against the owner.
                self.metrics.counter("fleet.hints_conflicted").inc()
                self.dedup.bind(task_id, winner)
                local = self.storage.tickets.get(ticket_id)
                if local is not None:
                    yield from self._supersede_with_retract(local, winner)
            else:
                self.metrics.counter("fleet.hints_replayed").inc()

    # ------------------------------------------------------------ drain protocol
    def drain(self) -> Generator:
        """Process: leave the ring gracefully, handing owned state onward.

        1. Stop admitting new uploads (structured 503 + successor hint) and
           leave the ring at a new epoch — claims re-resolve immediately.
        2. Quiesce: wait (bounded) for in-flight dispatches to finalize.
        3. Migrate dedup bindings to their ring owners and every ticket,
           retained result, partial stream and upload session to the ring
           successor over ``/fleet/migrate``.
        4. Record the drain as complete.  Returns items migrated.

        A fleet of one has no successor: nothing migrates, and everything
        the gateway still holds is listed in :attr:`drain_leftover`.
        """
        if self.draining:
            return 0
        self.draining = True
        view = self.fleet.view
        self.metrics.counter("fleet.drains_started").inc()
        view.begin_drain(self.address)
        deadline = self.sim.now + self.config.fleet_drain_timeout_s
        while self.sim.now < deadline:
            if not any(
                t.status == "dispatched" for t in self.storage.tickets.values()
            ):
                break
            yield self.sim.timeout(0.5)
        migrated = yield from self._migrate_out()
        # Declare what legitimately stayed behind (dispatch stragglers the
        # quiesce window missed, batches whose ack never came): the swarm's
        # drain-handoff invariant condemns anything held by a drained
        # member that this ledger does not account for.
        self.drain_leftover = frozenset(
            [t.ticket_id for t in self.storage.tickets.values()]
            + [r.session_id for r in self.storage.sessions.values()]
            + [task_id for task_id, _, _ in self.dedup.items()]
        )
        view.finish_drain(self.address)
        self.metrics.counter("fleet.drains_completed").inc()
        return migrated

    def _migrate_out(self) -> Generator:
        """Process: push every owned item to its post-drain home, batched.

        Uncommitted items stay local — the drain is resumable: re-running
        it resends them, and first-wins application makes the resend safe.
        """
        view = self.fleet.view
        per_dest: dict[str, list[Element]] = {}
        for task_id, ticket_id, expires_at in self.dedup.items():
            dest = view.owner(task_id)
            if not dest or dest == self.address:
                continue
            per_dest.setdefault(dest, []).append(
                _binding_element(task_id, ticket_id, expires_at)
            )
        successor = view.successor(self.address)
        if successor:
            for ticket in self.storage.tickets.values():
                if ticket.status == "dispatched":
                    # Still owned by a live agent; the watchdog covers
                    # stragglers the quiesce window missed.
                    continue
                per_dest.setdefault(successor, []).append(
                    self._ticket_element(ticket)
                )
            for record in self.storage.sessions.values():
                per_dest.setdefault(successor, []).append(
                    self._session_element(record)
                )
        migrated, failed = yield from self._send_migrate(
            per_dest, "fleet-migrate", FLEET_MIGRATE_ATTEMPTS, self._migrate_commit
        )
        if migrated:
            self.metrics.counter("fleet.migrated_out").inc(migrated)
        if failed:
            self.metrics.counter("fleet.migrate_failed").inc(failed)
        return migrated

    def _send_migrate(
        self,
        per_dest: dict[str, list[Element]],
        purpose: str,
        attempts: int,
        commit: Callable[[Element], None],
    ) -> Generator:
        """Process: send ``per_dest`` over ``/fleet/migrate`` in batches.

        Destinations go in address order, each in batches of
        :data:`FLEET_MIGRATE_BATCH` items under one ``<migrate from epoch>``
        document.  A batch is sent up to ``attempts`` times, one second
        apart; once acked, ``commit`` runs on each of its items.  Returns
        ``(items acked, batches never acked)``.
        """
        acked = failed = 0
        for dest in sorted(per_dest):
            elements = per_dest[dest]
            for start in range(0, len(elements), FLEET_MIGRATE_BATCH):
                batch = elements[start : start + FLEET_MIGRATE_BATCH]
                doc = Element(
                    "migrate",
                    {"from": self.address, "epoch": str(self.fleet.view.epoch)},
                )
                for el in batch:
                    doc.append(el)
                body = write_bytes(doc)
                for attempt in range(attempts):
                    ok, _payload = yield from self.fleet_client._rpc(
                        dest, FLEET_MIGRATE_PATH, body, purpose=purpose
                    )
                    if ok or attempt + 1 == attempts:
                        break
                    yield self.sim.timeout(1.0)
                if not ok:
                    failed += 1
                    continue
                for el in batch:
                    commit(el)
                acked += len(batch)
        return acked, failed

    def _migrate_commit(self, el: Element) -> None:
        """The receiver acked ``el``: drop the local copy."""
        if el.tag == "binding":
            self.dedup.forget(el.get("task", ""))
        elif el.tag == "ticket":
            ticket_id = el.get("id", "")
            self._unreconciled.pop(el.get("task", ""), None)
            self.file_directory.release(ticket_id)
            self.storage.sessions.drop_partials(ticket_id)
            self.storage.tickets.delete(ticket_id)
        elif el.tag == "session":
            self.storage.sessions.delete(el.get("id", ""))

    def _ticket_element(self, ticket: Ticket) -> Element:
        el = Element(
            "ticket",
            {
                "id": ticket.ticket_id,
                "agent": ticket.agent_id,
                "device": ticket.device_id,
                "service": ticket.service,
                "status": ticket.status,
                "created": repr(ticket.created_at),
                "task": ticket.task_id,
            },
        )
        if ticket.first_downloaded_at is not None:
            el.set("downloaded", repr(ticket.first_downloaded_at))
        if ticket.superseded_by:
            el.set("superseded-by", ticket.superseded_by)
        if ticket.children:
            el.set("children", ",".join(ticket.children))
        if ticket.result_frame is not None:
            el.add("frame", text=ticket.result_frame.hex())
        for entry in self.storage.sessions.partials(ticket.ticket_id):
            el.add("partial", text=json.dumps(entry, sort_keys=True))
        return el

    def _session_element(self, record: SessionRecord) -> Element:
        el = Element(
            "session",
            {
                "id": record.session_id,
                "device": record.device_id,
                "task": record.task_id,
                "total": str(record.total_bytes),
                "digest": record.digest,
                "created": repr(record.created_at),
                "contact": repr(record.last_contact),
                "ticket": record.ticket_id,
            },
        )
        for offset, data in sorted(
            self.storage.sessions.chunks(record.session_id).items()
        ):
            el.add("chunk", {"offset": str(offset)}, text=data.hex())
        return el

    def _drain_response(self) -> HttpResponse:
        """Structured refusal while draining: 503 + the successor to use."""
        successor = self.fleet.view.successor(self.address)
        self.metrics.counter("gateway.drain_refusals").inc()
        retry_after = self.config.shed_retry_after_s
        doc = Element(
            "draining", {"successor": successor, "retry-after": f"{retry_after:g}"}
        )
        body = write_bytes(doc)
        headers = {"Retry-After": f"{retry_after:g}"}
        if successor:
            headers["x-fleet-successor"] = successor
        return HttpResponse(
            503,
            body=body,
            body_size=len(body),
            reason="gateway draining",
            headers=headers,
        )

    # ------------------------------------------------------------- rebalancing
    def _rebalance_after_join(self, member: str) -> Generator:
        """Process: move state where the post-join ring says it belongs.

        Two sweeps, both bounded by what this gateway actually holds:

        * **Home sweep** — tickets and sessions minted by a now-active
          origin (parked here by an earlier drain) are moved back, so
          prefix-routed collects find them at the origin again.
        * **Binding sweep** — dedup bindings whose ring owner is now the
          joiner are *copied* to it (first-wins; the local copy stays), so
          a claim for a task in the joiner's new range cannot be granted
          blind.  This is the epoch-safe half of bounded key movement.
        """
        if self.draining or self.node.crashed:
            return 0
        view = self.fleet.view
        per_dest: dict[str, list[Element]] = {}
        for ticket in self.storage.tickets.values():
            origin = ticket_origin(ticket.ticket_id)
            if (
                origin != self.address
                and view.state(origin) == "active"
                and ticket.status != "dispatched"
            ):
                per_dest.setdefault(origin, []).append(self._ticket_element(ticket))
        for record in self.storage.sessions.values():
            origin, sep, _ = record.session_id.partition("/s-")
            if sep and origin != self.address and view.state(origin) == "active":
                per_dest.setdefault(origin, []).append(self._session_element(record))
        if member != self.address and view.state(member) == "active":
            for task_id, ticket_id, expires_at in self.dedup.items():
                if view.owner(task_id) == member:
                    per_dest.setdefault(member, []).append(
                        _binding_element(task_id, ticket_id, expires_at)
                    )

        def commit_move(el: Element) -> None:
            # Moved tickets and sessions drop locally; binding copies stay (a
            # racing claim may still land here; first-wins at the new owner
            # keeps both consistent).
            if el.tag != "binding":
                self._migrate_commit(el)

        moved, _failed = yield from self._send_migrate(
            per_dest, "fleet-rebalance", 1, commit_move
        )
        if moved:
            self.metrics.counter("fleet.rebalanced").inc(moved)
        return moved


def _binding_element(
    task_id: str, ticket_id: str, expires_at: Optional[float]
) -> Element:
    el = Element("binding", {"task": task_id, "ticket": ticket_id})
    if expires_at is not None:
        el.set("expires", repr(expires_at))
    return el


def _op_reply(ticket: Ticket, state: str) -> bytes:
    doc = Element("agentop")
    doc.add("ticket", text=ticket.ticket_id)
    doc.add("agent", text=ticket.agent_id)
    doc.add("state", text=state)
    return write_bytes(doc)
