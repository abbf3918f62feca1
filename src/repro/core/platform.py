"""The PDAgent Platform: the device-side facade (Fig. 4).

Combines the UI-facing operations (subscribe / deploy / collect / manage)
with the background System API components (Agent Dispatcher, Network
Manager, internal database, gateway selector, security).  All operations
that touch the network are processes; everything else happens offline.

Typical flow (mirrors Figs. 5–6)::

    platform = PDAgentPlatform(device, central_address="central")
    # online: download code once
    stored = yield from platform.subscribe("ebanking")
    # offline: user enters parameters …
    # online: one short connection to upload the PI
    handle = yield from platform.deploy("ebanking", params, stops=stops)
    # offline while the agent travels; later, one short connection:
    result = yield from platform.collect(handle)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..compressor import decompress
from ..crypto import KeyRing
from ..mas.itinerary import Stop
from ..mas.serializer import value_from_xml
from ..xmlcodec import parse_bytes
from .config import DEFAULT_CONFIG, PDAgentConfig
from .device_db import DispatchRecord, InternalDatabase, StoredCode
from .dispatcher import AgentDispatcher
from .errors import GatewayError, ResultNotReadyError, SubscriptionError
from .gateway import ticket_origin
from .netmanager import NetworkManager
from .retry import CircuitBreaker, RetryPolicy
from .security import DeviceSecurity
from .selection import GatewaySelector
from .subscription import code_from_xml

if TYPE_CHECKING:  # pragma: no cover
    from ..device import Device
    from ..device.session import DeviceSession

__all__ = [
    "PDAgentPlatform",
    "DispatchHandle",
    "CollectedResult",
    "StreamingDispatch",
]

#: Result polls (classic or session) before collection gives up.
MAX_POLLS = 240
#: Base wait between classic result polls (seconds).
POLL_INTERVAL_S = 5.0
#: Partial-result poll cadence while a session is open (seconds) — much
#: tighter than ``POLL_INTERVAL_S`` because the session answers from memory
#: and flushes queued push events on the same contact.
SESSION_POLL_INTERVAL_S = 2.0


@dataclass(frozen=True)
class DispatchHandle:
    """What the user holds after a deployment: enough to manage the agent."""

    ticket: str
    agent_id: str
    gateway: str
    service: str
    #: Telemetry trace this deployment runs under ("" when untraced);
    #: :meth:`PDAgentPlatform.collect` uses it to close the task's root span.
    trace_id: str = ""
    #: Idempotency key of the logical task; re-deploying with the same
    #: ``task_id`` is safe — the gateway returns the existing ticket.
    task_id: str = ""


@dataclass(frozen=True)
class CollectedResult:
    """A downloaded, verified, parsed result document."""

    ticket: str
    status: str
    data: Any
    document_bytes: int


@dataclass(frozen=True)
class StreamingDispatch:
    """A streaming deployment: the classic handle plus its live session.

    The session object keeps accumulating partial results and push events
    as :meth:`PDAgentPlatform.collect_streaming` polls it; its ledgers
    (``bytes_sent``, ``partials``, ``first_partial_at`` …) are what the
    streaming experiments measure.
    """

    handle: DispatchHandle
    session: "DeviceSession"


class PDAgentPlatform:
    """The lightweight platform running on the wireless device."""

    def __init__(
        self,
        device: "Device",
        central_address: str,
        config: Optional[PDAgentConfig] = None,
    ) -> None:
        self.device = device
        self.config = config or DEFAULT_CONFIG
        self.keyring = KeyRing()
        rng = device.network.streams.get(f"crypto:{device.device_id}")
        self.security = DeviceSecurity(self.config, self.keyring, rng.bytes)
        self.db = InternalDatabase(device.storage, self.config.codec)
        self.dispatcher = AgentDispatcher(device, self.db, self.config, self.security)
        self.retry_policy = RetryPolicy.from_config(self.config)
        self.breaker = CircuitBreaker(device.sim, cooldown=self.config.breaker_cooldown_s)
        self.netmanager = NetworkManager(
            device, retry_policy=self.retry_policy, breaker=self.breaker
        )
        self.selector = GatewaySelector(
            device.network,
            device.address,
            central_address,
            self.config,
            self.keyring,
            breaker=self.breaker,
        )

    def _resolve_gateway(self, gateway: Optional[str]) -> Generator:
        """Process: pick a gateway (policy) or vet an explicitly named one.

        Even for an explicit gateway, the device must hold its public key —
        keys are distributed with the central server's trusted address list
        (§3.4), so the list is fetched lazily on first need.
        """
        if gateway is None:
            gateway = yield from self.selector.select()
        elif not self.keyring.knows(gateway):
            yield from self.selector.refresh_list()
            if not self.keyring.knows(gateway):
                from .errors import NoGatewayAvailableError

                raise NoGatewayAvailableError(
                    f"gateway {gateway!r} is not on the trusted address list"
                )
        return gateway

    # ------------------------------------------------------------ subscription
    def subscribe(self, service: str, gateway: Optional[str] = None) -> Generator:
        """Process (§3.1): download MA code and store it in the database.

        Returns the :class:`~repro.core.device_db.StoredCode`.  "Once the
        service agent code is present in PDAgent's database, the
        subscription is no longer needed."
        """
        gateway = yield from self._resolve_gateway(gateway)
        frame = yield from self.netmanager.download_code(gateway, service)
        yield self.device.compute(self.config.unpack_cost(len(frame)))
        xml_bytes = decompress(self.security.unprotect_result(frame))
        code, code_id = code_from_xml(parse_bytes(xml_bytes))
        if not code_id:
            raise SubscriptionError("gateway did not assign a code id")
        return self.db.store_code(code, code_id)

    def is_subscribed(self, service: str) -> bool:
        return self.db.find_code_by_service(service) is not None

    # ------------------------------------------------------------ deployment
    def deploy(
        self,
        service: str,
        params: dict[str, Any],
        stops: Optional[list[Stop]] = None,
        gateway: Optional[str] = None,
        task_id: Optional[str] = None,
        deadline: float = 0.0,
    ) -> Generator:
        """Process (§3.2): pack and upload the application.

        Parameter entry and packing happen offline; only the PI upload opens
        a connection.  Returns a :class:`DispatchHandle`.

        ``task_id`` is the task's idempotency key; one is generated per
        call when omitted.  Application-level retries should pass the
        previous attempt's ``handle.task_id`` (or pre-generate one via
        ``platform.dispatcher.new_task_id()``) so a deployment whose
        response was lost is deduplicated by the gateway instead of
        dispatching a second agent.
        """
        handle, _ = yield from self._deploy(
            service, params, stops, gateway, task_id, deadline, streaming=False
        )
        return handle

    def _deploy(
        self,
        service: str,
        params: dict[str, Any],
        stops: Optional[list[Stop]],
        gateway: Optional[str],
        task_id: Optional[str],
        deadline: float,
        streaming: bool,
    ) -> Generator:
        """Process: the body of :meth:`deploy` and :meth:`deploy_streaming`.

        Returns ``(handle, session)``; ``session`` is ``None`` unless
        ``streaming``, which uploads through a resumable
        :class:`~repro.device.session.DeviceSession` instead of one POST.
        """
        from ..device.session import DeviceSession  # lazy: import cycle

        stored = self.db.find_code_by_service(service)
        if stored is None:
            raise SubscriptionError(
                f"not subscribed to {service!r}; call subscribe() first"
            )
        explicit = gateway is not None
        if task_id is None:
            task_id = self.dispatcher.new_task_id()
        # The task root span covers the whole user-visible task: it stays
        # open while the agent travels and is closed by collect().  Every
        # span of this deployment — across all three tiers — nests under it.
        mode = {"mode": "streaming"} if streaming else {}
        tele = self.device.network.telemetry
        root = tele.start_span(
            f"task:{service}", node=self.device.address,
            attrs={"device": self.device.device_id, **mode},
        )
        deploy_span = tele.start_span(
            "device.deploy", node=self.device.address, parent=root, attrs=mode
        )
        session = None
        try:
            gateway = yield from self._resolve_gateway(gateway)
            failed: set[str] = set()
            while True:
                content = self.dispatcher.build_content(
                    stored, params, stops=stops, origin=gateway,
                    trace=deploy_span.context, task_id=task_id,
                    deadline=deadline,
                )
                packed = yield from self.dispatcher.pack_for(
                    content, gateway, trace=deploy_span.context
                )
                try:
                    if streaming:
                        session = DeviceSession(
                            self.netmanager, gateway, self.config,
                            task_id=task_id, frame=packed.data,
                            trace=deploy_span.context,
                        )
                        ticket, agent_id = yield from session.upload()
                    else:
                        ticket, agent_id = yield from self.netmanager.upload_pi(
                            gateway, packed.data, trace=deploy_span.context,
                            task_id=task_id,
                        )
                    break
                except GatewayError:
                    # Failover (§3.5 reliability): an unreachable or failing
                    # gateway is struck from consideration and the next-best
                    # candidate is tried.  Explicitly named gateways never fail
                    # over — the caller asked for that one specifically.
                    if explicit:
                        raise
                    # The abandoned attempt's bytes are re-sent from byte zero
                    # at the next gateway (sessions are gateway-local, so a
                    # streaming failover opens a fresh session there): a
                    # store-and-forward restart either way.
                    if streaming:
                        self.netmanager.count_restart(
                            session.bytes_sent, "session-failover"
                        )
                    else:
                        self.netmanager.count_restart(
                            len(packed.data), "deploy-failover"
                        )
                    failed.add(gateway)
                    gateway = yield from self.selector.select(exclude=failed)
            chunks = {"chunks": session.chunks_sent} if streaming else {}
            deploy_span.end(gateway=gateway, ticket=ticket, **chunks)
        finally:
            if deploy_span.open:
                deploy_span.end(status="error")
            if root.open and deploy_span.status != "ok":
                root.end(status="error")
        handle = DispatchHandle(
            ticket=ticket, agent_id=agent_id, gateway=gateway, service=service,
            trace_id=root.trace_id, task_id=task_id,
        )
        self.db.record_dispatch(
            DispatchRecord(
                ticket=ticket,
                agent_id=agent_id,
                gateway=gateway,
                service=service,
                status="dispatched",
                dispatched_at=self.device.sim.now,
            )
        )
        return handle, session

    # ------------------------------------------------------------ results
    def collect(
        self, handle: DispatchHandle, via: Optional[str] = None
    ) -> Generator:
        """Process (§3.3): one download attempt for the result document.

        ``via`` names a different gateway to collect through (mobility: the
        user moved; the nearest gateway relays the document from the
        dispatching one over the wired network).  ``via=""`` auto-selects
        the currently nearest gateway.

        Raises :class:`ResultNotReadyError` if the agent has not returned
        yet.  On success the document is verified, parsed, stored in the
        internal database, and returned as a :class:`CollectedResult`.
        """
        # The ticket id encodes its issuing gateway ("<addr>/t-<n>"): that —
        # not handle.gateway — is where the result document lives.  A handle
        # returned by a fleet dedup (upload at B answered with A's ticket)
        # records gateway=B but must download from A.
        origin = ticket_origin(handle.ticket) or handle.gateway
        if via == "":
            # Auto-select after a link flap: prefer the gateway that issued
            # the ticket — collecting there is direct, anywhere else relays.
            via = yield from self.selector.select(prefer=origin)
        gateway = via or handle.gateway
        tele = self.device.network.telemetry
        root = tele.root_of(handle.trace_id) if handle.trace_id else None
        span = tele.start_span(
            "device.collect",
            node=self.device.address,
            parent=root,
            attrs={"ticket": handle.ticket, "gateway": gateway},
        )
        try:
            frame = yield from self.netmanager.download_result(
                gateway, handle.ticket, origin=origin, trace=span.context
            )
        except ResultNotReadyError:
            # Not an error: the agent is still travelling.  The root stays
            # open — a later collect (or the finalize pass) will close it.
            span.end(status="not-ready")
            raise
        except Exception:
            span.end(status="error")
            raise
        yield self.device.compute(self.config.unpack_cost(len(frame)))
        xml_bytes = decompress(self.security.unprotect_result(frame))
        doc = parse_bytes(xml_bytes)
        self.db.store_result(handle.ticket, xml_bytes)
        self.db.update_dispatch_status(handle.ticket, "collected")
        span.end(document_bytes=len(xml_bytes))
        if root is not None and root.open:
            root.end(status=doc.get("status", "ok") or "ok")
        return CollectedResult(
            ticket=handle.ticket,
            status=doc.get("status", ""),
            data=value_from_xml(doc.require_child("data")),
            document_bytes=len(xml_bytes),
        )

    def collect_poll(self, handle: DispatchHandle) -> Generator:
        """Process: poll :meth:`collect` until the result is ready.

        Each poll is a real (short) connection, :data:`POLL_INTERVAL_S`
        apart.  When the gateway's "not ready" answer carries hop progress,
        the next wait stretches with the hops still ahead of the agent —
        a tour with five sites to go is not worth re-dialling for in one
        base interval.
        """
        for _ in range(MAX_POLLS):
            try:
                result = yield from self.collect(handle)
                return result
            except ResultNotReadyError as exc:
                scale = max(1, exc.hops_remaining or 0)
                yield self.device.sim.timeout(POLL_INTERVAL_S * scale)
        raise ResultNotReadyError(
            f"{handle.ticket}: no result after {MAX_POLLS} polls"
        )

    # ------------------------------------------------------------ streaming sessions
    def deploy_streaming(
        self,
        service: str,
        params: dict[str, Any],
        stops: Optional[list[Stop]] = None,
        gateway: Optional[str] = None,
        task_id: Optional[str] = None,
        deadline: float = 0.0,
    ) -> Generator:
        """Process: :meth:`deploy`, but over a resumable chunked session.

        The packed PI travels as ``config.session_chunk_bytes``-sized
        chunks; a LinkDown costs only the chunk in flight (plus the resume
        handshake) instead of the whole frame.  Returns a
        :class:`StreamingDispatch` whose session then serves
        :meth:`collect_streaming`.  Requires ``config.session_enabled``
        deployments — a gateway without the session layer answers 404 and
        the deployment fails rather than silently degrading.
        """
        handle, session = yield from self._deploy(
            service, params, stops, gateway, task_id, deadline, streaming=True
        )
        return StreamingDispatch(handle=handle, session=session)

    def collect_streaming(self, dispatch: StreamingDispatch) -> Generator:
        """Process: poll the session until the result is ready, then collect.

        Each poll drains partial results (accumulated on
        ``dispatch.session.partials``) and queued push events; the final
        document download goes through the unchanged :meth:`collect` path,
        so the returned :class:`CollectedResult` is byte-identical to a
        non-streaming collection of the same ticket.  Polls that come back
        empty stretch the next wait (up to 4× the base interval) — the
        agent is mid-hop and re-dialling the wireless link every base
        interval would buy nothing; a fresh partial snaps the interval
        back, since the next hop's answer is the one the user is watching
        for.  If the session expires gateway-side mid-poll, collection
        degrades gracefully to the classic :meth:`collect_poll` loop.
        """
        session = dispatch.session
        base = SESSION_POLL_INTERVAL_S
        interval = base
        for _ in range(MAX_POLLS):
            if session.result_ready:
                break
            try:
                poll = yield from session.poll()
            except GatewayError:
                # Session gone (TTL or a crash under the memory backend):
                # the ticket still exists — fall back to plain polling.
                result = yield from self.collect_poll(dispatch.handle)
                return result
            if poll.ready:
                break
            if poll.fresh or poll.events:
                interval = base
            else:
                interval = min(interval * 1.5, 4.0 * base)
            yield self.device.sim.timeout(interval)
        else:
            raise ResultNotReadyError(
                f"{dispatch.handle.ticket}: no result after "
                f"{MAX_POLLS} session polls"
            )
        result = yield from self.collect(dispatch.handle)
        yield from session.close()
        return result

    @staticmethod
    def streamed_partials(session: "DeviceSession") -> list[dict[str, Any]]:
        """Decode a session's accumulated partials into site results."""
        decoded = []
        for entry in session.partials:
            value = value_from_xml(parse_bytes(entry["payload"].encode("utf-8")))
            decoded.append(
                {"seq": entry["seq"], "site": entry["site"], "value": value}
            )
        return decoded

    # ------------------------------------------------------------ agent management
    def agent_status(self, handle: DispatchHandle) -> Generator:
        """Process (§3.6): query the agent's lifecycle state via the gateway."""
        doc = yield from self.netmanager.agent_op(handle.gateway, handle.ticket, "status")
        return doc.require_child("state").text

    def retract_agent(self, handle: DispatchHandle) -> Generator:
        """Process (§3.6): pull the agent back; a partial result document
        becomes available for collection afterwards."""
        doc = yield from self.netmanager.agent_op(handle.gateway, handle.ticket, "retract")
        self.db.update_dispatch_status(handle.ticket, "retracted")
        return doc.require_child("state").text

    def clone_agent(self, handle: DispatchHandle) -> Generator:
        """Process (§3.6): clone the agent; returns the clone's handle."""
        doc = yield from self.netmanager.agent_op(handle.gateway, handle.ticket, "clone")
        clone = DispatchHandle(
            ticket=doc.require_child("ticket").text,
            agent_id=doc.require_child("agent").text,
            gateway=handle.gateway,
            service=handle.service,
        )
        self.db.record_dispatch(
            DispatchRecord(
                ticket=clone.ticket,
                agent_id=clone.agent_id,
                gateway=clone.gateway,
                service=clone.service,
                status="dispatched",
                dispatched_at=self.device.sim.now,
            )
        )
        return clone

    def dispose_agent(self, handle: DispatchHandle) -> Generator:
        """Process (§3.6): dispose of the agent and its gateway workspace."""
        doc = yield from self.netmanager.agent_op(handle.gateway, handle.ticket, "dispose")
        self.db.update_dispatch_status(handle.ticket, "disposed")
        return doc.require_child("state").text

    # ------------------------------------------------------------ mobility
    def relocate(self, access_point: str, wireless) -> None:
        """Mobility (§3): re-home the device to a new access point.

        Tears down the wireless link, attaches at the new location, and
        invalidates the RTT cache so the next deployment re-runs the §3.5
        nearest-gateway discovery from the new position.
        """
        self.device.move_to(access_point, wireless)
        self.selector.invalidate_probes()

    # ------------------------------------------------------------ local queries
    def list_codes(self) -> list[StoredCode]:
        """Internal database management: stored MA applications."""
        return self.db.list_codes()

    def list_dispatches(self) -> list[DispatchRecord]:
        """Mobile agent management: every deployment this device made."""
        return self.db.list_dispatches()

    def stored_result(self, ticket: str) -> Any:
        """Re-read a collected result from the internal database."""
        doc = parse_bytes(self.db.get_result(ticket))
        return value_from_xml(doc.require_child("data"))
