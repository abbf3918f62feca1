"""The Client-Agent-Server approach (§2, Fig. 1 middle).

"The mobile user only needs to submit the service request to the server and
can then disconnect … The agent server will determine and launch a mobile
agent to execute the requested network services … This approach has a
limitation that a mobile user is provided with only MA-based applications
which must have been installed on the agent server."

The :class:`AgentServer` is a combined web + MA server with a *fixed* menu
of pre-installed applications — no code travels from the device, only
parameters.  Connection-wise it behaves like PDAgent (submit, disconnect,
collect), which is why the paper's figures only plot PDAgent against the two
always-connected approaches; this baseline exists for the flexibility
comparison and the related-work example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..mas import Itinerary, MobileAgentServer, Stop
from ..mas.serializer import typed_xml, value_from_xml
from ..simnet.http import HttpRequest, HttpResponse, HttpServer, request
from ..simnet.primitives import Event
from ..xmlcodec import XML_DECLARATION, Element, attr_text, parse_bytes, write_bytes
from .common import BaselineRunResult

if TYPE_CHECKING:  # pragma: no cover
    from ..device import Device
    from ..simnet.topology import Network

__all__ = ["AgentServer", "InstalledApp", "ClientAgentServerRunner", "AGENT_SERVER_PORT"]

AGENT_SERVER_PORT = 8800


@dataclass(frozen=True)
class InstalledApp:
    """A pre-installed MA application on the agent server."""

    service: str
    agent_class: str
    #: Builds the itinerary for a request (the *server* decides the route —
    #: the user cannot customise it, unlike PDAgent's downloadable code).
    itinerary_builder: Callable[[dict[str, Any], str], list[Stop]]


class AgentServer:
    """Combined web server + mobile agent server with installed apps."""

    def __init__(self, network: "Network", address: str, mas: MobileAgentServer) -> None:
        self.network = network
        self.node = network.node(address)
        self.mas = mas
        self._apps: dict[str, InstalledApp] = {}
        self._tickets: dict[str, dict[str, Any]] = {}
        self._counter = itertools.count(1)
        self.http = HttpServer(self.node, port=AGENT_SERVER_PORT, service_time=0.006)
        self.http.route("/request", self._handle_request)
        self.http.route("/result/", self._handle_result)

    @property
    def address(self) -> str:
        return self.node.address

    def install(self, app: InstalledApp) -> None:
        """Pre-install an application (deployment-time operation)."""
        if app.service in self._apps:
            raise ValueError(f"app {app.service!r} already installed")
        self._apps[app.service] = app

    def installed_services(self) -> list[str]:
        return sorted(self._apps)

    def completion_of(self, ticket: str) -> Event:
        return self._tickets[ticket]["event"]

    def _handle_request(self, req: HttpRequest) -> Generator:
        try:
            doc = parse_bytes(req.body)
            service = doc.require("service")
            params = value_from_xml(doc.require_child("params"))
        except Exception as exc:
            return HttpResponse(400, reason=str(exc))
            yield  # pragma: no cover - keeps the handler a generator
        app = self._apps.get(service)
        if app is None:
            # The defining limitation: unknown services cannot be served.
            return HttpResponse(
                404, reason=f"service {service!r} is not installed on this agent server"
            )
        stops = app.itinerary_builder(params, self.address)
        agent = self.mas.create_agent(
            app.agent_class,
            owner=req.client or "anonymous",
            itinerary=Itinerary(origin=self.address, stops=stops),
            state={"params": params, "results": []},
        )
        ticket = f"{self.address}/cas-{next(self._counter)}"
        record: dict[str, Any] = {"agent_id": agent.agent_id, "event": Event(self.network.sim)}
        self._tickets[ticket] = record
        self.network.sim.process(self._await(ticket), name=f"cas-await:{ticket}")
        reply = Element("accepted")
        reply.add("ticket", text=ticket)
        reply.add("agent", text=agent.agent_id)
        body = write_bytes(reply)
        return HttpResponse(200, body=body, body_size=len(body))

    def _await(self, ticket: str) -> Generator:
        record = self._tickets[ticket]
        result = yield self.mas.completion_event(record["agent_id"])
        record["result"] = result
        if not record["event"].triggered:
            record["event"].succeed(result)

    def _handle_result(self, req: HttpRequest) -> HttpResponse:
        ticket = req.path[len("/result/") :]
        record = self._tickets.get(ticket)
        if record is None:
            return HttpResponse(404, reason=f"unknown ticket {ticket!r}")
        if "result" not in record:
            return HttpResponse(204, reason="result not ready")
        attrs = attr_text("ticket", ticket) + attr_text("status", "completed")
        data = typed_xml(record["result"], "data")
        body = f"{XML_DECLARATION}<result{attrs}>{data}</result>".encode("utf-8")
        return HttpResponse(200, body=body, body_size=len(body))


class ClientAgentServerRunner:
    """Device-side driver for the client-agent-server approach."""

    def __init__(self, device: "Device", server_address: str) -> None:
        self.device = device
        self.network = device.network
        self.server_address = server_address

    def submit(self, service: str, params: dict[str, Any]) -> Generator:
        """Process: upload the request; returns the ticket id."""
        attrs = attr_text("service", service)
        data = typed_xml(params, "params")
        body = f"{XML_DECLARATION}<request{attrs}>{data}</request>".encode("utf-8")
        resp = yield from request(
            self.network,
            self.device.address,
            self.server_address,
            "POST",
            "/request",
            body=body,
            body_size=len(body),
            port=AGENT_SERVER_PORT,
            purpose="cas-submit",
        )
        return parse_bytes(resp.body).require_child("ticket").text

    def collect(self, ticket: str) -> Generator:
        """Process: one result-download attempt; returns the data or None."""
        resp = yield from request(
            self.network,
            self.device.address,
            self.server_address,
            "GET",
            f"/result/{ticket}",
            port=AGENT_SERVER_PORT,
            purpose="cas-collect",
            raise_for_status=False,
        )
        if resp.status == 204:
            return None
        if not resp.ok:
            raise RuntimeError(f"collect failed: {resp.status} {resp.reason}")
        doc = parse_bytes(resp.body)
        return value_from_xml(doc.require_child("data"))

    def run(
        self,
        service: str,
        params: dict[str, Any],
        completion_event: Optional[Event] = None,
    ) -> Generator:
        """Process: submit → (offline) → collect; returns BaselineRunResult.

        ``completion_event`` is the experiment's omniscient "the user comes
        back later" signal; without it the runner polls every 5 s.
        """
        sim = self.network.sim
        tracer = self.network.tracer
        t0 = sim.now
        ticket = yield from self.submit(service, params)
        if completion_event is not None:
            yield completion_event
            data = yield from self.collect(ticket)
        else:
            data = None
            while data is None:
                yield sim.timeout(5.0)
                data = yield from self.collect(ticket)
        completion = sim.now - t0
        sent, received = tracer.bytes_transferred(self.device.address, since=t0)
        txns = params.get("transactions", []) if isinstance(params, dict) else []
        return BaselineRunResult(
            approach="client-agent-server",
            n_transactions=len(txns),
            completion_time=completion,
            connection_time=tracer.connection_time(self.device.address, since=t0),
            connections=tracer.connection_count(self.device.address, since=t0),
            bytes_sent=sent,
            bytes_received=received,
            details=[{"ticket": ticket, "data": data}],
        )
