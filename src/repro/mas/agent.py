"""Mobile agents and their execution context.

:class:`MobileAgent` is the behaviour base class (Aglets' ``Aglet``).
Subclasses override the generator hooks:

* :meth:`~MobileAgent.on_arrival` — runs at every host the agent lands on
  (including creation at its home server).  The agent performs local work by
  yielding events obtained through the :class:`AgentContext`, then typically
  ends by ``ctx.move_to(...)``, ``ctx.complete(result)`` or
  ``ctx.dispose()``.
* :meth:`~MobileAgent.on_message` — runs for each message delivered while
  the agent is resident and idle.

All durable data must live in ``self.state`` (a plain dict) — that is what
travels.  Instance attributes set outside ``state`` do **not** migrate,
exactly like transient fields in Java serialisation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .itinerary import Itinerary, Stop
from .state import AgentState, CompleteSignal, DisposeSignal, MigrationSignal

if TYPE_CHECKING:  # pragma: no cover
    from .messaging import AgentMessage
    from .server import MobileAgentServer

__all__ = ["MobileAgent", "AgentContext"]

#: Default nominal code size (bytes) if a subclass does not override it —
#: middle of the paper's observed 1–8 KB range.
DEFAULT_CODE_SIZE = 4096


class MobileAgent:
    """Base class for travelling agents.

    Parameters
    ----------
    agent_id:
        Globally unique id (assigned by the creating server).
    owner:
        Identity of the dispatching principal (device id / user).
    home:
        Address of the server the agent reports to and returns to.
    itinerary:
        Travel plan; may be empty for stationary agents.
    state:
        Initial state dict (travels with the agent).
    """

    #: Nominal size of the agent's class files on the wire (subclasses set
    #: this to model heavier/lighter applications).
    code_size: int = DEFAULT_CODE_SIZE

    #: Telemetry correlation (:class:`~repro.telemetry.spans.SpanContext`
    #: or ``None``): the span the agent's next activity should parent
    #: under.  Travels in the wire form and is re-pointed by the hosting
    #: server as the agent runs and migrates, chaining hop spans causally.
    trace_ctx = None

    def __init__(
        self,
        agent_id: str,
        owner: str,
        home: str,
        itinerary: Optional[Itinerary] = None,
        state: Optional[dict[str, Any]] = None,
    ) -> None:
        self.agent_id = agent_id
        self.owner = owner
        self.home = home
        self.itinerary = itinerary or Itinerary(origin=home)
        self.state: dict[str, Any] = state if state is not None else {}
        self.lifecycle = AgentState.CREATED
        self.hops = 0

    @property
    def class_name(self) -> str:
        """Registry name of this agent's class."""
        return type(self).__name__

    # -- behaviour hooks (override in subclasses) -------------------------------
    def on_arrival(self, ctx: "AgentContext") -> Generator:
        """Behaviour executed on landing at a host.  Must be a generator."""
        yield ctx.idle()  # default: do nothing, stay resident

    def on_message(self, ctx: "AgentContext", message: "AgentMessage") -> Generator:
        """Behaviour executed per delivered message.  Must be a generator."""
        yield ctx.idle()

    # -- convenience -----------------------------------------------------------
    @property
    def is_home(self) -> bool:
        """True when the agent currently resides at its home server."""
        return self.lifecycle is not AgentState.MIGRATING and self._location_is_home

    _location_is_home: bool = True  # maintained by the hosting server

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{self.class_name} id={self.agent_id!r} "
            f"state={self.lifecycle.value} hops={self.hops}>"
        )


class AgentContext:
    """The agent's window onto its current host.

    Created by the hosting :class:`~repro.mas.server.MobileAgentServer` for
    each behaviour execution.  All methods that take simulated time return
    events/generators for the behaviour to ``yield`` / ``yield from``.
    """

    def __init__(self, server: "MobileAgentServer", agent: MobileAgent) -> None:
        self._server = server
        self._agent = agent

    # -- environment -----------------------------------------------------------
    @property
    def here(self) -> str:
        """Address of the current host."""
        return self._server.address

    @property
    def sim(self):
        return self._server.network.sim

    @property
    def agent(self) -> MobileAgent:
        return self._agent

    def log(self, message: str) -> None:
        """Record a trace line attributed to this agent."""
        self._server.metrics.counter(f"agent_log:{self._agent.agent_id}").inc()
        self._server.agent_logs.setdefault(self._agent.agent_id, []).append(
            (self.sim.now, self.here, message)
        )

    # -- time ------------------------------------------------------------------
    def sleep(self, seconds: float):
        """Event: simulated wall-clock delay."""
        return self.sim.timeout(seconds)

    def work(self, seconds: float):
        """Event: CPU work on the current host (scaled by its cpu factor)."""
        return self._server.node.compute(seconds)

    def idle(self):
        """Event: zero-time yield (keeps hook signatures generator-shaped)."""
        return self.sim.timeout(0.0)

    # -- control flow ------------------------------------------------------------
    def move_to(self, destination: str) -> None:
        """End execution here and migrate to ``destination`` (raises)."""
        raise MigrationSignal(destination)

    def follow_itinerary(self) -> None:
        """Move to the next itinerary stop, or home when exhausted (raises)."""
        stop = self._agent.itinerary.next_stop()
        if stop is None:
            raise MigrationSignal(self._agent.itinerary.origin)
        self._agent.itinerary.advance()
        raise MigrationSignal(stop.address)

    def return_home(self) -> None:
        """Migrate back to the agent's origin (raises)."""
        raise MigrationSignal(self._agent.itinerary.origin)

    def complete(self, result: Any) -> None:
        """Finish the task; the current server records ``result`` (raises)."""
        raise CompleteSignal(result)

    def dispose(self) -> None:
        """Self-destruct (raises)."""
        raise DisposeSignal()

    def extend_itinerary(self, address: str, task: str = "") -> None:
        """Append a stop — agents may re-plan from discovered context."""
        self._agent.itinerary.append(Stop(address, task))

    def report_partial(self, value: Any) -> None:
        """Report this hop's site result to the origin gateway (streaming).

        Fire-and-forget and free when the deployment has streaming
        sessions off; with them on, the home gateway appends ``value`` to
        the dispatching ticket's partial stream so the device's next
        session poll sees it — the first-hop answer in ~one RTT instead
        of a full tour later.
        """
        self._server.report_hop_result(self._agent, value)

    # -- communication ------------------------------------------------------------
    def ask_service(self, service_name: str, request: dict) -> Generator:
        """Process: query a stationary service agent on the *current* host.

        Local interaction — no network traffic, only the service's simulated
        processing time (this is the client-agent ↔ service-agent exchange
        of the e-banking evaluation).
        """
        return self._server.invoke_service(service_name, self._agent, request)

    def send_message(self, to_agent: str, subject: str, body: dict) -> Generator:
        """Process: deliver a message to another agent (possibly remote)."""
        return self._server.send_agent_message(
            self._agent.agent_id, to_agent, subject, body
        )

    def receive(self, subject: Optional[str] = None):
        """Event: next message addressed to this agent."""
        return self._server.mailbox_of(self._agent.agent_id).receive(subject)

    def services_here(self) -> list[str]:
        """Names of service agents registered on the current host."""
        return self._server.service_names()
