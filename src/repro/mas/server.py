"""The mobile agent server (Aglets-substitute runtime).

A :class:`MobileAgentServer` is installed on a network node ("a high-end
desktop in a network site").  It hosts resident agents and service agents,
executes agent behaviour as kernel processes, and speaks a small
Agent Transfer Protocol (ATP) to peer servers over the simulated transport:

========== ==========================================================
ATP type    semantics
========== ==========================================================
transfer    serialized agent → land, run behaviour, ack
retract     pull an idle/completed agent back to the requester
status      lifecycle query (home servers also answer from tracking)
message     inter-agent message delivery
completion  remote completion report routed to the agent's home
dispose     remote disposal request
========== ==========================================================

Agents report arrivals to their *home* server (datagram), so homes can
answer status queries and find agents for retraction — the mechanism behind
the paper's requirement that users can "administer the mobile agent server
to manage the mobile agent operations" from the handheld.

The on-the-wire encoding of a travelling agent is pluggable via a
*wire format* (see :mod:`repro.mas.adapters`), which is how the reproduction
models PDAgent's "any kind of mobile agent system" portability claim.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Optional, Type

from ..simnet.primitives import Event, InterruptException, Process
from ..simnet.resources import Mailbox
from ..simnet.topology import NoRouteError
from ..simnet.transport import ConnectionClosed, TransportError, connect
from .agent import AgentContext, MobileAgent
from .errors import (
    AgentBusyError,
    AgentLifecycleError,
    MigrationError,
    UnknownAgentError,
    UnknownClassError,
)
from .itinerary import Itinerary
from .messaging import AgentMessage, ServiceAgent
from .state import AgentState, CompleteSignal, DisposeSignal, MigrationSignal

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.topology import Network
    from ..telemetry.spans import SpanContext
    from .adapters import WireFormat

__all__ = ["MobileAgentServer", "AgentClassRegistry", "MAS_PORT"]

MAS_PORT = 4434
_RETRACT_RETRY_DELAY = 0.25
_RETRACT_MAX_TRIES = 40


class AgentClassRegistry:
    """Name → agent class mapping shared by the servers of a deployment.

    Plays the role of the code base every MAS host has installed: the
    travelling wire form names the class; the landing server instantiates
    it locally.
    """

    def __init__(self) -> None:
        self._classes: dict[str, Type[MobileAgent]] = {}

    def register(self, cls: Type[MobileAgent]) -> Type[MobileAgent]:
        """Register a class under its ``__name__`` (usable as a decorator)."""
        if not (isinstance(cls, type) and issubclass(cls, MobileAgent)):
            raise TypeError(f"{cls!r} is not a MobileAgent subclass")
        existing = self._classes.get(cls.__name__)
        if existing is not None and existing is not cls:
            raise ValueError(f"duplicate agent class name {cls.__name__!r}")
        self._classes[cls.__name__] = cls
        return cls

    def get(self, name: str) -> Type[MobileAgent]:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(
                f"agent class {name!r} not registered; have {sorted(self._classes)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._classes)

    def __contains__(self, name: str) -> bool:
        return name in self._classes


class MobileAgentServer:
    """Agent runtime bound to one network node.

    Fault-tolerance knobs are class attributes so a deployment can tune
    them wholesale (``MobileAgentServer.dispatch_timeout = ...``) or per
    instance; the defaults favour liveness on the paper's slow links.
    """

    #: Seconds to wait for a transfer ack before declaring the next hop dead.
    dispatch_timeout: float = 10.0
    #: Extra attempts per destination after the first dispatch failure.
    dispatch_retries: int = 1
    #: Base backoff between dispatch attempts (exponential, jittered from a
    #: named stream — reproducible under a fixed master seed).
    dispatch_backoff: float = 0.5
    #: Checkpoint agents at every itinerary stop (home keeps the latest copy
    #: until the agent completes there).
    checkpointing: bool = True
    #: Guardian (home-side supervisor) wake interval and give-up bounds —
    #: all bounded so the simulation always drains.
    guardian_interval: float = 15.0
    guardian_patience: int = 40
    max_redispatches: int = 3
    #: Admission control: inbound agent transfers decoded/landed at once.
    #: Beyond the bound the server refuses with an "overloaded" ack, which
    #: the sender's dispatch-retry machinery backs off and re-attempts —
    #: the MAS-tier twin of the gateway's 503 shed.
    transfer_intake_limit: int = 16
    #: Streaming sessions: when True, :meth:`report_hop_result` posts each
    #: hop's site result to the agent's home gateway so a device poll can
    #: stream partials.  Installed per deployment (off by default — a
    #: store-and-forward deployment generates no extra traffic).
    hop_reports_enabled: bool = False

    def __init__(
        self,
        network: "Network",
        address: str,
        registry: AgentClassRegistry,
        wire_format: Optional["WireFormat"] = None,
        port: int = MAS_PORT,
    ) -> None:
        from .adapters import AgletsWireFormat  # default flavour

        self.network = network
        self.metrics = network.telemetry.metrics
        self.node = network.node(address)
        self.registry = registry
        self.port = port
        self.wire_format = wire_format or AgletsWireFormat()
        self._agents: dict[str, MobileAgent] = {}
        self._services: dict[str, ServiceAgent] = {}
        self._mailboxes: dict[str, Mailbox] = {}
        self._results: dict[str, Any] = {}
        self._completion_events: dict[str, Event] = {}
        self._locations: dict[str, str] = {}  # home-side tracking
        self._running: set[str] = set()
        self._behaviour_procs: dict[str, Process] = {}
        self._deactivated: dict[str, bytes] = {}  # agent_id -> stored form
        # Fault tolerance: home-side checkpoint store (modelled as durable —
        # it survives crash()), the (visited, remaining) counts that replace
        # the checkpoint of an agent completed here, per-agent progress
        # counters the guardian watches, and the set of agents mid-dispatch
        # *from* this server.
        self._checkpoints: dict[str, tuple[bytes, str, float]] = {}
        self._completed_hops: dict[str, tuple[int, int]] = {}
        self._progress: dict[str, int] = {}
        self._migrating: set[str] = set()
        self._inflight_transfers = 0
        self.agent_logs: dict[str, list[tuple[float, str, str]]] = {}
        self._id_counter = itertools.count(1)
        self.node.listen(port, self._accept)
        self.node.metadata["mas_server"] = self
        # Background consumer of arrival-notification datagrams (home-side
        # location tracking).  The pump blocks on an empty mailbox, which
        # does not keep the simulation alive.
        self.sim.process(self._datagram_pump(), name=f"mas-dgram:{self.address}")

    # ------------------------------------------------------------------ basics
    @property
    def address(self) -> str:
        return self.node.address

    @property
    def sim(self):
        return self.network.sim

    def new_agent_id(self) -> str:
        return f"{self.address}/agent-{next(self._id_counter)}"

    def resident_agents(self) -> list[str]:
        return sorted(self._agents)

    def get_agent(self, agent_id: str) -> MobileAgent:
        try:
            return self._agents[agent_id]
        except KeyError:
            raise UnknownAgentError(f"{agent_id!r} not resident at {self.address}") from None

    def mailbox_of(self, agent_id: str) -> Mailbox:
        box = self._mailboxes.get(agent_id)
        if box is None:
            box = Mailbox(self.sim)
            self._mailboxes[agent_id] = box
        return box

    # ------------------------------------------------------------ service agents
    def register_service(self, service: ServiceAgent) -> None:
        """Install a stationary service agent on this host."""
        if service.name in self._services:
            raise ValueError(f"duplicate service {service.name!r} at {self.address}")
        service.bind(self)
        self._services[service.name] = service

    def service_names(self) -> list[str]:
        return sorted(self._services)

    def invoke_service(
        self, name: str, caller: MobileAgent, request: dict
    ) -> Generator:
        """Process: run a local service-agent request."""
        service = self._services.get(name)
        if service is None:
            raise UnknownAgentError(f"no service {name!r} at {self.address}")
        reply = yield from service._serve(caller.agent_id, request)
        return reply

    # ------------------------------------------------------------ agent lifecycle
    def create_agent(
        self,
        class_name: str | Type[MobileAgent],
        owner: str,
        itinerary: Optional[Itinerary] = None,
        state: Optional[dict[str, Any]] = None,
        agent_id: Optional[str] = None,
        autostart: bool = True,
        guardian: bool = False,
        trace: Optional["SpanContext"] = None,
    ) -> MobileAgent:
        """Instantiate an agent at this server (its home) and start it.

        With ``guardian=True`` a home-side supervisor process watches the
        agent's checkpoint progress and re-dispatches it from the latest
        checkpoint if it is lost to a site crash mid-tour.  ``trace`` links
        the agent's whole tour into the dispatching task's trace.
        """
        cls = (
            self.registry.get(class_name)
            if isinstance(class_name, str)
            else class_name
        )
        if not issubclass(cls, MobileAgent):
            raise TypeError(f"{cls!r} is not a MobileAgent subclass")
        agent = cls(
            agent_id=agent_id or self.new_agent_id(),
            owner=owner,
            home=self.address,
            itinerary=itinerary or Itinerary(origin=self.address),
            state=state,
        )
        agent.trace_ctx = trace
        self._land(agent, autostart=autostart)
        if guardian and not agent.itinerary.exhausted:
            self.sim.process(
                self._guardian(agent.agent_id), name=f"mas-guardian:{agent.agent_id}"
            )
        self.metrics.counter("agents_created").inc()
        return agent

    def clone_agent(self, agent_id: str) -> MobileAgent:
        """Create a copy with fresh identity and the remaining itinerary.

        Cloning a *running* agent is allowed (as in Aglets): the clone
        starts from a snapshot of the source's current state and covers the
        itinerary stops the source has not yet visited.
        """
        source = self.get_agent(agent_id)
        if source.lifecycle.terminal:
            raise AgentLifecycleError(f"{agent_id!r} is {source.lifecycle.value}")
        clone = type(source)(
            agent_id=self.new_agent_id(),
            owner=source.owner,
            home=source.home,
            itinerary=Itinerary(
                origin=source.itinerary.origin,
                stops=source.itinerary.remaining(),
            ),
            state=_deep_copy_state(source.state),
        )
        clone.trace_ctx = source.trace_ctx
        self._land(clone, autostart=True)
        self.metrics.counter("agents_cloned").inc()
        return clone

    def dispose_agent(self, agent_id: str) -> None:
        """Remove a resident agent permanently."""
        agent = self.get_agent(agent_id)
        if agent.lifecycle is AgentState.ACTIVE:
            raise AgentBusyError(f"{agent_id!r} is executing; cannot dispose")
        self._remove(agent, AgentState.DISPOSED)
        self.metrics.counter("agents_disposed").inc()

    def agent_status(self, agent_id: str) -> str:
        """Lifecycle of a resident, deactivated, or home-tracked agent."""
        agent = self._agents.get(agent_id)
        if agent is not None:
            return agent.lifecycle.value
        if agent_id in self._deactivated:
            return AgentState.DEACTIVATED.value
        if agent_id in self._locations:
            return f"remote@{self._locations[agent_id]}"
        if agent_id in self._results:
            return AgentState.COMPLETED.value
        raise UnknownAgentError(f"{agent_id!r} unknown at {self.address}")

    # -- deactivation (Aglets-style persistence) ------------------------------
    def deactivate_agent(self, agent_id: str) -> int:
        """Serialise an idle agent to server storage and evict it from memory.

        Long-lived agents waiting for rare events need not occupy the
        runtime (Aglets' ``deactivate``).  Returns the stored byte count.
        The agent keeps its identity; :meth:`activate_agent` restores it.
        """
        agent = self.get_agent(agent_id)
        if agent.lifecycle is AgentState.ACTIVE or agent_id in self._running:
            raise AgentBusyError(f"{agent_id!r} is executing; cannot deactivate")
        if agent.lifecycle.terminal:
            raise AgentLifecycleError(f"{agent_id!r} is {agent.lifecycle.value}")
        data = self.wire_format.encode(agent)
        self._deactivated[agent_id] = data
        self._agents.pop(agent_id, None)
        agent.lifecycle = AgentState.DEACTIVATED
        self.metrics.counter("agents_deactivated").inc()
        return len(data)

    def activate_agent(self, agent_id: str) -> MobileAgent:
        """Restore a deactivated agent to resident (idle) state."""
        data = self._deactivated.pop(agent_id, None)
        if data is None:
            raise UnknownAgentError(f"{agent_id!r} is not deactivated here")
        snapshot = self.wire_format.decode(data)
        cls = self.registry.get(snapshot.class_name)
        agent = cls(
            agent_id=snapshot.agent_id,
            owner=snapshot.owner,
            home=snapshot.home,
            itinerary=snapshot.itinerary,
            state=snapshot.state,
        )
        agent.hops = snapshot.hops
        agent.trace_ctx = snapshot.trace
        self._agents[agent.agent_id] = agent
        agent._location_is_home = agent.home == self.address
        agent.lifecycle = AgentState.IDLE
        self.metrics.counter("agents_activated").inc()
        return agent

    # -- completion -----------------------------------------------------------
    def completion_event(self, agent_id: str) -> Event:
        """Event fired with the agent's result when it completes."""
        event = self._completion_events.get(agent_id)
        if event is None:
            event = Event(self.sim)
            self._completion_events[agent_id] = event
            if agent_id in self._results:
                event.succeed(self._results[agent_id])
        return event

    def result_of(self, agent_id: str) -> Any:
        try:
            return self._results[agent_id]
        except KeyError:
            raise UnknownAgentError(f"no result for {agent_id!r}") from None

    def _record_completion(self, agent: MobileAgent, result: Any) -> None:
        agent.lifecycle = AgentState.COMPLETED
        self._results[agent.agent_id] = result
        event = self._completion_events.get(agent.agent_id)
        if event is not None and not event.triggered:
            event.succeed(result)
        self.metrics.counter("agents_completed").inc()
        self.network.telemetry.instant(
            "agent.complete",
            node=self.address,
            trace=agent.trace_ctx,
            attrs={"agent": agent.agent_id, "hops": agent.hops},
        )
        if agent.home == self.address:
            # Completed at home: the agent stays resident here, so nothing
            # reads its checkpoint again but the hop counts, which must
            # outlive a crash that disposes of the agent.
            if self._checkpoints.pop(agent.agent_id, None) is not None:
                it = agent.itinerary
                self._completed_hops[agent.agent_id] = (it.cursor, len(it.remaining()))
        else:
            # Report completion to the home server so waiters there wake up.
            self.sim.process(
                self._send_control(
                    agent.home,
                    {
                        "type": "completion",
                        "agent_id": agent.agent_id,
                        "result": result,
                    },
                    size=256,
                ),
                name=f"mas-completion:{agent.agent_id}",
            )

    # ------------------------------------------------------------ landing/running
    def _land(self, agent: MobileAgent, autostart: bool = True) -> None:
        """Make ``agent`` resident here and (optionally) run its behaviour.

        Landing is the checkpoint boundary: the agent's state *before* this
        stop's work is snapshotted and carried to its home server — locally
        when landing at home, piggybacked on the arrival-notification
        datagram otherwise — so a guardian can re-dispatch from the last
        completed stop if this site dies under the agent.
        """
        self._agents[agent.agent_id] = agent
        agent._location_is_home = agent.home == self.address
        if agent.home == self.address:
            self._locations[agent.agent_id] = self.address
            if self.checkpointing:
                # A home-side checkpoint never crosses a link — store the
                # wire format's cheap local snapshot form when it has one.
                snapshot = getattr(self.wire_format, "snapshot", None)
                data = (
                    snapshot(agent)
                    if snapshot is not None
                    else self.wire_format.encode(agent)
                )
                self._store_checkpoint(agent.agent_id, data, self.address)
        else:
            # Tell home where we are (cheap fire-and-forget probe), carrying
            # the checkpoint when checkpointing is on.
            payload: dict[str, Any] = {
                "type": "notify_arrival",
                "agent_id": agent.agent_id,
                "location": self.address,
            }
            size = 96
            if self.checkpointing:
                checkpoint = self.wire_format.encode(agent)
                payload["checkpoint"] = checkpoint
                size += len(checkpoint)
            self.network.send_datagram(
                self.address, agent.home, payload=payload, size=size
            )
        if autostart:
            proc = self.sim.process(
                self._run_behaviour(agent), name=f"agent:{agent.agent_id}"
            )
            self._behaviour_procs[agent.agent_id] = proc

    def _store_checkpoint(self, agent_id: str, data: bytes, location: str) -> None:
        """Home-side: remember the agent's latest wire form and whereabouts.

        A checkpoint that arrives after the agent completed here still
        counts as progress, but is not kept.
        """
        self._progress[agent_id] = self._progress.get(agent_id, 0) + 1
        self.metrics.counter("agent_checkpoints").inc()
        agent = self._agents.get(agent_id)
        if agent is None or agent.lifecycle is not AgentState.COMPLETED:
            self._checkpoints[agent_id] = (data, location, self.sim.now)

    def _run_behaviour(self, agent: MobileAgent) -> Generator:
        agent.lifecycle = AgentState.ACTIVE
        self._running.add(agent.agent_id)
        ctx = AgentContext(self, agent)
        # One span per behaviour execution = one span per itinerary hop,
        # parented on whatever brought the agent here (the gateway dispatch,
        # or the transfer span from the previous site).  The agent's carried
        # context is re-pointed at this span so the *next* hop chains on it.
        span = self.network.telemetry.start_span(
            "agent.run",
            node=self.address,
            parent=agent.trace_ctx,
            attrs={"agent": agent.agent_id, "hops": agent.hops},
        )
        agent.trace_ctx = span.context
        try:
            yield from agent.on_arrival(ctx)
        except MigrationSignal as signal:
            self._running.discard(agent.agent_id)
            # Close before the transfer so hop-work and transfer time stay
            # separate phases on the timeline.
            span.end(outcome="migrate", to=signal.destination)
            try:
                yield from self._transfer(agent, signal.destination)
            except InterruptException:
                # Killed mid-migration (host crash): the in-flight copy is
                # gone; recovery, if any, is the home guardian's job.
                self.metrics.counter("agents_killed_in_flight").inc()
            return
        except CompleteSignal as signal:
            span.end(outcome="complete")
            self._record_completion(agent, signal.result)
            return
        except DisposeSignal:
            span.end(outcome="dispose")
            self._remove(agent, AgentState.DISPOSED)
            self.metrics.counter("agents_disposed").inc()
            return
        except InterruptException as exc:
            if exc.cause == "node-crash":
                # Host died under the agent: crash() has already disposed of
                # it; there is nothing to park.
                span.end(status="killed", outcome="node-crash")
                return
            # Management preemption (retract/dispose request): abort the
            # current execution; the agent stays resident and idle so the
            # pending management operation can take it.
            agent.lifecycle = AgentState.IDLE
            self.metrics.counter("agents_preempted").inc()
            span.end(status="preempted", outcome="preempted")
            return
        finally:
            self._running.discard(agent.agent_id)
            self._behaviour_procs.pop(agent.agent_id, None)
            if span.open:  # behaviour raised, or returned without a signal
                span.end(outcome="idle")
        # Behaviour returned without a control signal: agent stays resident.
        agent.lifecycle = AgentState.IDLE

    def _remove(self, agent: MobileAgent, final_state: AgentState) -> None:
        self._agents.pop(agent.agent_id, None)
        self._mailboxes.pop(agent.agent_id, None)
        agent.lifecycle = final_state

    # ------------------------------------------------------------ migration (ATP)
    def _transfer(self, agent: MobileAgent, destination: str) -> Generator:
        """Process: serialise and move ``agent`` to ``destination``.

        Migration is the fault-critical step of a tour: the next hop may
        have crashed or been cut off since the itinerary was written.  Each
        destination gets ``1 + dispatch_retries`` attempts, each bounded by
        ``dispatch_timeout``; a destination that stays dead is struck from
        the tour (:meth:`_strike_site`).
        """
        agent.lifecycle = AgentState.MIGRATING
        self._agents.pop(agent.agent_id, None)
        if destination == self.address:
            # Degenerate move-to-self: re-land immediately.
            agent.lifecycle = AgentState.CREATED
            self._land(agent)
            return
        # The transfer span covers serialisation, the ATP exchange, and any
        # retries/failover; the agent carries its context across the wire so
        # the landing server's next hop span parents under it.
        span = self.network.telemetry.start_span(
            "agent.transfer",
            node=self.address,
            parent=agent.trace_ctx,
            attrs={"agent": agent.agent_id, "to": destination},
        )
        agent.trace_ctx = span.context
        self._migrating.add(agent.agent_id)
        try:
            yield from self._transfer_with_recovery(agent, destination)
            span.end()
        finally:
            self._migrating.discard(agent.agent_id)
            if span.open:
                span.end(status="error")

    def _transfer_with_recovery(self, agent: MobileAgent, destination: str) -> Generator:
        stream = self.network.streams.get(f"mas-dispatch:{self.address}")
        dest = destination
        while True:
            for attempt in range(1 + max(0, self.dispatch_retries)):
                if attempt:
                    delay = self.dispatch_backoff * (2 ** (attempt - 1))
                    delay *= 1.0 + 0.1 * stream.uniform(-1.0, 1.0)
                    yield self.sim.timeout(delay)
                try:
                    yield from self._attempt_transfer(agent, dest)
                    return
                except (TransportError, NoRouteError, MigrationError):
                    self.metrics.counter("migration_failures").inc()
            dest = self._strike_site(agent, dest)
            if dest is None:
                return

    def _attempt_transfer(self, agent: MobileAgent, destination: str) -> Generator:
        """One dispatch attempt, bounded by :attr:`dispatch_timeout`."""
        data = self.wire_format.encode(agent)
        wire_size = len(data) + self.wire_format.per_hop_overhead
        yield self.node.compute(self.wire_format.encode_cost_s)
        exchange = self.sim.process(
            self._transfer_exchange(agent.agent_id, destination, data, wire_size),
            name=f"atp-dispatch:{agent.agent_id}",
        )
        yield self.sim.any_of([exchange, self.sim.timeout(self.dispatch_timeout)])
        if exchange.is_alive:
            # No ack within the dispatch window: treat the next hop as dead.
            try:
                exchange.interrupt("dispatch-timeout")
            except RuntimeError:  # settled in this very tick
                pass
            raise MigrationError(
                f"dispatch of {agent.agent_id} to {destination} timed out "
                f"after {self.dispatch_timeout:g}s"
            )
        ack = exchange.value
        if not (isinstance(ack, dict) and ack.get("status") == "ok"):
            raise MigrationError(
                f"{destination} refused agent {agent.agent_id}: {ack!r}"
            )
        self.metrics.counter("agent_hops").inc()

    def _transfer_exchange(
        self, agent_id: str, destination: str, data: bytes, wire_size: int
    ) -> Generator:
        """Process: the raw ATP exchange; returns the peer's ack payload.

        An interrupt (dispatch timeout) makes it return quietly — the
        caller has already decided the attempt failed.
        """
        try:
            sock = yield from connect(
                self.network,
                self.address,
                destination,
                self.port,
                purpose=f"atp-transfer:{agent_id}",
            )
        except InterruptException:
            return {"status": "timeout"}
        try:
            yield from sock.send({"type": "transfer", "data": data}, wire_size)
            ack = yield from sock.recv()
        except ConnectionClosed as exc:
            raise MigrationError(f"transfer to {destination} aborted: {exc}") from exc
        except InterruptException:
            return {"status": "timeout"}
        finally:
            sock.close()
        return ack.payload

    def _strike_site(self, agent: MobileAgent, failed: str) -> Optional[str]:
        """Unreachable-site bookkeeping; returns the next destination.

        Records the failure in the agent's state and falls forward along the
        itinerary.  Returns ``None`` when there is nowhere left to go — the
        agent re-lands here, idle, so management operations (retract,
        guardian recovery) can still reach it.
        """
        agent.state.setdefault("failed_sites", []).append(failed)
        self.metrics.counter("sites_skipped").inc()
        while True:
            nxt = agent.itinerary.next_stop()
            if nxt is None:
                candidate = agent.itinerary.origin
                break
            agent.itinerary.advance()
            if nxt.address != failed:
                candidate = nxt.address
                break
            # Consecutive stops at the very site that just died: skip them.
        if candidate == self.address or candidate == failed:
            agent.lifecycle = AgentState.IDLE
            self._land(agent, autostart=False)
            self.metrics.counter("agents_stranded").inc()
            return None
        return candidate

    # ------------------------------------------------------------ guardian
    def _guardian(self, agent_id: str) -> Generator:
        """Process: home-side supervisor for one travelling agent.

        Wakes every :attr:`guardian_interval` seconds and compares the
        agent's checkpoint progress counter against the last wake.  No
        progress *and* an unreachable last-known location means the agent
        died with its host: the latest checkpoint is re-landed here and the
        tour resumes.  Both the number of wakes (:attr:`guardian_patience`)
        and the number of rescues (:attr:`max_redispatches`) are bounded,
        so the supervisor can never keep the simulation alive forever.
        """
        last_progress = -1
        redispatches = 0
        completion = self.completion_event(agent_id)
        for _ in range(self.guardian_patience):
            if completion.triggered:
                return
            yield self.sim.any_of(
                [completion, self.sim.timeout(self.guardian_interval)]
            )
            if completion.triggered:
                return
            if agent_id in self._deactivated:
                return  # persisted on purpose; not the guardian's business
            progress = self._progress.get(agent_id, 0)
            if progress != last_progress:
                last_progress = progress
                continue
            # No new checkpoint since the last wake.  A resident agent that
            # is merely slow (still ACTIVE or queued) is left alone, as is
            # one we are mid-dispatching ourselves.
            resident = self._agents.get(agent_id)
            if resident is not None:
                if (
                    resident.lifecycle is AgentState.ACTIVE
                    or agent_id in self._running
                ):
                    continue
                return  # parked here (idle/stranded/terminal): nothing to rescue
            if agent_id in self._migrating:
                continue
            entry = self._checkpoints.get(agent_id)
            if entry is None:
                continue  # nothing to restore from (checkpointing off?)
            _, location, _ = entry
            if location and location != self.address:
                alive = yield from self._site_alive(location)
                if completion.triggered:
                    return  # it completed while the probe waited
                if alive:
                    continue  # slow site, live agent: do not duplicate it
            if redispatches >= self.max_redispatches:
                self.metrics.counter("guardian_gave_up").inc()
                return
            redispatches += 1
            self._redispatch_from_checkpoint(agent_id, failed_site=location)
        self.metrics.counter("guardian_expired").inc()

    def _site_alive(self, address: str) -> Generator:
        """Process: liveness probe — does ``address`` answer an ATP status?"""
        probe = self.sim.process(
            self._probe_site(address), name=f"mas-probe:{address}"
        )
        yield self.sim.any_of([probe, self.sim.timeout(self.dispatch_timeout)])
        if probe.is_alive:
            try:
                probe.interrupt("probe-timeout")
            except RuntimeError:
                pass
            return False
        return bool(probe.value)

    def _probe_site(self, address: str) -> Generator:
        """Process: one status round-trip; returns True iff the peer answered."""
        try:
            reply = yield from self._send_control(
                address, {"type": "status", "agent_id": ""}, size=64
            )
        except (TransportError, NoRouteError, InterruptException):
            return False
        return isinstance(reply, dict)

    def _redispatch_from_checkpoint(self, agent_id: str, failed_site: str) -> None:
        """Re-land the latest checkpoint of ``agent_id`` here and resume it.

        The checkpoint was taken at the moment the agent *landed* at the
        failed stop, i.e. with the cursor already past it — resuming from it
        naturally skips the dead site.
        """
        data, _, _ = self._checkpoints[agent_id]
        snapshot = self.wire_format.decode(data)
        cls = self.registry.get(snapshot.class_name)
        state = snapshot.state
        state["redispatches"] = int(state.get("redispatches", 0)) + 1
        state.setdefault("failed_sites", []).append(failed_site)
        agent = cls(
            agent_id=snapshot.agent_id,
            owner=snapshot.owner,
            home=snapshot.home,
            itinerary=snapshot.itinerary,
            state=state,
        )
        agent.hops = snapshot.hops
        agent.trace_ctx = snapshot.trace
        self._locations[agent_id] = self.address
        self.metrics.counter("agents_redispatched").inc()
        self._land(agent)

    # ------------------------------------------------------------ crash/restart
    def crash(self) -> None:
        """Simulate this site dying: kill resident agents, stop listening.

        Volatile state (resident agents, their mailboxes, running
        behaviours) is lost.  Durable state — results, home-side location
        tracking, checkpoints, completion events, deactivated agents —
        survives, mirroring a process that kept its database across a
        reboot.  Idempotent; :meth:`restart` undoes it.
        """
        if self.node.crashed:
            return
        for agent_id, proc in list(self._behaviour_procs.items()):
            if proc.is_alive and proc.target is not None:
                try:
                    proc.interrupt("node-crash")
                except RuntimeError:
                    pass
        for agent_id, agent in list(self._agents.items()):
            agent.lifecycle = AgentState.DISPOSED
            self.metrics.counter("agents_killed").inc()
        self._agents.clear()
        self._mailboxes.clear()
        self._running.clear()
        self._behaviour_procs.clear()
        self.node.suspend_listeners()
        self.metrics.counter("mas_crashes").inc()

    def restart(self) -> None:
        """Bring a crashed site back: listeners resume, durable state intact."""
        if not self.node.crashed:
            return
        self.node.resume_listeners()
        self.metrics.counter("mas_restarts").inc()

    def _accept(self, conn) -> None:
        self.sim.process(
            self._serve_peer(conn.responder_socket), name=f"atp-serve:{self.address}"
        )

    def _serve_peer(self, sock) -> Generator:
        try:
            message = yield from sock.recv()
        except ConnectionClosed:
            return
        payload = message.payload
        reply: dict[str, Any]
        reply_size = 64
        if not isinstance(payload, dict) or "type" not in payload:
            reply = {"status": "error", "reason": "malformed ATP message"}
        else:
            kind = payload["type"]
            try:
                if kind == "transfer":
                    if self._inflight_transfers >= self.transfer_intake_limit:
                        # Bounded intake: refuse rather than queue unboundedly;
                        # the sender backs off and retries the dispatch.
                        self.metrics.counter("mas_transfers_refused").inc()
                        reply = {
                            "status": "overloaded",
                            "reason": (
                                f"{self.address} at transfer intake limit "
                                f"({self.transfer_intake_limit})"
                            ),
                        }
                    else:
                        self._inflight_transfers += 1
                        try:
                            reply = yield from self._handle_transfer(payload)
                        finally:
                            self._inflight_transfers -= 1
                elif kind == "retract":
                    reply, reply_size = self._handle_retract(payload)
                elif kind == "status":
                    reply = self._handle_status(payload)
                elif kind == "message":
                    reply = yield from self._handle_message(payload)
                elif kind == "completion":
                    reply = self._handle_completion(payload)
                elif kind == "clone":
                    reply = self._handle_clone(payload)
                elif kind == "dispose":
                    reply = self._handle_dispose(payload)
                else:
                    reply = {"status": "error", "reason": f"unknown type {kind!r}"}
            except Exception as exc:  # protocol robustness: errors become replies
                reply = {"status": "error", "reason": f"{type(exc).__name__}: {exc}"}
        try:
            yield from sock.send(reply, reply_size)
        except ConnectionClosed:
            pass

    def _handle_transfer(self, payload: dict) -> Generator:
        data = payload.get("data")
        if not isinstance(data, (bytes, bytearray)):
            return {"status": "error", "reason": "transfer without agent data"}
        yield self.node.compute(self.wire_format.decode_cost_s)
        snapshot = self.wire_format.decode(bytes(data))
        cls = self.registry.get(snapshot.class_name)
        agent = cls(
            agent_id=snapshot.agent_id,
            owner=snapshot.owner,
            home=snapshot.home,
            itinerary=snapshot.itinerary,
            state=snapshot.state,
        )
        agent.hops = snapshot.hops + 1
        agent.trace_ctx = snapshot.trace
        self._land(agent)
        self.metrics.counter("agents_received").inc()
        return {"status": "ok"}

    def _handle_retract(self, payload: dict) -> tuple[dict, int]:
        agent_id = payload.get("agent_id", "")
        agent = self._agents.get(agent_id)
        if agent is None:
            location = self._locations.get(agent_id)
            if location and location != self.address:
                return {"status": "redirect", "location": location}, 96
            return {"status": "unknown"}, 64
        if agent.lifecycle is AgentState.ACTIVE or agent_id in self._running:
            # Preempt the running behaviour (Aglets aborts the current
            # execution on retraction); the requester retries shortly and
            # finds the agent idle.
            self._preempt(agent_id)
            return {"status": "busy"}, 64
        data = self.wire_format.encode(agent)
        self._remove(agent, AgentState.RETRACTED)
        self.metrics.counter("agents_retracted").inc()
        return (
            {"status": "ok", "data": data},
            len(data) + self.wire_format.per_hop_overhead,
        )

    def _handle_status(self, payload: dict) -> dict:
        agent_id = payload.get("agent_id", "")
        try:
            return {"status": "ok", "state": self.agent_status(agent_id)}
        except UnknownAgentError:
            return {"status": "unknown"}

    def _handle_message(self, payload: dict) -> Generator:
        """Process: deliver or forward an inbound agent message.

        A message for a non-resident agent is forwarded to its last known
        location (home servers track their travellers), bounded by a hop
        counter so routing loops cannot arise from stale tables.
        """
        msg = payload.get("message")
        if not isinstance(msg, AgentMessage):
            return {"status": "error", "reason": "no AgentMessage"}
        if msg.recipient in self._deactivated:
            # Activation-on-message: wake the stored agent to receive.
            self.activate_agent(msg.recipient)
        if msg.recipient in self._agents:
            self._deliver_local(msg)
            return {"status": "ok"}
        hops = int(payload.get("fwd", 0))
        location = self._locations.get(msg.recipient)
        if location and location != self.address and hops < 4:
            reply = yield from self._send_control(
                location,
                {"type": "message", "message": msg, "fwd": hops + 1},
                size=msg.wire_size(),
            )
            return reply if isinstance(reply, dict) else {"status": "unknown"}
        return {"status": "unknown"}

    def _handle_completion(self, payload: dict) -> dict:
        agent_id = payload.get("agent_id", "")
        self._results[agent_id] = payload.get("result")
        event = self._completion_events.get(agent_id)
        if event is not None and not event.triggered:
            event.succeed(payload.get("result"))
        return {"status": "ok"}

    def _handle_clone(self, payload: dict) -> dict:
        agent_id = payload.get("agent_id", "")
        if agent_id not in self._agents:
            location = self._locations.get(agent_id)
            if location and location != self.address:
                return {"status": "redirect", "location": location}
            return {"status": "unknown"}
        try:
            clone = self.clone_agent(agent_id)
            return {"status": "ok", "clone_id": clone.agent_id}
        except (AgentBusyError, AgentLifecycleError) as exc:
            return {"status": "busy", "reason": str(exc)}

    def _handle_dispose(self, payload: dict) -> dict:
        agent_id = payload.get("agent_id", "")
        try:
            self.dispose_agent(agent_id)
            return {"status": "ok"}
        except UnknownAgentError:
            return {"status": "unknown"}
        except AgentBusyError:
            return {"status": "busy"}

    def _preempt(self, agent_id: str) -> None:
        """Interrupt a running behaviour (management preemption)."""
        proc = self._behaviour_procs.get(agent_id)
        if proc is not None and proc.is_alive and proc.target is not None:
            try:
                proc.interrupt("management-preempt")
            except RuntimeError:  # terminated in this very tick
                pass

    # ------------------------------------------------------------ hop reports
    def report_hop_result(self, agent: MobileAgent, value: Any) -> None:
        """Streaming sessions: report this hop's site result home.

        Fire-and-forget — the tour never waits on (or fails with) the
        report; the final result document is authoritative either way.
        No-op unless the deployment enabled :attr:`hop_reports_enabled`,
        so store-and-forward runs are byte-identical to before.
        """
        if not self.hop_reports_enabled:
            return
        from ..xmlcodec import XML_DECLARATION, attr_text, leaf_text
        from .serializer import typed_xml

        attrs = attr_text("agent", agent.agent_id) + attr_text("site", self.address)
        # The report carries the value's own document as its text.
        value_doc = XML_DECLARATION + typed_xml(value)
        body = (XML_DECLARATION + leaf_text("hopreport", attrs, value_doc)).encode("utf-8")
        self.sim.process(
            self._post_hop_report(agent.home, body, agent.trace_ctx),
            name=f"mas-hopreport:{agent.agent_id}",
        )

    def _post_hop_report(self, home: str, body: bytes, trace) -> Generator:
        """Process: one ``POST /session/partial`` to the home gateway."""
        from ..core.gateway import GATEWAY_PORT
        from ..simnet.http import request as http_request

        headers = trace.to_headers() if trace is not None else None
        try:
            yield from http_request(
                self.network,
                self.address,
                home,
                "POST",
                "/session/partial",
                body=body,
                body_size=len(body),
                port=GATEWAY_PORT,
                purpose="hop-report",
                raise_for_status=False,
                headers=headers,
            )
        except (TransportError, NoRouteError, ConnectionClosed):
            # Lost report (crashed gateway, cut link): the stream simply
            # misses this hop until the final document arrives.
            self.metrics.counter("hop_reports_lost").inc()

    def hop_progress_of(self, agent_id: str) -> Optional[tuple[int, int]]:
        """``(visited, remaining)`` itinerary counts for an agent, or None.

        Answers from the resident agent when it is here, else from the
        counts kept when it completed here, else from the latest home-side
        checkpoint (homes track their travellers).  Used by the gateway to
        annotate "result not ready" answers so devices can poll adaptively.
        """
        agent = self._agents.get(agent_id)
        itinerary = agent.itinerary if agent is not None else None
        if itinerary is None:
            if agent_id in self._completed_hops:
                return self._completed_hops[agent_id]
            entry = self._checkpoints.get(agent_id)
            if entry is None:
                return None
            try:
                itinerary = self.wire_format.decode(entry[0]).itinerary
            except MigrationError:
                return None
        return itinerary.cursor, len(itinerary.remaining())

    # ------------------------------------------------------------ remote control
    def _send_control(self, destination: str, payload: dict, size: int) -> Generator:
        """Process: one ATP request/response exchange; returns the reply."""
        sock = yield from connect(
            self.network,
            self.address,
            destination,
            self.port,
            purpose=f"atp-{payload.get('type', '?')}",
        )
        try:
            yield from sock.send(payload, size)
            reply = yield from sock.recv()
        finally:
            sock.close()
        return reply.payload

    def retract_agent(self, agent_id: str) -> Generator:
        """Process: pull an agent back here; returns the live agent.

        Follows home tracking and ``redirect`` replies; waits out ``busy``
        answers with bounded retries (the agent may be mid-hop or mid-task).
        """
        for _ in range(_RETRACT_MAX_TRIES):
            agent = self._agents.get(agent_id)
            if agent is not None:
                if agent.lifecycle is AgentState.ACTIVE:
                    yield self.sim.timeout(_RETRACT_RETRY_DELAY)
                    continue
                return agent  # already here
            target = self._locations.get(agent_id)
            if target is None or target == self.address:
                yield self.sim.timeout(_RETRACT_RETRY_DELAY)
                continue
            reply = yield from self._send_control(
                target, {"type": "retract", "agent_id": agent_id}, size=96
            )
            status = reply.get("status") if isinstance(reply, dict) else None
            if status == "ok":
                snapshot = self.wire_format.decode(bytes(reply["data"]))
                cls = self.registry.get(snapshot.class_name)
                agent = cls(
                    agent_id=snapshot.agent_id,
                    owner=snapshot.owner,
                    home=snapshot.home,
                    itinerary=snapshot.itinerary,
                    state=snapshot.state,
                )
                agent.hops = snapshot.hops + 1
                agent.trace_ctx = snapshot.trace
                agent.lifecycle = AgentState.RETRACTED
                self._agents[agent.agent_id] = agent
                self._locations[agent_id] = self.address
                return agent
            if status == "redirect":
                self._locations[agent_id] = reply.get("location", target)
                continue
            if status in ("busy", "unknown"):
                # "unknown" is usually a mid-hop race: the agent left that
                # server before our request landed.  Wait for the next
                # arrival notification to refresh the location, then retry.
                yield self.sim.timeout(_RETRACT_RETRY_DELAY)
                continue
            raise UnknownAgentError(
                f"retract of {agent_id!r} failed at {target}: {reply!r}"
            )
        raise AgentBusyError(f"could not retract {agent_id!r}: kept busy/moving")

    def clone_anywhere(self, agent_id: str) -> Generator:
        """Process: clone an agent wherever it currently is.

        Resident agents clone locally; travelling agents are cloned at
        their last reported location (following redirects, waiting out
        mid-hop windows).  Returns the clone's agent id.
        """
        for _ in range(_RETRACT_MAX_TRIES):
            if agent_id in self._agents:
                return self.clone_agent(agent_id).agent_id
            target = self._locations.get(agent_id)
            if target is None or target == self.address:
                yield self.sim.timeout(_RETRACT_RETRY_DELAY)
                continue
            reply = yield from self._send_control(
                target, {"type": "clone", "agent_id": agent_id}, size=96
            )
            status = reply.get("status") if isinstance(reply, dict) else None
            if status == "ok":
                return reply["clone_id"]
            if status == "redirect":
                self._locations[agent_id] = reply.get("location", target)
                continue
            if status in ("busy", "unknown"):
                # mid-hop or mid-migration; wait for the next arrival report
                yield self.sim.timeout(_RETRACT_RETRY_DELAY)
                continue
            raise UnknownAgentError(
                f"clone of {agent_id!r} failed at {target}: {reply!r}"
            )
        raise AgentBusyError(f"could not clone {agent_id!r}: kept moving")

    def _datagram_pump(self) -> Generator:
        """Consume arrival notifications for home-side location tracking."""
        while True:
            dgram = yield self.node.datagrams.get()
            payload = getattr(dgram, "payload", None)
            if not isinstance(payload, dict):
                continue
            if payload.get("type") != "notify_arrival":
                continue
            agent_id = payload.get("agent_id", "")
            # A resident agent's location is authoritative; otherwise adopt
            # the freshest report.
            if agent_id not in self._agents:
                self._locations[agent_id] = payload.get("location", "")
            checkpoint = payload.get("checkpoint")
            if isinstance(checkpoint, (bytes, bytearray)):
                self._store_checkpoint(
                    agent_id, bytes(checkpoint), payload.get("location", "")
                )

    def query_status(self, agent_id: str, home: Optional[str] = None) -> Generator:
        """Process: lifecycle state of ``agent_id`` asking ``home`` if remote."""
        try:
            return self.agent_status(agent_id)
        except UnknownAgentError:
            if home is None or home == self.address:
                raise
        reply = yield from self._send_control(
            home, {"type": "status", "agent_id": agent_id}, size=96
        )
        if isinstance(reply, dict) and reply.get("status") == "ok":
            return reply["state"]
        raise UnknownAgentError(f"{agent_id!r} unknown at {home}")

    # ------------------------------------------------------------ messaging
    def _deliver_local(self, msg: AgentMessage) -> None:
        self.mailbox_of(msg.recipient).put(msg)
        agent = self._agents.get(msg.recipient)
        if agent is not None and agent.lifecycle is AgentState.IDLE:
            self.sim.process(
                self._run_message_hook(agent), name=f"agent-msg:{agent.agent_id}"
            )

    def _run_message_hook(self, agent: MobileAgent) -> Generator:
        box = self.mailbox_of(agent.agent_id)
        if not len(box):
            return
        msg = yield box.receive()
        ctx = AgentContext(self, agent)
        agent.lifecycle = AgentState.ACTIVE
        try:
            yield from agent.on_message(ctx, msg)
        except MigrationSignal as signal:
            yield from self._transfer(agent, signal.destination)
            return
        except CompleteSignal as signal:
            self._record_completion(agent, signal.result)
            return
        except DisposeSignal:
            self._remove(agent, AgentState.DISPOSED)
            return
        agent.lifecycle = AgentState.IDLE

    def send_agent_message(
        self, sender_id: str, recipient_id: str, subject: str, body: dict
    ) -> Generator:
        """Process: route a message to a (possibly remote) agent."""
        msg = AgentMessage(
            sender=sender_id,
            recipient=recipient_id,
            subject=subject,
            body=body,
            sent_at=self.sim.now,
        )
        if recipient_id in self._deactivated:
            self.activate_agent(recipient_id)
        if recipient_id in self._agents:
            self._deliver_local(msg)
            return True
        target = self._locations.get(recipient_id)
        if target is None:
            # Agent ids embed their home server ("<home>/agent-N"); route
            # unknown recipients via their home, which tracks them.
            home = recipient_id.partition("/")[0]
            if home and home != self.address and self.network.has_node(home):
                target = home
            else:
                raise UnknownAgentError(
                    f"cannot route message: {recipient_id!r} unknown at {self.address}"
                )
        reply = yield from self._send_control(
            target, {"type": "message", "message": msg}, size=msg.wire_size()
        )
        return isinstance(reply, dict) and reply.get("status") == "ok"


def _deep_copy_state(state: dict) -> dict:
    """Copy nested plain data (the only thing agent state may contain)."""

    def copy(value):
        if isinstance(value, dict):
            return {k: copy(v) for k, v in value.items()}
        if isinstance(value, list):
            return [copy(v) for v in value]
        if isinstance(value, tuple):
            return [copy(v) for v in value]
        return value

    return {k: copy(v) for k, v in state.items()}
