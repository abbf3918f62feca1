"""Tests for the mobile agent server: lifecycle, migration, services,
messaging, remote management, and wire-format portability."""

import pytest

from repro.mas import (
    AgentBusyError,
    AgentClassRegistry,
    AgentState,
    AgletsWireFormat,
    Itinerary,
    MobileAgent,
    MobileAgentServer,
    ServiceAgent,
    Stop,
    UnknownAgentError,
    UnknownClassError,
    VoyagerWireFormat,
    wire_format_by_name,
)
from repro.simnet import LinkSpec, Network


def make_world(flavour="aglets", seed=2):
    """Three servers (home + two sites) on a fast wired network."""
    net = Network(master_seed=seed)
    registry = AgentClassRegistry()
    for name in ("home", "site-1", "site-2"):
        net.add_node(name, kind="server")
    wan = LinkSpec(latency=0.02, bandwidth=500_000)
    net.add_duplex_link("home", "site-1", wan)
    net.add_duplex_link("home", "site-2", wan)
    net.add_duplex_link("site-1", "site-2", wan)
    servers = {
        name: MobileAgentServer(
            net, name, registry, wire_format=wire_format_by_name(flavour)
        )
        for name in ("home", "site-1", "site-2")
    }
    return net, registry, servers


class Echoer(ServiceAgent):
    def handle(self, caller_id, request):
        yield self.server.node.compute(0.01)
        return {"status": "ok", "from": self.server.address}


class Tourist(MobileAgent):
    """Visits every itinerary stop, queries 'echo', completes at home."""

    code_size = 1024

    def on_arrival(self, ctx):
        if ctx.here != self.home and "echo" in ctx.services_here():
            reply = yield from ctx.ask_service("echo", {"q": 1})
            self.state.setdefault("seen", []).append(reply["from"])
        if self.itinerary.next_stop() is None:
            if ctx.here == self.home:
                ctx.complete(self.state.get("seen", []))
            ctx.return_home()
        ctx.follow_itinerary()
        yield ctx.idle()  # pragma: no cover


class Sleeper(MobileAgent):
    """Dwells at each site (gives management operations a window)."""

    def on_arrival(self, ctx):
        if ctx.here != self.home:
            yield ctx.sleep(float(self.state.get("dwell", 5.0)))
            self.state.setdefault("visited", []).append(ctx.here)
        if self.itinerary.next_stop() is None:
            if ctx.here == self.home:
                ctx.complete(self.state.get("visited", []))
            ctx.return_home()
        ctx.follow_itinerary()
        yield ctx.idle()  # pragma: no cover


class Kamikaze(MobileAgent):
    def on_arrival(self, ctx):
        yield ctx.idle()
        ctx.dispose()


class Resident(MobileAgent):
    """Stays idle; reacts to messages."""

    def on_message(self, ctx, message):
        yield ctx.idle()
        self.state.setdefault("inbox", []).append(message.subject)


class TestRegistry:
    def test_register_and_get(self):
        reg = AgentClassRegistry()
        reg.register(Tourist)
        assert reg.get("Tourist") is Tourist
        assert "Tourist" in reg
        assert reg.names() == ["Tourist"]

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownClassError):
            AgentClassRegistry().get("Ghost")

    def test_non_agent_class_rejected(self):
        reg = AgentClassRegistry()
        with pytest.raises(TypeError):
            reg.register(str)

    def test_conflicting_name_rejected(self):
        reg = AgentClassRegistry()
        reg.register(Tourist)

        class Tourist2(MobileAgent):
            pass

        Tourist2.__name__ = "Tourist"
        with pytest.raises(ValueError):
            reg.register(Tourist2)


class TestLifecycle:
    def test_create_completes_locally(self):
        net, reg, servers = make_world()
        reg.register(Tourist)
        agent = servers["home"].create_agent("Tourist", owner="me")
        done = servers["home"].completion_event(agent.agent_id)
        result = net.sim.run(until=done)
        assert result == []
        assert agent.lifecycle is AgentState.COMPLETED

    def test_full_tour_with_services(self):
        net, reg, servers = make_world()
        reg.register(Tourist)
        servers["site-1"].register_service(Echoer("echo"))
        servers["site-2"].register_service(Echoer("echo"))
        it = Itinerary(origin="home", stops=[Stop("site-1"), Stop("site-2")])
        agent = servers["home"].create_agent("Tourist", owner="me", itinerary=it)
        done = servers["home"].completion_event(agent.agent_id)
        result = net.sim.run(until=done)
        assert result == ["site-1", "site-2"]
        # migration accounting: home->1->2->home
        net.sim.run()
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert counters["agent_hops"] == 3
        assert counters["agents_received"] == 3

    def test_unknown_class_create_raises(self):
        net, reg, servers = make_world()
        with pytest.raises(UnknownClassError):
            servers["home"].create_agent("Ghost", owner="me")

    def test_self_dispose(self):
        net, reg, servers = make_world()
        reg.register(Kamikaze)
        agent = servers["home"].create_agent("Kamikaze", owner="me")
        net.sim.run()
        assert agent.lifecycle is AgentState.DISPOSED
        assert agent.agent_id not in servers["home"].resident_agents()

    def test_dispose_resident(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent("Resident", owner="me")
        net.sim.run()
        assert agent.lifecycle is AgentState.IDLE
        servers["home"].dispose_agent(agent.agent_id)
        assert agent.lifecycle is AgentState.DISPOSED

    def test_dispose_unknown_raises(self):
        net, reg, servers = make_world()
        with pytest.raises(UnknownAgentError):
            servers["home"].dispose_agent("nope")

    def test_agent_ids_unique(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        a = servers["home"].create_agent("Resident", owner="me")
        b = servers["home"].create_agent("Resident", owner="me")
        assert a.agent_id != b.agent_id


class TestStatusTracking:
    def test_home_tracks_location(self):
        net, reg, servers = make_world()
        reg.register(Sleeper)
        it = Itinerary(origin="home", stops=[Stop("site-1"), Stop("site-2")])
        agent = servers["home"].create_agent(
            "Sleeper", owner="me", itinerary=it, state={"dwell": 3.0}
        )
        net.sim.run(until=2.0)
        status = servers["home"].agent_status(agent.agent_id)
        assert status == "remote@site-1"
        done = servers["home"].completion_event(agent.agent_id)
        net.sim.run(until=done)
        assert servers["home"].agent_status(agent.agent_id) == "completed"

    def test_query_status_remote(self):
        net, reg, servers = make_world()
        reg.register(Sleeper)
        it = Itinerary(origin="home", stops=[Stop("site-1")])
        agent = servers["home"].create_agent(
            "Sleeper", owner="me", itinerary=it, state={"dwell": 5.0}
        )
        net.sim.run(until=2.0)
        # ask site-2 (who knows nothing) with home as fallback
        proc = net.sim.process(
            servers["site-2"].query_status(agent.agent_id, home="home")
        )
        status = net.sim.run(until=proc)
        assert status.startswith("remote@") or status == "active"

    def test_status_unknown_raises(self):
        net, reg, servers = make_world()
        with pytest.raises(UnknownAgentError):
            servers["home"].agent_status("ghost")


class TestRetract:
    def test_retract_travelling_agent(self):
        net, reg, servers = make_world()
        reg.register(Sleeper)
        it = Itinerary(origin="home", stops=[Stop("site-1"), Stop("site-2")])
        agent = servers["home"].create_agent(
            "Sleeper", owner="me", itinerary=it, state={"dwell": 30.0}
        )
        net.sim.run(until=2.0)  # now dwelling at site-1

        proc = net.sim.process(servers["home"].retract_agent(agent.agent_id))
        retracted = net.sim.run(until=proc)
        assert retracted.agent_id == agent.agent_id
        assert retracted.lifecycle is AgentState.RETRACTED
        assert retracted.agent_id in servers["home"].resident_agents()
        assert agent.agent_id not in servers["site-1"].resident_agents()
        # the retracted copy carries the partial state
        assert "dwell" in retracted.state

    def test_retract_completed_agent_is_local(self):
        net, reg, servers = make_world()
        reg.register(Tourist)
        agent = servers["home"].create_agent("Tourist", owner="me")
        done = servers["home"].completion_event(agent.agent_id)
        net.sim.run(until=done)
        proc = net.sim.process(servers["home"].retract_agent(agent.agent_id))
        retracted = net.sim.run(until=proc)
        assert retracted is agent


class TestClone:
    def test_clone_local_idle(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent("Resident", owner="me")
        net.sim.run()
        clone = servers["home"].clone_agent(agent.agent_id)
        assert clone.agent_id != agent.agent_id
        assert clone.owner == agent.owner
        assert clone.home == agent.home

    def test_clone_state_is_deep_copied(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent(
            "Resident", owner="me", state={"nested": {"n": 1}, "lst": [1]}
        )
        net.sim.run()
        clone = servers["home"].clone_agent(agent.agent_id)
        clone.state["nested"]["n"] = 99
        clone.state["lst"].append(2)
        assert agent.state["nested"]["n"] == 1
        assert agent.state["lst"] == [1]

    def test_clone_remote_travelling(self):
        net, reg, servers = make_world()
        reg.register(Sleeper)
        it = Itinerary(origin="home", stops=[Stop("site-1"), Stop("site-2")])
        agent = servers["home"].create_agent(
            "Sleeper", owner="me", itinerary=it, state={"dwell": 4.0}
        )
        net.sim.run(until=2.0)
        proc = net.sim.process(servers["home"].clone_anywhere(agent.agent_id))
        clone_id = net.sim.run(until=proc)
        assert clone_id != agent.agent_id
        # both eventually complete back home
        orig_done = servers["home"].completion_event(agent.agent_id)
        clone_done = servers["home"].completion_event(clone_id)
        net.sim.run(until=orig_done)
        net.sim.run(until=clone_done)

    def test_clone_terminal_agent_rejected(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent("Resident", owner="me")
        net.sim.run()
        servers["home"].dispose_agent(agent.agent_id)
        # disposed agents are gone entirely
        with pytest.raises(UnknownAgentError):
            servers["home"].clone_agent(agent.agent_id)


class TestMessaging:
    def test_local_message_triggers_hook(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent("Resident", owner="me")
        net.sim.run()

        proc = net.sim.process(
            servers["home"].send_agent_message("x", agent.agent_id, "hello", {})
        )
        net.sim.run(until=proc)
        net.sim.run()
        assert agent.state.get("inbox") == ["hello"]

    def test_remote_message_routed_via_home_in_agent_id(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        reg.register(Sleeper)
        # a resident at home...
        resident = servers["home"].create_agent("Resident", owner="me")
        net.sim.run()
        # message it from site-1's server: site-1 doesn't track it, but the
        # agent id embeds its home address, so routing goes via home.
        proc = net.sim.process(
            servers["site-1"].send_agent_message("y", resident.agent_id, "s", {})
        )
        assert net.sim.run(until=proc) is True
        net.sim.run()
        assert resident.state.get("inbox") == ["s"]

    def test_message_unknown_recipient_raises(self):
        net, reg, servers = make_world()
        with pytest.raises(UnknownAgentError):
            proc = net.sim.process(
                servers["home"].send_agent_message("a", "ghost", "s", {})
            )
            net.sim.run(until=proc)


class TestServices:
    def test_duplicate_service_rejected(self):
        net, reg, servers = make_world()
        servers["site-1"].register_service(Echoer("echo"))
        with pytest.raises(ValueError):
            servers["site-1"].register_service(Echoer("echo"))

    def test_unknown_service_raises(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent("Resident", owner="me")

        def call():
            reply = yield from servers["home"].invoke_service("nope", agent, {})
            return reply

        proc = net.sim.process(call())
        with pytest.raises(UnknownAgentError):
            net.sim.run(until=proc)

    def test_service_requests_counted(self):
        net, reg, servers = make_world()
        reg.register(Tourist)
        echo = Echoer("echo")
        servers["site-1"].register_service(echo)
        it = Itinerary(origin="home", stops=[Stop("site-1")])
        agent = servers["home"].create_agent("Tourist", owner="me", itinerary=it)
        done = servers["home"].completion_event(agent.agent_id)
        net.sim.run(until=done)
        assert echo.requests_served == 1


class TestWireFormats:
    def test_both_flavours_run_identical_tours(self):
        results = {}
        for flavour in ("aglets", "voyager"):
            net, reg, servers = make_world(flavour=flavour)
            reg.register(Tourist)
            servers["site-1"].register_service(Echoer("echo"))
            servers["site-2"].register_service(Echoer("echo"))
            it = Itinerary(origin="home", stops=[Stop("site-1"), Stop("site-2")])
            agent = servers["home"].create_agent("Tourist", owner="me", itinerary=it)
            done = servers["home"].completion_event(agent.agent_id)
            results[flavour] = net.sim.run(until=done)
        assert results["aglets"] == results["voyager"]

    def test_voyager_wire_is_larger(self):
        agent = Tourist("h/1", "o", "h", state={"seen": ["a", "b"]})
        aglets = AgletsWireFormat().encode(agent)
        voyager = VoyagerWireFormat().encode(agent)
        assert len(voyager) > len(aglets)

    def test_wire_format_roundtrip(self):
        agent = Tourist("h/1", "o", "h", state={"seen": ["a"]})
        for fmt in (AgletsWireFormat(), VoyagerWireFormat()):
            snap = fmt.decode(fmt.encode(agent))
            assert snap.agent_id == "h/1"
            assert snap.state == {"seen": ["a"]}

    def test_wire_format_rejects_garbage(self):
        from repro.mas import MigrationError

        for fmt in (AgletsWireFormat(), VoyagerWireFormat()):
            with pytest.raises(MigrationError):
                fmt.decode(b"garbage")

    def test_unknown_flavour_raises(self):
        with pytest.raises(KeyError):
            wire_format_by_name("corba")


class TestDeactivation:
    def test_deactivate_and_activate_roundtrip(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent(
            "Resident", owner="me", state={"inbox": [], "k": 42}
        )
        net.sim.run()
        stored = servers["home"].deactivate_agent(agent.agent_id)
        assert stored > 0
        assert agent.agent_id not in servers["home"].resident_agents()
        assert servers["home"].agent_status(agent.agent_id) == "deactivated"
        restored = servers["home"].activate_agent(agent.agent_id)
        assert restored.agent_id == agent.agent_id
        assert restored.state["k"] == 42
        assert restored.lifecycle is AgentState.IDLE

    def test_deactivate_active_agent_rejected(self):
        net, reg, servers = make_world()
        reg.register(Sleeper)
        it = Itinerary(origin="home", stops=[Stop("site-1")])
        agent = servers["home"].create_agent(
            "Sleeper", owner="me", itinerary=it, state={"dwell": 10.0}
        )
        net.sim.run(until=1.0)
        # agent is dwelling (ACTIVE) at site-1
        with pytest.raises(AgentBusyError):
            servers["site-1"].deactivate_agent(agent.agent_id)

    def test_activate_unknown_raises(self):
        net, reg, servers = make_world()
        with pytest.raises(UnknownAgentError):
            servers["home"].activate_agent("ghost")

    def test_message_wakes_deactivated_agent(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        agent = servers["home"].create_agent("Resident", owner="me")
        net.sim.run()
        servers["home"].deactivate_agent(agent.agent_id)

        proc = net.sim.process(
            servers["home"].send_agent_message("x", agent.agent_id, "wake", {})
        )
        assert net.sim.run(until=proc) is True
        net.sim.run()
        # the *restored* instance got the message
        restored = servers["home"].get_agent(agent.agent_id)
        assert restored.state.get("inbox") == ["wake"]

    def test_deactivated_excluded_from_residents(self):
        net, reg, servers = make_world()
        reg.register(Resident)
        a = servers["home"].create_agent("Resident", owner="me")
        b = servers["home"].create_agent("Resident", owner="me")
        net.sim.run()
        servers["home"].deactivate_agent(a.agent_id)
        assert servers["home"].resident_agents() == [b.agent_id]


class Finisher(MobileAgent):
    """Completes at its first stop away from home."""

    def on_arrival(self, ctx):
        yield ctx.idle()
        if ctx.here != self.home:
            ctx.complete(ctx.here)
        ctx.follow_itinerary()


class RemoteFinisher(MobileAgent):
    """Dwells at its first stop away from home and completes there."""

    def on_arrival(self, ctx):
        if ctx.here != self.home:
            yield ctx.sleep(float(self.state.get("dwell", 5.0)))
            ctx.complete([ctx.here])
        if self.itinerary.next_stop() is None:
            ctx.complete("re-run at home")
        ctx.follow_itinerary()
        yield ctx.idle()  # pragma: no cover


class TestCheckpointRelease:
    """A home drops an agent's checkpoint once the agent completes there:
    the agent is then resident, so nothing reads the checkpoint again."""

    def _tour(self, cls):
        net, reg, servers = make_world()
        reg.register(cls)
        home = servers["home"]
        it = Itinerary(origin="home", stops=[Stop("site-1")])
        agent = home.create_agent(cls.__name__, owner="me", itinerary=it, guardian=True)
        net.sim.run()
        return net, home, agent.agent_id

    def test_completion_at_home_leaves_no_checkpoint(self):
        net, home, agent_id = self._tour(Tourist)
        assert home.agent_status(agent_id) == "completed"
        assert agent_id not in home._checkpoints
        assert home.hop_progress_of(agent_id) == (1, 0)  # from the resident agent
        home.crash()  # disposes of the agent; its hop counts stay
        assert home.hop_progress_of(agent_id) == (1, 0)

    def test_late_checkpoint_counts_but_is_not_kept(self):
        net, home, agent_id = self._tour(Tourist)
        before = net.telemetry.metrics.snapshot()["counters"]["agent_checkpoints"]
        progress = home._progress[agent_id]
        net.send_datagram(
            "site-1",
            "home",
            payload={
                "type": "notify_arrival",
                "agent_id": agent_id,
                "location": "site-1",
                "checkpoint": b"late",
            },
            size=96,
        )
        net.sim.run()
        after = net.telemetry.metrics.snapshot()["counters"]["agent_checkpoints"]
        assert after == before + 1
        assert home._progress[agent_id] == progress + 1
        assert agent_id not in home._checkpoints

    def test_completion_reported_from_another_site_keeps_checkpoint(self):
        net, home, agent_id = self._tour(Finisher)
        assert home.result_of(agent_id) == "site-1"
        assert agent_id not in home.resident_agents()
        _, location, _ = home._checkpoints[agent_id]
        assert location == "site-1"
        assert home.hop_progress_of(agent_id) == (1, 0)  # from the checkpoint

    @pytest.mark.parametrize("cls", [Sleeper, RemoteFinisher])
    def test_guardian_does_not_rerun_an_agent_that_completed_while_it_probed(
        self, monkeypatch, cls
    ):
        """The guardian finds no progress at its 30 s wake and probes the
        agent's last site, which answers nothing for 10 s.  Meanwhile the
        agent completes, at home or at that site.  The probe then reads the
        site as dead, but the guardian sees the completion and stops, so
        the agent runs once."""
        net, reg, servers = make_world()
        reg.register(cls)
        home = servers["home"]
        probes = []

        def silent_probe(address):
            probes.append(net.sim.now)
            yield net.sim.timeout(home.dispatch_timeout)
            return False

        monkeypatch.setattr(home, "_site_alive", silent_probe)
        guardians = []
        start = net.sim.process

        def start_and_keep(generator, name=None):
            proc = start(generator, name=name)
            if name.startswith("mas-guardian:"):
                guardians.append(proc)
            return proc

        monkeypatch.setattr(net.sim, "process", start_and_keep)
        it = Itinerary(origin="home", stops=[Stop("site-1")])
        agent = home.create_agent(
            cls.__name__, owner="me", itinerary=it, state={"dwell": 35.0}, guardian=True
        )
        net.sim.run()
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert probes == [30.0]
        (guardian,) = guardians
        assert guardian.processed and guardian.ok  # returned; did not raise
        assert home.result_of(agent.agent_id) == ["site-1"]
        assert counters["agents_completed"] == 1
        assert "agents_redispatched" not in counters
