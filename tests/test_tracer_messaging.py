"""Tests for the tracer (counters/series/ledger edge cases) and the MAS
remote-messaging path."""

import random
from types import SimpleNamespace

import pytest

from repro.mas import (
    AgentClassRegistry,
    AgentState,
    Itinerary,
    MobileAgent,
    MobileAgentServer,
    Stop,
)
from repro.simnet import LinkSpec, Network
from repro.simnet.trace import Tracer


class TestTracer:
    @pytest.fixture
    def net(self):
        return Network(master_seed=0)

    def test_counters(self, net):
        net.tracer.count("x")
        net.tracer.count("x", 4)
        assert net.tracer.counters["x"] == 5
        assert net.tracer.counters["never"] == 0  # defaultdict

    def test_series(self, net):
        net.tracer.record("s", 1.0)
        net.sim.timeout(2.0)
        net.sim.run()
        net.tracer.record("s", 3.0)
        times, values = net.tracer.series("s")
        assert times == [0.0, 2.0]
        assert values == [1.0, 3.0]
        assert net.tracer.series("unknown") == ([], [])

    def test_reset(self, net):
        net.tracer.count("x")
        net.tracer.record("s", 1.0)
        net.tracer.open_connection("a", "b")
        net.tracer.reset()
        assert not net.tracer.counters
        assert net.tracer.series("s") == ([], [])
        assert net.tracer.connections == []

    def test_open_connection_duration_needs_now(self, net):
        rec = net.tracer.open_connection("a", "b")
        with pytest.raises(ValueError):
            rec.duration()
        assert rec.duration(now=5.0) == 5.0
        assert rec.open

    def test_double_close_raises(self, net):
        rec = net.tracer.open_connection("a", "b")
        net.tracer.close_connection(rec)
        with pytest.raises(ValueError):
            net.tracer.close_connection(rec)

    def test_bytes_transferred_filtering(self, net):
        rec = net.tracer.open_connection("a", "b")
        rec.bytes_sent = 100
        rec.bytes_received = 50
        other = net.tracer.open_connection("z", "b")
        other.bytes_sent = 999
        assert net.tracer.bytes_transferred("a") == (100, 50)

    def test_ledger_queries_match_full_scan(self):
        """The per-initiator queries answer exactly what a scan of the whole
        ledger does (float sums bit for bit), with ``since`` cut-offs and
        still-open connections in the mix, before and after a reset."""
        rng = random.Random(7)
        clock = SimpleNamespace(now=0.0)
        tracer = Tracer(clock)
        initiators = ["a", "b", "c", "d"]

        def full_scan(initiator, since):
            recs = [
                r for r in tracer.connections
                if r.initiator == initiator and r.opened_at >= since
            ]
            total = 0.0
            for r in recs:
                total += r.duration(now=clock.now)
            sent = sum(r.bytes_sent for r in recs)
            received = sum(r.bytes_received for r in recs)
            return total, len(recs), (sent, received)

        for _ in range(2):
            still_open = []
            for _ in range(400):
                clock.now += rng.expovariate(10.0)
                if still_open and rng.random() < 0.45:
                    rec = still_open.pop(rng.randrange(len(still_open)))
                    tracer.close_connection(rec)
                else:
                    rec = tracer.open_connection(rng.choice(initiators), "peer")
                    rec.bytes_sent = rng.randrange(10_000)
                    rec.bytes_received = rng.randrange(10_000)
                    still_open.append(rec)
            assert still_open
            cutoffs = [0.0, clock.now / 2, clock.now + 1.0]
            cutoffs += [rng.choice(tracer.connections).opened_at for _ in range(5)]
            for initiator in initiators + ["nobody"]:
                for since in cutoffs:
                    got = (
                        tracer.connection_time(initiator, since),
                        tracer.connection_count(initiator, since),
                        tracer.bytes_transferred(initiator, since),
                    )
                    assert got == full_scan(initiator, since), (initiator, since)
            tracer.reset()
            assert tracer.connection_count("a") == 0
            assert tracer.connection_time("a") == 0.0


class Homebody(MobileAgent):
    """Stays at home, records messages."""

    def on_message(self, ctx, message):
        yield ctx.idle()
        self.state.setdefault("got", []).append(message.body.get("n"))


class Roamer(MobileAgent):
    """Travels to a site, then messages a home-resident agent from there."""

    def on_arrival(self, ctx):
        if ctx.here != self.home:
            target = self.state["target"]
            delivered = yield from ctx.send_message(target, "hi", {"n": 7})
            self.state["delivered"] = bool(delivered)
            ctx.complete({"delivered": self.state["delivered"]})
        ctx.follow_itinerary()
        yield ctx.idle()  # pragma: no cover


class TestRemoteMessaging:
    def make_world(self):
        net = Network(master_seed=9)
        reg = AgentClassRegistry()
        reg.register(Homebody)
        reg.register(Roamer)
        for name in ("home", "site"):
            net.add_node(name)
        net.add_duplex_link("home", "site", LinkSpec(latency=0.02, bandwidth=1e6))
        servers = {n: MobileAgentServer(net, n, reg) for n in ("home", "site")}
        return net, servers

    def test_travelling_agent_messages_home_resident(self):
        """A roamer at a remote site reaches a home resident via the home
        address embedded in the recipient's agent id."""
        net, servers = self.make_world()
        resident = servers["home"].create_agent("Homebody", owner="u")
        net.sim.run()
        assert resident.lifecycle is AgentState.IDLE

        roamer = servers["home"].create_agent(
            "Roamer",
            owner="u",
            itinerary=Itinerary(origin="home", stops=[Stop("site")]),
            state={"target": resident.agent_id},
        )
        done = servers["home"].completion_event(roamer.agent_id)
        result = net.sim.run(until=done)
        assert result["delivered"] is True
        net.sim.run()  # let the message hook finish
        assert resident.state.get("got") == [7]

    def test_home_routes_message_to_travelling_agent(self):
        """Home knows its travellers' locations and forwards to them."""
        net, servers = self.make_world()

        class Sitter(MobileAgent):
            def on_arrival(self, ctx):
                if ctx.here != self.home:
                    # wait remotely for a message, then complete with it
                    msg = yield ctx.receive("ping")
                    ctx.complete({"body": msg.body})
                ctx.follow_itinerary()
                yield ctx.idle()  # pragma: no cover

        servers["home"].registry.register(Sitter)
        agent = servers["home"].create_agent(
            "Sitter",
            owner="u",
            itinerary=Itinerary(origin="home", stops=[Stop("site")]),
        )
        net.sim.run(until=1.0)  # let it arrive and start waiting

        def send():
            # ask *home* to deliver: it forwards to the tracked location
            ok = yield from servers["home"].send_agent_message(
                "console", agent.agent_id, "ping", {"n": 1}
            )
            return ok

        proc = net.sim.process(send())
        ok = net.sim.run(until=proc)
        assert ok is True
        done = servers["home"].completion_event(agent.agent_id)
        result = net.sim.run(until=done)
        assert result["body"] == {"n": 1}

    def test_yield_from_event_supported(self):
        """Events compose with ``yield from`` (iterator protocol)."""
        net, _ = self.make_world()
        sim = net.sim

        def flow():
            value = yield from sim.timeout(1.0, value="via-iter")
            return value

        proc = sim.process(flow())
        assert sim.run(until=proc) == "via-iter"

    def test_message_to_truly_unknown_agent_raises(self):
        from repro.mas import UnknownAgentError

        net, servers = self.make_world()

        def send():
            yield from servers["site"].send_agent_message(
                "x", "nonexistent-agent-id", "s", {}
            )

        proc = net.sim.process(send())
        with pytest.raises(UnknownAgentError):
            net.sim.run(until=proc)

    def test_message_to_unknown_at_home_returns_false(self):
        net, servers = self.make_world()

        def send():
            ok = yield from servers["site"].send_agent_message(
                "x", "home/agent-999", "s", {}
            )
            return ok

        proc = net.sim.process(send())
        assert net.sim.run(until=proc) is False
