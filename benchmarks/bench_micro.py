"""Micro-benchmarks (M1) — substrate throughput.

These catch performance regressions in the hot paths every experiment runs
through: the event kernel, an HTTP round trip over the transport, agent
migration, the agent wire form, XML encode/parse, and MD5.
"""

from repro.apps.ebanking import EBankingAgent, make_transactions
from repro.crypto import md5
from repro.mas import (
    AgentClassRegistry,
    Itinerary,
    MobileAgent,
    MobileAgentServer,
    Stop,
    deserialize_agent,
    serialize_agent,
)
from repro.simnet import HttpResponse, HttpServer, LinkSpec, Network, Simulator, request
from repro.telemetry.spans import SpanContext
from repro.xmlcodec import Element, parse, write


def test_kernel_event_throughput(benchmark):
    """Schedule-and-process cost for 10k timeout events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.timeout(float(i % 97))
        sim.run()
        return sim.events_processed

    processed = benchmark(run)
    assert processed == 10_000


def test_kernel_process_chain(benchmark):
    """1k chained processes (each waits on its predecessor)."""

    def run():
        sim = Simulator()

        def link(prev):
            if prev is not None:
                yield prev
            yield sim.timeout(0.001)
            return True

        prev = None
        for _ in range(1_000):
            prev = sim.process(link(prev))
        sim.run()
        return prev.value

    assert benchmark(run) is True


def test_http_round_trip_throughput(benchmark):
    """1k ``request()`` round trips over a two-hop path: a lossy GPRS-like
    hop with exponential jitter, then a lossless LAN-like hop with normal
    jitter (connect, request, response and close each sample both hops)."""

    def run():
        net = Network(master_seed=0)
        for name in ("client", "router", "server"):
            net.add_node(name)
        net.add_duplex_link(
            "client",
            "router",
            LinkSpec(latency=0.3, bandwidth=4_000, jitter=0.12, loss=0.02, rto=1.5),
        )
        net.add_duplex_link(
            "router",
            "server",
            LinkSpec(latency=0.002, bandwidth=1_250_000, jitter=0.0005, jitter_model="normal"),
        )
        server = HttpServer(net.node("server"))
        server.route("/ping", lambda req: HttpResponse(200, body=b"pong", body_size=4))

        def client():
            ok = 0
            for _ in range(1_000):
                resp = yield from request(net, "client", "server", "GET", "/ping")
                ok += resp.ok
            return ok

        ok = net.sim.run(until=net.sim.process(client()))
        return ok, net.link("client", "router").retransmissions

    ok, retransmissions = benchmark(run)
    assert ok == 1_000
    assert retransmissions > 0  # the loss path ran


class _Hopper(MobileAgent):
    code_size = 2048

    def on_arrival(self, ctx):
        if self.itinerary.next_stop() is None:
            if ctx.here == self.home:
                ctx.complete(self.hops)
            ctx.return_home()
        ctx.follow_itinerary()
        yield ctx.idle()  # pragma: no cover


def test_agent_migration_throughput(benchmark):
    """An agent doing a 20-hop tour (serialize + transfer + land, x20)."""

    def run():
        net = Network(master_seed=0)
        reg = AgentClassRegistry()
        reg.register(_Hopper)
        names = [f"s{i}" for i in range(5)]
        for name in names:
            net.add_node(name)
        fast = LinkSpec(latency=0.001, bandwidth=10_000_000)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                net.add_duplex_link(a, b, fast)
        servers = {n: MobileAgentServer(net, n, reg) for n in names}
        stops = [Stop(names[(i % 4) + 1]) for i in range(20)]
        agent = servers["s0"].create_agent(
            "_Hopper", owner="bench", itinerary=Itinerary(origin="s0", stops=stops)
        )
        done = servers["s0"].completion_event(agent.agent_id)
        return net.sim.run(until=done)

    hops = benchmark.pedantic(run, rounds=3, iterations=1)
    assert hops == 21  # 20 stops + return home


def _banking_agent():
    """The paper figures' largest agent: home again after its tour with 10
    transactions and their 10 results."""
    transactions = make_transactions(["bank-a", "bank-b"], 10)
    results = [
        {
            "status": "ok",
            "bank": txn["bank"],
            "account": txn["account"],
            "amount": txn["amount"],
            "dest": txn["dest"],
            "new_balance": 10_000.0 - 25.0 * i,
            "txn_id": txn["txn_id"],
        }
        for i, txn in enumerate(transactions)
    ]
    agent = EBankingAgent(
        "gw-0/agent-1",
        "pda",
        "gw-0",
        itinerary=Itinerary(origin="gw-0", stops=[Stop("bank-a"), Stop("bank-b")], cursor=2),
        state={"params": {"transactions": transactions}, "results": results},
    )
    agent.hops = 3
    agent.trace_ctx = SpanContext("trace-1", "span-7")
    return agent


def test_agent_wire_roundtrip_throughput(benchmark):
    """Serialise an agent to its wire form and read it back."""
    agent = _banking_agent()
    snap = benchmark(lambda: deserialize_agent(serialize_agent(agent)))
    assert (snap.agent_id, snap.class_name, snap.owner, snap.home) == (
        agent.agent_id,
        agent.class_name,
        agent.owner,
        agent.home,
    )
    assert (snap.hops, snap.code_size, snap.trace) == (3, 3072, agent.trace_ctx)
    assert snap.itinerary.to_dict() == agent.itinerary.to_dict()
    assert snap.state == agent.state


def _xml_doc():
    root = Element("pi", {"version": "1"})
    for i in range(50):
        t = root.add("transaction", {"id": str(i)})
        t.add("amount", text=str(100 + i))
        t.add("dest", text=f"bank-{i % 3}")
    return root


def test_xml_write_throughput(benchmark):
    doc = _xml_doc()
    out = benchmark(write, doc)
    assert len(out) > 1000


def test_xml_parse_throughput(benchmark):
    text = write(_xml_doc())
    root = benchmark(parse, text)
    assert len(root) == 50


def test_md5_throughput(benchmark):
    data = b"x" * 65536
    digest = benchmark(md5, data)
    assert len(digest) == 16
