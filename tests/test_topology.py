"""Tests for links, routing, datagrams, and path-delay sampling."""

import re
import signal
from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeploymentBuilder
from repro.device import link_profile
from repro.simnet import LinkSpec, Network, Node, NoRouteError
from repro.simnet.rng import _derive_seed


def spec(latency=0.01, bandwidth=1e6, **kw):
    return LinkSpec(latency=latency, bandwidth=bandwidth, **kw)


class TestLinkSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, jitter=-1)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, loss=1.0)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, jitter_model="weird")
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, setup_time=-0.1)

    @pytest.mark.parametrize("field", ["latency", "bandwidth", "jitter", "setup_time", "rto"])
    def test_nan_refused(self, field):
        """NaN fails every ordered comparison, so a check written as
        ``value < 0`` lets it through; a NaN latency would become a routing
        weight and surface only as a NaN timeout at the first transfer."""
        with pytest.raises(ValueError, match=field):
            spec(**{field: float("nan")})

    def test_no_jitter_is_deterministic(self):
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", spec(latency=0.5))
        assert link.spec.sample_latency(link.stream) == 0.5

    def test_exponential_jitter_adds(self):
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", spec(latency=0.5, jitter=0.1))
        samples = [link.spec.sample_latency(link.stream) for _ in range(100)]
        assert all(s >= 0.5 for s in samples)
        assert any(s > 0.5 for s in samples)

    def test_normal_jitter_truncated_at_zero(self):
        s = spec(latency=0.001, jitter=1.0, jitter_model="normal")
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", s)
        assert all(link.spec.sample_latency(link.stream) >= 0 for _ in range(200))

    def test_scaled(self):
        s = spec(latency=0.1, bandwidth=1000, jitter=0.02)
        s2 = s.scaled(latency_factor=2.0, bandwidth_factor=0.5)
        assert s2.latency == pytest.approx(0.2)
        assert s2.jitter == pytest.approx(0.04)
        assert s2.bandwidth == pytest.approx(500)


class TestTopology:
    @pytest.fixture
    def net(self):
        net = Network(master_seed=1)
        for name in ("a", "b", "c", "d"):
            net.add_node(name)
        net.add_duplex_link("a", "b", spec(latency=0.01))
        net.add_duplex_link("b", "c", spec(latency=0.01))
        net.add_duplex_link("a", "c", spec(latency=0.1))  # slow shortcut
        net.add_duplex_link("c", "d", spec(latency=0.01))
        return net

    def test_duplicate_node_raises(self, net):
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_unknown_node_raises(self, net):
        with pytest.raises(KeyError):
            net.node("zzz")

    def test_self_link_raises(self, net):
        with pytest.raises(ValueError):
            net.add_link("a", "a", spec())

    def test_duplicate_link_raises(self, net):
        with pytest.raises(ValueError):
            net.add_link("a", "b", spec())

    def test_route_prefers_low_latency(self, net):
        # a->b->c (0.02) beats direct a->c (0.1)
        assert net.route("a", "c") == ["a", "b", "c"]

    def test_route_to_self(self, net):
        assert net.route("a", "a") == ["a"]

    def test_no_route_raises(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        with pytest.raises(NoRouteError):
            net.route("x", "y")

    def test_link_down_reroutes(self, net):
        net.set_link_state("a", "b", up=False)
        assert net.route("a", "c") == ["a", "c"]
        net.set_link_state("a", "b", up=True)
        assert net.route("a", "c") == ["a", "b", "c"]

    def test_leaf_off_a_cycle_matches_networkx(self, net):
        """d hangs off the a-b-c cycle: its link is peeled and the cycle
        still searched, before and after the shortcut gets faster."""
        assert_routes_match_networkx(net)
        assert net.route("d", "a") == ["d", "c", "b", "a"]
        net.update_link_spec("a", "c", spec(latency=0.005))
        net.update_link_spec("c", "a", spec(latency=0.005))
        assert_routes_match_networkx(net)
        assert net.route("d", "a") == ["d", "c", "a"]

    def test_sample_path_delay_accounts_bytes(self, net):
        delay, retries = net.sample_path_delay("a", "b", 1_000_000)
        assert retries == 0
        assert delay >= 1.0  # 1 MB over 1 MB/s

    def test_node_compute_scales(self):
        net = Network()
        node = net.add_node(Node("slow", cpu_factor=10.0))
        ev = node.compute(0.5)
        net.sim.run()
        assert net.sim.now == pytest.approx(5.0)

    def test_unattached_node_compute_raises(self):
        node = Node("orphan")
        with pytest.raises(RuntimeError):
            node.compute(1.0)

    def test_invalid_cpu_factor(self):
        with pytest.raises(ValueError):
            Node("bad", cpu_factor=0)


class TestDatagramsAndPing:
    @pytest.fixture
    def net(self):
        net = Network(master_seed=5)
        net.add_node("a")
        net.add_node("b")
        net.add_duplex_link("a", "b", spec(latency=0.2))
        return net

    def test_datagram_delivery(self, net):
        net.send_datagram("a", "b", payload={"hello": 1}, size=1)

        def consumer():
            dgram = yield net.node("b").datagrams.get()
            return dgram

        proc = net.sim.process(consumer())
        dgram = net.sim.run(until=proc)
        assert dgram.payload == {"hello": 1}
        assert net.sim.now >= 0.2

    def test_unroutable_datagram_is_dropped(self, net):
        """A datagram to a node cut off from the sender is dropped: its
        delivery process ends ok, and a routable datagram still lands."""
        net.add_node("c")
        net.add_duplex_link("b", "c", spec())
        net.set_link_state("b", "c", up=False)
        lost = net.send_datagram("a", "c", payload="lost")
        kept = net.send_datagram("a", "b", payload="kept")
        net.sim.run()
        assert lost.ok and lost.value is None
        assert kept.ok
        assert [d.payload for d in net.node("b").datagrams.items] == ["kept"]
        assert len(net.node("c").datagrams) == 0
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert counters["datagrams_delivered"] == 1

    def test_ping_measures_rtt(self, net):
        proc = net.sim.process(net.ping("a", "b"))
        rtt = net.sim.run(until=proc)
        # 2 x 0.2 s latency plus the 1-byte serialisation at 1 MB/s
        assert rtt == pytest.approx(0.4, abs=1e-3)

    def test_ping_reflects_jitter(self):
        net = Network(master_seed=6)
        net.add_node("a")
        net.add_node("b")
        net.add_duplex_link("a", "b", spec(latency=0.2, jitter=0.3))
        rtts = []
        for _ in range(5):
            proc = net.sim.process(net.ping("a", "b"))
            rtts.append(net.sim.run(until=proc))
        assert len(set(rtts)) > 1
        assert all(r >= 0.4 for r in rtts)

    def test_loss_forces_retries(self):
        net = Network(master_seed=7)
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", spec(latency=0.01, loss=0.5, rto=1.0))
        total_retries = 0
        for _ in range(50):
            _, retries = net.sample_path_delay("a", "b", 10)
            total_retries += retries
        assert total_retries > 0

    def test_link_accounting(self, net):
        net.sample_path_delay("a", "b", 500)
        link = net.link("a", "b")
        assert link.bytes_carried == 500
        assert link.transfers == 1


class TestPathDelayDrawOrder:
    def test_draws_replay_link_by_link(self):
        """Each link's stream draws loss until a success, then one jitter
        sample, link by link: every (delay, retries) equals a replay from
        generators built straight from the derived seeds.  A lossless link
        draws no loss, and a lossless link without jitter draws nothing, so
        its stream never builds a generator."""
        master = 21
        net = Network(master_seed=master)
        for name in ("a", "b", "c", "d"):
            net.add_node(name)
        lossy = net.add_link(
            "a", "b", spec(latency=0.3, bandwidth=4000, jitter=0.12, loss=0.4, rto=1.5)
        )
        normal = net.add_link(
            "b", "c", spec(latency=0.002, bandwidth=1.25e6, jitter=0.0005, jitter_model="normal")
        )
        quiet = net.add_link("c", "d", spec(latency=0.05, bandwidth=1e5))
        lossy_rng, normal_rng = (
            np.random.default_rng(_derive_seed(master, f"link:{link.src}->{link.dst}"))
            for link in (lossy, normal)
        )
        sizes = range(0, 4000, 97)
        total_retries = 0
        for size in sizes:
            expected, expected_retries = 0.0, 0
            while lossy_rng.random() < 0.4:
                expected_retries += 1
                expected += 1.5
            expected += 0.3 + lossy_rng.exponential(0.12)
            expected += max(0.0, normal_rng.normal(0.002, 0.0005))
            expected += 0.05
            expected += size / 4000
            assert net.sample_path_delay("a", "d", size) == (expected, expected_retries)
            total_retries += expected_retries
        assert total_retries > 0
        assert quiet.stream._gen is None
        assert [(l.transfers, l.retransmissions) for l in (lossy, normal, quiet)] == [
            (len(sizes), total_retries),
            (len(sizes), 0),
            (len(sizes), 0),
        ]
        assert {l.bytes_carried for l in (lossy, normal, quiet)} == {sum(sizes)}


def assert_routes_match_networkx(net):
    """Every ordered node pair routes as networkx's weighted shortest path;
    where networkx finds none, ``route`` raises NoRouteError naming both
    endpoints (the message reaches exported spans).  The oracle builds its
    graph from the public node and link tables, never from the network's
    routing maps, so a stale map cannot vouch for itself."""
    graph = nx.DiGraph()
    graph.add_nodes_from(node.address for node in net.nodes)
    graph.add_weighted_edges_from(
        (link.src, link.dst, link.spec.latency) for link in net.links if link.up
    )
    nodes = sorted(graph)
    for s in nodes:
        for d in nodes:
            try:
                expected = nx.shortest_path(graph, s, d, weight="weight")
            except nx.NetworkXNoPath:
                message = f"^{re.escape(f'no route {s} -> {d}')}$"
                with pytest.raises(NoRouteError, match=message):
                    net.route(s, d)
            else:
                assert net.route(s, d) == expected, (s, d)


@pytest.fixture
def searches(monkeypatch):
    """The (src, dst) pairs ``Network._search`` is asked for, in order."""
    asked = []
    search = Network._search

    def counted(self, src, dst):
        asked.append((src, dst))
        return search(self, src, dst)

    monkeypatch.setattr(Network, "_search", counted)
    return asked


class TestRoutePins:
    """``Network.route`` against networkx on the shapes deployments build."""

    @staticmethod
    def _star():
        """DeploymentBuilder's star: everything hangs off the backbone."""
        builder = DeploymentBuilder(master_seed=0)
        builder.add_central("central")
        for g in range(3):
            builder.add_gateway(f"gw-{g}")
        builder.add_site("bank-a")
        for i in range(4):
            builder.add_device(f"dev-{i}", wireless="WLAN")
        return builder.network

    @staticmethod
    def _ap_cells():
        """The simtest harness's shape: devices attach to access-point
        routers, which hang off the backbone.  ap-0 serves one device and
        ap-2 none."""
        builder = DeploymentBuilder(master_seed=0)
        builder.add_central("central")
        for g in range(2):
            builder.add_gateway(f"gw-{g}")
        builder.add_site("bank-a")
        for j in range(3):
            builder.add_access_point(f"ap-{j}")
        for i, ap in enumerate((0, 1, 1, 1)):
            builder.add_device(f"dev-{i}", wireless="WLAN", attach_to=f"ap-{ap}")
        return builder.build()

    def test_star(self):
        assert_routes_match_networkx(self._star())

    def test_ap_cells(self):
        dep = self._ap_cells()
        assert_routes_match_networkx(dep.network)
        assert dep.network.route("dev-0", "dev-3") == [
            "dev-0", "ap-0", "backbone", "ap-1", "dev-3",
        ]

    def test_ap_cell_cores_need_no_search(self, searches):
        """A LAN uplink is faster than every WLAN link out of its AP, and
        the backbone's LAN downlink faster than every WLAN link into it, so
        each (ap, backbone) core is settled both ways by its direct link.
        Only a route between two cells, whose (ap, ap') core has no direct
        link, is left to a search."""
        net = self._ap_cells().network
        wired = ("central", "gw-0", "gw-1", "bank-a")
        for dev in ("dev-0", "dev-1", "dev-2", "dev-3"):
            for host in wired:
                net.route(dev, host)
                net.route(host, dev)
        assert searches == []
        for ap in ("ap-0", "ap-1"):
            assert net._routes[(ap, "backbone")] == [ap, "backbone"]
            assert net._routes[("backbone", ap)] == ["backbone", ap]
        assert_routes_match_networkx(net)
        assert set(searches) == {("ap-0", "ap-1"), ("ap-1", "ap-0")}

    @pytest.mark.parametrize(
        "down, src, dst",
        [
            (("dev-1", "ap-1"), "dev-1", "gw-0"),
            (("ap-1", "dev-1"), "gw-0", "dev-1"),
        ],
        ids=["source-has-no-out-link", "destination-has-no-in-link"],
    )
    def test_core_with_a_dead_end_needs_no_search(self, searches, down, src, dst):
        """A core whose source has no link out, or whose destination has no
        link in, has no route; that takes no search to know."""
        net = self._ap_cells().network
        net.set_link_state(*down, up=False)
        with pytest.raises(NoRouteError, match=f"^no route {src} -> {dst}$"):
            net.route(src, dst)
        assert searches == []
        assert_routes_match_networkx(net)

    def test_core_with_no_route_is_searched_once(self, searches):
        """With ap-1's uplink down its three devices still link to it, so the
        ``(ap-1, backbone)`` core is searched.  The search finds no route,
        and the core stays cached as such until the topology changes: every
        route through it, that pair's own included, misses without another
        search, and after a link changes state the next miss searches
        again.  (ap-0 serves one device, so its cut is a closed loop that
        needs no search.)"""
        net = self._ap_cells().network
        net.set_link_state("ap-1", "backbone", up=False)
        for src, dst in [
            ("dev-1", "gw-0"), ("dev-1", "gw-0"), ("dev-2", "central"),
            ("ap-1", "backbone"), ("ap-1", "backbone"),
        ]:
            with pytest.raises(NoRouteError, match=f"^no route {src} -> {dst}$"):
                net.route(src, dst)
        assert searches == [("ap-1", "backbone")]
        net.set_link_state("gw-1", "backbone", up=False)
        with pytest.raises(NoRouteError):
            net.route("dev-1", "gw-0")
        assert searches == [("ap-1", "backbone")] * 2

    @pytest.mark.parametrize(
        "a_to_x, x_to_b",
        [(0.01, 0.0), (0.0, 0.01)],
        ids=["first-hop-ties", "last-hop-ties"],
    )
    def test_direct_link_that_ties_is_searched(self, searches, a_to_x, x_to_b):
        """``a -> x -> b`` is exactly as long as the direct ``a -> b`` link:
        x's zero-latency link makes the other path tie on its first hop out
        of a, or on its last hop into b.  The direct link is then not the
        unique shortest path, so the core is searched."""
        net = Network()
        for name in ("a", "b", "x"):
            net.add_node(name)
        net.add_link("a", "b", spec(latency=0.01))
        net.add_link("a", "x", spec(latency=a_to_x))
        net.add_link("x", "b", spec(latency=x_to_b))
        assert net.route("a", "b") in (["a", "b"], ["a", "x", "b"])
        assert searches == [("a", "b")]

    def test_after_handover(self):
        dep = self._ap_cells()
        assert_routes_match_networkx(dep.network)  # warm the route cache
        dep.devices["dev-1"].move_to("ap-2", link_profile("WLAN"))
        assert_routes_match_networkx(dep.network)
        assert dep.network.route("gw-0", "dev-1") == [
            "gw-0", "backbone", "ap-2", "dev-1",
        ]

    @pytest.mark.parametrize(
        "down",
        [
            [("ap-0", "backbone"), ("backbone", "ap-0")],
            [("ap-0", "backbone")],
            [("backbone", "ap-0")],
        ],
        ids=["both-directions", "uplink-only", "downlink-only"],
    )
    def test_ap_uplink_down(self, down):
        """With ap-0 cut off, its one device and the AP form a closed
        pair: routes out of (or into) it fail instead of looping."""
        net = self._ap_cells().network
        assert_routes_match_networkx(net)
        for src, dst in down:
            net.set_link_state(src, dst, up=False)
        assert_routes_match_networkx(net)
        outward = ("ap-0", "backbone") in down
        src, dst = ("dev-0", "gw-0") if outward else ("gw-0", "dev-0")
        with pytest.raises(NoRouteError):
            net.route(src, dst)

    def test_after_update_link_spec(self):
        net = self._ap_cells().network
        assert_routes_match_networkx(net)
        net.update_link_spec("ap-1", "backbone", link_profile("WAN"))
        net.update_link_spec("gw-1", "backbone", link_profile("GPRS"))
        assert_routes_match_networkx(net)

    def test_search_follows_topology_changes(self):
        """Hubs h1 and h2 are joined directly and through m, and each has
        two leaves, so peeling stops at the hubs and the pair is searched.
        Each change must reach the next search, not just the route cache."""
        net = Network()
        for name in ("h1", "h2", "m", "a1", "a2", "b1", "b2"):
            net.add_node(name)
        net.add_duplex_link("h1", "h2", spec(latency=0.01))
        net.add_duplex_link("h1", "m", spec(latency=0.01))
        net.add_duplex_link("m", "h2", spec(latency=0.01))
        for hub, leaves in (("h1", ("a1", "a2")), ("h2", ("b1", "b2"))):
            for leaf in leaves:
                net.add_duplex_link(leaf, hub, spec(latency=0.01))

        assert net.route("a1", "b1") == ["a1", "h1", "h2", "b1"]
        assert_routes_match_networkx(net)
        net.update_link_spec("h1", "m", spec(latency=0.001))
        net.update_link_spec("m", "h2", spec(latency=0.001))
        assert net.route("a1", "b1") == ["a1", "h1", "m", "h2", "b1"]
        assert_routes_match_networkx(net)
        net.set_link_state("m", "h2", up=False)
        assert net.route("a1", "b1") == ["a1", "h1", "h2", "b1"]
        assert_routes_match_networkx(net)

    def test_datagram_between_leaf_devices(self):
        net = self._ap_cells().network
        net.send_datagram("dev-0", "dev-3", payload="x")

        def consumer():
            dgram = yield net.node("dev-3").datagrams.get()
            return dgram

        dgram = net.sim.run(until=net.sim.process(consumer()))
        assert (dgram.src, dgram.payload) == ("dev-0", "x")
        assert net.sim.now > 0


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging: a leaf walk that misses a
    closed loop of single links would go round it forever."""

    def expire(signum, frame):
        raise TimeoutError(f"routing ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def leafy_networks(draw):
    """``(nodes, links, down)``: a random tree plus extra one-way links,
    leaves hung off it (or off other leaves) by single duplex links, and a
    random set of links down.  Link ``(a, b, k)`` weighs 2**-k with its own
    k, so every path has a distinct length and every sum is exact: the
    shortest path, when there is one, is unique."""
    core = [f"c{i}" for i in range(draw(st.integers(1, 6)))]
    pairs = []
    for i in range(1, len(core)):
        parent = core[draw(st.integers(0, i - 1))]
        pairs += [(core[i], parent), (parent, core[i])]
    extras = st.tuples(st.sampled_from(core), st.sampled_from(core))
    for a, b in draw(st.lists(extras, max_size=6)):
        if a != b and (a, b) not in pairs:
            pairs.append((a, b))
    nodes = list(core)
    for i in range(draw(st.integers(0, 6))):
        anchor = draw(st.sampled_from(nodes))
        nodes.append(f"l{i}")
        pairs += [(f"l{i}", anchor), (anchor, f"l{i}")]
    exponents = draw(st.permutations(range(1, len(pairs) + 1)))
    links = [(a, b, k) for (a, b), k in zip(pairs, exponents)]
    down = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return nodes, links, down


@settings(max_examples=300, deadline=None)
@given(leafy_networks())
def test_leaf_routes_match_unique_shortest_paths(world):
    nodes, links, down = world
    net = Network()
    for node in nodes:
        net.add_node(node)
    for a, b, k in links:
        net.add_link(a, b, spec(latency=2.0**-k))
    for a, b in down:
        net.set_link_state(a, b, up=False)
    with time_limit(2.0):
        assert_routes_match_networkx(net)
