"""Tests for links, routing, datagrams, and path-delay sampling."""

import pytest

from repro.simnet import LinkSpec, Network, Node, NoRouteError


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

    def test_transfer_time_includes_serialisation(self):
        s = spec(latency=0.1, bandwidth=1000)
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", s)
        assert link.spec.transfer_time(1000, link.stream) == pytest.approx(1.1)

    def test_transfer_negative_size_raises(self):
        s = spec()
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", s)
        with pytest.raises(ValueError):
            link.spec.transfer_time(-1, link.stream)

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

    def test_bottleneck_bandwidth(self, net):
        net2 = Network()
        for n in ("x", "y", "z"):
            net2.add_node(n)
        net2.add_link("x", "y", spec(bandwidth=100))
        net2.add_link("y", "z", spec(bandwidth=50))
        assert net2.bottleneck_bandwidth("x", "z") == 50

    def test_base_rtt_symmetric_topology(self, net):
        rtt = net.base_rtt("a", "c")
        assert rtt == pytest.approx(0.04)  # 2 hops x 0.01 each way

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


class TestRegionAssignment:
    """Gateway-region assignment and region-scoped routing."""

    def _star(self):
        """Hub-and-spoke: backbone + 2 gateways + 4 devices + 1 site."""
        net = Network(master_seed=0)
        net.add_node("backbone", kind="router")
        net.add_node("bank", kind="site")
        net.add_duplex_link("bank", "backbone", spec(latency=0.05))
        for g in range(2):
            net.add_node(f"gw-{g}", kind="gateway")
            net.add_duplex_link(f"gw-{g}", "backbone", spec(latency=0.02))
        for i in range(4):
            net.add_node(f"dev-{i}", kind="device")
            net.add_duplex_link(f"dev-{i}", "backbone", spec(latency=0.1))
        return net

    def _assign(self, net, regions=2):
        for g in range(2):
            net.assign_region(f"gw-{g}", g % regions)
        for i in range(4):
            net.assign_region(f"dev-{i}", i % regions)

    def test_assignment_validation(self):
        net = self._star()
        with pytest.raises(KeyError):
            net.assign_region("nope", 0)
        with pytest.raises(ValueError):
            net.assign_region("dev-0", -1)
        assert net.region_of("dev-0") is None
        net.assign_region("dev-0", 3)
        assert net.region_of("dev-0") == 3
        assert net.region_of("backbone") is None  # infrastructure

    def test_region_routes_match_full_graph(self):
        """Region-scoped routing returns the same paths the full graph
        would — for same-region, infra, and cross-region endpoints."""
        plain = self._star()
        regioned = self._star()
        self._assign(regioned)
        pairs = (
            ("dev-0", "gw-0"),      # same region
            ("dev-1", "gw-1"),      # same region
            ("dev-0", "bank"),      # region <-> infrastructure
            ("bank", "dev-3"),      # infrastructure <-> region
            ("dev-0", "dev-1"),     # cross-region (full-graph fallback)
            ("gw-0", "gw-1"),       # cross-region gateways
            ("bank", "backbone"),   # infra <-> infra
        )
        for src, dst in pairs:
            assert regioned.route(src, dst) == plain.route(src, dst), (src, dst)

    def test_route_cache_invalidated_by_assignment(self):
        net = self._star()
        before = net.route("dev-0", "gw-0")
        self._assign(net)
        assert net.route("dev-0", "gw-0") == before

    def test_assignment_turns_on_region_routing(self):
        """Assignments are what switch region routing on: a same-region
        route is served from the region subgraph, which the unassigned
        network never builds."""
        net = self._star()
        net.route("dev-0", "gw-0")
        assert net._region_graphs is None
        self._assign(net)
        net.route("dev-0", "gw-0")
        assert sorted(net._region_graphs) == [0, 1]
        assert "gw-1" not in net._region_graphs[0]

    def test_cross_region_datagram_delivered(self):
        net = self._star()
        self._assign(net)
        net.send_datagram("dev-0", "gw-1", payload="x")  # region 0 -> 1
        net.sim.run()
        assert len(net.node("gw-1").datagrams.items) == 1
