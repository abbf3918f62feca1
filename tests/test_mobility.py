"""Tests for device mobility (§3 design issue "Mobility"): handover,
RTT-cache invalidation, nearest-gateway re-discovery after movement, and
the city-scale route models (commute corridors, hotspots, roaming)."""

import pytest

from repro.device.mobility import (
    MOBILITY_MODELS,
    MobilityRoute,
    corridor_route,
    hotspot_route,
    roaming_route,
    schedule,
)
from repro.simnet.rng import StreamFactory

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder, PDAgentConfig
from repro.device import link_profile
from repro.mas import Stop
from repro.simnet import LinkSpec, Network


class TestNetworkLinkRemoval:
    def test_remove_link(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_duplex_link("a", "b", LinkSpec(latency=0.01, bandwidth=1e6))
        net.remove_duplex_link("a", "b")
        from repro.simnet import NoRouteError

        with pytest.raises(NoRouteError):
            net.route("a", "b")

    def test_remove_unknown_raises(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(KeyError):
            net.remove_link("a", "b")

    def test_readd_after_remove(self):
        net = Network()
        net.add_node("a")
        net.add_node("b")
        spec = LinkSpec(latency=0.01, bandwidth=1e6)
        net.add_duplex_link("a", "b", spec)
        net.remove_duplex_link("a", "b")
        net.add_duplex_link("a", "b", spec)
        assert net.route("a", "b") == ["a", "b"]


def build_two_region_world(seed=51):
    """Two access points; gw-0 near ap-east, gw-1 near ap-west."""
    config = PDAgentConfig(rtt_cache_ttl=1e9)  # cache never expires by time
    builder = DeploymentBuilder(master_seed=seed, config=config)
    builder.add_central("central")
    # Gateways sit far from the backbone (slow uplinks), so reaching the
    # *other* region's gateway always pays a long haul; each region's access
    # point has a fast direct path to its local gateway only.
    far = LinkSpec(latency=0.3, bandwidth=1_000_000)
    builder.add_gateway("gw-0", uplink=far)
    builder.add_gateway("gw-1", uplink=far)
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="a")])
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    net = builder.network
    net.add_node("ap-east", kind="router")
    net.add_node("ap-west", kind="router")
    fast = LinkSpec(latency=0.002, bandwidth=1_000_000)
    inter = LinkSpec(latency=0.25, bandwidth=1_000_000)
    # Each AP has a fast local path to its regional gateway; everything that
    # crosses regions goes over the slow backbone legs.
    net.add_duplex_link("ap-east", "gw-0", fast)
    net.add_duplex_link("ap-east", "backbone", inter)
    net.add_duplex_link("ap-west", "gw-1", fast)
    net.add_duplex_link("ap-west", "backbone", inter)
    builder.add_device("pda", wireless="WLAN", attach_to="ap-east")
    return builder.build()


class TestHandover:
    def test_attachment_tracked(self):
        dep = build_two_region_world()
        device = dep.devices["pda"]
        assert device.attachment == "ap-east"
        assert device.handovers == 0

    def test_move_updates_topology(self):
        dep = build_two_region_world()
        device = dep.devices["pda"]
        device.move_to("ap-west", link_profile("WLAN"))
        assert device.attachment == "ap-west"
        assert device.handovers == 1
        assert dep.network.route("pda", "gw-1")[:2] == ["pda", "ap-west"]

    def test_move_to_same_ap_is_noop(self):
        dep = build_two_region_world()
        device = dep.devices["pda"]
        device.move_to("ap-east", link_profile("WLAN"))
        assert device.handovers == 0

    def test_move_without_attachment_raises(self):
        net = Network()
        from repro.device import Device

        device = Device(net, "solo")
        with pytest.raises(RuntimeError):
            device.move_to("anywhere", link_profile("WLAN"))

    def test_nearest_gateway_changes_after_relocate(self):
        dep = build_two_region_world()
        platform = dep.platform("pda")

        def pick():
            gw = yield from platform.selector.select()
            return gw

        proc = dep.sim.process(pick())
        before = dep.sim.run(until=proc)
        assert before == "gw-0"  # east: gw-0 is near

        platform.relocate("ap-west", link_profile("WLAN"))
        proc = dep.sim.process(pick())
        after = dep.sim.run(until=proc)
        assert after == "gw-1"  # west: gw-1 is near

    def test_stale_cache_without_invalidation_misleads(self):
        """Shows why relocate() must clear the probe cache."""
        dep = build_two_region_world()
        platform = dep.platform("pda")
        proc = dep.sim.process(platform.selector.select())
        assert dep.sim.run(until=proc) == "gw-0"
        # move WITHOUT the platform knowing (raw device call)
        dep.devices["pda"].move_to("ap-west", link_profile("WLAN"))
        proc = dep.sim.process(platform.selector.select())
        assert dep.sim.run(until=proc) == "gw-0"  # stale cache answer
        platform.selector.invalidate_probes()
        proc = dep.sim.process(platform.selector.select())
        assert dep.sim.run(until=proc) == "gw-1"

    def test_full_flow_from_new_location(self):
        dep = build_two_region_world()
        platform = dep.platform("pda")

        def flow():
            yield from platform.subscribe("ebanking")
            platform.relocate("ap-west", link_profile("WLAN"))
            handle = yield from platform.deploy(
                "ebanking",
                {"transactions": make_transactions(["bank-a"], 2)},
                stops=[Stop("bank-a")],
            )
            yield dep.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            return handle, result

        proc = dep.sim.process(flow())
        handle, result = dep.sim.run(until=proc)
        assert handle.gateway == "gw-1"
        assert len(result.data["transactions"]) == 2


class TestMidSelectHandover:
    """Regression: a handover that invalidates the probe cache while
    ``select()`` is mid-probe must not hand back a pre-handover answer."""

    def test_handover_during_probe_sweep_rediscovers(self):
        dep = build_two_region_world()
        platform = dep.platform("pda")
        proc = dep.sim.process(platform.selector.refresh_list())
        dep.sim.run(until=proc)

        # Relocate while the probe sweep is in flight: the sweep's RTTs
        # were measured from ap-east and are garbage afterwards.
        def mover():
            yield dep.sim.timeout(0.15)
            platform.relocate("ap-west", link_profile("WLAN"))

        dep.sim.process(mover())
        proc = dep.sim.process(platform.selector.select())
        chosen = dep.sim.run(until=proc)
        assert platform.device.attachment == "ap-west"
        assert chosen == "gw-1"  # the post-handover nearest, not gw-0

    def test_invalidation_mid_sweep_discards_stale_probes(self):
        dep = build_two_region_world()
        platform = dep.platform("pda")
        selector = platform.selector
        proc = dep.sim.process(selector.refresh_list())
        dep.sim.run(until=proc)

        def mover():
            yield dep.sim.timeout(0.15)
            platform.relocate("ap-west", link_profile("WLAN"))

        dep.sim.process(mover())
        proc = dep.sim.process(selector.select())
        dep.sim.run(until=proc)
        # Whatever ended up cached was measured after the handover: a fresh
        # select() from the new location must agree without re-probing.
        sent_before = selector.probes_sent
        proc = dep.sim.process(selector.select())
        assert dep.sim.run(until=proc) == "gw-1"
        assert selector.probes_sent == sent_before


def _stream(seed=0, name="test:mobility"):
    return StreamFactory(master_seed=seed).get(name)


class TestMobilityRoutes:
    def test_model_registry(self):
        assert MOBILITY_MODELS == ("corridor", "hotspot", "roaming")

    def test_corridor_crosses_expected_cell_sequence(self):
        # Home at cell 0 in a 5-cell city: out through 1,2,3 to 4, then
        # back through 3,2,1 to 0 — every gateway cell, in order.
        route = corridor_route(_stream(3), n_aps=5, home_ap=0)
        assert route.model == "corridor"
        assert route.waypoints == (1, 2, 3, 4, 3, 2, 1, 0)
        # And from the far end the corridor runs the other way.
        back = corridor_route(_stream(3), n_aps=5, home_ap=4)
        assert back.waypoints == (3, 2, 1, 0, 1, 2, 3, 4)

    def test_corridor_steps_are_adjacent_cells(self):
        route = corridor_route(_stream(9), n_aps=6, home_ap=2)
        walk = (2,) + route.waypoints
        assert all(abs(a - b) == 1 for a, b in zip(walk, walk[1:])), (
            "a commuter crosses cells one at a time"
        )
        assert route.waypoints[-1] == 2, "the commute ends back home"

    def test_hotspot_stays_within_radius(self):
        for seed in range(10):
            route = hotspot_route(
                _stream(seed), n_aps=8, center_ap=4, radius=1, bounces=6
            )
            assert route.model == "hotspot"
            assert all(abs(ap - 4) <= 1 for ap in route.waypoints), (
                f"seed {seed}: hotspot left its radius: {route.waypoints}"
            )

    def test_hotspot_radius_clipped_to_world(self):
        route = hotspot_route(
            _stream(1), n_aps=3, center_ap=0, radius=2, bounces=5
        )
        assert all(0 <= ap < 3 for ap in route.waypoints)

    def test_roaming_laps_every_cell_with_short_dwell(self):
        route = roaming_route(_stream(4), n_aps=4, home_ap=1, laps=2)
        assert route.model == "roaming"
        lap = route.waypoints[: len(route.waypoints) // 2]
        assert set(lap) == {0, 1, 2, 3}
        assert route.waypoints == lap * 2
        assert route.dwell_s <= 3.0, "roaming dwell must be sub-upload"

    def test_routes_are_seed_deterministic(self):
        for factory in (
            lambda s: corridor_route(s, 5, 0),
            lambda s: hotspot_route(s, 5, 2),
            lambda s: roaming_route(s, 5, 0),
        ):
            assert factory(_stream(42)) == factory(_stream(42))

    def test_schedule_expansion(self):
        route = MobilityRoute(
            model="hotspot", waypoints=(2, 3, 2), start=5.0, dwell_s=4.0
        )
        assert schedule(route) == [(5.0, 2), (9.0, 3), (13.0, 2)]

    def test_route_validation(self):
        with pytest.raises(ValueError):
            MobilityRoute("teleport", (1,), 0.0, 1.0)
        with pytest.raises(ValueError):
            MobilityRoute("corridor", (), 0.0, 1.0)
        with pytest.raises(ValueError):
            MobilityRoute("corridor", (1,), -1.0, 1.0)
        with pytest.raises(ValueError):
            MobilityRoute("corridor", (1,), 0.0, 0.0)
        with pytest.raises(ValueError):
            corridor_route(_stream(0), n_aps=1, home_ap=0)
        with pytest.raises(ValueError):
            roaming_route(_stream(0), n_aps=1, home_ap=0)


class TestRoamingReselection:
    def test_roaming_triggers_mid_session_gateway_reselection(self):
        """Walking a roaming route across regions must flip the selected
        gateway at least once mid-session (the collect-anywhere premise)."""
        dep = build_two_region_world()
        platform = dep.platform("pda")
        route = roaming_route(_stream(8), n_aps=2, home_ap=0, laps=2)
        aps = {0: "ap-east", 1: "ap-west"}

        def walk():
            chosen = []
            gw = yield from platform.selector.select()
            chosen.append(gw)
            for at, ap in schedule(route):
                if at > dep.sim.now:
                    yield dep.sim.timeout(at - dep.sim.now)
                if aps[ap] != platform.device.attachment:
                    platform.relocate(aps[ap], link_profile("WLAN"))
                gw = yield from platform.selector.select()
                chosen.append(gw)
            return chosen

        proc = dep.sim.process(walk())
        chosen = dep.sim.run(until=proc)
        reselections = sum(1 for a, b in zip(chosen, chosen[1:]) if a != b)
        assert reselections >= 1, (
            f"roaming across regions never reselected a gateway: {chosen}"
        )
        assert dep.devices["pda"].handovers >= 2
