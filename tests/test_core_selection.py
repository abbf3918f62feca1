"""Tests for the central server and nearest-gateway selection (§3.5)."""

import pytest

from repro.core import DeploymentBuilder, PDAgentConfig
from repro.core.errors import NoGatewayAvailableError
from repro.core.registry import fetch_gateway_list


def build(n_gateways=3, policy="nearest", seed=1, **config_kw):
    config = PDAgentConfig(selection_policy=policy, **config_kw)
    builder = DeploymentBuilder(master_seed=seed, config=config)
    builder.add_central("central")
    for i in range(n_gateways):
        builder.add_gateway(f"gw-{i}")
    builder.add_device("pda", wireless="WLAN")
    return builder.build()


class TestCentralServer:
    def test_list_download(self):
        dep = build()
        proc = dep.sim.process(
            fetch_gateway_list(dep.network, "pda", "central")
        )
        entries = dep.sim.run(until=proc)
        assert [e.address for e in entries] == ["gw-0", "gw-1", "gw-2"]
        # public keys distributed with the list
        for entry in entries:
            assert entry.public_key.n > 0

    def test_register_deregister(self):
        dep = build()
        dep.central.deregister_gateway("gw-2")
        assert dep.central.gateway_addresses() == ["gw-0", "gw-1"]
        with pytest.raises(ValueError):
            dep.central.register_gateway("gw-0")

    def test_keys_match_vault(self):
        dep = build()
        proc = dep.sim.process(fetch_gateway_list(dep.network, "pda", "central"))
        entries = dep.sim.run(until=proc)
        assert entries[0].public_key == dep.vault.public_key("gw-0")


class TestSelector:
    def test_select_downloads_list_on_first_use(self):
        dep = build()
        selector = dep.platform("pda").selector
        assert not selector.has_list
        proc = dep.sim.process(selector.select())
        chosen = dep.sim.run(until=proc)
        assert chosen in ("gw-0", "gw-1", "gw-2")
        assert selector.has_list
        assert selector.list_refreshes == 1

    def test_nearest_probes_all_gateways(self):
        dep = build(policy="nearest")
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select())
        dep.sim.run(until=proc)
        assert selector.probes_sent == 3
        for gw in ("gw-0", "gw-1", "gw-2"):
            assert selector.last_rtt(gw) is not None

    def test_nearest_picks_lowest_rtt(self):
        from dataclasses import replace

        dep = build(policy="nearest")
        net = dep.network
        # gw-1 gets a much faster uplink
        for src, dst in (("gw-1", "backbone"), ("backbone", "gw-1")):
            link = net.link(src, dst)
            link.spec = replace(link.spec, latency=0.0001, jitter=0.0)
        for i in (0, 2):
            for src, dst in ((f"gw-{i}", "backbone"), ("backbone", f"gw-{i}")):
                link = net.link(src, dst)
                link.spec = replace(link.spec, latency=0.5, jitter=0.0)
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select())
        assert dep.sim.run(until=proc) == "gw-1"

    def test_probe_cache_reused(self):
        dep = build(policy="nearest")
        selector = dep.platform("pda").selector
        for _ in range(3):
            proc = dep.sim.process(selector.select())
            dep.sim.run(until=proc)
        assert selector.probes_sent == 3  # probed once, cached after

    def test_cache_expires_after_ttl(self):
        dep = build(policy="nearest", rtt_cache_ttl=10.0)
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select())
        dep.sim.run(until=proc)
        dep.sim.run(until=dep.sim.now + 60.0)
        proc = dep.sim.process(selector.select())
        dep.sim.run(until=proc)
        assert selector.probes_sent == 6

    def test_threshold_triggers_list_refresh(self, monkeypatch):
        from dataclasses import replace

        monkeypatch.setattr("repro.core.selection.RTT_THRESHOLD_S", 0.05)
        dep = build(policy="nearest")
        net = dep.network
        # every gateway farther than the threshold
        for i in range(3):
            for src, dst in ((f"gw-{i}", "backbone"), ("backbone", f"gw-{i}")):
                link = net.link(src, dst)
                link.spec = replace(link.spec, latency=1.0, jitter=0.0)
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select())
        chosen = dep.sim.run(until=proc)
        # refreshed once at bootstrap + once on threshold breach
        assert selector.list_refreshes == 2
        assert chosen in ("gw-0", "gw-1", "gw-2")

    def test_first_policy(self):
        dep = build(policy="first")
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select())
        assert dep.sim.run(until=proc) == "gw-0"
        assert selector.probes_sent == 0

    def test_round_robin_policy(self):
        dep = build(policy="round_robin")
        selector = dep.platform("pda").selector
        chosen = []
        for _ in range(4):
            proc = dep.sim.process(selector.select())
            chosen.append(dep.sim.run(until=proc))
        assert chosen == ["gw-0", "gw-1", "gw-2", "gw-0"]

    def test_random_policy_deterministic_per_seed(self):
        def run_once():
            dep = build(policy="random", seed=33)
            selector = dep.platform("pda").selector
            proc = dep.sim.process(selector.select())
            return dep.sim.run(until=proc)

        assert run_once() == run_once()

    def test_empty_list_raises(self):
        dep = build(n_gateways=1)
        dep.central.deregister_gateway("gw-0")
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select())
        with pytest.raises(NoGatewayAvailableError):
            dep.sim.run(until=proc)

    def test_install_list_learns_keys(self):
        dep = build()
        platform = dep.platform("pda")
        proc = dep.sim.process(platform.selector.refresh_list())
        dep.sim.run(until=proc)
        assert platform.keyring.knows("gw-0")
        assert platform.keyring.knows("gw-2")


class TestReprobeRegressions:
    """Regressions for the nearest-policy re-probe paths.

    The defects: after the RTT-threshold ``refresh_list()`` + ``probe_all()``
    re-probe, ``select()`` took ``probes[0]`` without re-filtering
    breaker-open/excluded gateways, and an empty probe sweep surfaced as an
    ``IndexError`` instead of :class:`NoGatewayAvailableError`.
    """

    def test_empty_reprobe_raises_no_gateway(self, monkeypatch):
        """A probe sweep that comes back empty must not IndexError."""
        monkeypatch.setattr("repro.core.selection.RTT_THRESHOLD_S", 1e-6)
        dep = build(policy="nearest")
        selector = dep.platform("pda").selector

        real = selector.probe_all
        calls = {"n": 0}

        def flaky_probe_all():
            # The first sweep measures normally; every later sweep comes
            # back empty (models a sweep that raced an address-list swap).
            calls["n"] += 1
            if calls["n"] >= 2:
                return []
                yield  # pragma: no cover - makes this a generator
            out = yield from real()
            return out

        selector.probe_all = flaky_probe_all
        proc = dep.sim.process(selector.select())
        with pytest.raises(NoGatewayAvailableError):
            dep.sim.run(until=proc)

    @staticmethod
    def _gw0_nearest(monkeypatch, threshold_s):
        """A listed nearest-policy platform whose gw-0 is by far the nearest,
        with a breaker that opens on one failure and never cools down."""
        from dataclasses import replace

        monkeypatch.setattr("repro.core.selection.RTT_THRESHOLD_S", threshold_s)
        dep = build(policy="nearest", breaker_cooldown_s=1e9)
        net = dep.network
        for src, dst in (("gw-0", "backbone"), ("backbone", "gw-0")):
            link = net.link(src, dst)
            link.spec = replace(link.spec, latency=0.0001, jitter=0.0)
        for i in (1, 2):
            for src, dst in ((f"gw-{i}", "backbone"), ("backbone", f"gw-{i}")):
                link = net.link(src, dst)
                link.spec = replace(link.spec, latency=0.2, jitter=0.0)
        platform = dep.platform("pda")
        platform.breaker.threshold = 1
        proc = dep.sim.process(platform.selector.refresh_list())
        dep.sim.run(until=proc)
        return dep, platform

    def test_probe_sweep_refilters_breaker_open(self, monkeypatch):
        """A breaker that opens while probes are in flight must be honoured."""
        dep, platform = self._gw0_nearest(monkeypatch, 1e9)
        selector = platform.selector

        # gw-0's circuit breaker trips while the sweep is in flight.
        def trip():
            yield dep.sim.timeout(1e-6)
            platform.breaker.record_failure("gw-0")

        dep.sim.process(trip())
        proc = dep.sim.process(selector.select())
        chosen = dep.sim.run(until=proc)
        assert chosen != "gw-0"
        assert chosen in ("gw-1", "gw-2")

    def test_threshold_reprobe_still_filters_exclusions(self, monkeypatch):
        """The post-refresh best pick must never be a skipped gateway: every
        RTT is over the threshold, and gw-0, the nearest, goes breaker-open
        during the list refresh that the threshold triggers."""
        dep, platform = self._gw0_nearest(monkeypatch, 1e-6)
        selector = platform.selector
        refreshes = selector.list_refreshes
        real_refresh = selector.refresh_list

        def refresh_then_trip():
            entries = yield from real_refresh()
            platform.breaker.record_failure("gw-0")
            return entries

        selector.refresh_list = refresh_then_trip
        proc = dep.sim.process(selector.select())
        chosen = dep.sim.run(until=proc)
        assert selector.list_refreshes == refreshes + 1
        assert chosen in ("gw-1", "gw-2")


class TestPreferredGateway:
    """``select(prefer=...)`` — collect re-selection goes back to the origin.

    The fleet tier's collect-anywhere path re-selects a gateway when the
    device's cached choice went stale (link flap, handover).  Preferring
    the ticket's origin keeps the collect on the gateway that holds the
    result — any other pick works only via relay — so a viable preferred
    address short-circuits the policy, but never overrides exclusion or an
    open breaker.
    """

    def test_prefer_overrides_policy_when_viable(self):
        dep = build(policy="first")
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select(prefer="gw-2"))
        assert dep.sim.run(until=proc) == "gw-2"  # policy alone → gw-0
        assert selector.probes_sent == 0  # short-circuit: no probe sweep

    def test_prefer_overrides_nearest_policy(self):
        from dataclasses import replace

        dep = build(policy="nearest")
        net = dep.network
        # gw-0 is by far the nearest; a plain select() would pick it.
        for src, dst in (("gw-0", "backbone"), ("backbone", "gw-0")):
            link = net.link(src, dst)
            link.spec = replace(link.spec, latency=0.0001, jitter=0.0)
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select(prefer="gw-1"))
        assert dep.sim.run(until=proc) == "gw-1"

    def test_excluded_prefer_falls_through_to_policy(self):
        dep = build(policy="first")
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select(exclude={"gw-2"}, prefer="gw-2"))
        assert dep.sim.run(until=proc) == "gw-0"

    def test_breaker_open_prefer_falls_through_to_policy(self):
        dep = build(policy="first", breaker_cooldown_s=1e9)
        platform = dep.platform("pda")
        platform.breaker.threshold = 1
        proc = dep.sim.process(platform.selector.refresh_list())
        dep.sim.run(until=proc)
        platform.breaker.record_failure("gw-1")
        proc = dep.sim.process(platform.selector.select(prefer="gw-1"))
        assert dep.sim.run(until=proc) == "gw-0"

    def test_unknown_prefer_falls_through_to_policy(self):
        dep = build(policy="first")
        selector = dep.platform("pda").selector
        proc = dep.sim.process(selector.select(prefer="gw-99"))
        assert dep.sim.run(until=proc) == "gw-0"


class TestMembershipHealth:
    """Health-aware selection: the fleet membership view gates candidacy.

    Draining/down members refuse (or cannot answer) uploads, so the
    selector must never pick one — not even through the all-breaker-open
    fallback — and a ``prefer`` pointing at an unhealthy origin follows
    the drain successor hint instead.
    """

    def _build(self, **config_kw):
        from repro.core.fleet import MembershipView

        config_kw.setdefault("policy", "first")
        dep = build(**config_kw)
        selector = dep.platform("pda").selector
        view = MembershipView(["gw-0", "gw-1", "gw-2"])
        selector.membership = view
        return dep, selector, view

    def _select(self, dep, selector, **kw):
        proc = dep.sim.process(selector.select(**kw))
        return dep.sim.run(until=proc)

    def test_draining_member_never_selected(self):
        dep, selector, view = self._build()
        view.begin_drain("gw-0")
        assert self._select(dep, selector) == "gw-1"

    def test_down_member_never_selected(self):
        dep, selector, view = self._build()
        view.mark_down("gw-0")
        assert self._select(dep, selector) == "gw-1"

    def test_nearest_policy_skips_unhealthy(self):
        from dataclasses import replace

        dep, selector, view = self._build(policy="nearest")
        net = dep.network
        # gw-0 is by far the nearest, but it is draining.
        for src, dst in (("gw-0", "backbone"), ("backbone", "gw-0")):
            link = net.link(src, dst)
            link.spec = replace(link.spec, latency=0.0001, jitter=0.0)
        view.begin_drain("gw-0")
        assert self._select(dep, selector) != "gw-0"

    def test_all_unhealthy_raises(self):
        dep, selector, view = self._build()
        view.begin_drain("gw-0")
        view.mark_down("gw-1")
        view.mark_down("gw-2")
        proc = dep.sim.process(selector.select())
        with pytest.raises(NoGatewayAvailableError):
            dep.sim.run(until=proc)

    def test_breaker_fallback_cannot_resurrect_down_member(self):
        """The all-breaker-open escape hatch relaxes the *heuristic* skip
        set only — the membership view is authoritative, so a down member
        stays excluded even when every healthy candidate is breaker-open.
        """
        dep, selector, view = self._build(breaker_cooldown_s=1e9)
        platform = dep.platform("pda")
        platform.breaker.threshold = 1
        proc = dep.sim.process(selector.refresh_list())
        dep.sim.run(until=proc)
        view.mark_down("gw-0")
        platform.breaker.record_failure("gw-1")
        platform.breaker.record_failure("gw-2")
        chosen = self._select(dep, selector)
        assert chosen == "gw-1"  # suspect beats refusing; gw-0 stays out

    def test_prefer_draining_origin_follows_successor_hint(self):
        """Collect re-selection: a draining origin cannot answer, but its
        ring successor holds (or relays to) the migrated result.
        """
        dep, selector, view = self._build()
        view.begin_drain("gw-1")
        assert self._select(dep, selector, prefer="gw-1") == "gw-2"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["select.prefer_redirected"] == 1

    def test_prefer_down_origin_with_no_successor_falls_to_policy(self):
        dep, selector, view = self._build()
        view.mark_down("gw-1")
        view.mark_down("gw-2")
        # successor("gw-1") is "gw-0" (the only active member left).
        assert self._select(dep, selector, prefer="gw-1") == "gw-0"

    def test_healthy_prefer_unaffected(self):
        dep, selector, view = self._build()
        assert self._select(dep, selector, prefer="gw-2") == "gw-2"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("select.prefer_redirected", 0) == 0
