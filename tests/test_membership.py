"""Membership lifecycle: epochs, failure detection, drain with handoff.

Covers the fleet-membership PR end to end:

* :class:`MembershipView` unit behaviour — monotonic epochs, the
  ``joining → active → draining/down → active`` state machine, ring
  rebuilds, successor/standby resolution, heartbeat-driven rejoin;
* the lifecycle wire documents (heartbeat, epoch-tagged claims, stale
  replies);
* graceful drain — new uploads refused with a successor hint, owned
  state (dedup bindings, tickets, retained results, upload sessions)
  migrated to ring successors, collect-anywhere preserved across the
  departure, and the drained member's key range rebalanced home on
  rejoin;
* the failure detector — a silent member is marked ``down`` after the
  suspicion timeout and rejoins at a new epoch on recovery.
"""

import pytest

from repro.core.errors import GatewayError
from repro.experiments import fleet
from repro.core.fleet import (
    FLEET_CLAIM_PATH,
    FLEET_HEARTBEAT_PATH,
    MembershipView,
    claim_reply,
    claim_request,
    heartbeat_request,
)
from repro.simtest import run_spec
from repro.simtest.spec import DeviceSpec, DrainPoint, ScenarioSpec, TaskSpec
from repro.xmlcodec import parse_bytes
from tests.test_fleet import (
    GATEWAYS,
    build_dep,
    deploy,
    dispatched_agents,
    drive,
    fleet_config,
    pick_gateways,
    subscribe,
    ticket_of,
)


# ---------------------------------------------------------------------------
# MembershipView unit behaviour
# ---------------------------------------------------------------------------


class TestMembershipView:
    def test_validation(self):
        with pytest.raises(ValueError):
            MembershipView([])

    def test_bootstrap_state(self):
        view = MembershipView(["gw-1", "gw-0"])
        assert view.members == ("gw-0", "gw-1")
        assert view.active_members == ("gw-0", "gw-1")
        assert view.epoch == 1
        assert view.epoch_log == [(1, "bootstrap", "")]
        assert view.state("gw-0") == "active"
        assert view.state("gw-9") == ""

    def test_epochs_are_monotonic_and_logged(self):
        view = MembershipView(["gw-0", "gw-1", "gw-2"])
        view.begin_drain("gw-2")
        view.mark_down("gw-1")
        view.rejoin("gw-1")
        epochs = [e for e, _, _ in view.epoch_log]
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
        assert view.epoch_log[1:] == [
            (2, "drain", "gw-2"),
            (3, "down", "gw-1"),
            (4, "join", "gw-1"),
        ]

    def test_join_is_silent_until_activation(self):
        view = MembershipView(["gw-0"])
        view.join("gw-1")
        assert view.state("gw-1") == "joining"
        assert view.epoch == 1  # announced, not yet a ring event
        assert all(view.owner(f"k{i}") == "gw-0" for i in range(20))
        view.activate("gw-1")
        assert view.epoch == 2
        assert {view.owner(f"k{i}") for i in range(50)} == {"gw-0", "gw-1"}
        view.activate("gw-1")  # idempotent: no second bump
        assert view.epoch == 2

    def test_draining_member_leaves_the_ring(self):
        view = MembershipView(GATEWAYS)
        view.begin_drain("gw-1")
        assert view.state("gw-1") == "draining"
        assert all(view.owner(f"k{i}") != "gw-1" for i in range(100))
        view.begin_drain("gw-1")  # idempotent
        assert view.epoch == 2

    def test_finish_drain_records_without_bump(self):
        view = MembershipView(GATEWAYS)
        view.begin_drain("gw-1")
        epoch = view.epoch
        view.finish_drain("gw-1")
        assert view.epoch == epoch
        assert view.drains_completed == [("gw-1", epoch)]

    def test_heartbeat_rejoins_a_down_member(self):
        view = MembershipView(GATEWAYS)
        view.mark_down("gw-2")
        assert view.state("gw-2") == "down"
        assert all(view.owner(f"k{i}") != "gw-2" for i in range(100))
        view.record_heartbeat("gw-2", 12.5)
        assert view.state("gw-2") == "active"
        assert view.last_heartbeat("gw-2") == 12.5
        assert view.epoch_log[-1] == (3, "join", "gw-2")

    def test_successor_skips_non_active_and_wraps(self):
        view = MembershipView(("gw-0", "gw-1", "gw-2", "gw-3"))
        assert view.successor("gw-1") == "gw-2"
        view.begin_drain("gw-2")
        assert view.successor("gw-1") == "gw-3"
        assert view.successor("gw-3") == "gw-0"  # wraps in address order
        view.mark_down("gw-0")
        view.begin_drain("gw-3")
        assert view.successor("gw-1") == ""  # nobody else active

    def test_owner_excluding_never_returns_excluded(self):
        view = MembershipView(GATEWAYS)
        for i in range(50):
            key = f"task-{i}"
            owner = view.owner(key)
            standby = view.owner_excluding(key, owner)
            assert standby and standby != owner
        solo = MembershipView(["gw-0"])
        assert solo.owner_excluding("k", "gw-0") == ""

    def test_listeners_see_every_bump(self):
        view = MembershipView(GATEWAYS)
        seen = []
        view.add_listener(lambda e, r, m: seen.append((e, r, m)))
        view.begin_drain("gw-0")
        view.mark_down("gw-1")
        assert seen == [(2, "drain", "gw-0"), (3, "down", "gw-1")]

    def test_transition_guards(self):
        view = MembershipView(GATEWAYS)
        view.mark_down("gw-0")
        epoch = view.epoch
        view.begin_drain("gw-0")  # cannot drain a down member
        view.mark_down("gw-0")  # already down
        view.mark_down("gw-9")  # unknown member
        assert view.epoch == epoch


# ---------------------------------------------------------------------------
# lifecycle wire documents
# ---------------------------------------------------------------------------


class TestLifecycleWire:
    def test_heartbeat_roundtrip(self):
        doc = parse_bytes(heartbeat_request("gw-1", 7))
        assert doc.require("from") == "gw-1"
        assert doc.require("epoch") == "7"

    def test_epoch_tagged_claim_roundtrip(self):
        doc = parse_bytes(
            claim_request("t-1", "gw-0/t-1", "gw-0", epoch=4, on_behalf_of="gw-2")
        )
        assert doc.require("epoch") == "4"
        assert doc.require("for") == "gw-2"

    def test_stale_reply_carries_view(self):
        doc = parse_bytes(claim_reply("stale", "", epoch=9, owner="gw-1"))
        assert doc.require("verdict") == "stale"
        assert doc.require("epoch") == "9"
        assert doc.findtext("owner") == "gw-1"


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_drain_refuses_uploads_and_deploy_fails_over(self):
        dep = build_dep()
        subscribe(dep)
        view = dep.fleet.view
        drive(dep, dep.gateway("gw-0").drain())
        assert view.state("gw-0") == "draining"
        # An explicitly named draining gateway refuses with the hint...
        with pytest.raises(GatewayError):
            deploy(dep, "gw-0", task_id="refused-task")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.drain_refusals"] >= 1
        assert counters["device_drain_redirects"] >= 1
        # ...and the health-aware selector routes fresh traffic around it.
        handle = drive(
            dep,
            dep.platform("pda").deploy(
                "ebanking",
                {"transactions": []},
                task_id="routed-task",
            ),
        )
        assert handle.gateway != "gw-0"

    def test_drain_migrates_result_collect_anywhere(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "mig-task")
        handle = deploy(dep, forwarder, task_id="mig-task")
        dep.sim.run(until=ticket_of(dep, handle.ticket).completed)
        migrated = drive(dep, dep.gateway(forwarder).drain())
        assert migrated >= 1
        view = dep.fleet.view
        assert view.drains_completed and view.drains_completed[0][0] == forwarder
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.migrated_out"] >= 1
        assert counters["fleet.drains_completed"] == 1
        # The origin is gone, but the result survives at its successor and
        # any live gateway relays the collect there.
        result = drive(dep, dep.platform("pda").collect(handle, via=third))
        assert result.status == "completed"

    def test_drain_migrates_binding_so_retry_still_dedups(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "bind-task")
        handle = deploy(dep, owner, task_id="bind-task")
        dep.sim.run(until=ticket_of(dep, handle.ticket).completed)
        drive(dep, dep.gateway(owner).drain())
        # The binding moved to the task's new ring owner: a roamed retry
        # still converges on the original ticket, no second agent.
        retry = deploy(dep, third, task_id="bind-task")
        assert retry.ticket == handle.ticket
        assert len(dispatched_agents(dep)) == 1

    def test_drain_is_idempotent(self):
        dep = build_dep()
        drive(dep, dep.gateway("gw-2").drain())
        epoch = dep.fleet.view.epoch
        assert drive(dep, dep.gateway("gw-2").drain()) == 0
        assert dep.fleet.view.epoch == epoch

    def test_rejoin_rebalances_state_home(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "home-task")
        handle = deploy(dep, forwarder, task_id="home-task")
        dep.sim.run(until=ticket_of(dep, handle.ticket).completed)
        gw = dep.gateway(forwarder)
        drive(dep, gw.drain())
        assert gw.storage.tickets.get(handle.ticket) is None  # moved out
        gw.crash()
        gw.restart()  # rejoin: a new epoch; peers rebalance
        dep.sim.run(until=dep.sim.now + 5.0)
        assert dep.fleet.view.state(forwarder) == "active"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.rebalanced"] >= 1
        # The ticket is home again: collect at the origin, no relay needed.
        assert gw.storage.tickets.get(handle.ticket) is not None
        result = drive(dep, dep.platform("pda").collect(handle, via=forwarder))
        assert result.status == "completed"


# ---------------------------------------------------------------------------
# failure detector + stale epochs
# ---------------------------------------------------------------------------


class TestFailureDetector:
    def test_silent_member_marked_down_then_rejoins(self, monkeypatch):
        monkeypatch.setattr("repro.core.fleet.FLEET_CLAIM_TIMEOUT_S", 1.0)
        monkeypatch.setattr("repro.core.gateway.FLEET_RECONCILE_INTERVAL_S", 2.0)
        config = fleet_config(fleet_suspicion_timeout_s=3.0)
        dep = build_dep(config=config)
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "fd-task")
        dep.gateway(owner).crash()
        deploy(dep, forwarder, task_id="fd-task")  # arms the suspicion probe
        view = dep.fleet.view
        dep.sim.run(until=dep.sim.now + 10.0)
        assert view.state(owner) == "down"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.suspects"] >= 1
        assert counters["fleet.marked_down"] == 1
        assert ("down", owner) in [(r, m) for _, r, m in view.epoch_log]
        dep.gateway(owner).restart()
        dep.sim.run(until=dep.sim.now + 10.0)
        assert view.state(owner) == "active"
        live = [
            t
            for gw in GATEWAYS
            for t in dep.gateway(gw).tickets()
            if t.task_id == "fd-task"
            and t.status not in ("failed", "superseded")
        ]
        assert len(live) == 1

    def test_stale_epoch_claim_answered_with_current_view(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "st-task")
        view = dep.fleet.view
        old_epoch = view.epoch
        view.begin_drain(third)  # any ring event makes old_epoch stale
        body = claim_request(
            "st-task", f"{forwarder}/t-77", forwarder, epoch=old_epoch
        )
        client = dep.gateway(forwarder).fleet_client
        ok, doc = drive(
            dep, client._rpc(owner, FLEET_CLAIM_PATH, body, purpose="test")
        )
        assert ok
        assert doc.require("verdict") == "stale"
        assert doc.require("epoch") == str(view.epoch)
        assert doc.findtext("owner") == view.owner("st-task")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.claims_stale"] == 1

    def test_heartbeat_handler_acks_with_epoch_and_state(self):
        dep = build_dep()
        view = dep.fleet.view
        client = dep.gateway("gw-1").fleet_client
        body = heartbeat_request("gw-1", view.epoch)
        ok, doc = drive(
            dep, client._rpc("gw-0", FLEET_HEARTBEAT_PATH, body, purpose="test")
        )
        assert ok
        assert doc.require("epoch") == str(view.epoch)
        assert doc.require("state") == "active"
        assert view.last_heartbeat("gw-1") is not None


# ---------------------------------------------------------------------------
# drain ownership race (known bug: exactly-once broken across a drain)
# ---------------------------------------------------------------------------


class TestDrainOwnershipRace:
    """``drain()`` takes the member off the ring before its dedup bindings
    reach the new owner, so for one migration round trip the new owner
    answers claims from an index that lacks them and a roamed retry
    launches a second agent."""

    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_roamed_retry_during_drain_quiesce(self):
        # gw-1 owns the task and dispatches it at 9.47 s; the drain at
        # 10.0 s moves ownership to gw-2 at once, but the binding only
        # leaves after the quiesce wait (10.5 s).  The roamed retry's
        # claim reaches gw-2 at 10.25 s and is granted.
        task = TaskSpec(app="ebanking", sites=("site-0",), start=8.0, roam_retry=True)
        device = DeviceSpec(
            name="pda-4", profile="PDA", wireless="WLAN", ap=0,
            pinned_gateway="gw-1", tasks=(task,),
        )
        spec = ScenarioSpec(
            seed=0, n_gateways=3, n_sites=2, n_aps=1, fleet=True,
            devices=(device,), drains=(DrainPoint("gw-1", 10.0, 3.0),),
        )
        report = run_spec(spec)
        assert not report.violations, report.summary()

    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_churn_roll_while_bindings_in_flight(self, monkeypatch):
        # The roll starts 3.0 s into the run (4.255 s sim time); gw-0
        # granted pda-1's claim at 3.505 s.  Its binding leaves at once but
        # lands at gw-2 at 4.338 s, after gw-2, already the owner, accepted
        # the roamed retry locally at 4.274 s.
        monkeypatch.setattr(fleet, "ROLL_START_S", 3.0)
        monkeypatch.setattr(fleet, "CHURN_STAGGER_S", 1.5)
        run = fleet.run_churn(seed=0, n_devices=6)
        assert (run.dispatches, run.duplicate_dispatches) == (6, 0)
