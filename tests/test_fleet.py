"""Fleet tier: hash-ring ownership, claim forwarding, collect-anywhere.

Covers the distributed-tier PR end to end:

* :class:`HashRing` / :class:`Fleet` mechanics — deterministic md5
  ownership, virtual-node balance, membership-order insensitivity;
* the claim wire protocol (request/reply XML round trips);
* roamed-retry exactly-once — re-uploading a task at a *different*
  gateway hands back the winning ticket and never launches a second
  agent (the ``bound`` → supersede path);
* collect-anywhere — a third gateway relays the result document, and a
  superseded ticket redirects its collect to the winner;
* chaos — the owner crashing during the claim window degrades to hinted
  handoff (the ring standby arbitrates on the owner's behalf) and the
  background reconciler converges to one live ticket once the owner is
  back; the *forwarder* crashing mid-claim trips the crash-epoch guard
  so the minted-but-unlaunched ticket fails instead of
  double-dispatching.
"""

import pytest

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import GATEWAY_PORT, DeploymentBuilder, PDAgentConfig
from repro.core.fleet import (
    FLEET_CLAIM_PATH,
    FLEET_MIGRATE_PATH,
    Fleet,
    HashRing,
    claim_reply,
    claim_request,
    release_request,
)
from repro.core.gateway import ticket_origin
from repro.mas import Stop
from repro.simnet.http import request as http_request
from repro.xmlcodec import parse_bytes

GATEWAYS = ("gw-0", "gw-1", "gw-2")


def fleet_config(**kw):
    kw.setdefault("selection_policy", "first")
    kw.setdefault("fleet_enabled", True)
    return PDAgentConfig(**kw)


def build_dep(seed=7, config=None):
    builder = DeploymentBuilder(master_seed=seed, config=config or fleet_config())
    builder.add_central("central")
    for gw in GATEWAYS:
        builder.add_gateway(gw)
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="a")])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


def drive(dep, gen):
    proc = dep.sim.process(gen)
    return dep.sim.run(until=proc)


def subscribe(dep):
    drive(dep, dep.platform("pda").subscribe("ebanking", gateway="gw-0"))


def deploy(dep, gateway, task_id):
    return drive(
        dep,
        dep.platform("pda").deploy(
            "ebanking",
            {"transactions": make_transactions(["bank-a"], 1)},
            stops=[Stop("bank-a")],
            gateway=gateway,
            task_id=task_id,
        ),
    )


def ticket_of(dep, ticket_id):
    origin = ticket_id.partition("/t-")[0]
    return dep.gateway(origin).ticket(ticket_id)


def dispatched_agents(dep):
    return [
        t for gw in GATEWAYS for t in dep.gateway(gw).tickets() if t.agent_id
    ]


def pick_gateways(dep, task_id):
    """(owner, forwarder, third) for ``task_id`` — deterministic per ring."""
    owner = dep.fleet.owner(task_id)
    others = [g for g in GATEWAYS if g != owner]
    return owner, others[0], others[1]


# ---------------------------------------------------------------------------
# hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_owner_deterministic_across_instances(self):
        a = HashRing(["gw-0", "gw-1", "gw-2"])
        b = HashRing(["gw-2", "gw-0", "gw-1"])  # membership order irrelevant
        for key in (f"task-{i}" for i in range(50)):
            assert a.owner(key) == b.owner(key)

    def test_every_member_owns_some_keys(self):
        ring = HashRing(["gw-0", "gw-1", "gw-2"], replicas=64)
        owners = {ring.owner(f"task-{i}") for i in range(200)}
        assert owners == {"gw-0", "gw-1", "gw-2"}

    def test_single_member_owns_everything(self):
        ring = HashRing(["gw-0"])
        assert all(ring.owner(f"k{i}") == "gw-0" for i in range(10))

    def test_removal_only_moves_displaced_keys(self):
        """Consistent hashing: keys not owned by the removed member stay."""
        full = HashRing(["gw-0", "gw-1", "gw-2"])
        reduced = HashRing(["gw-0", "gw-1"])
        for i in range(100):
            key = f"task-{i}"
            if full.owner(key) != "gw-2":
                assert reduced.owner(key) == full.owner(key)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["gw-0"], replicas=0)

    def test_fleet_wrapper(self):
        fleet = Fleet(["gw-1", "gw-0"])
        assert fleet.members == ("gw-0", "gw-1")
        assert len(fleet) == 2
        assert "gw-0" in fleet and "gw-9" not in fleet
        assert fleet.owner("x") in fleet.members


class TestHashRingMinimalMovement:
    """Consistent-hashing contract: membership churn moves ~K/N keys.

    Deterministic property sweep (no randomness beyond md5 itself): for a
    one-member delta in either direction, keys whose owner survives in both
    rings must never move between survivors, and the displaced fraction
    stays in the same ballpark as the ideal 1/N share.
    """

    MEMBERS = ("gw-0", "gw-1", "gw-2", "gw-3", "gw-4")
    KEYS = tuple(f"task-{i}" for i in range(300))

    @pytest.mark.parametrize("replicas", (8, 32, 64))
    def test_added_member_only_steals_keys(self, replicas):
        before = HashRing(self.MEMBERS, replicas=replicas)
        after = HashRing(self.MEMBERS + ("gw-new",), replicas=replicas)
        moved = 0
        for key in self.KEYS:
            if after.owner(key) != before.owner(key):
                # A key may move only *to* the joiner — survivors never
                # exchange keys among themselves.
                assert after.owner(key) == "gw-new"
                moved += 1
        # Ideal share is K/(N+1) = 50; virtual-node variance is bounded.
        assert 0 < moved < len(self.KEYS) * 0.45

    @pytest.mark.parametrize("replicas", (8, 32, 64))
    def test_removed_member_only_releases_keys(self, replicas):
        full = HashRing(self.MEMBERS, replicas=replicas)
        reduced = HashRing(
            tuple(m for m in self.MEMBERS if m != "gw-2"), replicas=replicas
        )
        displaced = 0
        for key in self.KEYS:
            if full.owner(key) == "gw-2":
                displaced += 1
                assert reduced.owner(key) != "gw-2"
            else:
                # Keys the departed member never owned must not move.
                assert reduced.owner(key) == full.owner(key)
        assert 0 < displaced < len(self.KEYS) * 0.45

    @pytest.mark.parametrize("replicas", (8, 32, 64))
    def test_round_trip_restores_ownership(self, replicas):
        """Remove-then-re-add lands every key back on its original owner."""
        full = HashRing(self.MEMBERS, replicas=replicas)
        rebuilt = HashRing(tuple(reversed(self.MEMBERS)), replicas=replicas)
        for key in self.KEYS:
            assert rebuilt.owner(key) == full.owner(key)


class TestWireProtocol:
    def test_claim_request_roundtrip(self):
        doc = parse_bytes(claim_request("task-1", "gw-0/t-1", "gw-0"))
        assert doc.require("task") == "task-1"
        assert doc.require("ticket") == "gw-0/t-1"
        assert doc.require("from") == "gw-0"

    def test_claim_reply_roundtrip(self):
        doc = parse_bytes(claim_reply("bound", "gw-1/t-7", "agent-3"))
        assert doc.require("verdict") == "bound"
        assert doc.findtext("ticket") == "gw-1/t-7"
        assert doc.findtext("agent") == "agent-3"

    def test_release_request_roundtrip(self):
        doc = parse_bytes(release_request("task-1", "gw-0/t-1"))
        assert doc.require("task") == "task-1"
        assert doc.require("ticket") == "gw-0/t-1"


# ---------------------------------------------------------------------------
# roamed retry: fleet-wide exactly-once
# ---------------------------------------------------------------------------


class TestRoamedRetry:
    def test_retry_at_other_gateway_returns_winner(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "roam-task")
        h1 = deploy(dep, forwarder, task_id="roam-task")
        h2 = deploy(dep, third, task_id="roam-task")
        assert h2.ticket == h1.ticket
        assert len(dispatched_agents(dep)) == 1
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.claim_bound"] >= 1

    def test_loser_ticket_superseded_with_pointer(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "sup-task")
        h1 = deploy(dep, forwarder, task_id="sup-task")
        deploy(dep, third, task_id="sup-task")
        losers = [
            t
            for t in dep.gateway(third).tickets()
            if t.task_id == "sup-task" and t.status == "superseded"
        ]
        assert len(losers) == 1
        assert losers[0].superseded_by == h1.ticket
        assert losers[0].agent_id == ""  # never launched
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway_superseded"] == 1

    def test_retry_at_owner_hits_binding_directly(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, _ = pick_gateways(dep, "owner-task")
        h1 = deploy(dep, forwarder, task_id="owner-task")
        h2 = deploy(dep, owner, task_id="owner-task")
        assert h2.ticket == h1.ticket
        assert len(dispatched_agents(dep)) == 1
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.dedup_hit"] >= 1

    def test_owner_handler_refuses_second_claimant(self):
        dep = build_dep()
        subscribe(dep)
        deploy(dep, pick_gateways(dep, "ref-task")[1], task_id="ref-task")
        deploy(dep, pick_gateways(dep, "ref-task")[2], task_id="ref-task")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.claims_refused"] >= 1

    def test_fleet_disabled_still_single_gateway_dedup(self):
        config = fleet_config(fleet_enabled=False)
        dep = build_dep(config=config)
        subscribe(dep)
        assert dep.fleet is None
        h1 = deploy(dep, "gw-0", task_id="t")
        h2 = deploy(dep, "gw-0", task_id="t")
        assert h2.ticket == h1.ticket
        # ...but a roamed retry duplicates: the structural gap under test.
        h3 = deploy(dep, "gw-1", task_id="t")
        assert h3.ticket != h1.ticket
        assert len(dispatched_agents(dep)) == 2


def post(dep, client, server, path, body):
    return drive(
        dep,
        http_request(
            dep.network, client, server, "POST", path,
            body=body, body_size=len(body), port=GATEWAY_PORT,
            raise_for_status=False,
        ),
    )


class TestFleetOfOne:
    """Without a shared fleet, every gateway is its own one-member fleet."""

    def test_standalone_gateway_arbitrates_claims(self):
        dep = build_dep(config=fleet_config(fleet_enabled=False))
        assert dep.gateway("gw-0").fleet.members == ("gw-0",)
        first = post(
            dep, "gw-1", "gw-0", FLEET_CLAIM_PATH,
            claim_request("solo-task", "gw-1/t-1", "gw-1"),
        )
        assert parse_bytes(first.body).get("verdict") == "granted"
        second = post(
            dep, "gw-2", "gw-0", FLEET_CLAIM_PATH,
            claim_request("solo-task", "gw-2/t-1", "gw-2"),
        )
        reply = parse_bytes(second.body)
        assert reply.get("verdict") == "bound"
        assert reply.findtext("ticket") == "gw-1/t-1"

    def test_standalone_drain_completes_and_keeps_its_state(self):
        dep = build_dep(config=fleet_config(fleet_enabled=False))
        subscribe(dep)
        handle = deploy(dep, "gw-0", task_id="solo-drain")
        gw = dep.gateway("gw-0")
        assert drive(dep, gw.drain()) == 0
        assert gw.fleet.view.drains_completed == [("gw-0", 2)]
        # No successor to hand anything to: all of it stays, declared.
        assert gw.drain_leftover == {handle.ticket, "solo-drain"}
        resp = post(dep, "pda", "gw-0", "/pi", b"<pi/>")
        assert resp.status == 503
        assert "Retry-After" in resp.headers
        assert "x-fleet-successor" not in resp.headers
        gw.restart()
        assert gw.fleet.view.state("gw-0") == "active"


class TestFleetIntake:
    """A malformed fleet RPC body gets a 400 and changes nothing."""

    def test_claim_with_malformed_epoch_is_refused(self):
        dep = build_dep()
        body = b'<claim task="bad-epoch" ticket="gw-1/t-1" from="gw-1" epoch="x"/>'
        resp = post(dep, "gw-1", "gw-0", FLEET_CLAIM_PATH, body)
        assert resp.status == 400
        assert dep.gateway("gw-0").dedup.lookup("bad-epoch") is None
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("http_500", 0) == 0

    def test_migrate_batch_with_malformed_item_applies_nothing(self):
        dep = build_dep()
        body = (
            b'<migrate from="gw-1" epoch="1">'
            b'<binding task="mig-task" ticket="gw-1/t-7"/>'
            b'<ticket id="gw-1/t-8" created="abc"/>'
            b"</migrate>"
        )
        resp = post(dep, "gw-1", "gw-0", FLEET_MIGRATE_PATH, body)
        assert resp.status == 400
        gw = dep.gateway("gw-0")
        # The good binding ahead of the bad ticket was not applied either.
        assert gw.dedup.lookup("mig-task") is None
        assert gw.storage.tickets.get("gw-1/t-8") is None
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("http_500", 0) == 0
        assert counters.get("fleet.migrated_in", 0) == 0

    def test_migrate_batch_applies_in_order(self):
        dep = build_dep()
        body = (
            b'<migrate from="gw-1" epoch="1">'
            b'<binding task="mig-task" ticket="gw-1/t-7"/>'
            b'<binding task="mig-task" ticket="gw-2/t-3"/>'
            b'<ticket id="gw-1/t-7" status="completed" created="2.5" task="mig-task">'
            b"<frame>0a0b</frame></ticket>"
            b"</migrate>"
        )
        resp = post(dep, "gw-1", "gw-0", FLEET_MIGRATE_PATH, body)
        assert resp.status == 200
        assert parse_bytes(resp.body).get("accepted") == "3"
        gw = dep.gateway("gw-0")
        # First wins: the second binding for the task is a conflict.
        assert gw.dedup.lookup("mig-task") == "gw-1/t-7"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.migrate_conflicts"] == 1
        ticket = gw.storage.tickets.get("gw-1/t-7")
        assert ticket.result_frame == b"\x0a\x0b"
        assert ticket.completed.triggered
        assert gw.file_directory.held("gw-1/t-7") == 2


def test_ticket_origin():
    assert ticket_origin("gw-0/t-12") == "gw-0"
    assert ticket_origin("legacy-ticket") == ""


# ---------------------------------------------------------------------------
# collect-anywhere
# ---------------------------------------------------------------------------


class TestCollectAnywhere:
    def test_collect_winner_via_third_gateway(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "col-task")
        h1 = deploy(dep, forwarder, task_id="col-task")
        h2 = deploy(dep, third, task_id="col-task")  # handle from the roam
        dep.sim.run(until=ticket_of(dep, h2.ticket).completed)
        result = drive(dep, dep.platform("pda").collect(h2, via=third))
        assert result.status == "completed"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway_relays"] >= 1

    def test_superseded_collect_redirects_to_winner(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "red-task")
        h1 = deploy(dep, forwarder, task_id="red-task")
        deploy(dep, third, task_id="red-task")
        dep.sim.run(until=ticket_of(dep, h1.ticket).completed)
        loser = next(
            t
            for t in dep.gateway(third).tickets()
            if t.task_id == "red-task" and t.status == "superseded"
        )
        # Download names the *loser* ticket at its own gateway: the gateway
        # must follow the supersede pointer to the winner's document (the
        # raw netmanager path — a device that only ever heard the loser id
        # has no dispatch record for the winner).
        frame = drive(
            dep,
            dep.platform("pda").netmanager.download_result(
                third, loser.ticket_id
            ),
        )
        assert frame
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway_supersede_redirects"] >= 1

    def test_collect_across_owner_crash_restart(self):
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "dur-task")
        handle = deploy(dep, forwarder, task_id="dur-task")
        origin = handle.ticket.partition("/t-")[0]
        dep.sim.run(until=ticket_of(dep, handle.ticket).completed)
        gw = dep.gateway(origin)
        gw.crash()
        gw.restart()
        # Ticket, result document and (a fleet member's) dedup binding
        # all survived the crash.
        result = drive(dep, dep.platform("pda").collect(handle, via=third))
        assert result.status == "completed"
        retry = deploy(dep, third, task_id="dur-task")
        assert retry.ticket == handle.ticket
        assert len(dispatched_agents(dep)) == 1


# ---------------------------------------------------------------------------
# chaos: crashes inside the claim window
# ---------------------------------------------------------------------------


class TestOwnerCrashMidForward:
    def test_owner_down_degrades_to_hinted_handoff_then_reconciles(self, monkeypatch):
        monkeypatch.setattr("repro.core.fleet.FLEET_CLAIM_TIMEOUT_S", 1.0)
        monkeypatch.setattr("repro.core.gateway.FLEET_RECONCILE_INTERVAL_S", 2.0)
        monkeypatch.setattr("repro.core.fleet.FLEET_BREAKER_COOLDOWN_S", 2.0)
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "la-task")
        dep.gateway(owner).crash()
        handle = deploy(dep, forwarder, task_id="la-task")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        # The owner's ring standby arbitrated the claim instead of a blind
        # local accept — and the claim stays on the reconcile ledger.
        assert counters["fleet.handoff_accepts"] == 1
        assert counters.get("fleet.local_accepts", 0) == 0
        # The dispatch went ahead — devices are never hung on fleet RPCs.
        assert handle.ticket.partition("/t-")[0] == forwarder
        dep.gateway(owner).restart()
        # The background reconciler re-claims once the owner is back.
        dep.sim.run(until=dep.sim.now + 10.0)
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("fleet.reconciled", 0) >= 1
        # The owner now redirects roamed retries to the reconciled ticket.
        retry = deploy(dep, third, task_id="la-task")
        assert retry.ticket == handle.ticket
        assert len(dispatched_agents(dep)) == 1

    def test_concurrent_roamers_serialize_through_standby(self, monkeypatch):
        """The hinted-handoff upgrade over blind local accept: while the
        owner is down, its ring standby arbitrates, so two concurrent
        roaming retries of one task converge on a single ticket — no
        duplicate agent is ever launched, not even transiently.
        """
        monkeypatch.setattr("repro.core.fleet.FLEET_CLAIM_TIMEOUT_S", 1.0)
        monkeypatch.setattr("repro.core.gateway.FLEET_RECONCILE_INTERVAL_S", 2.0)
        monkeypatch.setattr("repro.core.fleet.FLEET_BREAKER_COOLDOWN_S", 3.0)
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "dual-task")
        dep.gateway(owner).crash()
        h1 = deploy(dep, forwarder, task_id="dual-task")
        h2 = deploy(dep, third, task_id="dual-task")
        assert h1.ticket == h2.ticket  # the standby serialized both claims
        assert len(dispatched_agents(dep)) == 1
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.handoff_accepts"] >= 1
        dep.gateway(owner).restart()
        dep.sim.run(until=dep.sim.now + 30.0)
        live = [
            t
            for gw in GATEWAYS
            for t in dep.gateway(gw).tickets()
            if t.task_id == "dual-task"
            and t.status not in ("failed", "superseded")
        ]
        assert len(live) == 1
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("fleet.reconciled", 0) >= 1

    def test_breaker_rechecked_every_claim_round(self, monkeypatch):
        """Satellite fix: the forwarding breaker is consulted *per round*,
        not snapshotted once before the loop — a breaker that trips after
        two refused rounds stops the probing immediately instead of burning
        the remaining attempts against a dead owner.
        """
        monkeypatch.setattr("repro.core.fleet.FLEET_CLAIM_TIMEOUT_S", 1.0)
        monkeypatch.setattr("repro.core.fleet.FLEET_CLAIM_ATTEMPTS", 4)
        monkeypatch.setattr("repro.core.fleet.FLEET_BREAKER_COOLDOWN_S", 60.0)
        dep = build_dep()
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "brk-task")
        dep.gateway(owner).crash()
        handle = deploy(dep, forwarder, task_id="brk-task")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        # Two refused rounds trip the breaker; rounds three and four are
        # skipped (the old code would have shown four errors, no skip).
        assert counters["fleet.claim_error"] == 2
        assert counters["fleet.claim_skipped_breaker_open"] == 1
        # The dispatch still proceeded via the hinted-handoff standby.
        assert handle.ticket
        assert len(dispatched_agents(dep)) == 1

    def test_release_exhaustion_is_counted(self, monkeypatch):
        """Satellite fix: a release that cannot reach the owner retries a
        bounded number of times and then *counts* the failure instead of
        silently leaving the binding to linger until its TTL.
        """
        monkeypatch.setattr("repro.core.fleet.FLEET_RELEASE_ATTEMPTS", 2)
        monkeypatch.setattr("repro.core.fleet.FLEET_RELEASE_RETRY_S", 0.5)
        dep = build_dep()
        owner, forwarder, _ = pick_gateways(dep, "rel-task")
        dep.gateway(owner).crash()
        client = dep.gateway(forwarder).fleet_client
        drive(dep, client.release("rel-task", f"{forwarder}/t-9"))
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["fleet.release_failed"] == 1
        assert counters.get("fleet.release_recovered", 0) == 0

    def test_release_retry_recovers_across_restart(self, monkeypatch):
        """The bounded retry rides out a short owner outage: the second
        attempt lands after the restart and the exhaustion counter stays
        untouched.
        """
        monkeypatch.setattr("repro.core.fleet.FLEET_RELEASE_RETRY_S", 1.0)
        dep = build_dep()
        owner, forwarder, _ = pick_gateways(dep, "rec-task")
        gw = dep.gateway(owner)
        gw.crash()
        dep.sim.process(_restart_later(dep, gw, 0.5), name="test-restart")
        client = dep.gateway(forwarder).fleet_client
        drive(dep, client.release("rec-task", f"{forwarder}/t-9"))
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("fleet.release_failed", 0) == 0
        assert counters["fleet.release_recovered"] == 1

    def test_forwarder_crash_mid_claim_trips_epoch_guard(self):
        """The PR-5 intake guard, extended to the claim window: a forwarder
        that crashes while its claim RPC is in flight must fail the minted
        ticket (it was never launched) instead of dispatching it — the
        device's shed-retry then mints afresh, and exactly one agent runs.
        """
        config = fleet_config(shed_retry_after_s=3.0)
        dep = build_dep(config=config)
        subscribe(dep)
        owner, forwarder, third = pick_gateways(dep, "ep-task")
        gw = dep.gateway(forwarder)
        client = gw.fleet_client
        real_claim = client.claim

        def crashing_claim(task_id, ticket_id):
            # The crash lands while the claim is outstanding; the servlet
            # generator itself keeps running and must notice via the epoch.
            client.claim = real_claim
            gw.crash()
            yield dep.sim.timeout(0.1)
            return ("granted", "", "")

        client.claim = crashing_claim
        dep.sim.process(_restart_later(dep, gw, 1.0), name="test-restart")
        handle = deploy(dep, forwarder, task_id="ep-task")
        tickets = [
            t for t in dep.gateway(forwarder).tickets() if t.task_id == "ep-task"
        ]
        failed = [t for t in tickets if t.status == "failed"]
        assert len(failed) == 1 and failed[0].agent_id == ""
        assert len(dispatched_agents(dep)) == 1
        assert handle.ticket != failed[0].ticket_id
        live = [t for t in tickets if t.status not in ("failed", "superseded")]
        assert [t.ticket_id for t in live] == [handle.ticket]


def _restart_later(dep, gw, delay):
    yield dep.sim.timeout(delay)
    gw.restart()
