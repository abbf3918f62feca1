"""Streaming session layer: stores, resumable upload, partials, push.

Covers the session store, the chunked upload protocol end to end (happy
path, mid-upload link flap, gateway crash/restart on a standalone gateway
and on a fleet member), exactly-once across retried
commits, digest verification, partial-result streaming with cursor/epoch
semantics, reconnect-window push, TTL reaping, and the hop-progress
adaptive-polling satellite.
"""

import pytest

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder, PDAgentConfig
from repro.core.errors import ResultNotReadyError
from repro.core.session import (
    CHUNK_OFFSET_HEADER,
    NEXT_OFFSET_HEADER,
)
from repro.core.storage import SessionRecord, SessionStore
from repro.device.session import DeviceSession
from repro.mas import Stop
from repro.xmlcodec import Element, parse_bytes, write_bytes


def build_dep(seed=21, config=None, banks=("bank-a", "bank-b")):
    config = config or PDAgentConfig(session_enabled=True, session_chunk_bytes=64)
    builder = DeploymentBuilder(master_seed=seed, config=config)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    for bank in banks:
        builder.add_site(bank, services=[BankServiceAgent(bank_name=bank)])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


def drive(dep, gen):
    proc = dep.sim.process(gen)
    return dep.sim.run(until=proc)


def session_config(**overrides):
    base = dict(session_enabled=True, session_chunk_bytes=64)
    base.update(overrides)
    return PDAgentConfig(**base)


def subscribe(dep, platform):
    return drive(dep, platform.subscribe("ebanking", gateway="gw-0"))


def deploy_streaming(dep, platform, n=4, task_id=None):
    txns = make_transactions(["bank-a", "bank-b"], n)
    return drive(
        dep,
        platform.deploy_streaming(
            "ebanking",
            {"transactions": txns},
            stops=[Stop("bank-a"), Stop("bank-b")],
            gateway="gw-0",
            task_id=task_id,
        ),
    )


def packed_frame(dep, platform, task_id, n=4):
    """Pack a PI frame the way deploy_streaming would (for manual drives)."""
    stored = platform.db.find_code_by_service("ebanking")
    content = platform.dispatcher.build_content(
        stored,
        {"transactions": make_transactions(["bank-a", "bank-b"], n)},
        stops=[Stop("bank-a"), Stop("bank-b")],
        origin="gw-0",
        task_id=task_id,
    )
    packed = drive(dep, platform.dispatcher.pack_for(content, "gw-0"))
    return packed.data


# ---------------------------------------------------------------- stores
@pytest.fixture
def session_store():
    return SessionStore()


def record(sid="gw/s-1", task="task-1", total=100):
    return SessionRecord(
        session_id=sid, device_id="pda", task_id=task,
        total_bytes=total, digest="", created_at=0.0, last_contact=0.0,
    )


class TestSessionStores:
    def test_create_get_by_task_delete(self, session_store):
        rec = record()
        session_store.create(rec)
        assert session_store.get("gw/s-1") is not None
        assert session_store.by_task("task-1").session_id == "gw/s-1"
        assert len(session_store) == 1
        session_store.delete("gw/s-1")
        assert session_store.get("gw/s-1") is None
        assert session_store.by_task("task-1") is None

    def test_mutated_record_is_the_stored_one(self, session_store):
        # The store keeps the record object itself, so the session layer's
        # in-place updates need no write-back.
        rec = record()
        session_store.create(rec)
        rec.ticket_id = "gw/t-9"
        rec.last_contact = 4.5
        got = session_store.get("gw/s-1")
        assert got is rec
        assert got.ticket_id == "gw/t-9"
        assert got.last_contact == 4.5

    def test_chunks_round_trip(self, session_store):
        session_store.create(record())
        session_store.put_chunk("gw/s-1", 0, b"aaaa")
        session_store.put_chunk("gw/s-1", 4, b"bb")
        assert session_store.chunks("gw/s-1") == {0: b"aaaa", 4: b"bb"}
        session_store.delete("gw/s-1")
        assert session_store.chunks("gw/s-1") == {}

    def test_partials_keyed_by_ticket(self, session_store):
        session_store.append_partial("gw/t-1", {"seq": 1, "site": "a", "payload": "x", "at": 0.0})
        session_store.append_partial("gw/t-1", {"seq": 2, "site": "b", "payload": "y", "at": 1.0})
        got = session_store.partials("gw/t-1")
        assert [p["seq"] for p in got] == [1, 2]
        assert session_store.partials("gw/t-2") == []
        session_store.drop_partials("gw/t-1")
        assert session_store.partials("gw/t-1") == []


# ---------------------------------------------------------------- happy path
class TestStreamingHappyPath:
    def test_chunked_deploy_collect_and_partials(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform)
        session = dispatch.session
        assert session.chunks_sent > 1  # really chunked
        assert session.bytes_sent == len(session.frame)
        result = drive(dep, platform.collect_streaming(dispatch))
        assert result.status == "completed"
        # One partial per visited bank, in itinerary order, with decodable
        # payloads that match what the final document aggregates.
        assert [p["site"] for p in session.partials] == ["bank-a", "bank-b"]
        decoded = platform.streamed_partials(session)
        streamed_txns = [
            t for part in decoded for t in part["value"]["transactions"]
        ]
        assert len(streamed_txns) == len(result.data["transactions"])
        assert session.first_partial_at is not None
        assert session.first_partial_at <= dep.sim.now
        # Leak freedom: collect_streaming closed the session.
        assert dep.gateway("gw-0").sessions.open_sessions() == []

    def test_final_document_byte_identical_to_plain_download(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform)
        drive(dep, platform.collect_streaming(dispatch))
        streamed_xml = platform.db.get_result(dispatch.handle.ticket)
        # The same ticket, downloaded over the classic store-and-forward
        # path, must yield the identical document.
        frame = drive(
            dep,
            platform.netmanager.download_result(
                "gw-0", dispatch.handle.ticket
            ),
        )
        from repro.compressor import decompress

        plain_xml = decompress(platform.security.unprotect_result(frame))
        assert plain_xml == streamed_xml

    def test_duplicate_poll_returns_no_duplicates(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform)
        dep.sim.run(
            until=dep.gateway("gw-0").ticket(dispatch.handle.ticket).completed
        )
        first = drive(dep, dispatch.session.poll())
        assert len(first.fresh) == 2
        again = drive(dep, dispatch.session.poll())
        assert again.fresh == []
        assert len(dispatch.session.partials) == 2

    def test_sessions_disabled_answers_404(self):
        dep = build_dep(config=PDAgentConfig())  # session_enabled=False
        platform = dep.platform("pda")
        resp = drive(
            dep,
            platform.netmanager.session_exchange(
                "gw-0", "POST", "/session/open", body=b"<sessionopen/>"
            ),
        )
        assert resp.status == 404


# ---------------------------------------------------------------- faults
def flap_after_chunks(dep, session, chunks, outage):
    """Process: down the device's wireless link once ``chunks`` are sent."""
    net = dep.network
    while session.chunks_sent < chunks:
        yield dep.sim.timeout(0.002)
    net.set_link_state("pda", "backbone", False)
    net.set_link_state("backbone", "pda", False)
    yield dep.sim.timeout(outage)
    net.set_link_state("pda", "backbone", True)
    net.set_link_state("backbone", "pda", True)


class TestStreamingUnderFaults:
    def test_link_flap_mid_upload_resends_only_chunks(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        frame = packed_frame(dep, platform, task_id="task-flap")
        session = DeviceSession(
            platform.netmanager, "gw-0", platform.config,
            task_id="task-flap", frame=frame,
        )
        dep.sim.process(flap_after_chunks(dep, session, chunks=3, outage=1.5))
        ticket, agent_id = drive(dep, session.upload())
        assert ticket.startswith("gw-0/t-")
        # The whole point: a flap costs at most chunk-sized retransmits,
        # not the frame.  (Resume re-sends only the unacknowledged gap —
        # zero when the in-flight chunk landed and just its ack was lost.)
        assert session.reopens >= 1
        chunk = platform.config.session_chunk_bytes
        assert platform.netmanager.retransmitted_bytes <= 2 * chunk
        assert session.bytes_sent < len(frame) + 3 * 64
        dep.sim.run(until=dep.gateway("gw-0").ticket(ticket).completed)
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.session_commits"] == 1

    def test_gateway_restart_fleet_member_resumes_from_prefix(self):
        # A fleet member's sessions survive its crash.
        config = session_config(fleet_enabled=True)
        dep = build_dep(config=config)
        assert dep.gateway("gw-0").storage.durable
        platform = dep.platform("pda")
        subscribe(dep, platform)
        frame = packed_frame(dep, platform, task_id="task-crash")
        session = DeviceSession(
            platform.netmanager, "gw-0", platform.config,
            task_id="task-crash", frame=frame,
        )
        gw = dep.gateway("gw-0")

        def crasher():
            while session.chunks_sent < 3:
                yield dep.sim.timeout(0.002)
            gw.crash()
            yield dep.sim.timeout(1.0)
            gw.restart()

        dep.sim.process(crasher())
        ticket, _ = drive(dep, session.upload())
        assert ticket.startswith("gw-0/t-")
        # The received ranges survived: nothing before the crash was re-uploaded
        # beyond at most the chunk in flight plus the resync handshake.
        assert session.bytes_sent <= len(frame) + 2 * 64
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.session_commits"] == 1

    def test_gateway_restart_standalone_restarts_from_zero(self):
        dep = build_dep()  # standalone gateway: sessions die with the process
        platform = dep.platform("pda")
        subscribe(dep, platform)
        frame = packed_frame(dep, platform, task_id="task-wipe")
        session = DeviceSession(
            platform.netmanager, "gw-0", platform.config,
            task_id="task-wipe", frame=frame,
        )
        gw = dep.gateway("gw-0")

        def crasher():
            while session.chunks_sent < 3:
                yield dep.sim.timeout(0.002)
            gw.crash()
            yield dep.sim.timeout(1.0)
            gw.restart()

        dep.sim.process(crasher())
        ticket, _ = drive(dep, session.upload())
        assert ticket.startswith("gw-0/t-")
        # The wiped gateway answered 404; the device re-opened and started
        # over — visible as a reopen plus more than one frame's bytes sent.
        assert session.reopens >= 1
        assert session.bytes_sent > len(frame)
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.session_commits"] == 1

    def test_epoch_change_resets_partial_cursor(self):
        config = session_config(fleet_enabled=True)
        dep = build_dep(config=config)
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform)
        dep.sim.run(
            until=dep.gateway("gw-0").ticket(dispatch.handle.ticket).completed
        )
        first = drive(dep, dispatch.session.poll())
        assert len(first.fresh) == 2
        gw = dep.gateway("gw-0")
        gw.crash()
        gw.restart()
        # The stream epoch moved: the device resets its cursor and
        # re-accumulates; the ledger must equal the authoritative stream,
        # not double it.
        after = drive(dep, dispatch.session.poll())
        assert after.epoch == gw.crash_epoch
        assert [p["seq"] for p in dispatch.session.partials] == [1, 2]


# ---------------------------------------------------------------- exactly-once
class TestExactlyOnce:
    def test_retried_final_chunk_reanswers_same_ticket(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform)
        session = dispatch.session
        total = len(session.frame)
        chunk = platform.config.session_chunk_bytes
        last_offset = (total - 1) // chunk * chunk
        resp = drive(
            dep,
            platform.netmanager.session_exchange(
                "gw-0", "PUT", f"/session/chunk/{session.session_id}",
                body=session.frame[last_offset:],
                headers={CHUNK_OFFSET_HEADER: str(last_offset)},
            ),
        )
        assert resp.status == 200
        doc = parse_bytes(resp.body)
        assert doc.get("complete") == "1"
        assert doc.require_child("ticket").text == dispatch.handle.ticket
        assert len(dep.gateway("gw-0").tickets()) == 1

    def test_reopen_after_commit_short_circuits(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform, task_id="task-once")
        retry = DeviceSession(
            platform.netmanager, "gw-0", platform.config,
            task_id="task-once", frame=dispatch.session.frame,
        )
        ticket, _ = drive(dep, retry.upload())
        assert ticket == dispatch.handle.ticket
        assert retry.chunks_sent == 0  # not one byte re-uploaded

    def test_reopen_after_close_dedups_through_intake(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform, task_id="task-dedup")
        drive(dep, dispatch.session.close())
        retry = DeviceSession(
            platform.netmanager, "gw-0", platform.config,
            task_id="task-dedup", frame=dispatch.session.frame,
        )
        ticket, _ = drive(dep, retry.upload())
        assert ticket == dispatch.handle.ticket
        assert retry.chunks_sent == 0
        assert len(dep.gateway("gw-0").tickets()) == 1


# ---------------------------------------------------------------- protocol edges
def open_session(dep, platform, task_id, total, digest=""):
    doc = Element(
        "sessionopen",
        {"device": "pda", "task": task_id, "total": str(total), "digest": digest},
    )
    resp = drive(
        dep,
        platform.netmanager.session_exchange(
            "gw-0", "POST", "/session/open", body=write_bytes(doc)
        ),
    )
    assert resp.status == 200
    return parse_bytes(resp.body).require("id")


def put_chunk(dep, platform, sid, offset, data):
    return drive(
        dep,
        platform.netmanager.session_exchange(
            "gw-0", "PUT", f"/session/chunk/{sid}", body=data,
            headers={CHUNK_OFFSET_HEADER: str(offset)},
        ),
    )


class TestProtocolEdges:
    def test_digest_mismatch_scraps_session(self):
        dep = build_dep()
        platform = dep.platform("pda")
        data = bytes(range(100))
        sid = open_session(dep, platform, "task-bad", len(data), digest="0" * 32)
        resp = put_chunk(dep, platform, sid, 0, data)
        assert resp.status == 422
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.session_digest_mismatch"] == 1
        assert dep.gateway("gw-0").sessions.open_sessions() == []

    def test_gap_answers_409_with_resync_offset(self):
        dep = build_dep()
        platform = dep.platform("pda")
        sid = open_session(dep, platform, "task-gap", 200)
        resp = put_chunk(dep, platform, sid, 128, b"x" * 64)
        assert resp.status == 409
        assert resp.headers[NEXT_OFFSET_HEADER] == "0"

    def test_chunk_outside_frame_rejected(self):
        dep = build_dep()
        platform = dep.platform("pda")
        sid = open_session(dep, platform, "task-big", 100)
        resp = put_chunk(dep, platform, sid, 64, b"x" * 64)  # 128 > 100
        assert resp.status == 400

    def test_overlapping_chunk_is_trimmed_and_counted(self):
        dep = build_dep()
        platform = dep.platform("pda")
        sid = open_session(dep, platform, "task-lap", 200)
        assert put_chunk(dep, platform, sid, 0, b"a" * 64).status == 200
        resp = put_chunk(dep, platform, sid, 32, b"a" * 32 + b"b" * 32)
        assert resp.status == 200
        assert parse_bytes(resp.body).require("next") == "96"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.session_retransmitted_bytes"] == 32

    def test_idle_sessions_are_reaped(self, monkeypatch):
        monkeypatch.setattr("repro.core.session.SESSION_TTL_S", 5.0)
        dep = build_dep()
        platform = dep.platform("pda")
        open_session(dep, platform, "task-idle", 100)
        dep.sim.run(until=dep.sim.now + 60.0)
        open_session(dep, platform, "task-live", 100)
        sessions = dep.gateway("gw-0").sessions.open_sessions()
        assert [s.task_id for s in sessions] == ["task-live"]
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.session_expired"] == 1

    def test_session_admission_class_is_wired(self, monkeypatch):
        monkeypatch.setattr("repro.core.gateway.SESSION_WORKERS", 1)
        monkeypatch.setattr("repro.core.gateway.SESSION_QUEUE_LIMIT", 0)
        dep = build_dep()
        gw = dep.gateway("gw-0")
        from repro.core.errors import GatewayOverloadedError

        slot = gw.admission.try_admit("session")
        with pytest.raises(GatewayOverloadedError):
            gw.admission.try_admit("session")
        slot.release()


# ---------------------------------------------------------------- push
class TestReconnectPush:
    def test_service_update_and_result_ready_flush_on_poll(self):
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        dispatch = deploy_streaming(dep, platform)
        dep.sim.run(
            until=dep.gateway("gw-0").ticket(dispatch.handle.ticket).completed
        )
        # A catalogue update lands while the device is offline ...
        dep.catalog.publish(ebanking_service_code(version=2))
        poll = drive(dep, dispatch.session.poll())
        kinds = {e["kind"] for e in poll.events}
        # ... and is flushed, alongside the result-ready notice, on the
        # next contact.
        assert kinds == {"result-ready", "service-updated"}
        assert poll.ready
        update = next(e for e in poll.events if e["kind"] == "service-updated")
        assert update["service"] == "ebanking"
        assert update["version"] == "2"

    def test_push_queue_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.core.session.PUSH_QUEUE_LIMIT", 3)
        dep = build_dep()
        platform = dep.platform("pda")
        subscribe(dep, platform)
        deploy_streaming(dep, platform)
        for version in range(2, 9):
            dep.catalog.publish(ebanking_service_code(version=version))
        gw = dep.gateway("gw-0")
        queues = list(gw.sessions._push.values())
        assert all(len(q) <= 3 for q in queues)
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.session_push_dropped"] > 0


# ---------------------------------------------------------------- hop progress
class TestHopProgressSatellite:
    def test_not_ready_carries_hop_progress(self):
        dep = build_dep(config=PDAgentConfig())
        platform = dep.platform("pda")
        subscribe(dep, platform)
        txns = make_transactions(["bank-a", "bank-b"], 4)
        handle = drive(
            dep,
            platform.deploy(
                "ebanking", {"transactions": txns},
                stops=[Stop("bank-a"), Stop("bank-b")], gateway="gw-0",
            ),
        )
        with pytest.raises(ResultNotReadyError) as info:
            drive(dep, platform.collect(handle))
        assert info.value.hops_visited is not None
        assert info.value.hops_remaining is not None
        assert 0 <= info.value.hops_visited <= 2
        assert info.value.hops_remaining <= 2

    def test_adaptive_poll_waits_longer_with_hops_ahead(self, monkeypatch):
        monkeypatch.setattr("repro.core.platform.POLL_INTERVAL_S", 0.5)
        dep = build_dep(config=PDAgentConfig())
        platform = dep.platform("pda")
        subscribe(dep, platform)
        txns = make_transactions(["bank-a", "bank-b"], 4)
        handle = drive(
            dep,
            platform.deploy(
                "ebanking", {"transactions": txns},
                stops=[Stop("bank-a"), Stop("bank-b")], gateway="gw-0",
            ),
        )
        result = drive(dep, platform.collect_poll(handle))
        assert result.status == "completed"
