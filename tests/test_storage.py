"""Tests for the gateway stores and what a gateway crash keeps of them.

* the ticket and dedup stores answer the way the gateway relies on;
* ``GatewayStorage.on_crash``/``on_restart`` implement the crash model: a
  standalone gateway (``durable=False``) loses its dedup index and open
  upload sessions and rebuilds the index from its tickets; a fleet member
  (``durable=True``) keeps both, including bindings for tickets that other
  gateways minted.
"""

from repro.core import GatewayStorage
from repro.core.gateway import Ticket
from repro.core.storage import SessionRecord
from repro.simnet.kernel import Simulator
from repro.simnet.primitives import Event


def tk(ticket_id, task_id="", status="dispatched", **kw):
    kw.setdefault("agent_id", f"mac-{ticket_id}")
    kw.setdefault("device_id", "pda")
    kw.setdefault("service", "ebanking")
    return Ticket(
        ticket_id=ticket_id,
        status=status,
        created_at=1.0,
        completed=Event(Simulator()),
        task_id=task_id,
        **kw,
    )


def open_session(storage, sid="gw-0/s-1", task="task-1"):
    storage.sessions.create(
        SessionRecord(
            session_id=sid, device_id="pda", task_id=task,
            total_bytes=100, digest="", created_at=0.0,
        )
    )
    storage.sessions.put_chunk(sid, 0, b"abcd")


class TestStores:
    def test_ticket_store_roundtrip(self):
        storage = GatewayStorage(durable=False)
        assert len(storage.tickets) == 0
        ticket = tk("gw-0/t-1", task_id="task-1")
        storage.tickets.insert(ticket)
        assert "gw-0/t-1" in storage.tickets
        assert storage.tickets.get("gw-0/t-1") is ticket
        assert storage.tickets.get("gw-0/t-9") is None
        assert storage.tickets.values() == [ticket]
        storage.tickets.delete("gw-0/t-1")
        storage.tickets.delete("gw-0/t-1")  # idempotent
        assert "gw-0/t-1" not in storage.tickets

    def test_dedup_roundtrip_with_ttl(self):
        dedup = GatewayStorage(durable=False).dedup
        dedup.bind("task-1", "gw-0/t-1")
        dedup.bind("", "ignored")  # empty task ids never bind
        assert dedup.lookup("task-1") == "gw-0/t-1"
        assert dedup.lookup("") is None
        assert len(dedup) == 1
        # Arm a TTL: before expiry the binding answers, at/after it lapses.
        dedup.set_expiry("task-1", 10.0)
        assert dedup.lookup("task-1", now=9.99) == "gw-0/t-1"
        assert dedup.lookup("task-1", now=10.0) is None
        assert len(dedup) == 0  # lazy expiry also purged the entry

    def test_dedup_purge_expired(self):
        dedup = GatewayStorage(durable=False).dedup
        dedup.bind("a", "t-a", expires_at=5.0)
        dedup.bind("b", "t-b", expires_at=50.0)
        dedup.bind("c", "t-c")  # no expiry: lives forever
        assert dedup.purge_expired(now=10.0) == 1
        assert dedup.lookup("a") is None
        assert dedup.lookup("b") == "t-b"
        assert dedup.lookup("c") == "t-c"


class TestCrashRestartContract:
    def test_volatile_crash_wipes_dedup_and_sessions_restart_rebuilds(self):
        storage = GatewayStorage(durable=False)
        storage.tickets.insert(tk("gw-0/t-1", task_id="task-1"))
        storage.tickets.insert(tk("gw-0/t-2", task_id="task-2", status="failed"))
        storage.dedup.bind("task-1", "gw-0/t-1")
        storage.dedup.bind("task-2", "gw-0/t-2")
        open_session(storage)
        storage.on_crash()
        assert storage.dedup.lookup("task-1") is None  # volatile: gone
        assert storage.sessions.get("gw-0/s-1") is None
        assert storage.sessions.chunks("gw-0/s-1") == {}
        assert storage.tickets.get("gw-0/t-1") is not None  # tickets survive
        rebuilt = storage.on_restart()
        assert rebuilt == 1
        assert storage.dedup.lookup("task-1") == "gw-0/t-1"
        # failed tickets never re-bind: their tasks retry afresh
        assert storage.dedup.lookup("task-2") is None

    def test_durable_crash_keeps_dedup_and_sessions(self):
        storage = GatewayStorage(durable=True)
        storage.tickets.insert(tk("gw-0/t-1", task_id="task-1"))
        storage.dedup.bind("task-1", "gw-0/t-1")
        # A claim this owner granted for a ticket another gateway minted:
        # no rebuild from its own tickets could restore it.
        storage.dedup.bind("task-9", "gw-1/t-5")
        open_session(storage)
        storage.on_crash()
        assert storage.dedup.lookup("task-1") == "gw-0/t-1"
        assert storage.dedup.lookup("task-9") == "gw-1/t-5"
        assert storage.sessions.get("gw-0/s-1") is not None
        assert storage.sessions.chunks("gw-0/s-1") == {0: b"abcd"}
        assert storage.on_restart() == 2  # index never died: reported as-is
        assert storage.dedup.lookup("task-9") == "gw-1/t-5"
