"""The gateway tier's stores: tickets, dedup bindings, streaming sessions.

Tickets model the servlet container's persistent state (§3.2): each one
keeps its retained result frame until the device collects it, and no crash
wipes them.  What else a crash keeps depends on fleet membership:

* **standalone** (``durable=False``) — the dedup index and the open upload
  sessions are process state.  A crash wipes both; restart rebuilds the
  index from the surviving tickets, which recovers it fully, because a
  standalone gateway only ever binds tickets it minted itself.  Devices
  restart their interrupted uploads from byte 0.
* **fleet member** (``durable=True``) — the index and the sessions survive.
  An owner's index also holds claims it granted for tickets other gateways
  minted, and no rebuild from its own tickets could restore those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .admission import DedupTable

if TYPE_CHECKING:  # pragma: no cover
    from .gateway import Ticket

__all__ = ["GatewayStorage", "SessionRecord", "TicketStore", "SessionStore"]


class TicketStore:
    """Every ticket a gateway holds, by id, in mint (or arrival) order."""

    def __init__(self) -> None:
        self._by_id: dict[str, "Ticket"] = {}

    def insert(self, ticket: "Ticket") -> None:
        self._by_id[ticket.ticket_id] = ticket

    def get(self, ticket_id: str) -> Optional["Ticket"]:
        return self._by_id.get(ticket_id)

    def delete(self, ticket_id: str) -> None:
        """Drop a ticket entirely (it migrated to another gateway)."""
        self._by_id.pop(ticket_id, None)

    def values(self) -> list["Ticket"]:
        return list(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, ticket_id: str) -> bool:
        return ticket_id in self._by_id


@dataclass
class SessionRecord:
    """State of one open device↔gateway streaming session.

    Chunks and partial-result entries live beside the record in the store
    (keyed by session and ticket respectively); the record itself carries
    only what the resume handshake needs.
    """

    session_id: str
    device_id: str
    task_id: str
    total_bytes: int
    digest: str
    created_at: float
    last_contact: float = 0.0
    #: Set once the assembled frame was dispatched — a committed session
    #: answers re-sent final chunks with the existing ticket.
    ticket_id: str = ""


class SessionStore:
    """Open upload sessions, their received chunks, and partial streams."""

    def __init__(self) -> None:
        self._by_id: dict[str, SessionRecord] = {}
        self._chunks: dict[str, dict[int, bytes]] = {}
        self._partials: dict[str, list[dict]] = {}

    # -- sessions -----------------------------------------------------------
    def create(self, record: SessionRecord) -> None:
        self._by_id[record.session_id] = record
        self._chunks.setdefault(record.session_id, {})

    def get(self, session_id: str) -> Optional[SessionRecord]:
        return self._by_id.get(session_id)

    def by_task(self, task_id: str) -> Optional[SessionRecord]:
        """The open session for ``task_id`` — the resume handshake's key."""
        if not task_id:
            return None
        for record in self._by_id.values():
            if record.task_id == task_id:
                return record
        return None

    def delete(self, session_id: str) -> None:
        self._by_id.pop(session_id, None)
        self._chunks.pop(session_id, None)

    def values(self) -> list[SessionRecord]:
        return list(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    # -- chunks -------------------------------------------------------------
    def put_chunk(self, session_id: str, offset: int, data: bytes) -> None:
        self._chunks.setdefault(session_id, {})[offset] = data

    def chunks(self, session_id: str) -> dict[int, bytes]:
        return dict(self._chunks.get(session_id, {}))

    # -- partial-result streams --------------------------------------------
    def append_partial(self, ticket_id: str, entry: dict) -> None:
        self._partials.setdefault(ticket_id, []).append(entry)

    def partials(self, ticket_id: str) -> list[dict]:
        return list(self._partials.get(ticket_id, []))

    def drop_partials(self, ticket_id: str) -> None:
        self._partials.pop(ticket_id, None)

    def clear(self) -> None:
        """Every open upload and partial stream dies with the process."""
        self._by_id.clear()
        self._chunks.clear()
        self._partials.clear()


class GatewayStorage:
    """One gateway's stores plus what a crash keeps of them."""

    def __init__(self, durable: bool) -> None:
        #: A fleet member's index and sessions outlive a crash.
        self.durable = durable
        self.tickets = TicketStore()
        self.dedup = DedupTable()
        self.sessions = SessionStore()

    def on_crash(self) -> None:
        """A standalone gateway loses its index and its open sessions."""
        if not self.durable:
            self.dedup.clear()
            self.sessions.clear()

    def on_restart(self) -> int:
        """Recover the dedup index; returns the number of usable bindings.

        A standalone gateway rebuilds it from its surviving tickets; a
        fleet member's index never died, and its count is reported as-is.
        """
        if self.durable:
            return len(self.dedup)
        return self.dedup.rebuild(self.tickets.values())
