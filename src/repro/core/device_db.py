"""The platform's internal database on the handheld (RMS-backed).

Three record stores, as in the prototype's "Internal Database Management"
screen:

* ``macode``  — downloaded MA application code, keyed by unique code id;
  stored **compressed** ("compressing the agent code before storing it in
  the device's database" — §5);
* ``results`` — collected result XML documents;
* ``dispatch`` — the device-side ledger of dispatched agents (ticket,
  agent id, gateway, status), which the Mobile Agent Management UI lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..compressor import compress, decompress
from ..rms import StorageManager
from ..xmlcodec import XML_DECLARATION, parse_bytes, write_bytes
from ..mas.serializer import typed_xml
from .errors import PDAgentError, SubscriptionError
from .subscription import ServiceCode, code_from_xml, code_to_xml

__all__ = ["InternalDatabase", "StoredCode", "DispatchRecord"]


@dataclass(frozen=True)
class StoredCode:
    """A subscription stored on the device."""

    code_id: str
    code: ServiceCode
    record_id: int
    stored_bytes: int


@dataclass
class DispatchRecord:
    """Device-side record of one deployed application instance."""

    ticket: str
    agent_id: str
    gateway: str
    service: str
    status: str  # "dispatched" | "collected" | "retracted" | "disposed"
    dispatched_at: float


class InternalDatabase:
    """RMS-backed persistent state of a PDAgent platform instance."""

    def __init__(self, storage: StorageManager, codec: str = "lzss") -> None:
        self.codec = codec
        self._codes = storage.open("macode")
        self._results = storage.open("results")
        self._dispatch = storage.open("dispatch")
        # In-memory indices over the record stores (rebuilt on construction;
        # a long-lived device would persist them as index records).
        self._code_index: dict[str, StoredCode] = {}
        self._result_index: dict[str, int] = {}  # ticket -> record id
        self._dispatch_index: dict[str, tuple[int, DispatchRecord]] = {}

    # ------------------------------------------------------------ MA code store
    def store_code(self, code: ServiceCode, code_id: str) -> StoredCode:
        """Persist downloaded MA code (compressed) under its unique id."""
        if not code_id:
            raise SubscriptionError("cannot store code without a unique id")
        frame = compress(write_bytes(code_to_xml(code, code_id)), self.codec)
        existing = self._code_index.get(code_id)
        if existing is not None:
            self._codes.set_record(existing.record_id, frame)
            stored = StoredCode(code_id, code, existing.record_id, len(frame))
        else:
            record_id = self._codes.add_record(frame)
            stored = StoredCode(code_id, code, record_id, len(frame))
        self._code_index[code_id] = stored
        return stored

    def get_code(self, code_id: str) -> StoredCode:
        try:
            return self._code_index[code_id]
        except KeyError:
            raise SubscriptionError(f"no stored code with id {code_id!r}") from None

    def find_code_by_service(self, service: str) -> Optional[StoredCode]:
        """Latest stored code for a service name (None if not subscribed)."""
        best: Optional[StoredCode] = None
        for stored in self._code_index.values():
            if stored.code.service != service:
                continue
            if best is None or stored.code.version > best.code.version:
                best = stored
        return best

    def list_codes(self) -> list[StoredCode]:
        return sorted(self._code_index.values(), key=lambda s: s.code_id)

    def delete_code(self, code_id: str) -> None:
        stored = self.get_code(code_id)
        self._codes.delete_record(stored.record_id)
        del self._code_index[code_id]

    def load_code_document(self, code_id: str) -> tuple[ServiceCode, str]:
        """Decompress and re-parse the stored document (integrity check)."""
        stored = self.get_code(code_id)
        root = parse_bytes(decompress(self._codes.get_record(stored.record_id)))
        return code_from_xml(root)

    # ------------------------------------------------------------ results store
    def store_result(self, ticket: str, xml_bytes: bytes) -> int:
        """Persist a collected result document (compressed)."""
        frame = compress(xml_bytes, self.codec)
        record_id = self._results.add_record(frame)
        self._result_index[ticket] = record_id
        return record_id

    def get_result(self, ticket: str) -> bytes:
        try:
            record_id = self._result_index[ticket]
        except KeyError:
            raise PDAgentError(f"no stored result for ticket {ticket!r}") from None
        return decompress(self._results.get_record(record_id))

    def list_results(self) -> list[str]:
        return sorted(self._result_index)

    # ------------------------------------------------------------ dispatch ledger
    def record_dispatch(self, record: DispatchRecord) -> None:
        record_id = self._dispatch.add_record(_dispatch_document(record))
        self._dispatch_index[record.ticket] = (record_id, record)

    def update_dispatch_status(self, ticket: str, status: str) -> None:
        record_id, record = self._lookup_dispatch(ticket)
        record.status = status
        self._dispatch.set_record(record_id, _dispatch_document(record))

    def get_dispatch(self, ticket: str) -> DispatchRecord:
        return self._lookup_dispatch(ticket)[1]

    def list_dispatches(self) -> list[DispatchRecord]:
        return [rec for _, rec in sorted(self._dispatch_index.values())]

    def _lookup_dispatch(self, ticket: str) -> tuple[int, DispatchRecord]:
        try:
            return self._dispatch_index[ticket]
        except KeyError:
            raise PDAgentError(f"unknown dispatch ticket {ticket!r}") from None

    # ------------------------------------------------------------ footprint
    @property
    def stored_bytes(self) -> int:
        """Total database bytes charged against the device quota."""
        return (
            self._codes.size_bytes
            + self._results.size_bytes
            + self._dispatch.size_bytes
        )


def _dispatch_document(record: DispatchRecord) -> bytes:
    """The dispatch ledger's stored form of ``record`` (UTF-8 XML)."""
    fields = {
        "ticket": record.ticket,
        "agent_id": record.agent_id,
        "gateway": record.gateway,
        "service": record.service,
        "status": record.status,
        "dispatched_at": record.dispatched_at,
    }
    return (XML_DECLARATION + typed_xml(fields, "dispatch")).encode("utf-8")
