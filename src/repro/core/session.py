"""Streaming sessions: resumable uploads, partial results, reconnect push.

The store-and-forward contract of §3.2/§3.3 makes a weak wireless link pay
twice: a PI upload that dies mid-transfer restarts from byte 0, and the
device sees *nothing* of a multi-site itinerary until the whole tour is
finished.  This module adds a **session** between device and gateway with
three capabilities (cf. DIAMOnDS' live service streams and the handheld
grid-analysis system's incremental result push):

* **Chunked resumable upload** — the device splits the packed PI frame
  into chunks; the gateway keeps received ranges in its
  :class:`~repro.core.storage.SessionStore`, and a resume handshake (keyed
  by the task id) answers the first unacknowledged offset, so a LinkDown
  costs only the bytes in flight.
  The chunk that completes coverage assembles the frame, verifies its MD5
  digest, and hands it to the **existing** dedup/admission intake path
  (:meth:`~repro.core.gateway.Gateway._intake_frame`) — exactly-once is
  inherited, not re-implemented.
* **Partial-result streaming** — each itinerary hop reports its per-site
  result home (``POST /session/partial``); the gateway appends it to the
  ticket's result stream and a device poll drains everything past the
  device's cursor, so the first-hop answer arrives in ~one RTT.  The
  final document download is untouched (byte-identical to today's).
* **Reconnect-window push** — result-ready and service-updated events are
  queued per open session and flushed on the next poll, replacing blind
  fixed-interval polling.

Session messages run under their own admission class (``"session"``) so a
chunk flood can never starve result downloads.

Wire protocol (all under the ``/session/`` route prefix)::

    POST /session/open            <sessionopen device task total digest>
      -> <sessionopened id next epoch [ticket agent]>
    PUT  /session/chunk/<sid>     raw chunk bytes + x-chunk-offset header
      -> <sessionchunk next complete [ticket agent]>   (x-next-offset)
    GET  /session/poll/<sid>      x-partial-cursor header
      -> <sessionpoll cursor epoch ready> <partial/>* <event/>*
    POST /session/close/<sid>     -> 200
    POST /session/partial         <hopreport agent site>payload   (from MAS)

Crash semantics follow fleet membership: on a standalone gateway an open
session dies with the process (the device's re-open starts from byte 0);
on a fleet member the received ranges survive and the resume handshake
picks up where the crash left off.  Poll responses carry the gateway's
``crash_epoch`` so a device can detect a restart and reset its partial
cursor — the gateway's partial stream for a ticket is authoritative and
the device's accumulated list must stay a prefix of it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from ..crypto import md5_hex
from ..simnet.http import HttpRequest, HttpResponse
from ..telemetry.spans import SpanContext
from ..xmlcodec import Element, XmlError, parse_bytes, write_bytes
from .storage import SessionRecord

if TYPE_CHECKING:  # pragma: no cover
    from .gateway import Gateway, Ticket

__all__ = [
    "SessionManager",
    "SESSION_ID_HEADER",
    "CHUNK_OFFSET_HEADER",
    "NEXT_OFFSET_HEADER",
    "PARTIAL_CURSOR_HEADER",
    "STREAM_EPOCH_HEADER",
    "RESULT_READY_HEADER",
    "HOPS_VISITED_HEADER",
    "HOPS_REMAINING_HEADER",
]

#: Session id minted by the gateway at open, echoed in the chunk/poll path.
SESSION_ID_HEADER = "x-session-id"
#: Byte offset of the chunk carried in a ``PUT /session/chunk`` body.
CHUNK_OFFSET_HEADER = "x-chunk-offset"
#: First unacknowledged byte — what the device should send next.
NEXT_OFFSET_HEADER = "x-next-offset"
#: Device's partial-result cursor (count of partials already consumed).
PARTIAL_CURSOR_HEADER = "x-partial-cursor"
#: Gateway crash epoch; a change tells the device to reset its cursor.
STREAM_EPOCH_HEADER = "x-stream-epoch"
#: "1" on a poll response when the final result document is downloadable.
RESULT_READY_HEADER = "x-result-ready"
#: Hop progress on a 204 "result not ready": sites already visited …
HOPS_VISITED_HEADER = "x-hops-visited"
#: … and sites still ahead of the agent (adaptive-poll hint).
HOPS_REMAINING_HEADER = "x-hops-remaining"
#: Idle session retention: an open session with no contact for this many
#: seconds is reaped (its partial upload state is dropped).
SESSION_TTL_S = 600.0
#: Per-session reconnect-window push queue bound; when full the oldest
#: notification is dropped (the poll fallback still covers it).
PUSH_QUEUE_LIMIT = 64


class SessionManager:
    """Gateway-side session state machine.

    Owns no HTTP routes itself — :class:`~repro.core.gateway.Gateway`
    registers ``/session/`` and dispatches here under a held ``"session"``
    admission slot.  Session state (records, received ranges, partial
    streams) lives in ``gateway.storage.sessions``, which a fleet member
    keeps across a crash; the push queues are process memory, lost on
    every crash like any other servlet-session state.
    """

    def __init__(self, gateway: "Gateway") -> None:
        self.gateway = gateway
        self.metrics = gateway.metrics
        self._counter = itertools.count(1)
        #: Per-session queued notifications (dicts), flushed on next poll.
        self._push: dict[str, list[dict]] = {}

    # ------------------------------------------------------------ plumbing
    @property
    def store(self):
        return self.gateway.storage.sessions

    @property
    def sim(self):
        return self.gateway.sim

    def open_sessions(self) -> list[SessionRecord]:
        """Live session records (leak audits and experiments)."""
        return self.store.values()

    def on_crash(self) -> None:
        """The push queues die with the gateway process."""
        self._push.clear()

    # ------------------------------------------------------------ internals
    def _prefix(self, session_id: str) -> int:
        """Contiguous byte coverage from offset 0 — the resume point."""
        chunks = self.store.chunks(session_id)
        prefix = 0
        while prefix in chunks:
            prefix += len(chunks[prefix])
        return prefix

    def _touch(self, record: SessionRecord) -> None:
        record.last_contact = self.sim.now

    def _reap(self) -> None:
        """Lazily expire idle sessions (no background process: a reaper
        firing at quiescence would never let the swarm drain)."""
        now = self.sim.now
        for record in self.store.values():
            if now - record.last_contact > SESSION_TTL_S:
                self.store.delete(record.session_id)
                self._push.pop(record.session_id, None)
                self.metrics.counter("gateway.session_expired").inc()

    def _ticket_for_agent(self, agent_id: str) -> Optional["Ticket"]:
        for ticket in self.gateway.storage.tickets.values():
            if ticket.agent_id == agent_id:
                return ticket
        return None

    def _epoch_headers(self, extra: Optional[dict[str, str]] = None) -> dict:
        headers = {STREAM_EPOCH_HEADER: str(self.gateway.crash_epoch)}
        if extra:
            headers.update(extra)
        return headers

    # ------------------------------------------------------------ open/resume
    def handle_open(self, req: HttpRequest) -> HttpResponse:
        """``POST /session/open``: create — or resume — an upload session.

        The handshake is keyed by the device task id: a re-open after a
        LinkDown (or a fleet member's restart) finds the existing record
        and answers the first unacknowledged offset.  A
        task that already dispatched (the completing chunk's response was
        lost, or the session expired after commit) short-circuits to the
        existing ticket via the dedup index — the device skips the upload
        entirely.
        """
        self._reap()
        try:
            doc = parse_bytes(req.body)
            device_id = doc.require("device")
            task_id = doc.require("task")
            total = int(doc.require("total"))
            digest = doc.get("digest", "")
        except (XmlError, KeyError, ValueError, TypeError) as exc:
            return HttpResponse(400, reason=f"bad session open: {exc}")
        if total <= 0:
            return HttpResponse(400, reason="total must be positive")
        record = self.store.by_task(task_id) if task_id else None
        if (
            record is not None
            and not record.ticket_id
            and (record.total_bytes != total or record.digest != digest)
        ):
            # The device re-packed the frame for this task (a deploy retry
            # builds a fresh trace/origin into the PI), so the stale
            # partial can never assemble.  Supersede it rather than
            # trapping every chunk in a 400 against the old announced
            # size.  A committed record is never superseded — the dedup
            # short-circuit below answers the existing ticket instead.
            self.store.delete(record.session_id)
            self.metrics.counter("gateway.session_superseded").inc()
            record = None
        if record is not None:
            self._touch(record)
            next_offset = self._prefix(record.session_id)
            self.metrics.counter("gateway.session_resumes").inc()
        else:
            # Upload already done in a previous (lost/expired) session?
            existing = self.gateway._dedup_answer(task_id)
            if existing is not None:
                return self._opened_response(
                    session_id="", next_offset=total,
                    ticket_id=existing[0], agent_id=existing[1],
                )
            record = SessionRecord(
                session_id=f"{self.gateway.address}/s-{next(self._counter)}",
                device_id=device_id,
                task_id=task_id,
                total_bytes=total,
                digest=digest,
                created_at=self.sim.now,
                last_contact=self.sim.now,
            )
            self.store.create(record)
            next_offset = 0
            self.metrics.counter("gateway.session_opens").inc()
        if record.ticket_id:
            # Commit response was lost: re-answer the dispatched ticket.
            ticket = self.gateway.storage.tickets.get(record.ticket_id)
            return self._opened_response(
                session_id=record.session_id, next_offset=record.total_bytes,
                ticket_id=record.ticket_id,
                agent_id=ticket.agent_id if ticket is not None else "",
            )
        return self._opened_response(record.session_id, next_offset)

    def _opened_response(
        self,
        session_id: str,
        next_offset: int,
        ticket_id: str = "",
        agent_id: str = "",
    ) -> HttpResponse:
        doc = Element(
            "sessionopened",
            {
                "id": session_id,
                "next": str(next_offset),
                "epoch": str(self.gateway.crash_epoch),
            },
        )
        if ticket_id:
            doc.add("ticket", text=ticket_id)
            doc.add("agent", text=agent_id)
        body = write_bytes(doc)
        return HttpResponse(
            200, body=body, body_size=len(body),
            headers=self._epoch_headers({NEXT_OFFSET_HEADER: str(next_offset)}),
        )

    # ------------------------------------------------------------ chunks
    def handle_chunk(self, req: HttpRequest, session_id: str) -> Generator:
        """``PUT /session/chunk/<sid>``: accept one chunk; commit on cover.

        Accept rules (``prefix`` = contiguous stored bytes from 0):

        * ``offset == prefix`` — append (the normal case);
        * ``offset + len <= prefix`` — duplicate retransmit, acknowledged
          idempotently (the device's previous send made it but the
          response was lost);
        * ``offset < prefix < offset + len`` — overlap, trimmed to the
          novel tail;
        * ``offset > prefix`` — a gap the gateway never saw (e.g. a crash
          under the memory backend dropped the ranges): 409 with
          ``x-next-offset`` resynchronises the device.

        The chunk that completes coverage assembles the frame, verifies
        the digest, and drives the shared PI intake — the response then
        carries the dispatched ticket, saving the separate commit RTT.
        A retried final chunk finds ``record.ticket_id`` set and
        re-answers it (or, after a commit lost to a crash, dedups through
        the intake path) — exactly-once holds end to end.
        """
        self._reap()
        tele = self.gateway.network.telemetry
        record = self.store.get(session_id)
        if record is None:
            return HttpResponse(404, reason=f"unknown session {session_id!r}")
            yield  # pragma: no cover - unreachable; keeps handler a generator
        if not isinstance(req.body, (bytes, bytearray)):
            return HttpResponse(400, reason="chunk body must be bytes")
        try:
            offset = int(req.headers.get(CHUNK_OFFSET_HEADER, ""))
        except ValueError:
            return HttpResponse(400, reason=f"missing {CHUNK_OFFSET_HEADER}")
        if offset < 0 or offset + len(req.body) > record.total_bytes:
            return HttpResponse(400, reason="chunk outside the announced frame")
        self._touch(record)
        span = tele.start_span(
            "gateway.session_chunk",
            node=self.gateway.address,
            parent=SpanContext.from_headers(req.headers),
            attrs={"session": session_id, "offset": offset, "bytes": len(req.body)},
        )
        try:
            self.metrics.counter("gateway.session_chunks").inc()
            if record.ticket_id:
                # Already committed — the completing chunk's response was
                # lost and this is its retransmit.
                self.metrics.counter("gateway.session_retransmitted_bytes").inc(
                    len(req.body)
                )
                ticket = self.gateway.storage.tickets.get(record.ticket_id)
                span.end(status="duplicate")
                return self._chunk_response(
                    record, next_offset=record.total_bytes, complete=True,
                    ticket_id=record.ticket_id,
                    agent_id=ticket.agent_id if ticket is not None else "",
                )
            prefix = self._prefix(session_id)
            data = bytes(req.body)
            if offset > prefix:
                span.end(status="gap")
                return HttpResponse(
                    409,
                    reason=f"gap: have {prefix}, got offset {offset}",
                    headers=self._epoch_headers(
                        {NEXT_OFFSET_HEADER: str(prefix)}
                    ),
                )
            if offset + len(data) <= prefix:
                # Whole chunk already covered: idempotent ack.
                self.metrics.counter("gateway.session_retransmitted_bytes").inc(
                    len(data)
                )
                span.end(status="duplicate")
                return self._chunk_response(record, prefix, complete=False)
            if offset < prefix:
                self.metrics.counter("gateway.session_retransmitted_bytes").inc(
                    prefix - offset
                )
                data = data[prefix - offset:]
            self.store.put_chunk(session_id, prefix, data)
            next_offset = prefix + len(data)
            if next_offset < record.total_bytes:
                span.end(next=next_offset)
                return self._chunk_response(record, next_offset, complete=False)
            resp = yield from self._commit(record, req, span)
            return resp
        finally:
            if span.open:
                span.end(status="error")

    def _commit(self, record: SessionRecord, req: HttpRequest, span) -> Generator:
        """Assemble the covered frame and drive the shared intake path."""
        chunks = self.store.chunks(record.session_id)
        frame = b"".join(chunks[off] for off in sorted(chunks))
        if record.digest and md5_hex(frame) != record.digest:
            # Corrupt reassembly (should never happen: the invariant
            # catalogue counts these).  Scrap the session; the device
            # re-opens and uploads afresh.
            self.metrics.counter("gateway.session_digest_mismatch").inc()
            self.store.delete(record.session_id)
            self._push.pop(record.session_id, None)
            span.end(status="digest-mismatch")
            return HttpResponse(422, reason="assembled frame digest mismatch")
        resp = yield from self.gateway._intake_frame(
            frame,
            task_id=record.task_id,
            trace=SpanContext.from_headers(req.headers),
        )
        if resp.status != 200:
            # Shed (503) or rejection (4xx): pass the structured answer
            # through; the device retries the final chunk (idempotent) or
            # gives up.  The session stays open for the retry.
            span.end(status=f"intake-{resp.status}")
            return resp
        doc = parse_bytes(resp.body)
        record.ticket_id = doc.require_child("ticket").text
        agent_id = doc.require_child("agent").text
        self.metrics.counter("gateway.session_commits").inc()
        span.end(status="committed", ticket=record.ticket_id)
        return self._chunk_response(
            record, record.total_bytes, complete=True,
            ticket_id=record.ticket_id, agent_id=agent_id,
        )

    def _chunk_response(
        self,
        record: SessionRecord,
        next_offset: int,
        complete: bool,
        ticket_id: str = "",
        agent_id: str = "",
    ) -> HttpResponse:
        doc = Element(
            "sessionchunk",
            {"next": str(next_offset), "complete": "1" if complete else "0"},
        )
        if ticket_id:
            doc.add("ticket", text=ticket_id)
            doc.add("agent", text=agent_id)
        body = write_bytes(doc)
        return HttpResponse(
            200, body=body, body_size=len(body),
            headers=self._epoch_headers({NEXT_OFFSET_HEADER: str(next_offset)}),
        )

    # ------------------------------------------------------------ partials
    def receive_hop_report(self, req: HttpRequest) -> HttpResponse:
        """``POST /session/partial``: a MAS hop reporting its site result.

        Body is ``<hopreport agent site>serialized-value</hopreport>``;
        the payload text is the site result's XML serialization, stored
        verbatim in the ticket's partial stream and handed to the device
        as-is on poll.
        """
        try:
            doc = parse_bytes(req.body)
            agent_id = doc.require("agent")
            site = doc.require("site")
        except (XmlError, KeyError, TypeError) as exc:
            return HttpResponse(400, reason=f"bad hop report: {exc}")
        ticket = self._ticket_for_agent(agent_id)
        if ticket is None:
            # Agent unknown here (e.g. crash wiped the ticket): drop — the
            # final document is the authoritative result anyway.
            self.metrics.counter("gateway.session_partials_dropped").inc()
            return HttpResponse(404, reason=f"no ticket for agent {agent_id!r}")
        seq = len(self.store.partials(ticket.ticket_id)) + 1
        self.store.append_partial(
            ticket.ticket_id,
            {"seq": seq, "site": site, "payload": doc.text, "at": self.sim.now},
        )
        self.metrics.counter("gateway.session_partials").inc()
        self.gateway.network.telemetry.instant(
            "session.partial",
            node=self.gateway.address,
            trace=SpanContext.from_headers(req.headers),
            attrs={"ticket": ticket.ticket_id, "site": site, "seq": seq},
        )
        return HttpResponse(200, body=b"", body_size=0)

    # ------------------------------------------------------------ poll/push
    def handle_poll(self, req: HttpRequest, session_id: str) -> HttpResponse:
        """``GET /session/poll/<sid>``: drain partials + queued events.

        Returns every partial past the device's cursor
        (``x-partial-cursor``) plus all notifications queued on the
        session since the last contact.  The response's ``epoch``
        attribute is the gateway crash epoch: when it moves, the device
        resets its cursor to 0 and re-accumulates — the gateway's stream
        is authoritative and the device copy must remain a prefix of it.
        """
        self._reap()
        record = self.store.get(session_id)
        if record is None:
            return HttpResponse(404, reason=f"unknown session {session_id!r}")
        self._touch(record)
        try:
            cursor = int(req.headers.get(PARTIAL_CURSOR_HEADER, "0"))
        except ValueError:
            return HttpResponse(400, reason=f"bad {PARTIAL_CURSOR_HEADER}")
        self.metrics.counter("gateway.session_polls").inc()
        partials: list[dict] = []
        ready = False
        if record.ticket_id:
            partials = self.store.partials(record.ticket_id)
            ticket = self.gateway.storage.tickets.get(record.ticket_id)
            ready = ticket is not None and ticket.result_frame is not None
        doc = Element(
            "sessionpoll",
            {
                "cursor": str(len(partials)),
                "epoch": str(self.gateway.crash_epoch),
                "ready": "1" if ready else "0",
            },
        )
        for entry in partials[max(0, cursor):]:
            doc.add(
                "partial",
                {"seq": str(entry["seq"]), "site": entry["site"]},
                text=entry["payload"],
            )
        for event in self._push.pop(session_id, []):
            doc.add("event", {k: str(v) for k, v in event.items()})
        body = write_bytes(doc)
        return HttpResponse(
            200, body=body, body_size=len(body),
            headers=self._epoch_headers(
                {RESULT_READY_HEADER: "1" if ready else "0"}
            ),
        )

    def _queue(self, session_id: str, event: dict) -> None:
        queue = self._push.setdefault(session_id, [])
        if len(queue) >= PUSH_QUEUE_LIMIT:
            queue.pop(0)
            self.metrics.counter("gateway.session_push_dropped").inc()
        queue.append(event)
        self.metrics.counter("gateway.session_push").inc()

    def notify_result_ready(self, ticket: "Ticket") -> None:
        """Queue a result-ready event on the dispatching device's sessions."""
        for record in self.store.values():
            if record.device_id == ticket.device_id:
                self._queue(
                    record.session_id,
                    {"kind": "result-ready", "ticket": ticket.ticket_id},
                )

    def notify_service_updated(self, code) -> None:
        """Queue a catalogue-update event on every subscriber's sessions."""
        subscribers = set(self.gateway.directory.subscribers_of(code.service))
        if not subscribers:
            return
        for record in self.store.values():
            if record.device_id in subscribers:
                self._queue(
                    record.session_id,
                    {
                        "kind": "service-updated",
                        "service": code.service,
                        "version": code.version,
                    },
                )

    # ------------------------------------------------------------ close
    def handle_close(self, req: HttpRequest, session_id: str) -> HttpResponse:
        """``POST /session/close/<sid>``: the device is done with the session.

        Partial streams are kept (they are keyed by ticket and reclaimed
        with the result document); the session record and its push queue
        go away — the no-leak invariant checks exactly this at quiescence.
        """
        record = self.store.get(session_id)
        if record is not None:
            self.store.delete(session_id)
            self.metrics.counter("gateway.session_closes").inc()
        self._push.pop(session_id, None)
        return HttpResponse(200, body=b"", body_size=0)
