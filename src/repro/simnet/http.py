"""HTTP-like request/response protocol over the simulated transport.

PDAgent's device↔gateway traffic is plain HTTP (the prototype ran Tomcat +
Java Servlets).  This module provides:

* :class:`HttpServer` — path-routed request handlers on a node.  Handlers are
  either plain functions returning an :class:`HttpResponse` or generator
  processes (so a handler can itself perform simulated work/IO before
  answering — e.g. the gateway dispatching a mobile agent).
* :func:`request` — a client process: connect, send request, await response,
  close.  Exactly one connection per request (HTTP/1.0 semantics, matching
  the era and making connection-time accounting transparent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .node import Node
from .transport import Connection, ConnectionClosed, Socket, connect

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "HttpError",
    "HttpServer",
    "request",
    "DEFAULT_HTTP_PORT",
]

DEFAULT_HTTP_PORT = 80
#: Rough size of request/status line + headers on the wire.
REQUEST_OVERHEAD_BYTES = 160
RESPONSE_OVERHEAD_BYTES = 120


class HttpError(Exception):
    """Raised client-side for non-2xx responses when ``raise_for_status``.

    Compat wrapper around the structured error path: the full
    :class:`HttpResponse` (status, reason, **headers**, body) rides along as
    ``.response``, so callers that need more than the status line — e.g. a
    503's ``Retry-After`` header — can inspect it instead of string-parsing
    the message.  Callers that want no exception at all pass
    ``raise_for_status=False`` and branch on ``resp.status`` directly.
    """

    def __init__(
        self, status: int, reason: str, response: Optional["HttpResponse"] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {reason}")
        self.status = status
        self.reason = reason
        self.response = response

    @property
    def headers(self) -> dict[str, str]:
        return self.response.headers if self.response is not None else {}


@dataclass(frozen=True)
class HttpRequest:
    """A client request.  ``body`` is opaque; ``body_size`` are its bytes."""

    method: str
    path: str
    body: Any = None
    body_size: int = 0
    headers: dict[str, str] = field(default_factory=dict)
    client: str = ""

    @property
    def wire_size(self) -> int:
        return self.body_size + REQUEST_OVERHEAD_BYTES

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST", "PUT", "DELETE", "HEAD"):
            raise ValueError(f"unsupported method {self.method!r}")
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/', got {self.path!r}")
        if self.body_size < 0:
            raise ValueError("negative body_size")


@dataclass(frozen=True)
class HttpResponse:
    """A server response."""

    status: int
    body: Any = None
    body_size: int = 0
    reason: str = ""
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def wire_size(self) -> int:
        return self.body_size + RESPONSE_OVERHEAD_BYTES

    @property
    def retry_after(self) -> Optional[float]:
        """Parsed ``Retry-After`` header (seconds), or None if absent/bad."""
        raw = self.headers.get("Retry-After")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value >= 0 else None


Handler = Callable[[HttpRequest], Any]


class HttpServer:
    """Path-routed HTTP server bound to a node.

    Longest-prefix routing: a handler registered at ``/agent/`` receives
    ``/agent/dispatch``.  Exact paths win over prefixes.
    """

    def __init__(
        self,
        node: Node,
        port: int = DEFAULT_HTTP_PORT,
        service_time: float = 0.0,
    ) -> None:
        """``service_time`` is fixed per-request server compute (seconds)."""
        if node.network is None:
            raise RuntimeError("node must be attached to a network first")
        self.node = node
        self.network = node.network
        self.port = port
        self.service_time = service_time
        self._exact: dict[str, Handler] = {}
        self._prefix: dict[str, Handler] = {}
        self._requests_metric = f"http_requests:{node.address}"
        node.listen(port, self._accept)

    def route(self, path: str, handler: Handler) -> None:
        """Register ``handler`` for ``path`` (trailing ``/`` = prefix route)."""
        if not path.startswith("/"):
            raise ValueError(f"path must start with '/', got {path!r}")
        table = self._prefix if path.endswith("/") else self._exact
        if path in table:
            raise ValueError(f"duplicate route {path!r}")
        table[path] = handler

    def _resolve(self, path: str) -> Optional[Handler]:
        handler = self._exact.get(path)
        if handler is not None:
            return handler
        best: Optional[str] = None
        for prefix in self._prefix:
            if path.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        return self._prefix[best] if best is not None else None

    def close(self) -> None:
        """Stop accepting new connections."""
        self.node.unlisten(self.port)

    # -- server side --------------------------------------------------------
    def _accept(self, conn: Connection) -> None:
        self.network.sim.process(
            self._serve(conn.responder_socket),
            name=f"http-serve:{self.node.address}",
        )

    def _serve(self, sock: Socket) -> Generator:
        # Keep-alive loop: a client may pipeline several requests over one
        # connection (the client-server baseline's session semantics); the
        # HTTP/1.0-style `request()` helper simply closes after the first.
        while True:
            try:
                message = yield from sock.recv()
            except ConnectionClosed:
                return
            req = message.payload
            if not isinstance(req, HttpRequest):
                resp = HttpResponse(400, reason="malformed request")
            else:
                self.network.telemetry.metrics.counter(self._requests_metric).inc()
                if self.service_time > 0:
                    yield self.node.compute(self.service_time)
                handler = self._resolve(req.path)
                if handler is None:
                    resp = HttpResponse(404, reason=f"no route {req.path}")
                else:
                    try:
                        result = handler(req)
                        if isinstance(result, GeneratorType):
                            result = yield from result
                        resp = result
                    except Exception as exc:  # handler bug → 500, not sim crash
                        self.network.telemetry.metrics.counter("http_500").inc()
                        resp = HttpResponse(500, reason=f"{type(exc).__name__}: {exc}")
            if not isinstance(resp, HttpResponse):
                raise TypeError(f"handler returned {resp!r}, expected HttpResponse")
            try:
                yield from sock.send(resp, resp.wire_size)
            except ConnectionClosed:
                return


def request(
    network: "Network",
    client: str,
    server: str,
    method: str,
    path: str,
    body: Any = None,
    body_size: int = 0,
    port: int = DEFAULT_HTTP_PORT,
    purpose: str = "",
    raise_for_status: bool = True,
    headers: Optional[dict[str, str]] = None,
) -> Generator:
    """Process: perform one HTTP exchange and return the :class:`HttpResponse`.

    Opens a fresh connection (HTTP/1.0), so the initiator's ledger record
    covers handshake + request upload + server processing + response download.
    """
    req = HttpRequest(method, path, body, body_size, headers or {}, client)
    sock = yield from connect(
        network, client, server, port, purpose=purpose or f"{method} {path}"
    )
    try:
        yield from sock.send(req, req.wire_size)
        message = yield from sock.recv()
    finally:
        sock.close()
    resp = message.payload
    if not isinstance(resp, HttpResponse):
        raise TypeError(f"server sent {resp!r}, expected HttpResponse")
    if raise_for_status and not resp.ok:
        raise HttpError(resp.status, resp.reason, response=resp)
    return resp
