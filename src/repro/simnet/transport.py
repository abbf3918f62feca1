"""Connection-oriented transport over the simulated topology.

:func:`connect` is a process that establishes a :class:`Connection` between
two nodes, paying the route's per-link setup costs.  Each endpoint gets a
:class:`Socket` with an inbound message queue.  Sends are processes whose
delay is the sampled end-to-end path delay (latency + jitter + serialisation
at the bottleneck bandwidth, plus retransmission penalties on sampled loss —
bounded by ``max_retries``).

The initiator side of every connection is entered into the network tracer's
connection ledger, giving the "internet connection time" metric for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from .resources import Store
from .topology import NoRouteError
from .trace import ConnectionRecord

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network

__all__ = [
    "Message",
    "Socket",
    "Connection",
    "connect",
    "ConnectionClosed",
    "ConnectionRefused",
    "TransportError",
]

DEFAULT_MAX_RETRIES = 8
#: Overhead bytes added per message (framing/headers), a TCP/IP-ish constant.
HEADER_BYTES = 40


class TransportError(Exception):
    """Base class for transport failures."""


class ConnectionClosed(TransportError):
    """Raised when sending/receiving on a closed connection."""


class ConnectionRefused(TransportError):
    """Raised when the remote node has no listener on the target port."""


@dataclass(frozen=True)
class Message:
    """A framed application payload."""

    payload: Any
    size: int
    sent_at: float

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size {self.size!r}")


class _CloseSentinel:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<CLOSE>"


_CLOSE = _CloseSentinel()


class Socket:
    """One endpoint of a connection."""

    def __init__(self, connection: "Connection", local: str, remote: str) -> None:
        self.connection = connection
        self.local = local
        self.remote = remote
        self._inbox: Store = Store(connection.network.sim)
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, payload: Any, size: int) -> Generator:
        """Process: transmit ``payload`` (``size`` app bytes) to the peer.

        Returns after the message has been *delivered* (the fluid model does
        not separate in-flight pipelining; the paper's transactions are
        strictly request/response so this is faithful).
        """
        return self.connection._transmit(self, payload, size)

    def recv(self) -> Generator:
        """Process: wait for the next message; raises ConnectionClosed on EOF."""
        item = yield self._inbox.get()
        if item is _CLOSE:
            self._closed = True
            raise ConnectionClosed(f"{self.remote} closed the connection")
        return item

    def close(self) -> None:
        """Close the whole connection from this endpoint."""
        self.connection.close(closer=self.local)


class Connection:
    """A bidirectional reliable channel between two nodes.

    Create with :func:`connect`; do not instantiate directly.
    """

    def __init__(
        self,
        network: "Network",
        initiator: str,
        responder: str,
        record: ConnectionRecord,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        self.network = network
        self.initiator = initiator
        self.responder = responder
        self.record = record
        self.max_retries = max_retries
        self.initiator_socket = Socket(self, initiator, responder)
        self.responder_socket = Socket(self, responder, initiator)
        self._open = True

    @property
    def is_open(self) -> bool:
        return self._open

    def _socket_of(self, address: str) -> Socket:
        if address == self.initiator:
            return self.initiator_socket
        if address == self.responder:
            return self.responder_socket
        raise ValueError(f"{address!r} is not an endpoint of this connection")

    def _transmit(self, sender: Socket, payload: Any, size: int) -> Generator:
        if not self._open:
            raise ConnectionClosed("connection is closed")
        sim = self.network.sim
        wire_size = size + HEADER_BYTES
        src, dst = sender.local, sender.remote
        try:
            delay, retries = self.network.sample_path_delay(src, dst, wire_size)
            attempt = 0
            while retries > self.max_retries:
                # The path sampler models until-success; respect the bound by
                # treating an excess as a transport failure.
                attempt += 1
                if attempt > 2:
                    raise TransportError(f"persistent loss on {src}->{dst}")
                delay, retries = self.network.sample_path_delay(src, dst, wire_size)
        except NoRouteError as exc:
            # The route died under an established connection (link cut,
            # partition): model a TCP reset — both endpoints see the
            # connection closed, so a peer blocked in recv() wakes up
            # instead of hanging forever.
            self.close(closer=src)
            raise ConnectionClosed(f"route lost during transfer: {exc}") from exc
        yield sim.timeout(delay)
        if not self._open:
            raise ConnectionClosed("connection closed during transfer")
        message = Message(payload, size, sim.now)
        peer = self._socket_of(dst)
        peer._inbox.put(message)
        # Ledger: attribute direction relative to the initiator.
        if src == self.initiator:
            self.record.bytes_sent += wire_size
        else:
            self.record.bytes_received += wire_size
        metrics = self.network.telemetry.metrics
        metrics.counter("messages_delivered").inc()
        metrics.histogram("transport.message_bytes").observe(wire_size)
        return message

    def close(self, closer: Optional[str] = None) -> None:
        """Tear down the connection and stamp the ledger record."""
        if not self._open:
            return
        self._open = False
        if self.record.truncated:
            # The end-of-run close-out already stamped the record; this is
            # a suspended transfer's socket closing as it is collected.
            return
        self.network.tracer.close_connection(self.record)
        self.network.telemetry.metrics.counter("connections_closed").inc()
        # EOF to both inboxes so blocked receivers wake up.
        self.initiator_socket._inbox.put(_CLOSE)
        self.responder_socket._inbox.put(_CLOSE)


def connect(
    network: "Network",
    src: str,
    dst: str,
    port: int,
    purpose: str = "",
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> Generator:
    """Process: open a connection from ``src`` to ``dst``:``port``.

    Pays the sum of per-link setup times plus one RTT-equivalent handshake
    (one forward + one backward latency sample), then invokes the remote
    listener's accept callback with the connection.  Returns the initiator's
    :class:`Socket`.
    """
    sim = network.sim
    dst_node = network.node(dst)
    links = network.path_links(src, dst)
    setup = sum(l.spec.setup_time for l in links)
    # The device is "online" from the moment it starts dialling: the ledger
    # record opens before the handshake, matching the paper's notion of
    # connection time.
    record = network.tracer.open_connection(src, dst, purpose=purpose)
    try:
        # SYN / SYN-ACK handshake latency (no payload).
        fwd, _ = network.sample_path_delay(src, dst, 0)
        back, _ = network.sample_path_delay(dst, src, 0)
    except NoRouteError:
        # Route vanished between path computation and the handshake (the
        # fault schedule can cut a link at any instant): stamp the ledger
        # record so it does not accrue open time forever.
        network.tracer.close_connection(record)
        raise
    yield sim.timeout(setup + fwd + back)
    # Read the listener only *after* the handshake: a host that crashed
    # while the SYN was in flight must refuse the connection, not serve it
    # through a callback snapshotted before it died.
    listener = dst_node.listener(port)
    if listener is None:
        network.tracer.close_connection(record)
        network.telemetry.metrics.counter("connections_refused").inc()
        raise ConnectionRefused(f"no listener on {dst}:{port}")
    network.telemetry.metrics.counter("connections_opened").inc()
    conn = Connection(network, src, dst, record, max_retries=max_retries)
    listener(conn)
    return conn.initiator_socket
