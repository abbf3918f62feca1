"""The Network Manager: all wireless traffic of the platform (§3.2, §3.6).

"Network management is responsible [for] managing all the activities that
require wireless network connections from wireless devices to gateways, such
as downloading mobile agent code and upload[ing] packed information."

Every method is a process performing one logical HTTP exchange — the
device is online only for the duration of that exchange, which is what the
connection-time ledger measures.  Transport-level failures (refused or
unreachable gateway, persistent wireless loss) are retried under the
platform's :class:`~repro.core.retry.RetryPolicy` with deterministic
backoff jitter from the device's named RNG stream; deliberate 503 load
sheds are waited out per the gateway's ``Retry-After`` without feeding
the circuit breaker; other application-level failures (HTTP error
statuses) are not retried.  Either way, exhausted exchanges surface
uniformly as :class:`~repro.core.errors.GatewayError` so callers —
notably the deploy failover — can treat the gateway as bad.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..simnet.http import HttpRequest, HttpResponse, request
from ..simnet.topology import NoRouteError
from ..simnet.transport import TransportError, connect
from ..telemetry.spans import SpanContext
from ..xmlcodec import Element, parse_bytes, write_bytes
from .errors import (
    DeadlineExpiredError,
    GatewayError,
    GatewayOverloadedError,
    ResultExpiredError,
    ResultNotReadyError,
)
from .gateway import GATEWAY_PORT, TASK_ID_HEADER
from .retry import CircuitBreaker, RetryPolicy
from .session import HOPS_REMAINING_HEADER, HOPS_VISITED_HEADER

if TYPE_CHECKING:  # pragma: no cover
    from ..device import Device

__all__ = ["NetworkManager", "SessionChannel"]

#: Failures worth retrying: the gateway process may be restarting, the
#: wireless link may be in an outage window.  Application-level rejections
#: other than a 503 shed are deterministic and fail immediately.
_RETRIABLE = (TransportError, NoRouteError)


class NetworkManager:
    """Device-side HTTP client for gateway interactions."""

    def __init__(
        self,
        device: "Device",
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.device = device
        self.network = device.network
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = breaker
        self._retry_stream = self.network.streams.get(f"retry:{device.device_id}")
        self.uploads = 0
        self.downloads = 0
        self.retries = 0
        #: 503 sheds waited out (Retry-After honoured) — not failures.
        self.shed_waits = 0
        #: Request-body bytes sent more than once because an exchange was
        #: retried (transport failure or shed).  The streaming-vs-baseline
        #: experiments compare this ledger: a resumed chunk upload re-sends
        #: one chunk where a store-and-forward restart re-sends the frame.
        self.retransmitted_bytes = 0
        #: ``(purpose, attempt, backoff_delay)`` per retry, in order — the
        #: reproducibility contract: same master seed ⇒ identical log.
        self.retry_log: list[tuple[str, int, float]] = []

    # ------------------------------------------------------------ subscription
    def download_code(
        self, gateway: str, service: str, trace: Optional[SpanContext] = None
    ) -> Generator:
        """Process: §3.1 code download; returns the protected code frame."""
        doc = Element("subscribe", {"service": service, "device": self.device.device_id})
        body = write_bytes(doc)
        resp = yield from self._exchange(
            gateway, "POST", "/subscribe", body, "subscribe", trace=trace
        )
        self.downloads += 1
        return resp.body

    # ------------------------------------------------------------ deployment
    def upload_pi(
        self,
        gateway: str,
        frame: bytes,
        trace: Optional[SpanContext] = None,
        task_id: str = "",
    ) -> Generator:
        """Process: §3.2 PI upload; returns ``(ticket_id, agent_id)``.

        ``task_id`` (also packed inside the PI) rides the request headers so
        the gateway can dedup a retried upload *before* paying the unpack
        cost — the exactly-once fast path.
        """
        headers = {TASK_ID_HEADER: task_id} if task_id else None
        resp = yield from self._exchange(
            gateway, "POST", "/pi", frame, "upload-pi", trace=trace,
            headers=headers,
        )
        self.uploads += 1
        doc = parse_bytes(resp.body)
        return doc.require_child("ticket").text, doc.require_child("agent").text

    # ------------------------------------------------------------ results
    def download_result(
        self,
        gateway: str,
        ticket_id: str,
        origin: Optional[str] = None,
        trace: Optional[SpanContext] = None,
    ) -> Generator:
        """Process: §3.3 result download; returns the protected result frame.

        When ``origin`` names a different gateway than ``gateway``, the
        request uses the relay path: the contacted gateway fetches the
        document from the dispatching gateway over the wired network
        (mobility extension — the user collects wherever they now are).

        Raises :class:`ResultNotReadyError` on a 204 (the agent is still
        travelling) so callers can implement their own polling policy.
        """
        if origin and origin != gateway:
            path = f"/relay/{origin}/{ticket_id}"
        else:
            path = f"/result/{ticket_id}"
        resp = yield from self._exchange(
            gateway, "GET", path, None, "download-result",
            raise_for_status=False, trace=trace,
        )
        if resp.status == 204:
            raise ResultNotReadyError(
                ticket_id,
                hops_visited=_int_header(resp, HOPS_VISITED_HEADER),
                hops_remaining=_int_header(resp, HOPS_REMAINING_HEADER),
            )
        if resp.status == 410:
            raise ResultExpiredError(
                f"result for {ticket_id} expired: {resp.reason}"
            )
        if not resp.ok:
            raise GatewayError(f"result download failed: {resp.status} {resp.reason}")
        self.downloads += 1
        return resp.body

    # ------------------------------------------------------------ agent ops
    def agent_op(
        self, gateway: str, ticket_id: str, op: str, trace: Optional[SpanContext] = None
    ) -> Generator:
        """Process: §3.6 remote agent management; returns the reply element."""
        doc = Element("agentop", {"op": op, "ticket": ticket_id})
        body = write_bytes(doc)
        resp = yield from self._exchange(
            gateway, "POST", "/agent", body, f"agent-{op}", trace=trace
        )
        return parse_bytes(resp.body)

    # ------------------------------------------------------------ streaming sessions
    def session_exchange(
        self,
        gateway: str,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        purpose: str = "session",
        headers: Optional[dict[str, str]] = None,
        trace: Optional[SpanContext] = None,
    ) -> Generator:
        """Process: one streaming-session exchange; returns the raw response.

        The session protocol answers "normal" non-2xx statuses (409 offset
        resync, 404 expired session) that the device-side session machine
        interprets itself, so status checking is left to the caller; only
        transport failures and 503 sheds are retried here as usual.
        """
        resp = yield from self._exchange(
            gateway, method, path, body, purpose,
            raise_for_status=False, trace=trace, headers=headers,
        )
        return resp

    def open_session_channel(
        self, gateway: str, trace: Optional[SpanContext] = None
    ) -> Generator:
        """Process: open one persistent connection for pipelined session I/O.

        A chunked upload over per-chunk HTTP/1.0 exchanges would pay the
        wireless link's connection setup (GPRS channel acquisition plus a
        handshake RTT — seconds, not milliseconds) once *per chunk*,
        tripling upload latency against the single-shot ``/pi`` path.  The
        gateway's HTTP server already serves keep-alive pipelining, so the
        session layer rides one connection per burst: setup is paid once,
        and each chunk costs only its own transfer time plus the ack
        round trip.  Resume granularity is unchanged — every chunk is
        individually acknowledged, so a mid-burst link cut loses at most
        the chunk in flight.

        Returns a :class:`SessionChannel`.  A connect failure feeds the
        circuit breaker and surfaces as :class:`GatewayError`, exactly
        like a failed exchange.
        """
        span = self.network.telemetry.start_span(
            "net.session-stream",
            node=self.device.address,
            parent=trace,
            attrs={"gateway": gateway},
        )
        try:
            sock = yield from connect(
                self.network, self.device.address, gateway,
                GATEWAY_PORT, purpose="session-stream",
            )
        except _RETRIABLE as exc:
            if self.breaker is not None:
                self.breaker.record_failure(gateway)
            span.end(status="error")
            raise GatewayError(
                f"session channel to {gateway} failed: {exc}"
            ) from exc
        return SessionChannel(self, gateway, sock, span)

    # ------------------------------------------------------------ internals
    def _exchange(
        self,
        gateway: str,
        method: str,
        path: str,
        body: Optional[bytes],
        purpose: str,
        raise_for_status: bool = True,
        trace: Optional[SpanContext] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> Generator:
        """One logical exchange: attempt, retry with backoff, or GatewayError.

        Retries transport-class failures (`TransportError`, `NoRouteError`)
        — the kind a restarted gateway or a healed link cures — and 503
        load sheds, which are waited out for the gateway's advertised
        ``Retry-After``.  A shed is "come back later", not a fault: it is
        **breaker-neutral**, so a healthy-but-busy gateway is never
        circuit-broken out of the selection pool.  Other HTTP rejections
        are deterministic and fail immediately.

        The exchange runs under a ``net.<purpose>`` span; its context rides
        the request headers, so the gateway parents its own spans on it.
        """
        sim = self.network.sim
        policy = self.retry_policy
        deadline = sim.now + policy.deadline_for(purpose)
        attempt = 1
        span = self.network.telemetry.start_span(
            f"net.{purpose}",
            node=self.device.address,
            parent=trace,
            attrs={"gateway": gateway, "method": method, "path": path},
        )
        try:
            while True:
                wire_headers = span.context.to_headers()
                if headers:
                    wire_headers.update(headers)
                try:
                    resp: HttpResponse = yield from request(
                        self.network,
                        self.device.address,
                        gateway,
                        method,
                        path,
                        body=body,
                        body_size=len(body) if body is not None else 0,
                        port=GATEWAY_PORT,
                        purpose=purpose,
                        raise_for_status=False,
                        headers=wire_headers,
                    )
                except _RETRIABLE as exc:
                    if self.breaker is not None:
                        self.breaker.record_failure(gateway)
                    if attempt >= policy.max_attempts:
                        raise GatewayError(
                            f"{purpose} failed after {attempt} attempts: {exc}"
                        ) from exc
                    delay = policy.backoff_delay(attempt, self._retry_stream)
                    if sim.now + delay > deadline:
                        raise GatewayError(
                            f"{purpose} failed: retry deadline exceeded "
                            f"after {attempt} attempts: {exc}"
                        ) from exc
                    self.retries += 1
                    self.retry_log.append((purpose, attempt, delay))
                    self.network.telemetry.metrics.counter("device_retries").inc()
                    self._count_retransmit(body, purpose)
                    yield sim.timeout(delay)
                    attempt += 1
                    continue
                if resp.status == 503 and resp.headers.get("x-fleet-successor"):
                    # Draining gateway: waiting out Retry-After and re-trying
                    # the SAME gateway would spin until the deadline — it is
                    # leaving, not busy.  Fail fast (breaker-neutral: the
                    # refusal is deliberate) so the caller's failover
                    # re-selects through the health-aware selector.
                    self.network.telemetry.metrics.counter("device_drain_redirects").inc()
                    raise GatewayOverloadedError(
                        f"{purpose} refused by draining {gateway} "
                        f"(successor {resp.headers['x-fleet-successor']})",
                        retry_after=resp.retry_after or 0.0,
                    )
                if resp.status == 503:
                    delay = resp.retry_after
                    if delay is None:
                        delay = policy.backoff_delay(attempt, self._retry_stream)
                    delay = min(delay, policy.retry_after_cap)
                    if attempt >= policy.max_attempts or sim.now + delay > deadline:
                        raise GatewayOverloadedError(
                            f"{purpose} shed by {gateway} after {attempt} "
                            f"attempt(s): {resp.reason}",
                            retry_after=delay,
                        )
                    self.shed_waits += 1
                    self.retry_log.append((purpose, attempt, delay))
                    self.network.telemetry.metrics.counter("device_shed_waits").inc()
                    self._count_retransmit(body, purpose)
                    yield sim.timeout(delay)
                    attempt += 1
                    continue
                if raise_for_status and not resp.ok:
                    if resp.headers.get("x-deadline-expired"):
                        # Deterministic refusal, not a gateway fault: the
                        # deadline will not un-expire anywhere, so neither
                        # retry nor failover nor a breaker strike applies.
                        span.end(status="deadline-expired")
                        raise DeadlineExpiredError(
                            f"{purpose} refused: {resp.reason}"
                        )
                    if self.breaker is not None:
                        self.breaker.record_failure(gateway)
                    raise GatewayError(
                        f"{purpose} failed: HTTP {resp.status}: {resp.reason}"
                    )
                if self.breaker is not None:
                    self.breaker.record_success(gateway)
                span.end(attempts=attempt)
                return resp
        finally:
            # Safety net: a raise above (or an interrupt thrown into the
            # process) must not leave the exchange span dangling.
            if span.open:
                span.end(status="error", attempts=attempt)

    def _count_retransmit(self, body: Optional[bytes], purpose: str) -> None:
        """Ledger: the next attempt re-sends ``body`` from byte zero."""
        self.count_restart(len(body) if body is not None else 0, purpose)

    def count_restart(self, nbytes: int, purpose: str) -> None:
        """Ledger: ``nbytes`` already-sent payload bytes will be re-sent.

        Public so the session layer can account resume gaps (bytes the
        device had put on the wire but the gateway never acknowledged) and
        the deploy failover can account full-frame restarts — keeping the
        ``retransmitted_bytes`` ledger comparable across the streaming and
        store-and-forward upload paths.
        """
        if nbytes > 0:
            self.retransmitted_bytes += nbytes
            self.network.telemetry.metrics.counter("device_retransmit_bytes").inc(nbytes)


class SessionChannel:
    """One persistent device→gateway connection for pipelined session traffic.

    Created by :meth:`NetworkManager.open_session_channel`.  Each
    :meth:`exchange` is a single send/receive on the shared connection —
    no internal retry: a transport failure means the connection (and with
    it the burst) is dead, and the device-side session machine decides
    whether to back off and resume.  Successes and failures feed the
    shared circuit breaker like any other exchange.
    """

    def __init__(
        self, net: "NetworkManager", gateway: str, sock, span
    ) -> None:
        self.net = net
        self.gateway = gateway
        self._sock = sock
        self._span = span
        self.exchanges = 0

    @property
    def sim(self):
        return self.net.network.sim

    def exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> Generator:
        """Process: one request/response round trip on the channel."""
        wire_headers = self._span.context.to_headers()
        if headers:
            wire_headers.update(headers)
        req = HttpRequest(
            method=method,
            path=path,
            body=body,
            body_size=len(body) if body is not None else 0,
            client=self.net.device.address,
            headers=wire_headers,
        )
        try:
            yield from self._sock.send(req, req.wire_size)
            message = yield from self._sock.recv()
        except _RETRIABLE as exc:
            if self.net.breaker is not None:
                self.net.breaker.record_failure(self.gateway)
            raise GatewayError(
                f"session channel to {self.gateway} broke: {exc}"
            ) from exc
        resp = message.payload
        if not isinstance(resp, HttpResponse):
            raise GatewayError(
                f"session channel: unexpected payload {resp!r}"
            )
        if self.net.breaker is not None:
            self.net.breaker.record_success(self.gateway)
        self.exchanges += 1
        return resp

    def close(self) -> None:
        """Tear down the connection and close the burst span."""
        self._sock.close()
        if self._span.open:
            self._span.end(exchanges=self.exchanges)


def _int_header(resp: HttpResponse, name: str) -> Optional[int]:
    """Parse an optional integer response header; None when absent/garbled."""
    raw = resp.headers.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None
