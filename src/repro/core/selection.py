"""High-performance service management: nearest-gateway selection (§3.5).

"The PDAgent platform will find the nearest Gateway by sending 1-bit data to
all the gateways on the address list and calculating which Gateway takes the
shortest Round Trip Time.  The PDAgent platform will send the Packed
Information to the Gateway with the shortest RTT."

:class:`GatewaySelector` implements that probe-all/pick-min policy, the RTT
cache, and the threshold-driven address-list refresh.  Alternative policies
(``first``, ``random``, ``round_robin``) exist for the selection ablation
(bench A1).

RTT probing: probes are connectionless datagrams (they do not open a
transport connection and therefore do not count toward "internet connection
time" — matching the paper's model where probe traffic is negligible 1-bit
data), but their latency *is* simulated, so probing is not free in
wall-clock terms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..crypto import KeyRing
from ..simnet.topology import NoRouteError
from ..simnet.transport import TransportError
from .config import PDAgentConfig
from .errors import NoGatewayAvailableError
from .registry import GatewayEntry, fetch_gateway_list
from .retry import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.topology import Network

__all__ = ["GatewaySelector", "ProbeResult"]

#: Probe size in bytes (the paper sends "1-bit data"; one byte is the
#: minimum the byte-granular simulator can carry).
PROBE_SIZE_BYTES = 1
#: Re-download the address list when even the nearest gateway's RTT exceeds
#: this threshold (seconds).
RTT_THRESHOLD_S = 2.5


class ProbeResult:
    """One gateway's measured RTT."""

    __slots__ = ("address", "rtt", "measured_at")

    def __init__(self, address: str, rtt: float, measured_at: float) -> None:
        self.address = address
        self.rtt = rtt
        self.measured_at = measured_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProbeResult {self.address!r} rtt={self.rtt:.4f}>"


class GatewaySelector:
    """Maintains the address list and picks the upload target."""

    def __init__(
        self,
        network: "Network",
        device_address: str,
        central_address: str,
        config: PDAgentConfig,
        keyring: KeyRing,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.network = network
        self.device_address = device_address
        self.central_address = central_address
        self.config = config
        self.keyring = keyring
        self.breaker = breaker
        #: Fleet membership view (installed at deployment build when the
        #: gateways share a fleet).  Members not in a healthy state are hard-
        #: excluded from selection; ``None`` means no health signal.
        self.membership = None
        self._entries: list[GatewayEntry] = []
        self._probes: dict[str, ProbeResult] = {}
        # Bumped by invalidate_probes(); probe sweeps that straddle a bump
        # measured a topology that no longer exists and are discarded.
        self._probe_generation = 0
        self._round_robin_index = 0
        self.list_refreshes = 0
        self.probes_sent = 0

    # ------------------------------------------------------------ address list
    @property
    def has_list(self) -> bool:
        return bool(self._entries)

    def gateway_addresses(self) -> list[str]:
        return [e.address for e in self._entries]

    def install_list(self, entries: list[GatewayEntry]) -> None:
        """Adopt a downloaded address list (also learns public keys)."""
        if not entries:
            raise NoGatewayAvailableError("central server returned no gateways")
        self._entries = list(entries)
        self._probes.clear()
        for entry in entries:
            self.keyring.add(entry.address, entry.public_key)

    def refresh_list(self) -> Generator:
        """Process: (re-)download the address list from the central server.

        Transport failures (no route while the radio link is down, the
        central server resetting mid-download) surface as
        :class:`NoGatewayAvailableError` — callers live inside the platform
        error model and must never see raw simnet exceptions.
        """
        try:
            entries = yield from fetch_gateway_list(
                self.network, self.device_address, self.central_address
            )
        except (NoRouteError, TransportError) as exc:
            raise NoGatewayAvailableError(
                f"central server unreachable: {exc}"
            ) from exc
        self.install_list(entries)
        self.list_refreshes += 1
        return entries

    # ------------------------------------------------------------ probing
    def probe_all(self) -> Generator:
        """Process: ping every listed gateway; returns sorted ProbeResults.

        A sweep that straddles an :meth:`invalidate_probes` call (handover)
        measured a mix of old- and new-topology legs; its results are
        returned but *not* cached, so the stale snapshot cannot poison
        later selections.
        """
        sim = self.network.sim
        if not self._entries:
            raise NoGatewayAvailableError("no address list installed")
        # Snapshot the entry list: a concurrent refresh must not desync the
        # address/process pairing below.
        entries = list(self._entries)
        generation = self._probe_generation
        # Launch all probes concurrently — the paper sends to *all* gateways.
        processes = [
            sim.process(
                self._safe_ping(entry.address),
                name=f"probe:{entry.address}",
            )
            for entry in entries
        ]
        self.probes_sent += len(processes)
        results = yield sim.all_of(processes)
        probes = []
        for entry, proc in zip(entries, processes):
            probe = ProbeResult(entry.address, results[proc], sim.now)
            probes.append(probe)
        if generation == self._probe_generation:
            for probe in probes:
                self._probes[probe.address] = probe
        probes.sort(key=lambda p: p.rtt)
        return probes

    def _safe_ping(self, address: str) -> Generator:
        """Process: one RTT probe; an unreachable gateway measures as +inf.

        A partitioned gateway must not make the whole probe sweep fail —
        it just sorts last and is never selected.
        """
        try:
            rtt = yield from self.network.ping(
                self.device_address, address, PROBE_SIZE_BYTES
            )
        except NoRouteError:
            self.network.telemetry.metrics.counter("probes_unreachable").inc()
            return float("inf")
        return rtt

    def _cached_probes(self) -> list[ProbeResult]:
        """Fresh cached probes, sorted by RTT."""
        now = self.network.sim.now
        fresh = [
            p
            for p in self._probes.values()
            if now - p.measured_at <= self.config.rtt_cache_ttl
        ]
        fresh.sort(key=lambda p: p.rtt)
        return fresh

    # ------------------------------------------------------------ selection
    def select(
        self,
        exclude: Optional[set[str]] = None,
        prefer: Optional[str] = None,
    ) -> Generator:
        """Process: pick the upload gateway per the configured policy.

        Ensures an address list is present (downloading one on first use),
        probes when the policy needs RTTs, and refreshes the list when even
        the nearest gateway exceeds the RTT threshold.  ``exclude`` removes
        gateways that just failed (the deploy failover path); gateways whose
        circuit breaker is open are skipped the same way, unless that would
        leave no candidate at all.

        ``prefer`` short-circuits the policy when that address is a viable
        candidate: re-selecting during collect after a link flap should go
        back to the gateway that holds the ticket, not to whichever is
        nearest now — a preferred gateway that is excluded or breaker-open
        falls through to the normal policy.
        """
        if not self._entries:
            yield from self.refresh_list()
        exclude = set(exclude or ())
        if prefer is not None and not self._healthy(prefer):
            # A draining/down origin cannot answer; its ring successor holds
            # (or relays to) the migrated state — prefer that instead.
            redirected = (
                self.membership.successor(prefer) if self.membership else ""
            )
            self.network.telemetry.metrics.counter("select.prefer_redirected").inc()
            prefer = redirected or None
        skip, entries = self._candidates(exclude)
        if prefer is not None:
            for entry in entries:
                if entry.address == prefer:
                    return prefer
        policy = self.config.selection_policy
        if policy == "first":
            return entries[0].address
        if policy == "random":
            stream = self.network.streams.get(f"select:{self.device_address}")
            return stream.choice([e.address for e in entries])
        if policy == "round_robin":
            entry = entries[self._round_robin_index % len(entries)]
            self._round_robin_index += 1
            return entry.address
        # nearest (the paper's policy).  Every pass through the loop re-reads
        # the probe cache *and* the skip set from scratch: both can change
        # while a probe sweep or list refresh is in flight (handover
        # invalidation, a circuit breaker opening), so a snapshot taken
        # before a yield point must never decide the selection.
        refreshed = False
        for _attempt in range(4):
            skip, entries = self._candidates(exclude)
            probes = [p for p in self._cached_probes() if p.address not in skip]
            if len(probes) < len(entries):
                yield from self.probe_all()
                # Re-read the cache rather than trusting the sweep's return
                # value: a handover mid-sweep invalidated (and discarded)
                # those measurements, and the breaker set may have moved.
                continue
            best = probes[0]
            if not refreshed and best.rtt > RTT_THRESHOLD_S and not skip:
                # Even the nearest gateway is too far: fetch a fresh list and
                # re-probe once; accept the best we can get after that.
                refreshed = True
                yield from self.refresh_list()
                yield from self.probe_all()
                continue
            if best.rtt == float("inf"):
                raise NoGatewayAvailableError("no candidate gateway is reachable")
            return best.address
        raise NoGatewayAvailableError(
            "gateway discovery could not settle: probe sweeps kept coming "
            "back empty or invalidated (concurrent handovers/refreshes)"
        )

    def _healthy(self, address: str) -> bool:
        """False only when the membership view marks ``address`` unhealthy.

        Unknown addresses (no view installed, or not a fleet member) are
        healthy — absence of signal is not a verdict.
        """
        if self.membership is None:
            return True
        return self.membership.state(address) in ("", "active")

    def _candidates(self, exclude: set[str]) -> tuple[set[str], list[GatewayEntry]]:
        """Current ``(skip, candidate entries)`` honouring breaker + health.

        Membership-unhealthy members (draining/down/joining) join the *hard*
        exclude: unlike the heuristic breaker, the view is authoritative —
        a draining gateway refuses every upload, so the all-breaker-open
        fallback must never resurrect one.
        """
        exclude = exclude | {
            e.address for e in self._entries if not self._healthy(e.address)
        }
        skip = set(exclude)
        if self.breaker is not None:
            skip |= self.breaker.open_addresses()
        entries = [e for e in self._entries if e.address not in skip]
        if not entries and skip != exclude:
            # Every remaining candidate is breaker-open: trying a suspect
            # gateway beats refusing outright, so ignore the breaker here.
            skip = set(exclude)
            entries = [e for e in self._entries if e.address not in skip]
        if not entries:
            raise NoGatewayAvailableError(
                f"all {len(self._entries)} gateways excluded/unreachable"
            )
        return skip, entries

    def last_rtt(self, address: str) -> Optional[float]:
        probe = self._probes.get(address)
        return probe.rtt if probe else None

    def invalidate_probes(self) -> None:
        """Drop cached RTTs (after a handover the old values are garbage).

        Also marks any in-flight probe sweep as stale: its measurements mix
        pre- and post-handover topologies and must not enter the cache.
        """
        self._probes.clear()
        self._probe_generation += 1
