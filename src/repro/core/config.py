"""Platform configuration.

One frozen dataclass gathers every tunable the experiments sweep: the
compression codec, the security switch, gateway-selection policy parameters,
retry, admission, fleet and session settings.  Values no caller varies are
module constants next to the code that reads them.

Cost model: nominal seconds per operation on the *server* hardware class;
actual simulated time scales by the executing node's ``cpu_factor`` (a PDA
pays ×25).  The constants make PI packing cost a few hundred milliseconds on
a PDA — the paper's "only [a] small amount of CPU time".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..compressor import codec_names

__all__ = ["PDAgentConfig", "DEFAULT_CONFIG"]

# --- CPU cost model (nominal seconds, server class) -------------------------
XML_ENCODE_S_PER_KB = 0.0008
XML_PARSE_S_PER_KB = 0.0010
COMPRESS_S_PER_KB = 0.0015
DECOMPRESS_S_PER_KB = 0.0008
ENCRYPT_BASE_S = 0.004  # RSA seal of the session key
ENCRYPT_S_PER_KB = 0.0006  # keystream XOR
MD5_S_PER_KB = 0.0002


@dataclass(frozen=True)
class PDAgentConfig:
    """All platform tunables (device and gateway side)."""

    # --- interoperability / packing -------------------------------------
    #: Compression codec for PI and result documents ("lzss", "huffman",
    #: "null" = compression disabled).
    codec: str = "lzss"
    #: Encrypt the PI with the gateway's public key (§3.4).  When False the
    #: PI is sent with an MD5 integrity tag only.
    encrypt: bool = True

    # --- gateway selection (§3.5) ------------------------------------------
    #: Selection policy: "nearest" (paper), "first", "random", "round_robin".
    selection_policy: str = "nearest"
    #: How long a measured RTT stays fresh before re-probing (seconds).
    rtt_cache_ttl: float = 300.0

    # --- fault tolerance (device-side retry + gateway watchdog) -------------
    #: Attempts per device↔gateway exchange before surfacing GatewayError.
    #: The backoff shape between attempts is :class:`~repro.core.retry.RetryPolicy`'s.
    retry_max_attempts: int = 3
    #: Wall-clock budget per logical exchange (all attempts + backoff).
    retry_deadline_s: float = 60.0
    #: Circuit breaker: how long a gateway stays skipped after its failures
    #: open the breaker, before a half-open retry.
    breaker_cooldown_s: float = 30.0
    #: Gateway-side watchdog: a ticket still "dispatched" after this many
    #: seconds is finalized as "failed" (retriable) instead of hanging.
    ticket_watchdog_s: float = 120.0

    # --- overload protection (gateway admission + device cooperation) -------
    #: Exactly-once admission: dedup retried PI uploads by device task id so
    #: a lost response never materialises a second agent.
    dedup_enabled: bool = True
    #: Master switch for gateway admission control (bounded queues, token
    #: bucket, 503 shedding).  Off = the unprotected baseline: the same
    #: finite worker pool behind an unbounded queue.
    admission_enabled: bool = True
    #: Concurrent PI dispatches a gateway processes (its servlet pool for
    #: the expensive "upload" class).
    gateway_dispatch_workers: int = 4
    #: Uploads allowed to wait for a dispatch worker before shedding.
    admission_queue_limit: int = 16
    #: Token bucket pacing PI admission: sustained uploads/second and burst
    #: size.  rate <= 0 disables the bucket (queue bound still applies).
    admission_rate: float = 0.0
    admission_burst: int = 8
    #: Baseline Retry-After hint (seconds) advertised on a shed; scaled up
    #: with queue depth so retry waves spread out.
    shed_retry_after_s: float = 1.0
    #: Extra fixed CPU cost per agent dispatch at the gateway (nominal
    #: seconds) — lets overload experiments model heavyweight dispatch.
    dispatch_cost_s: float = 0.0
    #: Cap on a server-advertised Retry-After the device will actually wait
    #: before retrying a shed exchange.
    retry_after_cap_s: float = 30.0
    #: Dedup binding retention: seconds past result reclaim (expiry or
    #: dispose) after which the task_id→ticket binding itself is dropped, so
    #: long-running gateways don't accumulate bindings forever.  <= 0 keeps
    #: bindings for the gateway's lifetime (the pre-TTL behaviour).
    dedup_ttl_s: float = 0.0

    # --- fleet tier -----------------------------------------------------------
    #: Share one fleet membership across the deployment's gateways:
    #: consistent-hash ownership of task_ids with claim forwarding, making
    #: dedup authoritative fleet-wide.  Off, every gateway is a fleet of one.
    #: A fleet member's dedup index and upload sessions survive its crash;
    #: a standalone gateway rebuilds the index from its tickets.
    fleet_enabled: bool = False
    #: Failure detector: how long a suspect may stay silent before the
    #: shared view marks it ``down``.
    fleet_suspicion_timeout_s: float = 6.0
    #: Graceful drain: how long a draining gateway waits for in-flight
    #: dispatches to finish before migrating whatever state it still owns.
    fleet_drain_timeout_s: float = 30.0

    # --- streaming session layer ---------------------------------------------
    #: Device side: upload the PI through a resumable chunked session and
    #: collect per-hop partial results instead of the one-shot
    #: store-and-forward exchange.  Off by default — the classic path.
    session_enabled: bool = False
    #: Chunk size for resumable uploads (bytes of the protected PI frame
    #: per PUT).  Small enough that a link flap loses at most one chunk.
    session_chunk_bytes: int = 1024

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # NaN slips past every ordered comparison below.
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{f.name} must not be NaN")
        if self.codec not in codec_names():
            raise ValueError(
                f"unknown codec {self.codec!r}; available: {codec_names()}"
            )
        if self.selection_policy not in ("nearest", "first", "random", "round_robin"):
            raise ValueError(f"unknown selection policy {self.selection_policy!r}")
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if self.retry_deadline_s <= 0:
            raise ValueError("retry_deadline_s must be positive")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")
        if self.ticket_watchdog_s <= 0:
            raise ValueError("ticket_watchdog_s must be positive")
        if self.gateway_dispatch_workers < 1:
            raise ValueError("gateway_dispatch_workers must be >= 1")
        if self.admission_queue_limit < 0:
            raise ValueError("admission_queue_limit must be >= 0")
        if self.admission_rate > 0 and self.admission_burst < 1:
            raise ValueError("admission_burst must be >= 1 when rate-limited")
        if self.shed_retry_after_s <= 0:
            raise ValueError("shed_retry_after_s must be positive")
        if self.dispatch_cost_s < 0:
            raise ValueError("dispatch_cost_s must be non-negative")
        if self.retry_after_cap_s <= 0:
            raise ValueError("retry_after_cap_s must be positive")
        if self.fleet_suspicion_timeout_s <= 0:
            raise ValueError("fleet_suspicion_timeout_s must be positive")
        if self.fleet_drain_timeout_s <= 0:
            raise ValueError("fleet_drain_timeout_s must be positive")
        if self.session_chunk_bytes < 64:
            raise ValueError("session_chunk_bytes must be >= 64")

    def with_(self, **changes) -> "PDAgentConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)

    # -- cost helpers (nominal seconds for n bytes) -----------------------------
    def pack_cost(self, xml_bytes: int) -> float:
        """Device-side cost to encode+compress+(encrypt) a PI of given size."""
        kb = xml_bytes / 1024.0
        cost = XML_ENCODE_S_PER_KB * kb + COMPRESS_S_PER_KB * kb
        cost += MD5_S_PER_KB * kb
        if self.encrypt:
            cost += ENCRYPT_BASE_S + ENCRYPT_S_PER_KB * kb
        return cost

    def unpack_cost(self, wire_bytes: int) -> float:
        """Receiver-side cost to verify+(decrypt)+decompress+parse."""
        kb = wire_bytes / 1024.0
        cost = MD5_S_PER_KB * kb + DECOMPRESS_S_PER_KB * kb
        cost += XML_PARSE_S_PER_KB * kb
        if self.encrypt:
            cost += ENCRYPT_BASE_S + ENCRYPT_S_PER_KB * kb
        return cost


DEFAULT_CONFIG = PDAgentConfig()
