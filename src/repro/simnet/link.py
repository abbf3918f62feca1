"""Link models: latency, bandwidth, jitter, loss, and connection setup.

A :class:`LinkSpec` is a declarative description of a (directed) link's
behaviour.  The simulator samples per-transfer delays from it via
:meth:`LinkSpec.sample_latency`.  Canned profiles for the paper's environment
(GPRS-era wireless uplink, campus WLAN, wired LAN/WAN) live in
:mod:`repro.device.profiles`.

Delay model for one message of ``size`` bytes over one link::

    delay = latency + jitter_sample + size / bandwidth

plus, at the transport layer, per-connection ``setup_time`` when the
connection is opened and retransmission penalties when a loss is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .rng import Stream

__all__ = ["LinkSpec", "Link"]


@dataclass(frozen=True)
class LinkSpec:
    """Declarative link behaviour.

    Parameters
    ----------
    latency:
        One-way propagation + queueing base delay in seconds.
    bandwidth:
        Throughput in bytes/second.
    jitter:
        Scale of the latency noise.  Sampled per transfer.
    jitter_model:
        ``"exponential"`` (default; heavy right tail like congested wireless
        links), ``"normal"`` (symmetric, truncated at 0) or ``"none"``.
    loss:
        Per-transfer loss probability in [0, 1).  Lost transfers are
        retransmitted by the transport after ``rto`` seconds, so a link
        with ``loss=1.0`` would retransmit forever; exactly 1.0 is
        therefore rejected — model a dead link with
        :attr:`Link.up` / ``Network.set_link_state`` instead.
    setup_time:
        Extra delay paid once per connection establishment (dial-up /
        RRC-style channel acquisition on wireless links).
    rto:
        Retransmission timeout in seconds.
    name:
        Label used for tracing and RNG stream derivation.
    """

    latency: float
    bandwidth: float
    jitter: float = 0.0
    jitter_model: str = "exponential"
    loss: float = 0.0
    setup_time: float = 0.0
    rto: float = 1.0
    name: str = "link"

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"negative latency {self.latency!r}")
        if self.bandwidth <= 0:
            raise ValueError(f"non-positive bandwidth {self.bandwidth!r}")
        if self.jitter < 0:
            raise ValueError(f"negative jitter {self.jitter!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss {self.loss!r} outside [0, 1)")
        if self.jitter_model not in ("exponential", "normal", "none"):
            raise ValueError(f"unknown jitter model {self.jitter_model!r}")
        if self.setup_time < 0:
            raise ValueError(f"negative setup_time {self.setup_time!r}")
        if self.rto <= 0:
            raise ValueError(f"non-positive rto {self.rto!r}")

    # -- sampling ------------------------------------------------------------
    def sample_latency(self, stream: Stream) -> float:
        """One-way delay sample for a zero-byte transfer."""
        if self.jitter == 0.0 or self.jitter_model == "none":
            return self.latency
        if self.jitter_model == "exponential":
            return self.latency + stream.exponential(self.jitter)
        # normal, truncated at zero
        return max(0.0, stream.normal(self.latency, self.jitter))

    # -- derivation ------------------------------------------------------------
    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> "LinkSpec":
        """A copy with latency/bandwidth scaled (used by parameter sweeps)."""
        return replace(
            self,
            latency=self.latency * latency_factor,
            jitter=self.jitter * latency_factor,
            bandwidth=self.bandwidth * bandwidth_factor,
        )


@dataclass
class Link:
    """A directed link instance between two nodes in a topology.

    ``stream`` is the RNG stream of the link's loss and jitter draws.
    """

    src: str
    dst: str
    spec: LinkSpec
    stream: Stream = field(repr=False)
    up: bool = True
    # Cumulative accounting, filled by Network.sample_path_delay.
    bytes_carried: int = 0
    transfers: int = 0
    retransmissions: int = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)
