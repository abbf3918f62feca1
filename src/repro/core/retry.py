"""Retry policy and per-gateway circuit breaker.

The paper sells the gateway tier as "a reliable network connection" for
devices on flaky wireless links; this module supplies the device-side
half of that promise.  A :class:`RetryPolicy` describes how the Network
Manager re-attempts a failed exchange — bounded attempts, exponential
backoff with *deterministic* jitter drawn from a named
:class:`~repro.simnet.rng.Stream` (so two runs with the same master seed
retry at byte-for-byte identical times), and per-purpose deadlines.  A
:class:`CircuitBreaker` remembers which gateways recently failed so
selection can skip them while they cool down, instead of burning the
wireless link on probes and uploads that will be refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.kernel import Simulator
    from ..simnet.rng import Stream
    from .config import PDAgentConfig

__all__ = ["RetryPolicy", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a device-side exchange is retried after transport failures.

    The delay before retry ``k`` (1-based) is::

        min(base_delay * backoff_factor**(k-1), max_delay) * (1 + jitter*U(-1,1))

    with the uniform draw taken from the caller's named RNG stream, so
    backoff timing is reproducible from the master seed.  ``deadline``
    bounds the whole logical exchange (attempts + backoff) in simulated
    seconds; ``per_purpose_deadlines`` overrides it for specific purposes
    (e.g. a tighter budget for probes than for PI uploads).
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    backoff_factor: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.1
    deadline: float = 60.0
    per_purpose_deadlines: Mapping[str, float] = field(default_factory=dict)
    #: Upper bound on a server-advertised Retry-After actually waited: a 503
    #: shed sleeps the advertised delay and retries the same exchange
    #: ("shed, retry later") instead of surfacing a GatewayError.  Sheds
    #: never feed the breaker.
    retry_after_cap: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        for purpose, value in self.per_purpose_deadlines.items():
            if value <= 0:
                raise ValueError(f"deadline for {purpose!r} must be positive")
        if self.retry_after_cap <= 0:
            raise ValueError("retry_after_cap must be positive")

    @classmethod
    def from_config(cls, config: "PDAgentConfig") -> "RetryPolicy":
        return cls(
            max_attempts=config.retry_max_attempts,
            deadline=config.retry_deadline_s,
            retry_after_cap=config.retry_after_cap_s,
        )

    def deadline_for(self, purpose: str) -> float:
        return self.per_purpose_deadlines.get(purpose, self.deadline)

    def backoff_delay(self, attempt: int, stream: Optional["Stream"] = None) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered from ``stream``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        nominal = min(
            self.base_delay * self.backoff_factor ** (attempt - 1), self.max_delay
        )
        if self.jitter and stream is not None:
            nominal *= 1.0 + self.jitter * stream.uniform(-1.0, 1.0)
        return nominal


class CircuitBreaker:
    """Per-gateway failure memory with a cooldown, on the simulated clock.

    ``threshold`` consecutive failures open the breaker for ``cooldown``
    simulated seconds; while open, :meth:`is_open` is True and selection
    skips the gateway.  When the cooldown lapses the breaker goes
    half-open: the next attempt is allowed, and a single further failure
    re-opens it immediately.  Any success closes it.
    """

    def __init__(
        self, sim: "Simulator", threshold: int = 2, cooldown: float = 30.0
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.sim = sim
        self.threshold = threshold
        self.cooldown = cooldown
        self.trips = 0
        self._failures: dict[str, int] = {}
        self._opened_at: dict[str, float] = {}

    def record_failure(self, address: str) -> None:
        count = self._failures.get(address, 0) + 1
        self._failures[address] = count
        if count >= self.threshold and address not in self._opened_at:
            self._opened_at[address] = self.sim.now
            self.trips += 1

    def record_success(self, address: str) -> None:
        self._failures.pop(address, None)
        self._opened_at.pop(address, None)

    def is_open(self, address: str) -> bool:
        opened_at = self._opened_at.get(address)
        if opened_at is None:
            return False
        if self.sim.now - opened_at >= self.cooldown:
            # Half-open: let one attempt through; one more failure re-trips.
            del self._opened_at[address]
            self._failures[address] = self.threshold - 1
            return False
        return True

    def open_addresses(self) -> set[str]:
        return {addr for addr in list(self._opened_at) if self.is_open(addr)}
