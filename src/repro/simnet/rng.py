"""Named, seeded random streams.

Every stochastic quantity in the simulator (link jitter, loss, server think
time, workload inter-arrivals) draws from a *named stream* derived from a
single master seed.  Streams are independent and stable: adding a new consumer
of randomness does not perturb the draws seen by existing consumers, so
experiment trials stay reproducible as the codebase grows — the property the
paper's "four test runs" (Fig. 13) rely on.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

__all__ = ["Stream", "StreamFactory"]


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, name)``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted and unsuitable).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Stream:
    """A single independent random stream (thin wrapper over numpy's PCG64).

    The numpy generator is built on the first draw.  Its seed is fixed by
    ``(master_seed, name)`` alone, so when it is built cannot move a draw,
    and a stream nothing draws from (a device's ``retry`` stream in a
    fault-free run) costs no generator.  Every draw reads ``_gen`` directly
    and calls :meth:`_build` only while it is still None.
    """

    __slots__ = ("name", "seed", "_gen")

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self._gen: np.random.Generator | None = None

    def _build(self) -> np.random.Generator:
        self._gen = np.random.default_rng(self.seed)
        return self._gen

    # Distributions used across the simulator.  All return Python floats so
    # downstream arithmetic stays in plain-Python time units.
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float((self._gen or self._build()).uniform(low, high))

    def exponential(self, mean: float) -> float:
        if mean < 0:
            raise ValueError("mean must be >= 0")
        if mean == 0:
            return 0.0
        return float((self._gen or self._build()).exponential(mean))

    def normal(self, mean: float, std: float) -> float:
        return float((self._gen or self._build()).normal(mean, std))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float((self._gen or self._build()).lognormal(mean, sigma))

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Pareto(shape) scaled so the minimum value is ``scale``."""
        return float(scale * (1.0 + (self._gen or self._build()).pareto(shape)))

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        if p == 0.0:
            return False
        if p == 1.0:
            return True
        return bool((self._gen or self._build()).random() < p)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return int((self._gen or self._build()).integers(low, high + 1))

    def choice(self, seq: list) -> object:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int((self._gen or self._build()).integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        (self._gen or self._build()).shuffle(seq)

    def bytes(self, n: int) -> bytes:
        return (self._gen or self._build()).bytes(n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stream {self.name!r} seed={self.seed}>"


class StreamFactory:
    """Creates and caches named streams derived from one master seed.

    >>> streams = StreamFactory(master_seed=42)
    >>> streams.get("link:wireless:jitter") is streams.get("link:wireless:jitter")
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, Stream] = {}

    def get(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = Stream(name, _derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def __iter__(self) -> Iterator[Stream]:
        return iter(self._streams.values())

    def __len__(self) -> int:
        return len(self._streams)
