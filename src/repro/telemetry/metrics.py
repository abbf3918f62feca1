"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the one metrics store of a run (``network.telemetry.metrics``):
every layer writes its counters and histograms here, and every finished span
feeds it, so per-phase p50/p95/p99 latencies are available at the end of a
run without storing every sample.

Histograms use fixed bucket boundaries (a 1-2-5 decade series by default),
which bounds memory to ``O(buckets)`` regardless of sample count and keeps
percentile estimates within one bucket of the exact quantile — the classic
Prometheus/HdrHistogram trade-off, adequate because the evaluation cares
about orders of magnitude (GPRS seconds vs LAN milliseconds), not
microsecond precision.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]


def _decade_buckets(lo_exp: int = -6, hi_exp: int = 7) -> tuple[float, ...]:
    """1-2-5 series boundaries spanning ``10**lo_exp`` … ``10**hi_exp``."""
    bounds: list[float] = []
    for exp in range(lo_exp, hi_exp):
        for mantissa in (1.0, 2.0, 5.0):
            bounds.append(mantissa * 10.0**exp)
    return tuple(bounds)


#: Default boundaries: 1e-6 … 5e6 in a 1-2-5 series (39 buckets + overflow).
#: Wide enough for both durations (µs-scale compute to ks-scale tours) and
#: byte counts (single-header frames to MB transfers).
DEFAULT_BUCKETS = _decade_buckets()


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n


class Gauge:
    """A metric that records the latest value set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    ``bounds[i]`` is the *inclusive* upper edge of bucket ``i``; one extra
    overflow bucket catches samples above the last bound.  Exact ``count``,
    ``total``, ``min`` and ``max`` are tracked alongside the buckets, so the
    mean is exact and percentile estimates are clamped to the observed range.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        chosen = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError("histogram bounds must be a non-empty sorted sequence")
        self.bounds = chosen
        self.bucket_counts = [0] * (len(chosen) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:  # NaN: would poison min/max/total and make
            # every later snapshot non-JSON (NaN survives comparisons
            # without ever updating min/max, leaving them at ±inf).
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        return bisect.bisect_left(self.bounds, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0 < p <= 100).

        Walks the cumulative bucket counts to the target rank and linearly
        interpolates inside the bucket; the result is clamped to the exact
        observed ``[min, max]`` so degenerate buckets cannot extrapolate.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / n
                estimate = lower + (upper - lower) * fraction
                return max(self.min, min(self.max, estimate))
            cumulative += n
        return self.max  # pragma: no cover - defensive (rank <= count always)

    def snapshot(self) -> dict:
        """Summary dict (JSON-ready) used by exporters and reports."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Named metric instruments, created on first use.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind is a programming error and
    raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_free(self, name: str, table: dict) -> None:
        for kind, other in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other is not table and name in other:
                raise TypeError(f"metric {name!r} already registered as a {kind}")

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._check_free(name, self._counters)
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            self._check_free(name, self._gauges)
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            self._check_free(name, self._histograms)
            inst = self._histograms[name] = Histogram(name, bounds)
        return inst

    def snapshot(self) -> dict:
        """Deterministic (sorted) JSON-ready dump of every instrument."""
        return {
            "counters": {k: v.value for k, v in sorted(self._counters.items())},
            "gauges": {k: v.value for k, v in sorted(self._gauges.items())},
            "histograms": {
                k: v.snapshot() for k, v in sorted(self._histograms.items())
            },
        }
