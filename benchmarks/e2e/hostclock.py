"""Host time of a timed phase, slice by slice, with the host's speed beside it.

A shared VM's speed drifts by 10-30% over seconds to minutes as other
tenants come and go, which no single wall-clock reading can tell apart from
a change in the program.  :class:`Laps` therefore cuts a timed phase into
slices of fixed simulated work and, after each slice, times a fixed
reference computation: the host's speed at that moment.  The reference
time is kept out of every slice.

:func:`reference_seconds` turns the slices of several repetitions of one
seed into the timed phase's seconds on a host of constant speed.
"""

from __future__ import annotations

import time

__all__ = ["Laps", "REFERENCE_S", "reference_seconds"]

#: Runs of the reference per lap; the fastest one is kept, so a burst of
#: interference during one run does not read as a slow host.
REFERENCE_RUNS = 3
#: The reference's fastest time on the reference host (2-vCPU Xeon VM at
#: 2.0 GHz, Python 3.11): the speed every slice is scaled to.
REFERENCE_S = 2.3e-4
_MODULUS = (1 << 1024) - 105


def _reference_work() -> int:
    """Interpreter dispatch plus big-integer arithmetic, both of which the
    program spends its time in (the simulation kernel, RSA), on a working
    set too small for the program's heap or caches to change its speed.
    It allocates no container, so it never triggers a garbage collection."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    return pow(s | 1, (1 << 32) - 1, _MODULUS)


def reference_run_s() -> float:
    """The reference's fastest time over ``REFERENCE_RUNS`` runs, now."""
    best = float("inf")
    for _ in range(REFERENCE_RUNS):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Laps:
    """Host-clock laps over a timed phase, one per slice of its work."""

    def __init__(self) -> None:
        #: Host seconds of each slice.
        self.slices_s: list[float] = []
        #: The reference's time after each slice.
        self.reference_s: list[float] = []
        #: Host seconds spent timing the reference, in no slice.
        self.overhead_s = 0.0
        self._start = time.perf_counter()

    def lap(self) -> None:
        end = time.perf_counter()
        self.slices_s.append(end - self._start)
        self.reference_s.append(reference_run_s())
        self._start = time.perf_counter()
        self.overhead_s += self._start - end


def reference_seconds(reps: list[dict]) -> float:
    """Seconds of the timed phase on a host of the reference host's constant
    speed, from repetitions of one seed (each with ``slices_s`` and
    ``reference_s``).

    Each slice's time is scaled by the host's speed right after it
    (``REFERENCE_S`` / the reference's time), and the fastest scaled time
    over the repetitions is kept.  The program is deterministic, so every
    repetition does the same work in a slice: what differs between them is
    the host, and the fastest repetition is the least disturbed one.  Every
    cost the program pays on every run, garbage collection and cold caches
    included, stays in."""
    counts = {len(r["slices_s"]) for r in reps}
    if len(counts) != 1:
        raise RuntimeError(f"repetitions were cut into {sorted(counts)} slices")
    scaled = [
        [t * REFERENCE_S / ref for t, ref in zip(r["slices_s"], r["reference_s"])]
        for r in reps
    ]
    return sum(min(times) for times in zip(*scaled))
