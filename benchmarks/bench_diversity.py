"""Diversity-day benchmark and regression gate.

Pytest-collectable gates over the diversity experiment at a CI-sized
population: same-seed determinism (full replay of arrivals, outcomes and
latencies), graceful-degradation (every app class completes its whole
slice even though the flash crowd measurably sheds), a non-vacuous flash
(devices actually re-timed onto the onset, sheds actually observed),
per-class latency sanity (p99 finite, positive, and inside the simulated
day), and a bounded tail (sheds delay tasks, they must not stall them past
the retry window).  CI's tests job runs them with
``python -m pytest -q --benchmark-disable benchmarks/bench_diversity.py``.

Every gate is self-relative and expressed in simulated units, so it is
exactly reproducible on any machine.
"""

from __future__ import annotations

from repro.experiments.diversity import run_diversity

#: CI population: large enough that the flash crowd overruns the
#: epicenter gateway's admission layer (sheds are non-vacuous), small
#: enough to run twice in a benchmark job.
GATE_DEVICES = 600
#: Shed-delayed tasks must finish within this many simulated seconds —
#: the flash tail is *degradation*, and this bound is what separates it
#: from a stall (retry storms, lost Retry-After waits, dead tickets).
MAX_P99_S = 60.0


def run_gate(seed: int = 0) -> dict:
    """Run the diversity day plus a replay; assert every gate.

    Returns a report dict; raises ``AssertionError`` on any gate failure.
    """
    day = run_diversity(seed=seed, n_devices=GATE_DEVICES)
    replay = run_diversity(seed=seed, n_devices=GATE_DEVICES)

    # Determinism gate: traffic sampling, the app mix, admission, shed
    # retries and the fleet tier must not leak nondeterminism into the
    # simulated timeline.
    assert replay.events_processed == day.events_processed, (
        f"replay drifted on events: {replay.events_processed} vs "
        f"{day.events_processed} — nondeterminism in the diversity day"
    )
    assert replay.sim_time_s == day.sim_time_s
    assert replay.sheds == day.sheds and replay.shed_waits == day.shed_waits
    assert replay.flash_retimed == day.flash_retimed
    assert replay.outcomes == day.outcomes, "replay drifted on task outcomes"
    for app, stats in day.classes.items():
        got = replay.classes[app]
        assert (got.n, got.completed, got.latencies) == (
            stats.n, stats.completed, stats.latencies,
        ), f"replay drifted on {app} latencies"

    # Graceful-degradation gate: the flash crowd must shed, and every
    # task must still complete — degradation, not collapse.
    assert day.completed == day.n_devices, (
        f"diversity day completed {day.completed}/{day.n_devices} — the "
        "flash crowd collapsed the fleet instead of degrading it"
    )
    assert day.failed == 0 and day.deadline_missed == 0, (
        f"{day.failed} failure(s), {day.deadline_missed} deadline "
        "miss(es) on the reference day"
    )

    # Non-vacuous flash: the crowd must actually form and actually
    # overrun admission at this population, or the shed/tail gates
    # compare nothing.
    assert day.flash_retimed > 0, "no device joined the flash crowd"
    assert day.sheds > 0, (
        "flash crowd produced no load sheds — the admission gate went "
        "vacuous (population too small or limits too generous)"
    )
    assert day.shed_waits > 0, (
        "gateways shed but no device honoured a Retry-After wait"
    )

    # Per-class sanity: every class in the mix got tasks, and its p99 is
    # a real latency inside the simulated day.
    horizon = day.sim_time_s
    for app, stats in sorted(day.classes.items()):
        assert stats.n > 0, f"app mix never drew {app}"
        assert 0.0 < stats.p50 <= stats.p99 <= horizon, (
            f"{app} latency quantiles out of range: "
            f"p50={stats.p50!r} p99={stats.p99!r}"
        )
        assert stats.p99 <= MAX_P99_S, (
            f"{app} p99 {stats.p99:.2f}s exceeds the degradation bound "
            f"{MAX_P99_S:.0f}s — shed tasks are stalling, not backing off"
        )

    worst = max(day.classes.values(), key=lambda s: s.p99)
    return {
        "devices": day.n_devices,
        "completed": day.completed,
        "completion_rate": day.completion_rate,
        "flash_retimed": day.flash_retimed,
        "sheds": day.sheds,
        "shed_waits": day.shed_waits,
        "deadline_missed": day.deadline_missed,
        "worst_class": worst.app,
        "worst_p99_s": worst.p99,
        "per_class_p99_s": {
            app: stats.p99 for app, stats in sorted(day.classes.items())
        },
        "events_processed": day.events_processed,
    }


# -- pytest entry points -------------------------------------------------------


def test_diversity_deterministic_replay():
    """Same seed → identical day, twice (arrivals, sheds, latencies)."""
    a = run_diversity(seed=0, n_devices=150)
    b = run_diversity(seed=0, n_devices=150)
    assert a.events_processed == b.events_processed
    assert a.outcomes == b.outcomes
    assert {k: v.latencies for k, v in a.classes.items()} == {
        k: v.latencies for k, v in b.classes.items()
    }


def test_diversity_gate(emit):
    report = run_gate()
    emit(
        f"diversity gate: {report['completed']}/{report['devices']} done, "
        f"{report['flash_retimed']} flash device(s), {report['sheds']} "
        f"shed(s)/{report['shed_waits']} wait(s), worst p99 "
        f"{report['worst_p99_s']:.2f}s ({report['worst_class']})"
    )
