"""Population-scale benchmark and regression gate.

Two jobs in one file:

* ``test_scale_*`` — pytest-collectable benchmarks that run a small
  population sweep and gate against the committed ``BENCH_scale.json``
  baseline: the simulated timeline must be *exactly* reproduced
  (``events_processed`` equality — determinism is free to check), and
  kernel throughput must not regress more than ``MAX_REGRESSION``
  (20%) against the baseline's events/sec.
* ``python benchmarks/bench_scale.py`` — standalone CLI that runs the same
  gate without pytest (used by the CI benchmark job).

The throughput gate deliberately compares against a *committed* number, not
a same-run rebuild: wall-clock drift between the machine that produced the
baseline and the machine running CI is absorbed by the generous 20% margin,
while order-of-magnitude regressions (an accidentally quadratic hot path,
a dropped cache) still fail loudly.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.scale import run_population  # noqa: E402

#: Population used for the gate — small enough for CI, large enough that
#: per-event costs dominate the (one-time) deployment build.
GATE_POPULATION = 100
#: Allowed events/sec slowdown vs the committed baseline.
MAX_REGRESSION = 0.20

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_scale.json")


def load_baseline(population: int = GATE_POPULATION) -> dict:
    """The committed ``BENCH_scale.json`` entry for ``population`` (or raise)."""
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    for entry in doc["populations"]:
        if entry["population"] == population:
            return entry
    raise KeyError(f"no baseline entry for population {population}")


def run_gate(population: int = GATE_POPULATION, seed: int = 0) -> dict:
    """Run one population and compare it to the committed baseline.

    Returns a report dict; raises ``AssertionError`` on any gate failure.
    """
    baseline = load_baseline(population)
    result = run_population(population, seed=seed)

    # Determinism gate: the simulated timeline is seed-deterministic, so the
    # event count must match the baseline *exactly* — any drift means a
    # behaviour change snuck in alongside (or disguised as) a perf change.
    assert result.events_processed == baseline["events_processed"], (
        f"events_processed drifted: baseline {baseline['events_processed']}, "
        f"got {result.events_processed} — the simulation timeline changed"
    )
    assert result.tasks_completed == baseline["tasks_completed"]

    # Throughput gate: generous margin for machine variance, fatal for
    # algorithmic regressions.
    floor = baseline["events_per_sec"] * (1.0 - MAX_REGRESSION)
    assert result.events_per_sec >= floor, (
        f"kernel throughput regressed >{MAX_REGRESSION:.0%}: baseline "
        f"{baseline['events_per_sec']:.0f} ev/s, floor {floor:.0f}, "
        f"got {result.events_per_sec:.0f}"
    )
    return {
        "population": population,
        "baseline_events_per_sec": baseline["events_per_sec"],
        "events_per_sec": result.events_per_sec,
        "events_processed": result.events_processed,
        "wall_per_task_s": result.wall_per_task_s,
        "peak_rss_mb": result.peak_rss_mb,
    }


# -- pytest entry points -------------------------------------------------------


def test_scale_events_deterministic():
    """Same seed + population → identical simulated timeline, twice."""
    a = run_population(GATE_POPULATION, seed=0)
    b = run_population(GATE_POPULATION, seed=0)
    assert a.events_processed == b.events_processed
    assert a.sim_time_s == b.sim_time_s
    assert a.tasks_completed == b.tasks_completed == GATE_POPULATION


def test_scale_gate_vs_committed_baseline(emit):
    report = run_gate()
    emit(
        f"scale gate: {report['events_per_sec']:.0f} ev/s vs baseline "
        f"{report['baseline_events_per_sec']:.0f} ev/s "
        f"({report['events_processed']} events, "
        f"{report['wall_per_task_s'] * 1e3:.2f} ms/task, "
        f"{report['peak_rss_mb']:.1f} MB RSS)"
    )


def test_scale_population_benchmark(benchmark):
    result = benchmark.pedantic(
        run_population, args=(GATE_POPULATION,), kwargs={"seed": 0}, rounds=1
    )
    assert result.tasks_completed == GATE_POPULATION


# -- standalone CLI (CI) -------------------------------------------------------

if __name__ == "__main__":
    report = run_gate()
    print(json.dumps(report, indent=2, sort_keys=True))
    print("scale gate: OK")
