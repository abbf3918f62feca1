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

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.scale import (  # noqa: E402
    REGION_POPULATIONS,
    run_population,
)

#: Population used for the gate — small enough for CI, large enough that
#: per-event costs dominate the (one-time) deployment build.
GATE_POPULATION = 100
#: Allowed events/sec slowdown vs the committed baseline.
MAX_REGRESSION = 0.20

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_scale.json")


#: Region count (and gateway count) for the region-routing identity gate.
GATE_REGIONS = 4
#: Required events/sec speedup of the committed 5,000-device region row
#: over the committed 5,000-device plain row.
REGION_SPEEDUP_FLOOR = 2.0


def load_doc() -> dict:
    """The committed ``BENCH_scale.json`` document."""
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_baseline(
    population: int = GATE_POPULATION, regions: int = 0, doc: dict | None = None
) -> dict:
    """The baseline entry for ``(population, regions)`` (or raise).

    ``regions=0`` selects the plain row; ``doc`` defaults to the committed
    ``BENCH_scale.json``.
    """
    for entry in (doc or load_doc())["populations"]:
        if entry["population"] == population and entry["regions"] == regions:
            return entry
    raise KeyError(
        f"no baseline entry for population {population} (regions={regions})"
    )


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


def run_region_gate(
    population: int = GATE_POPULATION,
    regions: int = GATE_REGIONS,
    seed: int = 0,
) -> dict:
    """Region-routing runtime gate: exact plain-vs-regions identity.

    Runs the same population (one gateway per region) with and without
    region assignment and asserts the timelines are identical: region
    routing must return the full graph's paths, only faster.
    """
    plain = run_population(population, seed=seed, n_gateways=regions)
    regioned = run_population(
        population, seed=seed, n_gateways=regions, regions=regions
    )
    assert regioned.events_processed == plain.events_processed, (
        f"region routing diverged: plain {plain.events_processed} events, "
        f"regions {regioned.events_processed} — a region route differs"
    )
    assert regioned.sim_time_s == plain.sim_time_s, (
        f"region routing end time drifted: {plain.sim_time_s} vs "
        f"{regioned.sim_time_s}"
    )
    assert regioned.tasks_completed == plain.tasks_completed == population
    return {
        "population": population,
        "regions": regions,
        "events_processed": regioned.events_processed,
        "plain_events_per_sec": plain.events_per_sec,
        "regions_events_per_sec": regioned.events_per_sec,
    }


def check_region_baseline(doc: dict | None = None) -> dict:
    """Static checks on the region rows of ``BENCH_scale.json``.

    * every row in ``REGION_POPULATIONS`` exists;
    * the 5,000-device region row processed *exactly* as many events as
      the 5,000-device plain row (same timeline, recorded at bench time);
    * the region row is at least ``REGION_SPEEDUP_FLOOR``× the plain row
      in events/sec.

    ``doc`` defaults to the committed file; passing one lets a test show
    the floor can fail.
    """
    doc = doc or load_doc()
    for population, regions in REGION_POPULATIONS:
        load_baseline(population, regions, doc)  # raises if missing
    plain = load_baseline(5000, 0, doc)
    regioned = load_baseline(5000, 10, doc)
    assert regioned["events_processed"] == plain["events_processed"], (
        "committed 5000-device rows disagree on events_processed: "
        f"plain {plain['events_processed']}, regions "
        f"{regioned['events_processed']}"
    )
    speedup = regioned["events_per_sec"] / plain["events_per_sec"]
    assert speedup >= REGION_SPEEDUP_FLOOR, (
        f"committed 5000@10 region row is only {speedup:.2f}x the plain "
        f"row (floor {REGION_SPEEDUP_FLOOR}x)"
    )
    return {
        "speedup_5000": speedup,
        "rows": [
            {
                "population": population,
                "regions": regions,
                "events_per_sec": load_baseline(
                    population, regions, doc
                )["events_per_sec"],
            }
            for population, regions in REGION_POPULATIONS
        ],
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


def test_scale_region_identity_gate(emit):
    report = run_region_gate()
    emit(
        f"region gate: {report['regions']} regions, "
        f"{report['events_processed']} events identical, "
        f"{report['regions_events_per_sec']:.0f} ev/s vs plain "
        f"{report['plain_events_per_sec']:.0f} ev/s"
    )


def test_scale_region_committed_baseline(emit):
    report = check_region_baseline()
    emit(
        f"committed region rows OK: 5000-device speedup "
        f"{report['speedup_5000']:.2f}x, rows "
        + ", ".join(
            f"{r['population']}@{r['regions']}={r['events_per_sec']:.0f} ev/s"
            for r in report["rows"]
        )
    )


def test_scale_region_floor_can_fail():
    """The speedup floor is not vacuous: a baseline whose 5000@10 row is
    only 1.5x the plain row must be rejected."""
    doc = copy.deepcopy(load_doc())
    plain = load_baseline(5000, 0, doc)
    load_baseline(5000, 10, doc)["events_per_sec"] = 1.5 * plain["events_per_sec"]
    with pytest.raises(AssertionError, match="floor"):
        check_region_baseline(doc)


# -- standalone CLI (CI) -------------------------------------------------------

if __name__ == "__main__":
    report = run_gate()
    print(json.dumps(report, indent=2, sort_keys=True))
    region_report = run_region_gate()
    print(json.dumps(region_report, indent=2, sort_keys=True))
    baseline_report = check_region_baseline()
    print(json.dumps(baseline_report, indent=2, sort_keys=True))
    print("scale gate: OK")
