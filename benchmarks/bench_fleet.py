"""Fleet-tier regression gate.

``test_fleet_gate`` checks the fleet experiment: same-seed determinism (a
replay equal in every counter, outcome, event count and ``sim_end``), the
exactly-once contract (zero duplicate dispatches in fleet mode, a
*measurable* duplicate count in baseline mode — the comparison must not be
vacuous), collect-anywhere completeness, and a bounded forwarding overhead
in **simulated** time.  Run it with
``python -m pytest -q --benchmark-disable benchmarks/bench_fleet.py``.

Unlike ``bench_scale``'s wall-clock throughput floor, every gate here is
self-relative and expressed in simulated seconds, so it is exactly
reproducible on any machine: with the claim RPC being one LAN round trip
per roamed upload, the fleet run's simulated makespan may exceed the
identical baseline run's (same seed, population, crash schedule) by at
most ``MAX_OVERHEAD``.
"""

from __future__ import annotations

from repro.experiments.fleet import run_fleet

#: Population used for the gates — the full three-gateway rotation twice.
GATE_POPULATION = 6
#: The fleet run's simulated makespan may be at most this factor of the
#: baseline's.  The claim hop adds LAN-latency milliseconds to tasks that
#: take seconds, so even 1.5 is generous; 2.0 absorbs schedule drift from
#: supersede/reconcile bookkeeping.
MAX_OVERHEAD = 2.0


def run_gate(seed: int = 0, population: int = GATE_POPULATION) -> dict:
    """Run both modes plus a replay; assert every fleet gate.

    Returns a report dict; raises ``AssertionError`` on any gate failure.
    """
    fleet_run = run_fleet(seed=seed, n_devices=population, enabled=True)
    baseline = run_fleet(seed=seed, n_devices=population, enabled=False)
    replay = run_fleet(seed=seed, n_devices=population, enabled=True)

    # Determinism gate: the fleet tier (crash-surviving stores, claim RPCs,
    # reconcilers) must not leak nondeterminism into the timeline.  The
    # replay must match in every counter, outcome, event count and sim_end.
    assert fleet_run == replay, (
        f"fleet replay drifted: {fleet_run.events_processed} vs "
        f"{replay.events_processed} events — nondeterminism in the tier"
    )

    # Exactly-once gate, both directions: the fleet must not duplicate, and
    # the baseline must measurably duplicate (otherwise the workload no
    # longer exercises the roamed-retry path and the zero above is vacuous).
    assert fleet_run.duplicate_dispatches == 0, (
        f"fleet mode double-dispatched {fleet_run.duplicate_dispatches} task(s)"
    )
    assert baseline.duplicate_dispatches > 0, (
        "baseline mode shows no duplicates — the workload stopped "
        "exercising roamed retries and the fleet gate is vacuous"
    )
    assert fleet_run.dispatches == population, (
        f"fleet dispatched {fleet_run.dispatches} agents for {population} tasks"
    )

    # Collect-anywhere gate: every task completes, through a gateway that
    # differs from the one it uploaded at.
    assert fleet_run.completed == population
    assert fleet_run.collected_elsewhere == population

    # Overhead gate (simulated time, self-relative).
    overhead = fleet_run.sim_end / baseline.sim_end
    assert overhead <= MAX_OVERHEAD, (
        f"fleet forwarding overhead {overhead:.2f}x exceeds "
        f"{MAX_OVERHEAD:.2f}x (fleet makespan {fleet_run.sim_end:.3f}s sim, "
        f"baseline {baseline.sim_end:.3f}s sim)"
    )
    return {
        "population": population,
        "fleet_dispatches": fleet_run.dispatches,
        "fleet_duplicates": fleet_run.duplicate_dispatches,
        "baseline_duplicates": baseline.duplicate_dispatches,
        "collect_anywhere": fleet_run.collected_elsewhere,
        "fleet_events": fleet_run.events_processed,
        "fleet_makespan_s": fleet_run.sim_end,
        "baseline_makespan_s": baseline.sim_end,
        "overhead": overhead,
    }


def test_fleet_gate(emit):
    report = run_gate()
    emit(
        f"fleet gate: {report['fleet_dispatches']} dispatches / "
        f"{report['population']} tasks ({report['fleet_duplicates']} dup), "
        f"baseline {report['baseline_duplicates']} dup, "
        f"overhead {report['overhead']:.2f}x"
    )
