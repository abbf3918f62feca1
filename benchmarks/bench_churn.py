"""Membership-churn regression gate.

``test_churn_gate`` checks the churn experiment: same-seed determinism (a
replay equal in every counter, outcome, event count and ``sim_end``), 100%
completion with **zero duplicate dispatches** through a rolling restart of
every fleet member, collect-anywhere preserved across the roll, the
lifecycle provably exercised (three drains completed, state migrated, the
epoch advanced, at least one upload refused with a successor hint), and a
bounded makespan overhead versus the no-churn control in **simulated**
time.  Run it with
``python -m pytest -q --benchmark-disable benchmarks/bench_churn.py``.

Every gate is self-relative and expressed in simulated seconds, so it is
exactly reproducible on any machine.  The churn run's makespan exceeds the
identical control's because the roll itself occupies a fixed schedule
(three drain/dwell/down/settle cycles) that outlasts the traffic; the
bound below caps how much drain quiescing, migration RPCs and ring-walking
retries may stretch it further.
"""

from __future__ import annotations

from repro.experiments.fleet import GATEWAYS, run_churn

#: Population used for the gates — two full rotations of the three-gateway
#: upload/retry/collect pattern, spread across the whole rolling restart.
GATE_POPULATION = 6
#: The churn run's simulated makespan may be at most this factor of the
#: control's.  The roll's fixed schedule alone accounts for ~1.9x at the
#: gate population; 2.5 leaves headroom for retry waits without letting a
#: quiesce-timeout regression (which would add 15s) slip through.
MAX_OVERHEAD = 2.5


def run_gate(seed: int = 0, population: int = GATE_POPULATION) -> dict:
    """Run churn, control and a replay; assert every lifecycle gate.

    Returns a report dict; raises ``AssertionError`` on any gate failure.
    """
    churn_run = run_churn(seed=seed, n_devices=population, churn=True)
    control = run_churn(seed=seed, n_devices=population, churn=False)
    replay = run_churn(seed=seed, n_devices=population, churn=True)

    # Determinism gate: drains, migrations, suspicion probes and rejoin
    # rebalancing must not leak nondeterminism into the timeline.  The
    # replay must match in every counter, outcome, event count and sim_end.
    assert churn_run == replay, (
        "churn replay drifted — nondeterminism in the membership lifecycle"
    )

    # Completion gate: the rolling restart must not lose a single task.
    assert churn_run.completed == population, (
        f"churn completed {churn_run.completed}/{population} task(s)"
    )
    assert control.completed == population

    # Exactly-once gate: epochs moved, state migrated, owners changed —
    # and still no task dispatched two agents.
    assert churn_run.duplicate_dispatches == 0, (
        f"churn double-dispatched {churn_run.duplicate_dispatches} task(s)"
    )
    assert churn_run.dispatches == population

    # Collect-anywhere gate: collects keep working through the roll, via
    # gateways that never saw the upload.
    assert churn_run.collected_elsewhere == population, (
        f"only {churn_run.collected_elsewhere}/{population} collect(s) "
        "landed on a gateway other than the upload's"
    )

    # Lifecycle-exercised gate: the zero-duplicate result above is earned,
    # not vacuous.  Every member drained, state actually moved, the epoch
    # advanced once per drain and once per rejoin, and at least one upload
    # hit a draining member and was refused toward its successor.
    n = len(GATEWAYS)
    assert churn_run.drains_completed == n
    assert churn_run.migrated_out > 0, "drains migrated nothing"
    assert churn_run.rebalanced > 0, "rejoins rebalanced nothing"
    assert churn_run.final_epoch >= 1 + 2 * n, (
        f"epoch {churn_run.final_epoch} after {n} drain(s) + {n} rejoin(s)"
    )
    assert churn_run.drain_refusals > 0, (
        "no upload ever hit a draining member — the refusal path is untested"
    )
    assert control.drains_completed == 0 and control.final_epoch == 1

    # Overhead gate (simulated time, self-relative).
    overhead = churn_run.sim_end / control.sim_end
    assert overhead <= MAX_OVERHEAD, (
        f"churn overhead {overhead:.2f}x exceeds {MAX_OVERHEAD:.2f}x "
        f"(churn makespan {churn_run.sim_end:.3f}s sim, control "
        f"{control.sim_end:.3f}s sim)"
    )
    return {
        "population": population,
        "completed": churn_run.completed,
        "duplicates": churn_run.duplicate_dispatches,
        "collect_anywhere": churn_run.collected_elsewhere,
        "drains_completed": churn_run.drains_completed,
        "migrated_out": churn_run.migrated_out,
        "rebalanced": churn_run.rebalanced,
        "drain_refusals": churn_run.drain_refusals,
        "final_epoch": churn_run.final_epoch,
        "churn_events": churn_run.events_processed,
        "churn_makespan_s": churn_run.sim_end,
        "control_makespan_s": control.sim_end,
        "overhead": overhead,
    }


def test_churn_gate(emit):
    report = run_gate()
    emit(
        f"churn gate: {report['completed']}/{report['population']} completed "
        f"({report['duplicates']} dup), {report['drains_completed']} drains, "
        f"{report['migrated_out']} migrated, epoch {report['final_epoch']}, "
        f"overhead {report['overhead']:.2f}x"
    )
