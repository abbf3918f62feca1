"""Overload protection — dispatch storms through one throttled gateway.

``test_overload_sweep`` regenerates the PR-3 capstone table: a growing
device population dispatches through a single-worker gateway while uplink
outages swallow in-flight responses.  The protected mode (admission
control + exactly-once dedup) must keep every task completing with zero
duplicate dispatches and a bounded tail; the unprotected twin pays for
every retried frame with a duplicate agent.

``test_admission_hot_path`` times the pure in-memory admit/release cycle
(the per-request cost the gateway adds), well clear of any simulation.
"""

from repro.core import AdmissionController, DedupTable, TokenBucket
from repro.experiments.overload import run_overload_sweep
from repro.simnet.kernel import Simulator


def test_overload_sweep(benchmark, emit):
    sweep = benchmark.pedantic(
        run_overload_sweep,
        kwargs={"seed": 0, "populations": (2, 4, 8)},
        rounds=1,
        iterations=1,
    )
    emit(sweep.render())
    protected = sweep.runs["protected"]
    worst_protected = protected[-1]
    worst_unprotected = sweep.runs["unprotected"][-1]
    # Protection never loses a task and never dispatches a duplicate.
    assert all(r.completion_rate == 1.0 for r in protected)
    assert all(r.duplicate_dispatches == 0 for r in protected)
    # It visibly worked for its living: sheds and dedup hits happened.
    assert worst_protected.sheds > 0
    assert worst_protected.dedup_hits > 0
    # The unprotected twin double-dispatches under the same storm.
    assert worst_unprotected.duplicate_dispatches > 0
    assert worst_protected.p99 < worst_unprotected.p99


def test_admission_hot_path(benchmark):
    sim = Simulator()
    controller = AdmissionController(sim, node="gw-bench")
    controller.add_class(
        "upload", workers=4, queue_limit=8,
        bucket=TokenBucket(sim, rate=1e9, burst=1_000_000),
    )
    dedup = DedupTable()

    def cycle():
        for i in range(100):
            admission = controller.try_admit("upload")
            dedup.bind(f"task-{i}", f"ticket-{i}")
            dedup.lookup(f"task-{i}")
            admission.release()
        dedup.clear()

    benchmark(cycle)
