"""Streaming-session benchmark and regression gate.

Pytest-collectable gates over the streaming experiment: same-seed
determinism (full comparison replay), completion under the reference fault
schedule, the resume-vs-restart byte claim (streaming retransmits *strictly
fewer* bytes than store-and-forward, and the comparison must not be
vacuous — the baseline must measurably restart and the streaming run must
measurably resume), the time-to-first-result claim, byte-identical final
documents, and a bounded chunk-framing overhead on the wire.  CI's tests
job runs them with
``python -m pytest -q --benchmark-disable benchmarks/bench_streaming.py``.

Every gate is self-relative and expressed in simulated units, so it is
exactly reproducible on any machine.
"""

from __future__ import annotations

from repro.experiments.streaming import run_streaming_comparison

#: Clean-task time-to-first-result ceiling, in simulated seconds from task
#: start: one GPRS session burst (setup + open handshake + three chunk
#: round trips, ~7.5 s) plus the agent's first hop over the backbone and
#: one session poll interval, with slack for jitter.  The fastest task in
#: the faulted workload must still get its first partial under this bound
#: — that is the paper-facing "results while the agent is still
#: travelling" claim.
FIRST_HOP_TTFR_BOUND_S = 15.0
#: Chunk framing + resume handshakes may put at most this factor more
#: upload bytes on the air than the baseline's single-frame POSTs.
MAX_UPLOAD_OVERHEAD = 1.6


def run_gate(seed: int = 0) -> dict:
    """Run the comparison plus a replay; assert every streaming gate.

    Returns a report dict; raises ``AssertionError`` on any gate failure.
    """
    cmp = run_streaming_comparison(seed=seed)
    replay = run_streaming_comparison(seed=seed)
    s, b = cmp.streaming, cmp.store_forward

    # Determinism gate: the session layer (stores, channels, push queues,
    # adaptive polling) must not leak nondeterminism into the timeline.
    for field in ("completed", "retransmitted_bytes", "uploaded_bytes",
                  "connection_time", "ttfr", "chunks_sent", "reopens",
                  "partials", "push_events"):
        got, expect = getattr(replay.streaming, field), getattr(s, field)
        assert got == expect, (
            f"streaming replay drifted on {field}: {got!r} vs {expect!r} — "
            "nondeterminism in the session layer"
        )
    assert replay.store_forward.retransmitted_bytes == b.retransmitted_bytes
    assert replay.store_forward.ttfr == b.ttfr

    # Completion gate: the faulted workload must finish on both sides —
    # a comparison where one side drops tasks compares nothing.
    assert s.completed == s.n_tasks, (
        f"streaming completed {s.completed}/{s.n_tasks} under faults"
    )
    assert b.completed == b.n_tasks, (
        f"store-and-forward completed {b.completed}/{b.n_tasks} under faults"
    )

    # Resume-vs-restart gate, both directions: resumed uploads must
    # retransmit strictly fewer bytes than store-and-forward restarts,
    # and neither side may be vacuous — the baseline must measurably
    # restart, and the streaming run must actually exercise a mid-upload
    # resume (re-opened burst) on this schedule.
    assert b.retransmitted_bytes > 0, (
        "store-and-forward shows no restart bytes — the fault schedule "
        "stopped hitting uploads and the resume gate is vacuous"
    )
    assert s.reopens > 0, (
        "streaming run never re-opened a session — the fault schedule "
        "stopped cutting mid-burst and the resume gate is vacuous"
    )
    assert s.retransmitted_bytes < b.retransmitted_bytes, (
        f"resumed uploads retransmitted {s.retransmitted_bytes} B, not "
        f"fewer than store-and-forward's {b.retransmitted_bytes} B"
    )

    # Time-to-first-result gate: partial streaming must beat waiting for
    # the full tour, and the fastest task must meet the first-hop bound.
    assert s.min_ttfr <= FIRST_HOP_TTFR_BOUND_S, (
        f"best streaming TTFR {s.min_ttfr:.2f}s exceeds the first-hop "
        f"bound {FIRST_HOP_TTFR_BOUND_S:.1f}s"
    )
    assert cmp.ttfr_speedup >= 1.0, (
        f"streaming mean TTFR {s.mean_ttfr:.2f}s is no better than "
        f"store-and-forward's {b.mean_ttfr:.2f}s"
    )

    # Byte-identity gate: every streamed result matched its plain
    # re-download byte for byte — partials must not fork the document.
    assert s.byte_identical, "streamed final documents diverged from download"

    # Overhead gate: chunk framing must stay bounded on the wire.
    overhead = s.uploaded_bytes / b.uploaded_bytes if b.uploaded_bytes else 1.0
    assert overhead <= MAX_UPLOAD_OVERHEAD, (
        f"chunked upload put {overhead:.2f}x the baseline's bytes on the "
        f"air (limit {MAX_UPLOAD_OVERHEAD:.1f}x)"
    )
    return {
        "completed": s.completed,
        "streaming_retransmit_b": s.retransmitted_bytes,
        "baseline_retransmit_b": b.retransmitted_bytes,
        "retransmit_savings_b": cmp.retransmit_savings,
        "reopens": s.reopens,
        "partials": s.partials,
        "min_ttfr_s": s.min_ttfr,
        "ttfr_speedup": cmp.ttfr_speedup,
        "byte_identical": s.byte_identical,
        "upload_overhead": overhead,
    }


# -- pytest entry points -------------------------------------------------------


def test_streaming_deterministic_replay():
    """Same seed → identical comparison, twice."""
    a = run_streaming_comparison(seed=0)
    b = run_streaming_comparison(seed=0)
    assert a.streaming.ttfr == b.streaming.ttfr
    assert a.streaming.retransmitted_bytes == b.streaming.retransmitted_bytes
    assert a.store_forward.ttfr == b.store_forward.ttfr
    assert a.streaming.chunks_sent == b.streaming.chunks_sent
    assert a.streaming.partials == b.streaming.partials


def test_streaming_gate(emit):
    report = run_gate()
    emit(
        f"streaming gate: {report['retransmit_savings_b']} B retransmit "
        f"savings ({report['reopens']} resume(s), baseline "
        f"{report['baseline_retransmit_b']} B), TTFR "
        f"{report['ttfr_speedup']:.1f}x / min {report['min_ttfr_s']:.2f}s, "
        f"upload overhead {report['upload_overhead']:.2f}x"
    )
