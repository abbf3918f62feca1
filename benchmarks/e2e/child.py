"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts one of these per repetition, so no cache the program
keeps in-process (the seeded-keypair cache, the compression memo) carries
over from one repetition into the next.  Prints one JSON object as its last
line of standard output::

    PYTHONPATH=src python benchmarks/e2e/child.py --workload city-rush --seed 0 [--scale F] [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def maxrss_mib(raw: int, platform: str) -> float:
    """``ru_maxrss`` in MiB: Linux reports KiB, macOS bytes."""
    return raw / (1024.0 * 1024.0) if platform == "darwin" else raw / 1024.0


def _layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer totals and the wall time no layer span covers."""
    layers = {}
    for name, stats in sorted(tracer.layers.items()):
        layers[name] = {"self_s": stats.self_s, "calls": stats.calls, **stats.counts}
    measured = sum(stats.self_s for stats in tracer.layers.values())
    return {
        "layers": layers,
        "boundaries": dict(tracer.boundary_calls),
        "wall_s": wall_s,
        "unmeasured_s": wall_s - measured,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro

    expected = ROOT / "src" / "repro"
    if Path(repro.__file__).resolve().parent != expected:
        print(f"repro imported from {repro.__file__}, not {expected}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, percentile

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    run = WORKLOADS[args.workload](args.seed, args.scale)
    t_timed = time.perf_counter()
    batch = run()
    t_end = time.perf_counter()

    # Time spent timing the host's speed belongs to no phase.
    t_end -= batch.laps.overhead_s
    rss = maxrss_mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, sys.platform)
    latencies = [t.finished - t.due for t in batch.tasks]
    problems = list(batch.problems)
    unfinished = sum(1 for t in batch.tasks if t.finished < t.due)
    if unfinished:
        problems.append(f"{unfinished} tasks never reached an outcome")
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "timed_start": t_timed,
        "timed_s": t_end - t_timed,
        "slices_s": batch.laps.slices_s,
        "reference_s": batch.laps.reference_s,
        "work_s": t_end - t0,
        "tasks": len(batch.tasks),
        "tasks_ok": sum(1 for t in batch.tasks if t.ok),
        "ops": batch.ops,
        "ops_failed": batch.ops_failed,
        "events": batch.events,
        "task_sim_p50_s": percentile(latencies, 0.50),
        "task_sim_p90_s": percentile(latencies, 0.90),
        "conn_sim_mean_s": batch.conn_s / len(batch.tasks),
        "retained_spans": batch.retained_spans,
        "retained_connections": batch.retained_connections,
        "digest": batch.digest(),
        "peak_rss_mb": rss,
        "problems": problems,
    }
    if tracer is not None:
        out["trace"] = _layer_metrics(tracer, t_end - t0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
