"""End-to-end benchmark: one workload, repeated in fresh processes, checked.

    python benchmarks/e2e/run.py --workload city-rush [--seed 0] [--seconds 20]
                                 [--trace 0|1] [--reps 3] [--scale 1]

Runs repetitions of the workload one after another, each in a fresh
``child.py`` interpreter, until ``--seconds`` have passed and at least
``--reps`` repetitions are done.  Prints each repetition, every end-to-end
metric with its unit, sample count, median and quartiles, and the output
checks; the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics instead.  The metric names, units and bounds are
declared in ``BENCHMARK.json`` at the root of the checkout.  Exits non-zero
when any output check fails, and without a result when the checkout holds
no program to run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("city-rush", "flash-day", "paper-figs", "swarm")

#: Which clock each end-to-end metric reads.
CLOCK = {
    "tasks_per_s": "host",
    "setup_s": "host",
    "peak_rss_mb": "host",
    "task_sim_p50_s": "sim",
    "task_sim_p90_s": "sim",
    "conn_sim_mean_s": "sim",
}
#: Layers whose self time is reported as a metric: every workload enters
#: them, so their time is never zero.  The other layers are reported by
#: call counts (their self time is printed, not emitted).
TIMED_LAYERS = (
    "simnet.kernel", "simnet.topology", "compressor", "compressor.lzss",
    "crypto.keygen", "crypto.envelope", "xmlcodec", "mas.wire",
    "core.packed_info", "core.deployment", "core.gateway.pi",
    "core.gateway.result", "core.gateway.subscribe", "simnet.http",
)
COUNTED_LAYERS = TIMED_LAYERS + (
    "core.gateway.fleet", "core.gateway.session", "core.gateway.relay",
    "simtest.generate", "simtest.audit", "telemetry.export",
)
CHILD_TIMEOUT_S = 150


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_definition(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, str]:
    versions = {}
    for dist in ("numpy", "networkx"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": str(nproc),
        "python": platform.python_version(),
        **versions,
        "git": _git_sha(ROOT),
        "platform": sys.platform,
    }


def child_env() -> dict[str, str]:
    """The child's environment: this checkout's ``src``, one-threaded
    numeric libraries (no thread pool competes with the measured thread)
    and a fixed hash seed (set iteration order cannot vary between runs)."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """One repetition in a fresh interpreter; adds ``setup_s``, measured
    from just before the interpreter is started."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
    ]
    if traced:
        cmd.append("--trace")
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{workload} repetition failed (exit {proc.returncode})")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["timed_start"] - start
    rep["traced"] = traced
    return rep


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's value in every repetition."""
    return {
        "tasks_per_s": [r["tasks"] / r["timed_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "task_sim_p50_s": [r["task_sim_p50_s"] for r in reps],
        "task_sim_p90_s": [r["task_sim_p90_s"] for r in reps],
        "conn_sim_mean_s": [r["conn_sim_mean_s"] for r in reps],
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions, plus the
    trace's own overhead against the untraced ones."""

    def med(values) -> float:
        return statistics.median(list(values))

    def layer(name: str, key: str) -> float:
        return med(r["trace"]["layers"].get(name, {}).get(key, 0) for r in traced)

    def boundary(key: str) -> float:
        return med(r["trace"]["boundaries"][key] for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in TIMED_LAYERS:
        out[f"{name}.self_s"] = layer(name, "self_s")
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = layer(name, "calls")
    residual = out.pop("simnet.kernel.self_s")
    events = med(r["events"] for r in traced)
    dijkstra = boundary("simnet.topology:networkx.shortest_path")
    encodes = boundary("compressor.lzss:repro.compressor.lzss.LzssCodec.encode")
    out.update({
        "simnet.kernel.residual_s": residual,
        "simnet.kernel.events": events,
        "simnet.kernel.us_per_event": ratio(residual * 1e6, events),
        "simnet.kernel.events_per_s": ratio(events, med(r["work_s"] for r in untraced)),
        "simnet.topology.route_calls": boundary(
            "simnet.topology:repro.simnet.topology.Network.route"
        ),
        "simnet.topology.dijkstra_calls": dijkstra,
        "simnet.topology.ms_per_dijkstra": ratio(out["simnet.topology.self_s"] * 1e3, dijkstra),
        "compressor.memo_hit_ratio": 1.0 - ratio(encodes, layer("compressor", "lzss_calls")),
        "compressor.ratio": ratio(
            layer("compressor", "bytes_out"), layer("compressor", "bytes_in")
        ),
        "compressor.lzss.us_per_kb": ratio(
            out["compressor.lzss.self_s"] * 1e6, layer("compressor.lzss", "bytes") / 1024
        ),
        "xmlcodec.bytes": layer("xmlcodec", "bytes"),
        "mas.wire.bytes": layer("mas.wire", "bytes"),
        "core.gateway.pi.shed_ratio": ratio(
            layer("core.gateway.pi", "sheds"), out["core.gateway.pi.calls"]
        ),
        "telemetry.export.bytes": layer("telemetry.export", "bytes"),
        "telemetry.retained_spans": med(r["retained_spans"] for r in traced),
        "telemetry.retained_connections": med(r["retained_connections"] for r in traced),
        "trace.overhead": ratio(reference_seconds(traced), reference_seconds(untraced)) - 1.0,
        "trace.unmeasured_share": med(
            r["trace"]["unmeasured_s"] / r["trace"]["wall_s"] for r in traced
        ),
    })
    return out


def check(reps: list[dict]) -> list[str]:
    """Output checks over every repetition (traced ones included)."""
    problems = [f"rep {i}: {p}" for i, rep in enumerate(reps, 1) for p in rep["problems"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(
            f"timeline digest differs between repetitions: {sorted(digests)}"
        )
    return problems


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_reps(reps: list[dict]) -> None:
    for i, r in enumerate(reps, 1):
        kind = "traced" if r["traced"] else "untraced"
        print(
            f"rep {i} {kind:>8}: setup {r['setup_s']:.3f} s  timed {r['timed_s']:.3f} s"
            f"  tasks {r['tasks']} (ok {r['tasks_ok']})  ops {r['ops']}"
            f" (failed {r['ops_failed']})  events {r['events']}"
            f"  rss {r['peak_rss_mb']:.1f} MiB  digest {r['digest'][:16]}"
        )


def report_end_to_end(defs: list[dict], values: dict[str, list[float]], tasks: int) -> None:
    print(f"{'metric':<18}{'unit':<9}{'clock':<7}{'n':>6}{'median':>14}{'q1':>14}{'q3':>14}")
    for d in defs:
        vals = values[d["name"]]
        q1, q2, q3 = quartiles(vals)
        clock = CLOCK[d["name"]]
        # A sim-clock metric is one value per repetition computed over every
        # task, and identical across repetitions; its sample count is tasks.
        n = tasks if clock == "sim" else len(vals)
        print(
            f"{d['name']:<18}{d['unit']:<9}{clock:<7}{n:>6}"
            f"{_fmt(q2):>14}{_fmt(q1):>14}{_fmt(q3):>14}"
        )


def report_layers(traced: list[dict]) -> None:
    wall = statistics.median(r["trace"]["wall_s"] for r in traced)
    names = sorted({n for r in traced for n in r["trace"]["layers"]})
    print(f"{'layer':<24}{'self_s':>10}{'share':>8}{'calls':>9}  counters")
    for name in names:
        stats = [r["trace"]["layers"].get(name, {}) for r in traced]
        self_s = statistics.median(s.get("self_s", 0.0) for s in stats)
        extra = {k: v for k, v in stats[0].items() if k not in ("self_s", "calls")}
        print(
            f"{name:<24}{self_s:>10.4f}{self_s / wall:>8.1%}"
            f"{stats[0].get('calls', 0):>9}  {extra or ''}"
        )
    idle = [k for k, v in traced[0]["trace"]["boundaries"].items() if v == 0]
    print(f"boundaries not entered on this workload: {', '.join(idle) or 'none'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep repeating until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3,
                        help="minimum repetitions (pairs with --trace 1)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size as a fraction of the default")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    definition = load_definition()

    env = environment()
    print(
        f"e2e benchmark: workload {args.workload}, seed {args.seed}, scale {args.scale}, "
        f"trace {args.trace}"
    )
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    deadline = time.perf_counter() + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        while len(untraced) < args.reps or time.perf_counter() < deadline:
            untraced.append(run_child(args.workload, args.seed, args.scale, False))
            if args.trace:
                traced.append(run_child(args.workload, args.seed, args.scale, True))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = untraced + traced
    report_reps(reps)

    if args.trace:
        report_layers(traced)
        values = per_layer(traced, untraced)
        defs = definition["per_layer"]
    else:
        series = end_to_end(untraced)
        defs = definition["end_to_end"]
        tasks = untraced[0]["tasks"]
        report_end_to_end(defs, series, tasks)
        values = {name: statistics.median(vals) for name, vals in series.items()}
        seconds = reference_seconds(untraced)
        values["tasks_per_s"] = tasks / seconds
        print(
            f"tasks_per_s reported: {_fmt(values['tasks_per_s'])} = {tasks} tasks / "
            f"{seconds:.4f} s at the reference host's speed, each of "
            f"{len(untraced[0]['slices_s'])} slices at its fastest over "
            f"{len(untraced)} repetitions"
        )
    problems = check(reps)
    print("checks: " + ("; ".join(problems) if problems else "all passed"))
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(r["ops_failed"] for r in reps),
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
