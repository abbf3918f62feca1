"""Retained memory per device: what a population run keeps, and where.

    python benchmarks/bench_memory.py [--sizes 500 1000]

Runs the star population of :func:`repro.experiments.scale.run_population`
(seed 0) at two sizes, each size twice and each run in a fresh interpreter:

* under ``tracemalloc``, with a heap snapshot taken right after
  ``sim.run()`` returns and ``gc.collect()`` has run, while the deployment
  is still alive;
* untraced, for the size's ``ru_maxrss`` as the run reports it in
  ``peak_rss_mb`` (tracemalloc's own bookkeeping would inflate it).

The report divides the difference between the two sizes by the difference
in devices, so what every run holds whatever its size (imports, codec
tables, caches that are full at both sizes) cancels out.  It splits the
retained bytes by ``repro`` package and by allocation site, the innermost
``src/repro`` frame of each allocation's stack: a deque a ``Store`` builds
is charged to ``simnet/resources.py``, a numpy generator to
``simnet/rng.py``.  The figures are for the interpreter and numpy that run
the script; the ratios between sites move far less than the totals.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
REPRO = os.path.join(SRC, "repro") + os.sep
sys.path.insert(0, SRC)

#: Master seed of every run.
SEED = 0
#: Allocation sites the report lists.
TOP = 15
#: Stack depth tracemalloc keeps per allocation; deep enough that nearly
#: every allocation made under ``sim.run()`` has a ``src/repro`` frame.
FRAMES = 4
#: Group for allocations none of whose kept frames lies under ``src/repro``.
NO_REPRO_FRAME = "(no repro frame)"


def _site(traceback) -> tuple[str, str]:
    """``(package, "path:line")`` of the innermost ``src/repro`` frame."""
    for frame in reversed(traceback):  # tracemalloc lists oldest first
        if frame.filename.startswith(REPRO):
            rel = frame.filename[len(REPRO):].replace(os.sep, "/")
            head, _, _ = rel.partition("/")
            package = "repro" if head == rel else f"repro.{head}"
            return package, f"{rel}:{frame.lineno}"
    return NO_REPRO_FRAME, NO_REPRO_FRAME


def measure(population: int, traced: bool) -> dict:
    """One run of ``population`` devices in this interpreter."""
    from repro.experiments.scale import run_population
    from repro.simnet.kernel import Simulator

    held: dict = {}
    if traced:
        run = Simulator.run

        def run_then_snapshot(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            gc.collect()
            held["snapshot"] = tracemalloc.take_snapshot()
            return result

        Simulator.run = run_then_snapshot
        tracemalloc.start(FRAMES)
    result = run_population(population, seed=SEED)
    if not traced:
        return {"peak_rss_mb": result.peak_rss_mb}
    tracemalloc.stop()
    packages: dict[str, int] = defaultdict(int)
    sites: dict[str, int] = defaultdict(int)
    for stat in held["snapshot"].statistics("traceback"):
        package, site = _site(stat.traceback)
        packages[package] += stat.size
        sites[site] += stat.size
    return {"packages": dict(packages), "sites": dict(sites)}


def _child(population: int, traced: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", str(population)]
    if traced:
        cmd.append("--traced")
    done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _per_device(small: dict, large: dict, span: int) -> dict[str, float]:
    """Bytes per extra device for every key of either run."""
    return {
        key: (large.get(key, 0) - small.get(key, 0)) / span
        for key in set(small) | set(large)
    }


def report(sizes: tuple[int, int]) -> str:
    small_n, large_n = sizes
    span = large_n - small_n
    traced = [_child(n, traced=True) for n in sizes]
    plain = [_child(n, traced=False) for n in sizes]
    totals = [sum(run["packages"].values()) for run in traced]
    rss = [run["peak_rss_mb"] for run in plain]
    kib = 1024.0
    lines = [
        f"star population (run_population), seed {SEED}, "
        f"{small_n} -> {large_n} devices",
        f"{'':34}{small_n:>10}{large_n:>10}{'per device':>14}",
        f"{'retained after sim.run() (MiB)':34}{totals[0] / kib**2:>10.1f}"
        f"{totals[1] / kib**2:>10.1f}{(totals[1] - totals[0]) / span / kib:>10.1f} KiB",
        f"{'ru_maxrss, untraced run (MiB)':34}{rss[0]:>10.1f}"
        f"{rss[1]:>10.1f}{(rss[1] - rss[0]) * kib / span:>10.1f} KiB",
        "",
        f"{'by package':58}KiB/device",
    ]
    packages = _per_device(traced[0]["packages"], traced[1]["packages"], span)
    for name, size in sorted(packages.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {name:56}{size / kib:>8.2f}")
    lines += ["", f"{'top sites (innermost src/repro frame)':58}KiB/device"]
    sites = _per_device(traced[0]["sites"], traced[1]["sites"], span)
    for name, size in sorted(sites.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]:
        lines.append(f"  {name:56}{size / kib:>8.2f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs=2, default=(500, 1000),
                        metavar=("SMALL", "LARGE"))
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child, args.traced)))
        return 0
    small, large = args.sizes
    if not 0 < small < large:
        parser.error("--sizes wants two populations, the smaller first")
    print(report((small, large)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
