"""Compare two checkouts on the end-to-end benchmark, in alternating pairs.

    python benchmarks/e2e/compare.py PARENT CHANGE [--workload W ...] [--pairs 10]
                                     [--seed 0] [--seconds S] [--reps R] [--scale F]

Each pair runs the benchmark once in each checkout, alternating which side
goes first, so drift on the host lands on both sides equally.  Use at least
ten pairs to claim a gain and five for a no-regression check.  For every
metric and workload it prints each side's median and quartiles, the share
of pairs the change won, the parent's own spread, and a label:

* ``improved`` — the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound in the parent's ``BENCHMARK.json``;
* ``unresolved`` — the parent's own spread is wider than the bound, and not
  every change run reads better (or worse) than every parent run;
* ``unchanged`` — none of the above.

The last line of standard output is a JSON summary; the exit code is 1 when
any row is ``worse``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, load_definition, quartiles

BENCH = Path("benchmarks") / "e2e"


def run_once(checkout: Path, workload: str, args) -> dict:
    """One benchmark run in ``checkout`` with its own benchmark code."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", "0", "--reps", str(args.reps), "--scale", repr(args.scale),
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} failed its output checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Label one metric from paired runs (``parent[i]`` ran beside ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cm - pm)  # > 0 means the change is better
    spread = iqr / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if won >= 0.9 * len(parent) and gain > iqr:
        label = "improved"
    elif pm and -gain > bound * abs(pm) and (spread <= bound or all_worse):
        label = "worse"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "parent": [p1, pm, p3], "change": [c1, cm, c3], "won": won,
        "pairs": len(parent), "delta_share": (cm - pm) / pm if pm else 0.0,
        "parent_iqr": iqr, "label": label,
    }


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    files = [checkout / "BENCHMARK.json"] + sorted((checkout / BENCH).glob("*.py"))
    for path in files:
        h.update(path.read_bytes() if path.exists() else b"")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    definition = load_definition(args.parent)
    if args.seconds is None:
        args.seconds = float(definition["run_seconds"])
    if _bench_digest(args.parent) != _bench_digest(args.change):
        print("note: the two checkouts run different benchmark code")

    rows = []
    for workload in args.workload or WORKLOADS:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, args))
        for metric in definition["end_to_end"]:
            name = metric["name"]
            row = judge(
                [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                metric["better"], metric["bound"],
            )
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "bound": metric["bound"], **row})

    print(f"{'workload':<11}{'metric':<17}{'parent med [q1, q3]':>34}"
          f"{'change med [q1, q3]':>34}{'delta':>22}{'won':>8}{'parent IQR':>12}  label")
    for r in rows:
        p, c = r["parent"], r["change"]
        parent = f"{p[1]:.5g} [{p[0]:.5g}, {p[2]:.5g}]"
        change = f"{c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]"
        delta = f"{r['delta_share']:+.1%} of {p[1]:.5g}"
        print(
            f"{r['workload']:<11}{r['metric']:<17}{parent:>34}{change:>34}{delta:>22}"
            f"{r['won']:>5}/{r['pairs']:<2}{r['parent_iqr']:>12.4g}  {r['label']}"
            f" (bound {r['bound']:.0%})"
        )
    worse = sum(1 for r in rows if r["label"] == "worse")
    print(json.dumps({"rows": rows, "worse": worse}))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
