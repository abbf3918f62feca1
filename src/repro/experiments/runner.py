"""Experiment CLI: regenerate every paper result from one entry point.

Usage (installed as ``pdagent-experiments``)::

    pdagent-experiments all          # everything below
    pdagent-experiments fig12        # Figure 12 series
    pdagent-experiments fig13        # Figure 13 trials + variances
    pdagent-experiments faults       # Fig. 12 workload under a fault schedule
    pdagent-experiments overload     # dispatch storm: protected vs unprotected
    pdagent-experiments fleet        # roamed retries: fleet tier vs baseline
    pdagent-experiments streaming    # resumable sessions vs store-and-forward
    pdagent-experiments churn        # rolling restart of every fleet member
    pdagent-experiments diversity    # diurnal + flash-crowd day, full app mix
    pdagent-experiments scale        # device-population kernel sweep
                                     #   (not part of "all" — it is the
                                     #   perf bench, see BENCH_scale.json)
    pdagent-experiments claims       # C1 code sizes, C2 footprint
    pdagent-experiments ablations    # A1-A4
    pdagent-experiments extensions   # E1-E4

``--csv DIR`` additionally writes the figure data as CSV files (full
precision) into ``DIR`` for external plotting.

``--trace PATH`` captures the full telemetry stream (spans, instants,
fault/connection ledgers, metric series) of every traced experiment run
into PATH — newline-delimited JSON by default, or the Chrome trace_event
format (open in Perfetto / ``chrome://tracing``) when PATH ends in
``.json`` or ``--trace-format chrome`` is given.  Inspect the JSONL with
``pdagent-trace summary PATH``.  Tracing covers fig12, fig13, faults and
overload (the figure-producing simulations); claims/ablations/extensions
run many heterogeneous micro-benchmarks and are not traced.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..telemetry.exporters import TraceCollector
from . import (
    ablations,
    churn,
    claims,
    diversity,
    extensions,
    faults,
    fig12,
    fig13,
    fleet,
    overload,
    scale,
    streaming,
)

__all__ = ["main"]

#: Experiments whose runs are registered with the --trace collector.
_TRACED = (
    "fig12", "fig13", "faults", "overload", "fleet", "streaming", "churn",
    "diversity",
)


def _ns(args) -> tuple[int, ...]:
    """Transaction-count sweep, capped by --max-n (CI smoke runs)."""
    upper = args.max_n if args.max_n else 10
    return tuple(range(1, upper + 1))


def _run_fig12(args, collector=None):
    result = fig12.main(seed=args.seed, ns=_ns(args), collector=collector)
    if args.csv:
        path = os.path.join(args.csv, "fig12.csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        print(f"[csv] wrote {path}")
    return result


def _run_fig13(args, collector=None):
    result = fig13.main(base_seed=args.seed + 100, ns=_ns(args), collector=collector)
    if args.csv:
        path = os.path.join(args.csv, "fig13.csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        print(f"[csv] wrote {path}")
    return result


def _run_overload(args, collector=None):
    """Device-population sweep; --max-n caps the largest population."""
    populations = overload.DEFAULT_POPULATIONS
    if args.max_n:
        populations = tuple(n for n in populations if n <= args.max_n) or (
            args.max_n,
        )
    result = overload.main(
        seed=args.seed, populations=populations, collector=collector
    )
    if args.csv:
        path = os.path.join(args.csv, "overload.csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        print(f"[csv] wrote {path}")
    return result


def _run_fleet(args, collector=None):
    """Device-population sweep; --max-n caps the largest population."""
    populations = fleet.DEFAULT_POPULATIONS
    if args.max_n:
        populations = tuple(n for n in populations if n <= args.max_n) or (
            args.max_n,
        )
    result = fleet.main(
        seed=args.seed, populations=populations, collector=collector
    )
    if args.csv:
        path = os.path.join(args.csv, "fleet.csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        print(f"[csv] wrote {path}")
    return result


def _run_churn(args, collector=None):
    """Device-population sweep; --max-n caps the largest population."""
    populations = churn.DEFAULT_POPULATIONS
    if args.max_n:
        populations = tuple(n for n in populations if n <= args.max_n) or (
            args.max_n,
        )
    result = churn.main(
        seed=args.seed, populations=populations, collector=collector
    )
    if args.csv:
        path = os.path.join(args.csv, "churn.csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        print(f"[csv] wrote {path}")
    return result


def _run_scale(args, collector=None):
    """Device-population sweep; --max-n caps the largest population."""
    populations = scale.DEFAULT_POPULATIONS
    if args.max_n:
        populations = tuple(n for n in populations if n <= args.max_n) or (
            args.max_n,
        )
    result = scale.run_scale_sweep(populations, seed=args.seed)
    print(result.render())
    if args.csv:
        path = os.path.join(args.csv, "scale.csv")
        rows = ["population,gateways,events_processed,events_per_sec"]
        rows += [
            f"{r.population},{r.gateways},"
            f"{r.events_processed},{r.events_per_sec:.1f}"
            for r in result.populations
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"[csv] wrote {path}")
    return result


def _run_diversity(args, collector=None):
    """Diurnal + flash-crowd day; --max-n caps the device population."""
    n_devices = diversity.DEFAULT_DEVICES
    if args.max_n:
        n_devices = min(n_devices, max(args.max_n, 1))
    result = diversity.main(
        seed=args.seed, n_devices=n_devices, collector=collector
    )
    if args.csv:
        path = os.path.join(args.csv, "diversity.csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        print(f"[csv] wrote {path}")
    return result


_EXPERIMENTS = {
    "fig12": _run_fig12,
    "diversity": _run_diversity,
    "scale": _run_scale,
    "churn": _run_churn,
    "fig13": _run_fig13,
    "overload": _run_overload,
    "fleet": _run_fleet,
    "faults": lambda args, collector=None: faults.main(
        seed=args.seed, collector=collector
    ),
    "streaming": lambda args, collector=None: streaming.main(
        seed=args.seed, collector=collector
    ),
    "claims": lambda args, collector=None: claims.main(),
    "ablations": lambda args, collector=None: ablations.main(),
    "extensions": lambda args, collector=None: extensions.main(),
}


def _write_trace(collector: TraceCollector, path: str, fmt: str) -> None:
    if fmt == "auto":
        fmt = "chrome" if path.endswith(".json") else "jsonl"
    if fmt == "chrome":
        collector.write_chrome(path)
    else:
        collector.write_jsonl(path)
    print(f"[trace] wrote {path} ({fmt}, {len(collector.runs)} run(s))")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdagent-experiments",
        description="Regenerate the PDAgent paper's evaluation results",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which result to regenerate",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base master seed (default 0)"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write figure data as CSV into DIR",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="capture the telemetry stream of traced experiments into PATH",
    )
    parser.add_argument(
        "--trace-format",
        choices=("auto", "jsonl", "chrome"),
        default="auto",
        help="trace file format (auto: chrome when PATH ends in .json)",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="cap the transaction sweep at N (smaller, faster runs)",
    )
    args = parser.parse_args(argv)
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
    collector = TraceCollector() if args.trace else None
    if args.experiment == "all":
        for name in (
            "fig12", "fig13", "faults", "overload", "fleet", "streaming",
            "churn", "diversity", "claims", "ablations", "extensions",
        ):
            print(f"\n### {name} " + "#" * (60 - len(name)))
            _EXPERIMENTS[name](args, collector=collector)
    else:
        _EXPERIMENTS[args.experiment](args, collector=collector)
    if collector is not None:
        if collector.runs:
            _write_trace(collector, args.trace, args.trace_format)
        else:
            print(f"[trace] {args.experiment} produces no traced runs; nothing written")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
