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

``--max-n N`` caps a sweep: the transaction counts of fig12 and fig13, the
largest population of overload, fleet, churn and scale, and the diversity
day's device count.  The experiments that run no sweep (faults, streaming,
claims, ablations, extensions) refuse it; ``all --max-n N`` caps the sweeps
only.

``--trace PATH`` captures the full telemetry stream (spans, instants,
fault/connection ledgers, metric series) of every traced experiment run
into PATH — newline-delimited JSON by default, or the Chrome trace_event
format (open in Perfetto / ``chrome://tracing``) when PATH ends in
``.json`` or ``--trace-format chrome`` is given.  Inspect the JSONL with
``pdagent-trace summary PATH``.  Tracing covers fig12, fig13, faults,
overload, fleet, streaming, churn and diversity (the figure-producing
simulations); claims/ablations/extensions run many heterogeneous
micro-benchmarks and are not traced.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..telemetry.exporters import TraceCollector
from . import (
    ablations,
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


def _positive_int(text: str) -> int:
    """argparse type for --max-n: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _ns(args) -> tuple[int, ...]:
    """Transaction-count sweep, capped by --max-n (CI smoke runs)."""
    upper = args.max_n if args.max_n else 10
    return tuple(range(1, upper + 1))


def _populations(args, populations: tuple[int, ...]) -> tuple[int, ...]:
    """Device-population sweep; --max-n caps the largest population."""
    if not args.max_n:
        return populations
    return tuple(n for n in populations if n <= args.max_n) or (args.max_n,)


def _write_csv(args, name: str, text: str) -> None:
    if args.csv:
        path = os.path.join(args.csv, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"[csv] wrote {path}")


def _run_fig12(args, collector=None):
    result = fig12.main(seed=args.seed, ns=_ns(args), collector=collector)
    _write_csv(args, "fig12", result.to_csv())
    return result


def _run_fig13(args, collector=None):
    result = fig13.main(base_seed=args.seed + 100, ns=_ns(args), collector=collector)
    _write_csv(args, "fig13", result.to_csv())
    return result


def _population_sweep(name: str, run_sweep, populations: tuple[int, ...]):
    """The CLI entry of a two-mode population sweep (overload, fleet, churn)."""

    def run(args, collector=None):
        result = run_sweep(
            seed=args.seed,
            populations=_populations(args, populations),
            collector=collector,
        )
        print(result.render())
        _write_csv(args, name, result.to_csv())
        return result

    return run


def _run_scale(args, collector=None):
    result = scale.run_scale_sweep(
        _populations(args, scale.DEFAULT_POPULATIONS), seed=args.seed
    )
    print(result.render())
    rows = ["population,gateways,events_processed,events_per_sec"]
    rows += [
        f"{r.population},{r.gateways},"
        f"{r.events_processed},{r.events_per_sec:.1f}"
        for r in result.populations
    ]
    _write_csv(args, "scale", "\n".join(rows) + "\n")
    return result


def _run_diversity(args, collector=None):
    """Diurnal + flash-crowd day; --max-n caps the device population."""
    n_devices = diversity.DEFAULT_DEVICES
    if args.max_n:
        n_devices = min(n_devices, args.max_n)
    result = diversity.main(
        seed=args.seed, n_devices=n_devices, collector=collector
    )
    _write_csv(args, "diversity", result.to_csv())
    return result


_EXPERIMENTS = {
    "fig12": _run_fig12,
    "diversity": _run_diversity,
    "scale": _run_scale,
    "churn": _population_sweep(
        "churn", fleet.run_churn_sweep, fleet.CHURN_POPULATIONS
    ),
    "fig13": _run_fig13,
    "overload": _population_sweep(
        "overload", overload.run_overload_sweep, overload.DEFAULT_POPULATIONS
    ),
    "fleet": _population_sweep(
        "fleet", fleet.run_fleet_sweep, fleet.DEFAULT_POPULATIONS
    ),
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

#: Experiments with no sweep for --max-n to cap.
_UNSWEPT = ("faults", "streaming", "claims", "ablations", "extensions")


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
        type=_positive_int,
        default=None,
        help="cap the sweep at N (smaller, faster runs)",
    )
    args = parser.parse_args(argv)
    if args.max_n is not None and args.experiment in _UNSWEPT:
        parser.error(f"--max-n: {args.experiment} runs no sweep to cap")
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
