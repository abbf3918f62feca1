"""Population-scale harness: N devices through a gateway fleet.

The paper's evaluation (§4) runs one PDA; the ROADMAP north star is a
platform that "serves millions of users".  This harness measures the
*simulator's* capacity to get there: a population sweep (100 → 5,000
devices, each running one full e-banking task through a shared gateway
fleet) reporting

* **kernel events/sec** — raw discrete-event throughput,
* **wall-clock per simulated task** — how expensive one user task is to
  simulate,
* **peak RSS** — memory high-water mark,

so performance regressions in any hot path (kernel, transport, codec,
crypto, telemetry, routing) show up as a number, not an anecdote.  Results
are written as ``BENCH_scale.json`` — the bench trajectory's perf
baseline, which CI compares against (see ``benchmarks/bench_scale.py``).

Determinism: the sweep is seeded like every other experiment; for a fixed
(seed, population) the simulated timeline — ``events_processed``, task
completions, every connection record — is bit-reproducible, with or
without gateway regions.  Only the wall-clock/RSS measurements vary run to
run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Generator, Optional

from ..apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from ..core import DeploymentBuilder, PDAgentConfig
from ..mas import Stop

__all__ = [
    "PopulationResult",
    "ScaleSweepResult",
    "run_population",
    "run_scale_sweep",
    "DEFAULT_POPULATIONS",
    "REGION_POPULATIONS",
]

DEFAULT_POPULATIONS = (100, 1000, 5000)
#: The region axis of the sweep: (population, region count).  Region counts
#: track the gateway fleet (one region per gateway), giving constant
#: devices-per-region as the population grows.
REGION_POPULATIONS = ((5000, 10), (20000, 40))
#: One gateway per this many devices (minimum 2 — it is a *fleet*).
DEVICES_PER_GATEWAY = 500
#: Simulated seconds between consecutive device task starts.  Small enough
#: that thousands of tasks overlap, large enough to avoid a thundering herd.
ARRIVAL_SPACING_S = 0.05


@dataclass
class PopulationResult:
    """Measurements for one (population, region count) point."""

    population: int
    gateways: int
    #: Gateway regions assigned (0 = none; routing runs on the full graph).
    regions: int
    tasks_completed: int
    events_processed: int
    sim_time_s: float
    build_wall_s: float
    run_wall_s: float
    events_per_sec: float
    wall_per_task_s: float
    peak_rss_mb: float

    def render(self) -> str:
        regions = f"{self.regions} regions" if self.regions else "plain"
        return (
            f"{self.population:>6} devices  {self.gateways:>3} gw  "
            f"{regions:>11}  "
            f"{self.events_processed:>9} events  "
            f"{self.events_per_sec:>9.0f} ev/s  "
            f"{self.wall_per_task_s * 1e3:>8.2f} ms/task  "
            f"{self.peak_rss_mb:>7.1f} MB RSS"
        )


@dataclass
class ScaleSweepResult:
    """The full sweep, JSON-serialisable for ``BENCH_scale.json``."""

    seed: int
    populations: list[PopulationResult] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "bench": "scale",
            "seed": self.seed,
            "populations": [asdict(r) for r in self.populations],
        }

    def render(self) -> str:
        lines = ["Population scale sweep", "=" * 78]
        lines += [r.render() for r in self.populations]
        return "\n".join(lines)


def _maxrss_bytes(platform: Optional[str] = None) -> int:
    """Process peak RSS in *bytes* (0 where the resource module is absent).

    ``getrusage().ru_maxrss`` is kibibytes on Linux (and other classic
    Unices) but **bytes** on macOS — normalise here, in one audited place,
    so every consumer works in bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if (platform or sys.platform) == "darwin":  # pragma: no cover - macOS
        return int(raw)
    return int(raw) * 1024


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB."""
    return _maxrss_bytes() / (1024.0 * 1024.0)


def run_population(
    n_devices: int,
    seed: int = 0,
    n_gateways: Optional[int] = None,
    config: Optional[PDAgentConfig] = None,
    transactions_per_task: int = 1,
    regions: int = 0,
) -> PopulationResult:
    """Build and run one population; returns its measurements.

    Every device subscribes, deploys one e-banking agent to its assigned
    gateway (round-robin over the fleet — the balanced-fleet model; the
    nearest-RTT policy is exercised by the selection benches), waits for
    completion, and downloads the result.

    ``regions`` > 0 homes gateway *g* in region ``g % regions`` and each
    device in its gateway's region, which switches on region-scoped
    routing.  The routes, and so the whole timeline, are the same as the
    plain run's; only the cost of computing them drops.
    """
    if n_gateways is None:
        n_gateways = max(2, n_devices // DEVICES_PER_GATEWAY)
    t_build = time.perf_counter()
    builder = DeploymentBuilder(master_seed=seed, config=config, regions=regions)
    builder.add_central("central")
    for g in range(n_gateways):
        builder.add_gateway(f"gw-{g}")
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="bank-a")])
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    for i in range(n_devices):
        # Home cell policy: a device shares its assigned gateway's region.
        builder.add_device(
            f"dev-{i}",
            wireless="WLAN",
            region=(i % n_gateways) % regions if regions else None,
        )
    deployment = builder.build()
    build_wall = time.perf_counter() - t_build

    sim = deployment.sim
    txns = make_transactions(["bank-a"], transactions_per_task)
    stops = [Stop("bank-a", task="banking")]
    completed = 0

    def one_task(i: int) -> Generator:
        nonlocal completed
        platform = deployment.platform(f"dev-{i}")
        gateway = f"gw-{i % n_gateways}"
        yield sim.timeout(i * ARRIVAL_SPACING_S)
        yield from platform.subscribe("ebanking", gateway=gateway)
        handle = yield from platform.deploy(
            "ebanking", {"transactions": txns}, stops=stops, gateway=gateway
        )
        yield deployment.gateway(handle.gateway).ticket(handle.ticket).completed
        yield from platform.collect(handle)
        completed += 1

    for i in range(n_devices):
        sim.process(one_task(i), name=f"scale-task-{i}")

    t_run = time.perf_counter()
    sim.run()
    run_wall = time.perf_counter() - t_run

    if completed != n_devices:
        raise RuntimeError(
            f"population {n_devices}: only {completed} tasks completed"
        )
    return PopulationResult(
        population=n_devices,
        gateways=n_gateways,
        regions=regions,
        tasks_completed=completed,
        events_processed=sim.events_processed,
        sim_time_s=sim.now,
        build_wall_s=build_wall,
        run_wall_s=run_wall,
        events_per_sec=sim.events_processed / run_wall if run_wall > 0 else 0.0,
        wall_per_task_s=run_wall / completed,
        peak_rss_mb=_peak_rss_mb(),
    )


def run_scale_sweep(
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    seed: int = 0,
    config: Optional[PDAgentConfig] = None,
    regions: int = 0,
    region_populations: tuple[tuple[int, int], ...] = (),
) -> ScaleSweepResult:
    """Run the device-population sweep at each size in ``populations``.

    With ``regions`` set, every population runs with that many gateway
    regions.  ``region_populations`` appends explicit (population, regions)
    rows — the region axis of ``BENCH_scale.json``.
    """
    result = ScaleSweepResult(seed=seed)
    rows = [(population, regions) for population in populations]
    rows += list(region_populations)
    for population, n_regions in rows:
        result.populations.append(
            run_population(
                population, seed=seed, config=config, regions=n_regions
            )
        )
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--populations",
        type=int,
        nargs="+",
        default=list(DEFAULT_POPULATIONS),
        help="device counts to sweep (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--regions",
        type=int,
        default=0,
        help="run every population with N gateway regions (region routing)",
    )
    parser.add_argument(
        "--region-axis",
        action="store_true",
        help="append the large region rows "
        + ", ".join(f"{n}@{k}" for n, k in REGION_POPULATIONS),
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the sweep result as JSON (e.g. BENCH_scale.json)",
    )
    args = parser.parse_args(argv)
    result = run_scale_sweep(
        tuple(args.populations),
        seed=args.seed,
        regions=args.regions,
        region_populations=REGION_POPULATIONS if args.region_axis else (),
    )
    print(result.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
