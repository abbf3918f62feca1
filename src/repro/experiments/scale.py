"""Population-scale harness: N devices through a gateway fleet.

The paper's evaluation (§4) runs one PDA.  :func:`run_population` runs N of
them, each through one full e-banking task on a shared round-robin gateway
fleet, and reports what simulating that costs:

* **kernel events/sec** — raw discrete-event throughput,
* **wall-clock per simulated task** — how expensive one user task is to
  simulate,
* **peak RSS** — memory high-water mark of the process.

``benchmarks/bench_scale.py`` gates its throughput and event counts,
``benchmarks/bench_memory.py`` reports what it retains per device, and
``benchmarks/e2e/run.py --workload city-rush --scale F`` runs a population of
the same shape (three gateways) in a fresh process per run.

Determinism: for a fixed (seed, population) the simulated timeline —
``events_processed``, task completions, every connection record — is
bit-reproducible.  Only the wall-clock/RSS measurements vary run to run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Generator, Optional

from ..apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from ..core import DeploymentBuilder
from ..mas import Stop

__all__ = ["PopulationResult", "run_population"]

#: One gateway per this many devices (minimum 2 — it is a *fleet*).
DEVICES_PER_GATEWAY = 500
#: Simulated seconds between consecutive device task starts.  Small enough
#: that thousands of tasks overlap, large enough to avoid a thundering herd.
ARRIVAL_SPACING_S = 0.05


@dataclass
class PopulationResult:
    """Measurements for one population."""

    population: int
    gateways: int
    tasks_completed: int
    events_processed: int
    sim_time_s: float
    events_per_sec: float
    wall_per_task_s: float
    peak_rss_mb: float


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


def run_population(n_devices: int, seed: int = 0) -> PopulationResult:
    """Build and run one population; returns its measurements.

    Every device subscribes, deploys one single-transaction e-banking agent
    to its assigned gateway (round-robin over the fleet — the balanced-fleet
    model; the nearest-RTT policy is exercised by the selection benches),
    waits for completion, and downloads the result.
    """
    n_gateways = max(2, n_devices // DEVICES_PER_GATEWAY)
    builder = DeploymentBuilder(master_seed=seed)
    builder.add_central("central")
    for g in range(n_gateways):
        builder.add_gateway(f"gw-{g}")
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="bank-a")])
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    for i in range(n_devices):
        builder.add_device(f"dev-{i}", wireless="WLAN")
    deployment = builder.build()

    sim = deployment.sim
    txns = make_transactions(["bank-a"], 1)
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
        tasks_completed=completed,
        events_processed=sim.events_processed,
        sim_time_s=sim.now,
        events_per_sec=sim.events_processed / run_wall if run_wall > 0 else 0.0,
        wall_per_task_s=run_wall / completed,
        peak_rss_mb=_peak_rss_mb(),
    )
