"""Experiment harness: regenerates every figure and claim of the paper.

* :mod:`~repro.experiments.scenario` — the §4 evaluation environment;
* :mod:`~repro.experiments.fig12` — internet connection time, 3 approaches;
* :mod:`~repro.experiments.fig13` — completion times over 4 trials;
* :mod:`~repro.experiments.claims` — code-size (C1) and footprint (C2);
* :mod:`~repro.experiments.ablations` — selection / codec / security /
  adapter ablations (A1–A4);
* :mod:`~repro.experiments.faults` — the Fig. 12 workload under an
  injected fault schedule (completion rate, added connection time);
* :mod:`~repro.experiments.overload` — dispatch storms through one
  under-provisioned gateway, protected (admission + dedup) vs not;
* :mod:`~repro.experiments.fleet` — roamed retries across a gateway crash
  and a rolling restart of the fleet, plus the world and the two-mode
  population sweep these capstones and ``overload`` share;
* :mod:`~repro.experiments.diversity` — a diurnal + flash-crowd day at
  1000+ devices over a three-gateway fleet, full application mix;
* :mod:`~repro.experiments.runner` — the ``pdagent-experiments`` CLI.
"""

from .stats import flatness, growth_ratio, linear_fit, mean_ci
from .sweep import SweepCell, SweepGrid, sweep
from .faults import (
    FaultComparison,
    FaultRunResult,
    reference_schedule,
    run_client_server_under_faults,
    run_fault_comparison,
    run_pdagent_under_faults,
)
from .diversity import (
    ClassStats,
    DiversityResult,
    diversity_config,
    run_diversity,
)
from .overload import (
    OverloadRunResult,
    overload_schedule,
    run_overload,
    run_overload_sweep,
)
from .scenario import (
    EvaluationScenario,
    PDAgentRunMetrics,
    build_scenario,
    run_pdagent_batch,
)

__all__ = [
    "linear_fit",
    "flatness",
    "mean_ci",
    "growth_ratio",
    "sweep",
    "SweepGrid",
    "SweepCell",
    "EvaluationScenario",
    "PDAgentRunMetrics",
    "build_scenario",
    "run_pdagent_batch",
    "FaultRunResult",
    "FaultComparison",
    "reference_schedule",
    "run_pdagent_under_faults",
    "run_client_server_under_faults",
    "run_fault_comparison",
    "OverloadRunResult",
    "overload_schedule",
    "run_overload",
    "run_overload_sweep",
    "ClassStats",
    "DiversityResult",
    "diversity_config",
    "run_diversity",
]
