"""Ablations over PDAgent's design choices (A1–A4 in DESIGN.md).

* **A1 — gateway selection (§3.5)**: nearest-RTT probing vs first/random
  selection on a topology with heterogeneous gateway distances.
* **A2 — PI compression**: codec choice (lzss / huffman / null) vs PI wire
  size and upload time.
* **A3 — security (§3.4)**: encryption on/off vs PI size and device CPU.
* **A4 — MAS portability**: Aglets-style vs Voyager-style wire formats for
  the *same* e-banking run (the "any MA system" claim: results identical,
  only transfer bytes/time differ).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import PDAgentConfig
from .report import format_table
from .scenario import build_scenario, run_pdagent_batch

__all__ = [
    "SelectionRow",
    "CodecRow",
    "SecurityRow",
    "AdapterRow",
    "run_selection_ablation",
    "run_codec_ablation",
    "run_security_ablation",
    "run_adapter_ablation",
    "main",
]

_N_TXNS = 5


@dataclass
class SelectionRow:
    policy: str
    completion_time: float
    chosen_gateway: str
    probes_sent: int


def run_selection_ablation(seed: int = 7, n_gateways: int = 4) -> list[SelectionRow]:
    """A1: same multi-gateway topology, different selection policies.

    Gateways are placed at increasing distances by scaling their uplink
    latency, so "nearest" has something real to find.
    """
    rows = []
    for policy in ("nearest", "first", "random", "round_robin"):
        config = PDAgentConfig(selection_policy=policy)
        scenario = build_scenario(seed=seed, config=config, n_gateways=n_gateways)
        # Stretch gateway uplinks: gw-(k-1) near … gw-0 far.  "first" always
        # picks gw-0, which we make the *slowest*, to expose naive policies
        # (the device cannot know that list order equals distance).  The
        # latency spread (0.25 s per rank) dominates wireless jitter so one
        # probe per gateway reliably ranks them, as the paper assumes.
        from dataclasses import replace

        net = scenario.network
        for i in range(n_gateways):
            rank = n_gateways - i  # gw-0 gets the largest latency
            for src, dst in ((f"gw-{i}", "backbone"), ("backbone", f"gw-{i}")):
                link = net.link(src, dst)
                link.spec = replace(link.spec, latency=0.25 * rank, jitter=0.002)
        platform = scenario.platform
        platform.selector._probes.clear()  # re-probe under the new latencies
        metrics = run_pdagent_batch(scenario, _N_TXNS, gateway=None)
        rows.append(
            SelectionRow(
                policy=policy,
                completion_time=metrics.completion_time,
                chosen_gateway=metrics.gateway,
                probes_sent=platform.selector.probes_sent,
            )
        )
    return rows


@dataclass
class CodecRow:
    codec: str
    pi_wire_bytes: int
    upload_time: float
    completion_time: float


def run_codec_ablation(seed: int = 7, n_txns: int = 8) -> list[CodecRow]:
    """A2: compression codec vs PI size and upload time."""
    rows = []
    for codec in ("lzss", "huffman", "null"):
        config = PDAgentConfig(codec=codec)
        scenario = build_scenario(seed=seed, config=config)
        metrics = run_pdagent_batch(scenario, n_txns)
        rows.append(
            CodecRow(
                codec=codec,
                pi_wire_bytes=metrics.pi_wire_bytes,
                upload_time=metrics.upload_time,
                completion_time=metrics.completion_time,
            )
        )
    return rows


@dataclass
class SecurityRow:
    encrypted: bool
    pi_wire_bytes: int
    completion_time: float
    device_cpu_seconds: float


def run_security_ablation(seed: int = 7, n_txns: int = 8) -> list[SecurityRow]:
    """A3: §3.4 encryption on/off."""
    rows = []
    for encrypted in (True, False):
        config = PDAgentConfig(encrypt=encrypted)
        scenario = build_scenario(seed=seed, config=config)
        cpu_before = scenario.pda.energy.cpu_seconds
        metrics = run_pdagent_batch(scenario, n_txns)
        rows.append(
            SecurityRow(
                encrypted=encrypted,
                pi_wire_bytes=metrics.pi_wire_bytes,
                completion_time=metrics.completion_time,
                device_cpu_seconds=scenario.pda.energy.cpu_seconds - cpu_before,
            )
        )
    return rows


@dataclass
class AdapterRow:
    flavour: str
    completion_time: float
    elapsed_total: float
    agent_hops: int
    txn_count: int


def run_adapter_ablation(seed: int = 7, n_txns: int = 6) -> list[AdapterRow]:
    """A4: the same workload over two MAS wire-format flavours."""
    rows = []
    for flavour in ("aglets", "voyager"):
        scenario = build_scenario(seed=seed, mas_flavour=flavour)
        metrics = run_pdagent_batch(scenario, n_txns)
        counters = scenario.network.telemetry.metrics.snapshot()["counters"]
        rows.append(
            AdapterRow(
                flavour=flavour,
                completion_time=metrics.completion_time,
                elapsed_total=metrics.elapsed_total,
                agent_hops=counters.get("agent_hops", 0),
                txn_count=len(metrics.result.data["transactions"]),
            )
        )
    return rows


def main() -> None:
    sel = run_selection_ablation()
    print(
        format_table(
            ["policy", "completion (s)", "chosen", "probes"],
            [[r.policy, r.completion_time, r.chosen_gateway, r.probes_sent] for r in sel],
            title="Ablation A1: gateway selection policy (gw-3 is nearest)",
        )
    )
    print()
    codec = run_codec_ablation()
    print(
        format_table(
            ["codec", "PI wire B", "upload (s)", "completion (s)"],
            [[r.codec, r.pi_wire_bytes, r.upload_time, r.completion_time] for r in codec],
            title="Ablation A2: PI compression codec",
        )
    )
    print()
    sec = run_security_ablation()
    print(
        format_table(
            ["encrypt", "PI wire B", "completion (s)", "device CPU (s)"],
            [[r.encrypted, r.pi_wire_bytes, r.completion_time, r.device_cpu_seconds] for r in sec],
            title="Ablation A3: security on/off",
        )
    )
    print()
    ad = run_adapter_ablation()
    print(
        format_table(
            ["MAS flavour", "completion (s)", "elapsed (s)", "hops", "txns ok"],
            [[r.flavour, r.completion_time, r.elapsed_total, r.agent_hops, r.txn_count] for r in ad],
            title="Ablation A4: MAS wire-format portability",
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
