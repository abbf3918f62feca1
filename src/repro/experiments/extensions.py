"""Extension experiments beyond the paper's figures (E1–E5).

The paper *argues* three further points without measuring them; these
harnesses quantify each on the same simulated environment:

* **E1 — device resource usage** ("PDAgent also reduces the use of
  resources within wireless devices"): per-approach device energy split
  into radio-tx/rx, CPU, and connection-airtime components.
* **E2 — wireless technology sweep**: how the PDAgent advantage changes
  from GPRS-class to WLAN-class links.  The advantage is *structural*
  (constant connection count vs per-transaction round trips), so it persists
  — and in ratio terms even grows — on faster links, where the baselines'
  chattiness rather than raw bandwidth dominates.
* **E3 — bank-count sweep**: PDAgent's device-side cost stays flat as the
  agent's tour grows; the wired-side travel time absorbs the growth.
* **E4 — client-agent-server comparison**: §2's middle-tier model matches
  PDAgent's flat connection profile (both submit-and-disconnect), so the
  figures' distinction is *flexibility*, not connection time — quantified
  here so the related-work claim is measured, not asserted.
* **E5 — device hardware class sweep**: packing CPU scales with the
  hardware class, completion time stays wireless-dominated — "being
  lightweight" (§3) quantified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scenario import build_scenario, run_pdagent_batch

__all__ = [
    "EnergyRow",
    "WirelessRow",
    "BankSweepRow",
    "CasRow",
    "DeviceClassRow",
    "run_energy_comparison",
    "run_wireless_sweep",
    "run_bank_sweep",
    "run_cas_comparison",
    "run_device_class_sweep",
    "main",
]

_N_TXNS = 8


@dataclass
class EnergyRow:
    """Device-side resource expenditure for one approach's batch."""

    approach: str
    tx_bytes: int
    rx_bytes: int
    cpu_seconds: float
    connection_seconds: float
    total_energy: float


def run_energy_comparison(seed: int = 17, n_txns: int = _N_TXNS) -> list[EnergyRow]:
    """E1: the same batch, measured in device energy units."""
    rows = []

    def window(scenario, run):
        """Run the batch and return the energy spent *inside* it (the
        tx/rx/connection components are windowed by ``since``; CPU is
        windowed by delta, excluding pre-warm packing)."""
        device = scenario.pda
        t0 = scenario.sim.now
        cpu0 = device.energy.cpu_seconds
        total0 = device.energy.total
        run()
        device.settle_energy(since=t0)
        return EnergyRow(
            approach="",
            tx_bytes=device.energy.tx_bytes,
            rx_bytes=device.energy.rx_bytes,
            cpu_seconds=device.energy.cpu_seconds - cpu0,
            connection_seconds=device.energy.connection_seconds,
            total_energy=device.energy.total - total0,
        )

    # --- PDAgent ------------------------------------------------------------
    scenario = build_scenario(seed=seed)
    row = window(scenario, lambda: run_pdagent_batch(scenario, n_txns))
    row.approach = "pdagent"
    rows.append(row)

    # --- client-server --------------------------------------------------------
    scenario = build_scenario(seed=seed)

    def run_cs():
        runner = scenario.client_server_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(n_txns)))
        scenario.sim.run(until=proc)

    row = window(scenario, run_cs)
    row.approach = "client-server"
    rows.append(row)
    return rows


@dataclass
class WirelessRow:
    """PDAgent vs client-server on one wireless technology."""

    technology: str
    pdagent_conn_time: float
    client_server_conn_time: float

    @property
    def advantage(self) -> float:
        return self.client_server_conn_time / max(self.pdagent_conn_time, 1e-9)


def run_wireless_sweep(
    seed: int = 18, n_txns: int = _N_TXNS, technologies: tuple[str, ...] = ("GPRS", "WLAN")
) -> list[WirelessRow]:
    """E2: the connection-time gap across wireless generations."""
    rows = []
    for tech in technologies:
        scenario = build_scenario(seed=seed, wireless=tech)
        metrics = run_pdagent_batch(scenario, n_txns)

        scenario = build_scenario(seed=seed, wireless=tech)
        runner = scenario.client_server_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(n_txns)))
        cs = scenario.sim.run(until=proc)
        rows.append(
            WirelessRow(
                technology=tech,
                pdagent_conn_time=metrics.connection_time,
                client_server_conn_time=cs.connection_time,
            )
        )
    return rows


@dataclass
class BankSweepRow:
    """PDAgent metrics as the agent's tour grows."""

    n_banks: int
    connection_time: float
    completion_time: float
    elapsed_total: float  # includes the agent's wired travel


def run_bank_sweep(
    seed: int = 19, n_txns: int = 12, bank_counts: tuple[int, ...] = (1, 2, 4, 6)
) -> list[BankSweepRow]:
    """E3: device cost vs tour length at a fixed transaction count."""
    rows = []
    for n_banks in bank_counts:
        banks = tuple(f"bank-{chr(ord('a') + i)}" for i in range(n_banks))
        scenario = build_scenario(seed=seed, banks=banks)
        metrics = run_pdagent_batch(scenario, n_txns)
        rows.append(
            BankSweepRow(
                n_banks=n_banks,
                connection_time=metrics.connection_time,
                completion_time=metrics.completion_time,
                elapsed_total=metrics.elapsed_total,
            )
        )
    return rows


@dataclass
class DeviceClassRow:
    """PDAgent costs on one hardware class."""

    profile: str
    completion_time: float
    pack_cpu_seconds: float


def run_device_class_sweep(
    seed: int = 21,
    n_txns: int = _N_TXNS,
    profiles: tuple[str, ...] = ("PHONE", "PDA", "DESKTOP"),
) -> list[DeviceClassRow]:
    """E5: the same batch on different device hardware classes.

    Slower CPUs pay more for the on-device packing (XML + compress +
    encrypt), but the completion time stays wireless-dominated — the
    platform remains practical even on the weakest MIDP phones, the
    paper's "being lightweight" design issue.
    """
    rows = []
    for profile in profiles:
        scenario = build_scenario(seed=seed, device_profile=profile)
        cpu0 = scenario.pda.energy.cpu_seconds
        metrics = run_pdagent_batch(scenario, n_txns)
        rows.append(
            DeviceClassRow(
                profile=profile,
                completion_time=metrics.completion_time,
                pack_cpu_seconds=scenario.pda.energy.cpu_seconds - cpu0,
            )
        )
    return rows


@dataclass
class CasRow:
    """PDAgent vs client-agent-server connection time at one batch size."""

    n_transactions: int
    pdagent_conn_time: float
    cas_conn_time: float


def run_cas_comparison(
    seed: int = 20, ns: tuple[int, ...] = (1, 4, 8)
) -> list[CasRow]:
    """E4: both disconnected models have flat, similar connection profiles."""
    rows = []
    for n in ns:
        metrics = run_pdagent_batch(build_scenario(seed=seed), n)
        scenario = build_scenario(seed=seed, with_agent_server=True)
        runner = scenario.client_agent_server_runner()
        params = {"transactions": scenario.transactions(n)}
        cas = scenario.sim.run(until=scenario.sim.process(runner.run("ebanking", params)))
        rows.append(
            CasRow(
                n_transactions=n,
                pdagent_conn_time=metrics.connection_time,
                cas_conn_time=cas.connection_time,
            )
        )
    return rows


def main() -> None:
    from .report import format_table

    energy = run_energy_comparison()
    print(
        format_table(
            ["approach", "tx B", "rx B", "cpu (s)", "conn (s)", "energy"],
            [
                [r.approach, r.tx_bytes, r.rx_bytes, r.cpu_seconds,
                 r.connection_seconds, r.total_energy]
                for r in energy
            ],
            title="Extension E1: device resource usage (8-transaction batch)",
        )
    )
    print()
    wireless = run_wireless_sweep()
    print(
        format_table(
            ["technology", "PDAgent conn (s)", "client-server conn (s)", "advantage"],
            [
                [r.technology, r.pdagent_conn_time, r.client_server_conn_time,
                 f"{r.advantage:.1f}x"]
                for r in wireless
            ],
            title="Extension E2: wireless technology sweep",
        )
    )
    print()
    banks = run_bank_sweep()
    print(
        format_table(
            ["#banks", "conn time (s)", "completion (s)", "elapsed incl. travel (s)"],
            [
                [r.n_banks, r.connection_time, r.completion_time, r.elapsed_total]
                for r in banks
            ],
            title="Extension E3: tour length sweep (12 transactions)",
        )
    )
    print()
    cas = run_cas_comparison()
    print(
        format_table(
            ["#txns", "PDAgent conn (s)", "client-agent-server conn (s)"],
            [[r.n_transactions, r.pdagent_conn_time, r.cas_conn_time] for r in cas],
            title="Extension E4: both disconnected models stay flat",
        )
    )
    print()
    classes = run_device_class_sweep()
    print(
        format_table(
            ["device class", "completion (s)", "pack CPU (s)"],
            [[r.profile, r.completion_time, r.pack_cpu_seconds] for r in classes],
            title="Extension E5: device hardware class sweep (8 transactions)",
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
