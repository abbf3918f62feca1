#!/usr/bin/env python3
"""E-banking across four approaches: the paper's §4 evaluation, in miniature.

Runs the same 6-transaction batch through:

* PDAgent (agent-proxy-server — the paper's contribution),
* the client-server model (device stays connected to each bank),
* the web-based approach (browser on a wired desktop),
* the client-agent-server model (§2's middle-tier with pre-installed apps),

and prints the connection-time / completion-time comparison.  This is the
workload behind Figures 12 and 13; the full sweeps live in
``pdagent-experiments fig12`` / ``fig13``.

Run:  python examples/ebanking_comparison.py
"""

from repro.experiments.report import format_table
from repro.experiments.scenario import build_scenario, run_pdagent_batch

N_TXNS = 6


def main() -> None:
    rows = []

    # --- PDAgent ------------------------------------------------------------
    scenario = build_scenario(seed=5, with_agent_server=True)
    metrics = run_pdagent_batch(scenario, N_TXNS)
    ok = sum(
        1 for t in metrics.result.data["transactions"] if t["status"] == "ok"
    )
    rows.append(
        ["PDAgent", metrics.connection_time, metrics.completion_time,
         metrics.connections, ok]
    )

    # --- client-server --------------------------------------------------------
    scenario = build_scenario(seed=5)
    runner = scenario.client_server_runner()
    proc = scenario.sim.process(runner.run(scenario.transactions(N_TXNS)))
    cs = scenario.sim.run(until=proc)
    rows.append(
        ["client-server", cs.connection_time, cs.completion_time,
         cs.connections, sum(1 for d in cs.details if d["status"] == "ok")]
    )

    # --- web-based -------------------------------------------------------------
    scenario = build_scenario(seed=5)
    runner = scenario.web_based_runner()
    proc = scenario.sim.process(runner.run(scenario.transactions(N_TXNS)))
    wb = scenario.sim.run(until=proc)
    rows.append(
        ["web-based", wb.connection_time, wb.completion_time,
         wb.connections, sum(1 for d in wb.details if d["status"] == "ok")]
    )

    # --- client-agent-server -----------------------------------------------------
    scenario = build_scenario(seed=5, with_agent_server=True)
    runner = scenario.client_agent_server_runner()
    params = {"transactions": scenario.transactions(N_TXNS)}
    proc = scenario.sim.process(runner.run("ebanking", params))
    cas = scenario.sim.run(until=proc)
    data = cas.details[0]["data"]
    rows.append(
        ["client-agent-server", cas.connection_time, cas.completion_time,
         cas.connections, sum(1 for t in data["transactions"] if t["status"] == "ok")]
    )

    print(
        format_table(
            ["approach", "conn time (s)", "completion (s)", "connections", "txns ok"],
            rows,
            title=f"E-banking, {N_TXNS} transactions, same banks & network",
        )
    )
    print(
        "\nNote: client-agent-server matches PDAgent's connection profile but\n"
        "only supports services pre-installed on the agent server — PDAgent\n"
        "downloads arbitrary MA code to the device (the §2 comparison)."
    )


if __name__ == "__main__":
    main()
