"""Figure 12 — internet connection time vs number of transactions.

``test_fig12_full_sweep`` regenerates the whole figure (all three series,
n = 1..10) once, prints it, and asserts the paper's shape.  The per-approach
benchmarks time one representative simulated batch each, so regressions in
any approach's simulation cost are visible separately.
"""

from repro.experiments.fig12 import run_fig12
from repro.experiments.scenario import build_scenario, run_pdagent_batch

N_MID = 5


def _run_client_server(n):
    scenario = build_scenario(seed=0)
    runner = scenario.client_server_runner()
    proc = scenario.sim.process(runner.run(scenario.transactions(n)))
    return scenario.sim.run(until=proc)


def _run_web_based(n):
    scenario = build_scenario(seed=0)
    runner = scenario.web_based_runner()
    proc = scenario.sim.process(runner.run(scenario.transactions(n)))
    return scenario.sim.run(until=proc)


def test_fig12_full_sweep(benchmark, emit):
    result = benchmark.pedantic(run_fig12, kwargs={"seed": 0}, rounds=1, iterations=1)
    emit(result.render())
    # Shape assertions: PDAgent flat and lowest; baselines grow linearly.
    assert max(result.pdagent) < min(result.pdagent) * 1.25
    for i in range(len(result.ns)):
        assert result.pdagent[i] < result.client_server[i]
        assert result.pdagent[i] < result.web_based[i]
    assert result.client_server[-1] > 5 * result.pdagent[-1]
    assert result.web_based[-1] > 4 * result.pdagent[-1]


def test_fig12_pdagent_single_batch(benchmark):
    metrics = benchmark.pedantic(
        lambda: run_pdagent_batch(build_scenario(seed=0), N_MID),
        rounds=3,
        iterations=1,
    )
    assert metrics.connections == 2


def test_fig12_client_server_single_batch(benchmark):
    result = benchmark.pedantic(
        _run_client_server, args=(N_MID,), rounds=3, iterations=1
    )
    assert result.n_transactions == N_MID


def test_fig12_web_based_single_batch(benchmark):
    result = benchmark.pedantic(_run_web_based, args=(N_MID,), rounds=3, iterations=1)
    assert result.n_transactions == N_MID
