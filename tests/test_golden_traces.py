"""Golden traces: pinned event counts and JSONL digests for fixed seeds.

A refactor that claims to keep behaviour must keep these byte for byte.
The swarm seeds cover the gateway tier end to end:

* 0-11: fleet drains, roaming retries, a gateway crash, a burst, streaming
  sessions, independent multi-gateway runs, a traffic day, mobility routes;
* 25: drain migration followed by a rebalance;
* 45: a fleet member crashes holding a streamed ticket's partial results
  and its dedup binding, and keeps both;
* 110: a standalone gateway crashes with two streaming uploads open, loses
  them with its dedup index, and rebuilds the index from its tickets;
* 167: a migrate batch that is never acked;
* 188: hinted handoff, reconciliation and a claim error.

The fig12 cell pins a single-gateway GPRS deployment; the two baseline
cells pin the same deployment driven over plain HTTP by the client-server
runner (the PDA) and the web-based runner (the LAN desktop).  The E4 and
A1 rows (client-agent-server against PDAgent, and the four gateway
selection policies) are pinned value for value at their default seeds, and
so is the 100-device population run at seed 0 (two gateways, one e-banking
task per device).  The 60-device diversity day at seed 0 pins the six-app
world on a three-gateway fleet with AP cells: its events, end time, and a
digest of every outcome and per-class latency.  A digest that differs on
another interpreter version is a determinism finding, not a reason to
re-pin.
"""

import hashlib
import io
import json

import pytest

from repro.core import PDAgentConfig
from repro.experiments.ablations import run_selection_ablation
from repro.experiments.diversity import run_diversity
from repro.experiments.extensions import run_cas_comparison
from repro.experiments.scale import run_population
from repro.experiments.scenario import build_scenario, run_pdagent_batch
from repro.simtest import generate, run_spec
from repro.telemetry.exporters import TraceCollector

#: seed -> (events_processed, sha256 of run_spec(generate(seed)).jsonl)
SWARM_GOLDEN = {
    0: (1995, "10165a348a762f7ff443e4d65828e8b98e19c285a988c5e156b38c9282db321b"),
    1: (933, "f515280d78e4ff0ad6f41ee5a2440d1b0a69e89fb76346c8583cd12dace2b55e"),
    2: (873, "c655e12c298bb072b5dfcc1631c2e8271433762e4f3a24b1ad378d04f5cd65a0"),
    3: (622, "d9e7ed7d49f60c0b0c064fa30d47695e135a435c31bc69cc5705cb1d1209e0ae"),
    4: (507, "bcb7f92d4be240e0056f1cfdeeaa6eab01339ea8e2a5486ec95fb47392f487af"),
    5: (432, "9db92200ef418b2fcfe7aa5c781d7d235909ad0b4d885d4d634bb664b6a0cc55"),
    6: (323, "417f560ebac3ba72db4104f4187d6a1deeb5c209ead4126105fb03ada83ea117"),
    7: (1102, "36b2269a80ad55988faca8b764d3d0199d983a65c24655c621009b175b127c62"),
    8: (1036, "291f3d4dc7826c23fcb80f487ee331090f5077a9f509eb05b6e429a7acfd7bb5"),
    9: (920, "2b319ed3cc5bd47072691b5a686cd241c1a6038b20cb6ef504f9243ec9ea52ae"),
    10: (1096, "7a4536724ecc79c42b39441ed5a8a0c5f40d1d93889c5c3698cb489b5efc0b67"),
    11: (1347, "5210de783a1eb83f4300bf908bd74eaba8d3805149aa4e73ac2ce1c14c1b9518"),
    25: (1353, "5591c8bff9008e18671e81b910c71fff6a3b0f0fd6fc5701c87e0eb6d03194b6"),
    45: (962, "07ed37349d812f1f3180d78a74b9cca4fec256b7288a68889fc21f25c0962676"),
    110: (425, "d466ba6e6c9c44c22349fb849571850a352856bb2cb23acc65ed6686726f7150"),
    167: (725, "2d5fcaad37212b37e6e23df36d08fbbcb591584007976613ee41e53d185e7a88"),
    188: (2843, "d5bfc2b7a2cec9fe1b426e218476e6331d017f95443d5476d7e5fa58e67ca3d9"),
}

FIG12_CELL_GOLDEN = (
    150,
    "1ec10cf2bf906934f25d5b75a42513b141f46a759923000130000470d501954c",
)

#: approach -> (events_processed, sha256 of the cell's JSONL)
BASELINE_CELL_GOLDEN = {
    "client-server": (
        147,
        "45bbeb4596f290875906125f4119cc3ff3fc8c238466fbbdeff4c6d6ba2e1c2b",
    ),
    "web-based": (
        402,
        "ae91dc87f57937ed03aef6accba6e247cfe67c41b5db4c604878f56158552fdb",
    ),
}

#: run_cas_comparison(): (n, PDAgent connection time, CAS connection time)
CAS_ROWS_GOLDEN = [
    (1, 7.512026388198798, 7.4531715053862975),
    (4, 7.5504541225738, 7.942921505386302),
    (8, 7.597919942886296, 8.5959215053863),
]

#: run_selection_ablation(): (policy, completion time, gateway, probes sent)
SELECTION_ROWS_GOLDEN = [
    ("nearest", 11.40971946361354, "gw-3", 8),
    ("first", 16.71018728677302, "gw-0", 0),
    ("random", 10.699622218050708, "gw-3", 0),
    ("round_robin", 16.71018728677302, "gw-0", 0),
]

#: run_population(100, seed=0): (events_processed, repr(sim_time_s), tasks)
POPULATION_GOLDEN = (12203, "608.0457157255474", 100)

#: run_diversity(seed=0, n_devices=60): (events_processed, repr(sim_time_s),
#: sha256 of the JSON of [outcomes, {app class: latencies}])
DIVERSITY_GOLDEN = (
    8934,
    "230.1700366618374",
    "9c5316271342bd34d78af77861f0415b77eed1dae46232e974331f60dc99b18f",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_jsonl(config=None, approach="pdagent") -> tuple[int, str]:
    """One fig12 cell: seed 3, a 4-transaction batch."""
    scenario = build_scenario(seed=3, config=config)
    if approach == "pdagent":
        run_pdagent_batch(scenario, 4)
    else:
        runner = (
            scenario.client_server_runner()
            if approach == "client-server"
            else scenario.web_based_runner()
        )
        sim = scenario.sim
        sim.run(until=sim.process(runner.run(scenario.transactions(4))))
    collector = TraceCollector()
    collector.add_run("fig12", scenario.network)
    buf = io.StringIO()
    collector.write_jsonl(buf)
    return scenario.sim.events_processed, buf.getvalue()


@pytest.mark.parametrize("seed", sorted(SWARM_GOLDEN))
def test_swarm_seed_matches_golden(seed):
    report = run_spec(generate(seed))
    assert not report.violations
    assert (report.events_processed, sha256(report.jsonl)) == SWARM_GOLDEN[seed]


def test_fig12_cell_matches_golden():
    events, jsonl = cell_jsonl()
    assert (events, sha256(jsonl)) == FIG12_CELL_GOLDEN


@pytest.mark.parametrize("approach", sorted(BASELINE_CELL_GOLDEN))
def test_baseline_cell_matches_golden(approach):
    events, jsonl = cell_jsonl(approach=approach)
    assert (events, sha256(jsonl)) == BASELINE_CELL_GOLDEN[approach]


def test_single_gateway_identical_with_fleet_enabled():
    """A lone gateway is a fleet of one whether or not the fleet is shared."""
    assert cell_jsonl(PDAgentConfig(fleet_enabled=True)) == cell_jsonl()


def test_cas_comparison_rows_match_golden():
    rows = [
        (r.n_transactions, r.pdagent_conn_time, r.cas_conn_time)
        for r in run_cas_comparison()
    ]
    assert rows == CAS_ROWS_GOLDEN


def test_selection_ablation_rows_match_golden():
    rows = [
        (r.policy, r.completion_time, r.chosen_gateway, r.probes_sent)
        for r in run_selection_ablation()
    ]
    assert rows == SELECTION_ROWS_GOLDEN


def test_population_matches_golden():
    result = run_population(100, seed=0)
    pinned = (result.events_processed, repr(result.sim_time_s), result.tasks_completed)
    assert pinned == POPULATION_GOLDEN


def test_diversity_day_matches_golden():
    result = run_diversity(seed=0, n_devices=60)
    latencies = {app: stats.latencies for app, stats in sorted(result.classes.items())}
    digest = sha256(json.dumps([result.outcomes, latencies], sort_keys=True))
    assert (result.events_processed, repr(result.sim_time_s), digest) == DIVERSITY_GOLDEN
