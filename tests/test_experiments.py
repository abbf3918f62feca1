"""Tests for the experiment harness: figure shapes, claims, ablations.

These assert the *shape* properties the paper's evaluation shows, on small
sweeps so the suite stays fast; the full sweeps run from the benchmark
harness / CLI.
"""

import hashlib

import pytest

from repro.experiments.claims import (
    DEVICE_SIDE_MODULES,
    run_claim_code_sizes,
    run_claim_footprint,
)
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.report import format_series, format_table
from repro.experiments.scenario import build_scenario, run_pdagent_batch


class TestScenario:
    def test_prewarm_subscribes(self):
        scenario = build_scenario(seed=1)
        assert scenario.platform.is_subscribed("ebanking")

    def test_batch_metrics_shape(self):
        scenario = build_scenario(seed=1)
        metrics = run_pdagent_batch(scenario, 3)
        assert metrics.n_transactions == 3
        assert metrics.connections == 2  # upload + download only
        assert metrics.completion_time == pytest.approx(
            metrics.upload_time + metrics.download_time
        )
        assert metrics.elapsed_total > metrics.completion_time
        assert len(metrics.result.data["transactions"]) == 3

    def test_transactions_all_executed_ok(self):
        scenario = build_scenario(seed=2)
        metrics = run_pdagent_batch(scenario, 7)
        assert all(
            t["status"] == "ok" for t in metrics.result.data["transactions"]
        )

    def test_same_seed_reproduces_metrics(self):
        a = run_pdagent_batch(build_scenario(seed=9), 4)
        b = run_pdagent_batch(build_scenario(seed=9), 4)
        assert a.completion_time == b.completion_time
        assert a.connection_time == b.connection_time

    def test_different_seeds_differ(self):
        a = run_pdagent_batch(build_scenario(seed=9), 4)
        b = run_pdagent_batch(build_scenario(seed=10), 4)
        assert a.completion_time != b.completion_time


class TestFig12Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig12(seed=0, ns=(1, 4, 8))

    def test_pdagent_flat(self, result):
        """PDAgent connection time is ~independent of the batch size."""
        lo, hi = min(result.pdagent), max(result.pdagent)
        assert hi < lo * 1.25

    def test_baselines_grow(self, result):
        assert result.client_server[0] < result.client_server[-1]
        assert result.web_based[0] < result.web_based[-1]

    def test_baselines_roughly_linear(self, result):
        # 8 txns should cost at least 4x what 1 txn costs
        assert result.client_server[2] > 4 * result.client_server[0]
        assert result.web_based[2] > 4 * result.web_based[0]

    def test_pdagent_wins_everywhere(self, result):
        for i in range(len(result.ns)):
            assert result.pdagent[i] < result.client_server[i]
            assert result.pdagent[i] < result.web_based[i]

    def test_pdagent_wins_by_order_of_magnitude_at_scale(self, result):
        assert result.client_server[-1] > 5 * result.pdagent[-1]

    def test_render_has_all_series(self, result):
        text = result.render()
        assert "PDAgent" in text and "Client-Server" in text and "Web-based" in text


class TestFig13Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig13(base_seed=100, ns=(1, 5, 10), trials=4)

    def test_four_trials(self, result):
        assert len(result.pdagent) == 4
        assert len(result.client_server) == 4

    def test_pdagent_completion_small(self, result):
        for series in result.pdagent:
            assert all(v < 15.0 for v in series)

    def test_client_server_grows(self, result):
        for series in result.client_server:
            assert series[0] < series[-1]

    def test_pdagent_flat_in_n(self, result):
        for series in result.pdagent:
            assert max(series) < min(series) * 1.3

    def test_client_server_variance_exceeds_pdagent(self, result):
        cs_var = result.trial_variance(result.client_server)
        pd_var = result.trial_variance(result.pdagent)
        # at the largest batch, client-server is far less stable
        assert cs_var[-1] > 3 * pd_var[-1]

    def test_client_server_variance_grows_with_n(self, result):
        cs_var = result.trial_variance(result.client_server)
        assert cs_var[-1] > cs_var[0]

    def test_render(self, result):
        text = result.render()
        assert "Figure 13a" in text and "Figure 13b" in text


class TestClaims:
    def test_code_sizes_in_band(self):
        rows = run_claim_code_sizes()
        assert len(rows) == 3
        for row in rows:
            assert row.in_band, f"{row.service} outside 1-8KB band"
            # "can be compressed before download"
            assert row.download_compressed_bytes < row.download_doc_bytes

    def test_agent_wire_compresses(self):
        for row in run_claim_code_sizes():
            assert row.agent_wire_compressed < row.agent_wire_bytes

    def test_footprint_modules_exist(self):
        result = run_claim_footprint()
        assert set(result.module_bytes) == set(DEVICE_SIDE_MODULES)
        assert all(v > 0 for v in result.module_bytes.values())

    def test_footprint_same_order_as_paper(self):
        # paper: ~120 KB; our device-side source should be the same order
        # of magnitude (tens to a few hundred KB)
        kb = run_claim_footprint().total_kb
        assert 30 < kb < 400


class TestSelectionAblation:
    def test_stretched_uplinks_route_by_their_new_latency(self, monkeypatch):
        """A1 stretches each gateway uplink; routing must weigh the new spec."""
        from repro.experiments import ablations

        real_batch = ablations.run_pdagent_batch
        weights = []

        def recording_batch(scenario, *args, **kwargs):
            net = scenario.network
            for i in range(4):
                for src, dst in ((f"gw-{i}", "backbone"), ("backbone", f"gw-{i}")):
                    weights.append(
                        (net._succ[src][dst], net.link(src, dst).spec.latency)
                    )
            return real_batch(scenario, *args, **kwargs)

        monkeypatch.setattr(ablations, "run_pdagent_batch", recording_batch)
        ablations.run_selection_ablation(seed=7, n_gateways=4)
        assert len(weights) == 4 * 8
        for weight, latency in weights:
            assert weight == latency


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text and "0.12" in text

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n=")

    def test_format_series(self):
        assert format_series("s", [1, 2], [0.5, 1.0]) == "s: (1, 0.50)  (2, 1.00)"


class TestCsvExport:
    def test_fig12_csv(self):
        result = run_fig12(seed=0, ns=(1, 2))
        csv_text = result.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "n_transactions,pdagent_s,client_server_s,web_based_s"
        assert len(lines) == 3

    def test_fig13_csv(self):
        result = run_fig13(base_seed=100, ns=(1, 2), trials=2)
        csv_text = result.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "approach,trial,n_transactions,completion_s"
        # 2 approaches x 2 trials x 2 ns = 8 data rows
        assert len(lines) == 9

    def test_write_csv_roundtrip(self, tmp_path):
        from repro.experiments.report import to_csv, write_csv

        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], [[1, 2.5], [3, 4.5]])
        assert path.read_text() == to_csv(["a", "b"], [[1, 2.5], [3, 4.5]])


class TestRunnerCli:
    def test_claims_subcommand(self, capsys):
        from repro.experiments.runner import main

        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "Claim C1" in out and "Claim C2" in out

    def test_csv_flag_writes_files(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["fig12", "--csv", str(tmp_path)]) == 0
        csv_path = tmp_path / "fig12.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("n_transactions,")
        assert len(lines) == 11  # header + n = 1..10

    def test_unknown_experiment_rejected(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["figure99"])


class TestDiversityExperiment:
    def test_small_day_completes_across_the_full_mix(self):
        from repro.experiments.diversity import run_diversity

        day = run_diversity(seed=0, n_devices=60)
        assert day.completed == 60 and day.failed == 0
        assert day.deadline_missed == 0
        # Every archetype must appear even in a small day.
        assert all(stats.n > 0 for stats in day.classes.values())
        assert set(day.classes) == {
            "ebanking", "foodsearch", "mcommerce",
            "ridedispatch", "auctionsnipe", "jobfarm",
        }
        for stats in day.classes.values():
            assert len(stats.latencies) == stats.completed
            assert 0.0 < stats.p50 <= stats.p99 <= day.sim_time_s

    def test_csv_and_render_shape(self):
        from repro.experiments.diversity import run_diversity

        day = run_diversity(seed=3, n_devices=40)
        lines = day.to_csv().strip().splitlines()
        assert lines[0] == "app,tasks,completed,completion_rate,p50_s,p99_s"
        assert any(line.startswith("_sheds,") for line in lines)
        assert "Diversity day" in day.render()

    def test_diversity_cli_smoke(self, capsys, tmp_path):
        from repro.experiments.runner import main

        assert main(["diversity", "--max-n", "30", "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Diversity day: 30 devices" in out
        assert (tmp_path / "diversity.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fig12", "--max-n", "0"],
        ["fig12", "--max-n", "-1"],
        ["overload", "--max-n", "0"],
        ["diversity", "--max-n", "-5"],
    ],
)
def test_max_n_below_one_is_refused(argv, capsys):
    """A cap below 1 is a usage error, not a full sweep or an empty one."""
    from repro.experiments.runner import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--max-n: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["streaming", "faults", "claims", "ablations", "extensions"]
)
def test_max_n_refused_where_nothing_is_swept(name, capsys):
    """An experiment with no sweep refuses the cap instead of silently
    running at full size."""
    from repro.experiments.runner import main

    with pytest.raises(SystemExit) as exc:
        main([name, "--max-n", "6"])
    assert exc.value.code == 2
    assert f"--max-n: {name} runs no sweep to cap" in capsys.readouterr().err


#: experiment -> sha256 of (its CSV file if it writes one, the --trace JSONL,
#: stdout without the [csv]/[trace] path lines) for ``runner <name>`` at seed
#: 0, with ``--max-n 6`` for the three population sweeps.  Streaming and
#: faults write no CSV.
#: Pinned on Python 3.11: a digest that differs on another interpreter
#: version is a determinism finding, not a reason to re-pin.
CAPSTONE_GOLDEN = {
    "overload": (
        "62259802d79e5c57cbe62410cdfc311abbcc5a71a6f05c592e54e63c5d26f216",
        "67342c0b05ece81261d7e4941bef62b81d0cc39e87e0f526e7edca10abfd92fa",
        "1e9ed284a2f2032699ab41ed7f3bffe3b1b2ad36bd816f691d4ba2f76131aa38",
    ),
    "fleet": (
        "ad128d6fa9fec6281d85438a7cc319005530f2a1e3cbca44b2cc128faa8164bb",
        "749e29f58d71b0ef07cd3db39a864e466610076dfa40471f5b1bd703e3e182d8",
        "88b25f9ac6cc2a027d1ebfc1d3079ff93b83c466596b11822f80515e61f804fb",
    ),
    "churn": (
        "3b8dc07dc93f112f78063d742655483448e03286add337e3e078a99b113293da",
        "34eb7faa2423750cb809f01221d6c3ce57c856d2513ca6f500bfecacb61b4167",
        "dedfcabcc998a6a8ef3701d0147775e26fa8e48b03998ed1def4e1d72b664731",
    ),
    "streaming": (
        "d15a5767d70c66b066f3c2b3bddb4b650b1335759a8b8a423dc89a7397b58dfb",
        "184467c6e99b57f138621e75de9823c8a04757ae264c70adbe8fe85ef8c7b195",
    ),
    "faults": (
        "ae1972374bc8deef19da2bfefd82b1ed43edd2fe0be51bf907fb3d0a29ba8a59",
        "d5cec1a5fbef3a6faaed2dbe41bfa172941eb4ac44144d912a30aed776140b28",
    ),
}


@pytest.mark.parametrize("name", sorted(CAPSTONE_GOLDEN))
def test_capstone_cli_matches_golden(name, tmp_path, capsys):
    """The overload, fleet and churn sweeps at populations up to 6, and the
    streaming and faults runs: stdout, any CSV and the trace stay byte for
    byte."""
    from repro.experiments.runner import main

    trace = tmp_path / "t.jsonl"
    cap = ["--max-n", "6"] if name in ("overload", "fleet", "churn") else []
    assert main([name, *cap, "--csv", str(tmp_path), "--trace", str(trace)]) == 0
    out = "".join(
        line for line in capsys.readouterr().out.splitlines(True)
        if not line.startswith(("[csv]", "[trace]"))
    )
    csv = tmp_path / f"{name}.csv"
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            *([csv.read_bytes()] if csv.exists() else []),
            trace.read_bytes(),
            out.encode(),
        )
    )
    assert digests == CAPSTONE_GOLDEN[name]
