"""Determinism golden-seed tests and population-scale harness coverage.

The performance pass in this PR rewrote kernel, codec, crypto, and telemetry
hot paths under one contract: *same master seed → same simulated timeline*,
down to byte-identical telemetry JSONL exports.  These tests pin that
contract so any future "optimization" that leaks dict ordering, float
reassociation, or cache state into the timeline fails loudly.
"""

import io

from repro.experiments.scale import _maxrss_bytes, run_population
from repro.experiments.scenario import build_scenario, run_pdagent_batch
from repro.telemetry import TraceCollector

POP = 40  # small enough for test time, large enough for real concurrency


class TestGoldenSeedDeterminism:
    def test_same_seed_scale_run_is_bit_reproducible(self):
        """Two same-seed population runs replay the identical timeline."""
        a = run_population(POP, seed=0)
        b = run_population(POP, seed=0)
        assert a.events_processed == b.events_processed
        assert a.sim_time_s == b.sim_time_s
        assert a.tasks_completed == b.tasks_completed == POP

    def test_different_seed_changes_timeline(self):
        """Sanity check that the seed actually drives the stochastic parts
        (link jitter, think times) — otherwise the golden test above would
        pass vacuously."""
        a = run_population(POP, seed=0)
        b = run_population(POP, seed=1)
        assert a.sim_time_s != b.sim_time_s

    def test_same_seed_jsonl_export_byte_identical(self):
        """Full-stack golden test: scenario build + e-banking batch, with
        every span/metric/connection exported — two same-seed runs must
        serialise to byte-identical JSONL AND process the same event count."""
        exports = []
        event_counts = []
        for _ in range(2):
            scenario = build_scenario(seed=3)
            run_pdagent_batch(scenario, 3)
            collector = TraceCollector()
            collector.add_run("golden", scenario.network)
            buf = io.StringIO()
            collector.write_jsonl(buf)
            exports.append(buf.getvalue())
            event_counts.append(scenario.sim.events_processed)
        assert exports[0] == exports[1]
        assert exports[0]  # non-empty
        assert event_counts[0] == event_counts[1]


class TestRegionScaleIdentity:
    def test_regions_run_identical_timeline(self):
        """Region routing returns the full graph's paths, so a run with
        gateway regions replays the plain timeline exactly — same event
        count, same end time, same completions."""
        plain = run_population(POP, seed=0, n_gateways=4)
        regioned = run_population(POP, seed=0, n_gateways=4, regions=4)
        assert (plain.regions, regioned.regions) == (0, 4)
        assert regioned.events_processed == plain.events_processed
        assert regioned.sim_time_s == plain.sim_time_s
        assert regioned.tasks_completed == plain.tasks_completed == POP

    def test_one_region_identical_timeline(self):
        plain = run_population(POP, seed=2)
        regioned = run_population(POP, seed=2, regions=1)
        assert regioned.events_processed == plain.events_processed
        assert regioned.sim_time_s == plain.sim_time_s


class TestScaleHarness:
    def test_population_result_fields(self):
        result = run_population(POP, seed=0)
        assert result.population == POP
        assert result.gateways >= 2
        assert result.events_processed > 0
        assert result.events_per_sec > 0
        assert result.wall_per_task_s > 0
        assert result.sim_time_s > 0

    def test_explicit_fleet_size_honoured(self):
        """An explicit fleet size is used as-is, and every task still
        completes with round-robin device→gateway assignment."""
        result = run_population(POP, seed=0, n_gateways=4)
        assert result.gateways == 4
        assert result.tasks_completed == POP


class TestPeakRssUnits:
    """ru_maxrss units audit: KiB on Linux, bytes on macOS — both paths
    must come out as the same number of bytes."""

    def _patched(self, monkeypatch, raw):
        import resource

        class FakeUsage:
            ru_maxrss = raw

        monkeypatch.setattr(
            resource, "getrusage", lambda who: FakeUsage(), raising=True
        )

    def test_linux_kib_to_bytes(self, monkeypatch):
        self._patched(monkeypatch, 2048)  # 2048 KiB
        assert _maxrss_bytes(platform="linux") == 2048 * 1024

    def test_darwin_bytes_passthrough(self, monkeypatch):
        self._patched(monkeypatch, 2048 * 1024)  # same RSS, reported in bytes
        assert _maxrss_bytes(platform="darwin") == 2048 * 1024

    def test_real_measurement_is_sane(self):
        rss = _maxrss_bytes()
        # A running pytest process holds tens of MiB; a unit slip would put
        # this three orders of magnitude off in either direction.
        assert 10 * 1024 * 1024 < rss < 100 * 1024 * 1024 * 1024
