"""Tests for the telemetry subsystem: spans, metrics, exporters, CLI.

The load-bearing properties:

* one e-banking task yields ONE causal span tree crossing all three tiers
  (device → gateway → MAS itinerary hops);
* fixed-bucket histogram percentiles track exact quantiles;
* two same-seed runs serialise to byte-identical JSONL;
* still-open spans / connection records are finalized as truncated;
* the Chrome export passes its own schema validator.
"""

import io
import json

import pytest

from repro.experiments.fig12 import run_fig12
from repro.experiments.scenario import build_scenario, run_pdagent_batch
from repro.simnet import Simulator
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    SpanContext,
    Telemetry,
    TraceCollector,
    to_chrome,
    trace_events,
    validate_chrome,
)
from repro.telemetry.cli import main as trace_cli


# ---------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        registry.gauge("g").add(-1.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 1.5

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    @pytest.mark.parametrize("p", [50.0, 95.0, 99.0])
    def test_percentiles_track_exact_quantiles(self, p):
        """Interpolated bucket percentiles stay within one bucket width of
        the exact sample quantile, across three orders of magnitude."""
        import random

        rng = random.Random(42)
        samples = [rng.uniform(0.001, 5.0) for _ in range(5000)]
        hist = Histogram("t")
        for s in samples:
            hist.observe(s)
        exact = sorted(samples)[min(len(samples) - 1, int(len(samples) * p / 100.0))]
        estimated = hist.percentile(p)
        # 1-2-5 decade buckets: the estimate's bucket neighbours the exact
        # value's bucket at worst, so a 2.5x band is a safe correctness net.
        assert exact / 2.5 <= estimated <= exact * 2.5

    def test_percentile_clamped_to_observed_range(self):
        hist = Histogram("t")
        for v in (0.2, 0.3, 0.4):
            hist.observe(v)
        assert hist.percentile(1.0) >= 0.2
        assert hist.percentile(100.0) <= 0.4
        with pytest.raises(ValueError):
            hist.percentile(0.0)

    def test_snapshot_shape(self):
        hist = Histogram("t")
        hist.observe(1.0)
        hist.observe(3.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == 4.0
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == 2.0

    def test_empty_histogram_is_json_safe(self):
        """Zero observations: snapshot/percentile never raise and never
        leak the ±inf min/max sentinels into JSON output."""
        hist = Histogram("t")
        snap = hist.snapshot()
        assert snap == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        json.dumps(snap, allow_nan=False)  # must not need NaN/inf escapes
        assert hist.percentile(50.0) == 0.0
        assert hist.mean == 0.0

    def test_single_observation_percentiles_are_exact(self):
        hist = Histogram("t")
        hist.observe(0.7)
        for p in (1.0, 50.0, 99.0, 100.0):
            assert hist.percentile(p) == 0.7
        snap = hist.snapshot()
        assert snap["min"] == snap["max"] == snap["p50"] == 0.7
        json.dumps(snap, allow_nan=False)

    def test_single_bucket_percentile_stays_in_observed_range(self):
        """All samples landing in ONE bucket must not extrapolate to the
        bucket edges — estimates are clamped to the observed [min, max]."""
        hist = Histogram("t")
        for v in (1.1, 1.2, 1.3):  # all inside the (1.0, 2.0] bucket
            hist.observe(v)
        for p in (1.0, 50.0, 95.0, 100.0):
            assert 1.1 <= hist.percentile(p) <= 1.3

    def test_p100_returns_observed_max(self):
        hist = Histogram("t")
        for v in (0.01, 0.5, 4.2):
            hist.observe(v)
        assert hist.percentile(100.0) == 4.2

    def test_nan_observation_rejected(self):
        """NaN would poison min/max (NaN never compares greater/less, so
        they'd stay at ±inf) and make every later snapshot non-JSON."""
        hist = Histogram("t")
        with pytest.raises(ValueError, match="NaN"):
            hist.observe(float("nan"))
        # The rejected observation must not have corrupted any state.
        hist.observe(1.0)
        json.dumps(hist.snapshot(), allow_nan=False)


# ------------------------------------------------------------------ spans
class TestSpans:
    def test_parenting_and_trace_propagation(self):
        sim = Simulator()
        tele = Telemetry(sim)
        root = tele.start_span("task", node="pda")
        child = tele.start_span("pack", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert tele.root_of(root.trace_id) is root

    def test_context_header_roundtrip(self):
        ctx = SpanContext("t-0001", "s-0042")
        assert SpanContext.from_headers(ctx.to_headers()) == ctx
        assert SpanContext.from_headers({}) is None

    def test_end_is_idempotent(self):
        sim = Simulator()
        tele = Telemetry(sim)
        span = tele.start_span("x")
        span.end(status="ok")
        span.end(status="error")  # first end wins
        assert span.status == "ok"

    def test_finalize_truncates_open_spans(self):
        sim = Simulator()
        tele = Telemetry(sim)
        tele.start_span("left-open")
        assert tele.finalize() == 1
        assert tele.finalize() == 0  # idempotent
        span = tele.spans[0]
        assert span.status == "truncated"
        assert span.attrs["truncated"] is True

    def test_task_spans_one_tree_across_tiers(self):
        """The acceptance criterion: a deployed e-banking task produces a
        single trace whose spans cover device, gateway, and MAS tiers."""
        scenario = build_scenario(seed=7)
        run_pdagent_batch(scenario, 2)
        tele = scenario.network.telemetry
        assert not tele.open_spans()

        roots = [s for s in tele.spans if s.name.startswith("task:")]
        assert roots, "no task root span recorded"
        trace = tele.trace(roots[0].trace_id)
        names = {s.name for s in trace}
        # device tier
        assert {"device.deploy", "device.pack", "net.upload-pi"} <= names
        # gateway tier
        assert {"gateway.unpack", "gateway.dispatch", "gateway.ticket"} <= names
        # MAS tier: the agent ran at >1 host and migrated between them
        runs = [s for s in trace if s.name == "agent.run"]
        assert len({s.node for s in runs}) > 1
        assert any(s.name == "agent.transfer" for s in trace)
        # every non-root span chains back to the root
        by_id = {s.span_id: s for s in trace}
        root = tele.root_of(roots[0].trace_id)
        for span in trace:
            walk = span
            while walk.parent_id:
                walk = by_id[walk.parent_id]
            assert walk is root

    def test_agent_completion_instant_carries_trace(self):
        scenario = build_scenario(seed=7)
        run_pdagent_batch(scenario, 1)
        tele = scenario.network.telemetry
        instants = [i for i in tele.instants if i.name == "agent.complete"]
        assert instants
        assert all(i.trace_id for i in instants)


# ------------------------------------------------------------- exporters
def _small_network(seed=5, n=1):
    scenario = build_scenario(seed=seed)
    run_pdagent_batch(scenario, n)
    return scenario.network


class TestExporters:
    def test_jsonl_byte_identical_across_same_seed_runs(self):
        streams = []
        for _ in range(2):
            collector = TraceCollector()
            collector.add_run("run", _small_network())
            buf = io.StringIO()
            collector.write_jsonl(buf)
            streams.append(buf.getvalue())
        assert streams[0] == streams[1]
        assert streams[0]  # non-empty

    def test_chrome_export_validates(self):
        collector = TraceCollector()
        collector.add_run("run", _small_network())
        doc = to_chrome(collector.events)
        assert validate_chrome(doc) == []
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "M"} <= phases

    def test_duplicate_label_rejected(self):
        collector = TraceCollector()
        network = _small_network()
        collector.add_run("run", network)
        with pytest.raises(ValueError):
            collector.add_run("run", network)

    def test_labels_namespace_ids(self):
        collector = TraceCollector()
        collector.add_run("a", _small_network())
        collector.add_run("b", _small_network())
        traces = {e["trace"] for e in collector.events if e.get("type") == "span"}
        assert all(t.startswith(("a/", "b/")) for t in traces)

    def test_truncated_connection_closed_at_sim_end(self):
        """A connection still open at sim end is finalized, flagged, and
        exported with closed == the simulation end time."""
        from repro.simnet import Network

        network = Network(Simulator())
        network.tracer.open_connection("a", "b", purpose="test")
        network.sim.timeout(1.0)
        network.sim.run()
        assert network.sim.now == 1.0
        assert network.tracer.finalize() == 1
        assert network.tracer.finalize() == 0  # idempotent
        rec = network.tracer.connections[0]
        assert rec.truncated is True
        assert rec.closed_at == 1.0
        events = trace_events(network)
        conn_events = [e for e in events if e["type"] == "connection"]
        assert conn_events[0]["truncated"] is True
        assert conn_events[0]["closed"] == 1.0

    def test_fault_becomes_instant_marker(self):
        from repro.simnet import Network

        network = Network(Simulator())
        network.tracer.log_fault("node-crash", "a", "test crash")
        doc = to_chrome(trace_events(network))
        markers = [e for e in doc["traceEvents"] if e.get("cat") == "fault"]
        assert len(markers) == 1
        assert markers[0]["ph"] == "i"
        assert markers[0]["s"] == "g"
        assert markers[0]["name"] == "fault:node-crash"

    def test_validate_catches_bad_documents(self):
        assert validate_chrome([]) != []
        assert validate_chrome({"traceEvents": [{"ph": "?"}]}) != []
        assert validate_chrome(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0,
                              "ts": -1.0, "dur": 0.0}]}
        ) != []


# ------------------------------------------------------- experiments + CLI
class TestIntegration:
    def test_fig12_collector_labels(self):
        collector = TraceCollector()
        run_fig12(seed=0, ns=(1,), collector=collector)
        assert collector.runs == [
            "fig12/pdagent/n=1",
            "fig12/client-server/n=1",
            "fig12/web-based/n=1",
        ]

    def test_cli_summary_critical_path_and_validate(self, tmp_path, capsys):
        collector = TraceCollector()
        collector.add_run("run", _small_network())
        jsonl = tmp_path / "trace.jsonl"
        collector.write_jsonl(str(jsonl))

        assert trace_cli(["summary", str(jsonl), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Per-phase breakdown" in out
        assert "task:ebanking" in out

        assert trace_cli(["critical-path", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "Critical path of trace" in out

        chrome = tmp_path / "trace.json"
        assert trace_cli(["chrome", str(jsonl), "-o", str(chrome)]) == 0
        capsys.readouterr()
        doc = json.loads(chrome.read_text())
        assert validate_chrome(doc) == []

        assert trace_cli(["validate", str(jsonl)]) == 0
        assert trace_cli(["validate", str(chrome)]) == 0

    def test_cli_validate_rejects_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert trace_cli(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
