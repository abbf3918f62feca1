"""Determinism golden-seed tests and population-scale harness coverage.

The performance pass in this PR rewrote kernel, codec, crypto, and telemetry
hot paths under one contract: *same master seed → same simulated timeline*,
down to byte-identical telemetry JSONL exports.  These tests pin that
contract so any future "optimization" that leaks dict ordering, float
reassociation, or cache state into the timeline fails loudly.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx

from repro.compressor import lzss
from repro.compressor.lzss import LzssCodec
from repro.core import DeploymentBuilder
from repro.crypto import envelope, rsa
from repro.experiments.scale import _maxrss_bytes, run_population
from repro.experiments.scenario import build_scenario, run_pdagent_batch
from repro.simnet import Network
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


class TestLeafRouting:
    def test_population_run_searches_no_graph(self, monkeypatch):
        """Every node of a scale deployment hangs off the backbone by one
        duplex link, so leaf peeling routes every pair without a networkx
        search (a full-graph search per pair made the sweep O(N^2))."""
        searches = []
        search = nx.shortest_path

        def counted(graph, source, target, *args, **kwargs):
            searches.append((source, target))
            return search(graph, source, target, *args, **kwargs)

        monkeypatch.setattr(nx, "shortest_path", counted)
        result = run_population(POP, seed=0)
        assert result.tasks_completed == POP
        assert searches == []


class TestDecodeByLookup:
    def test_population_run_decodes_and_decrypts_only_by_lookup(self, monkeypatch):
        """A run opens only frames it built itself: the LZSS codec's body
        memo answers every decode and ``encrypt_int``'s plaintext memo
        every decryption, so the decoder proper and the CRT never run."""
        calls = {"decode": 0, "decoder": 0, "decrypt": 0, "crt": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(LzssCodec, "decode", counted("decode", LzssCodec.decode))
        monkeypatch.setattr(lzss, "_decode", counted("decoder", lzss._decode))
        monkeypatch.setattr(
            envelope, "decrypt_int", counted("decrypt", envelope.decrypt_int)
        )
        monkeypatch.setattr(rsa, "_crt_decrypt", counted("crt", rsa._crt_decrypt))
        assert run_population(50, seed=0).tasks_completed == 50
        assert calls["decode"] > 0 and calls["decrypt"] > 0
        assert (calls["decoder"], calls["crt"]) == (0, 0)


SRC = Path(__file__).resolve().parent.parent / "src"

#: Imports every public package, then runs a star deployment.
STAR_RUN = """
import repro, repro.core, repro.apps, repro.baselines, repro.simtest
import repro.experiments, repro.telemetry
from repro.experiments.scale import run_population

result = run_population(50, seed=0)
report = {"completed": result.tasks_completed}
"""

#: A simtest scenario: its devices sit in AP cells, each AP's core pair
#: settled by its direct link.
AP_CELL_RUN = """
from repro.simtest.harness import run_spec
from repro.simtest.spec import generate

report = {"violations": len(run_spec(generate(0)).violations)}
"""

#: Two hubs joined directly and through m, every link equally fast: the hub
#: pair's direct link ties with other first and last hops, so it is searched.
TIED_HUBS_RUN = """
from repro.simnet import LinkSpec, Network

net = Network()
for name in ("h1", "h2", "m", "a1", "a2", "b1", "b2"):
    net.add_node(name)
lan = LinkSpec(latency=0.01, bandwidth=1e6)
for a, b in [("h1", "h2"), ("h1", "m"), ("m", "h2"), ("a1", "h1"), ("a2", "h1"),
             ("b1", "h2"), ("b2", "h2")]:
    net.add_duplex_link(a, b, lan)
report = {"route": net.route("a1", "b1")}
"""


def run_fresh(body: str, block_networkx: bool = False) -> dict:
    """Run ``body`` in a fresh interpreter and return its ``report`` dict,
    with whether networkx got imported added under ``"networkx"``."""
    prelude = "import sys\n"
    if block_networkx:
        # An import of networkx now raises, as if it were not installed.
        prelude += 'sys.modules["networkx"] = None\n'
    epilogue = (
        "\nimport json\n"
        'report["networkx"] = sys.modules.get("networkx") is not None\n'
        "print(json.dumps(report))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude + body + epilogue],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: A fleet spec whose owner gateway crashes and restarts.
FLEET_CRASH_RUN = """
from repro.simtest.harness import run_spec
from repro.simtest.spec import generate

spec = generate(0)
assert spec.fleet and spec.crashes
report = {"violations": len(run_spec(spec).violations)}
report["sqlite3"] = "sqlite3" in sys.modules
"""


class TestNoSqlite:
    """Gateway stores live in memory: a fleet run that crashes its owner
    gateway loads no sqlite3.  Checked in a fresh interpreter because
    coverage.py imports sqlite3 into a ``--cov`` pytest process."""

    def test_fleet_crash_run_never_imports_sqlite3(self):
        report = run_fresh(FLEET_CRASH_RUN)
        assert report["violations"] == 0
        assert report["sqlite3"] is False


class TestNetworkxOnDemand:
    """networkx is imported by the first route that needs a graph search.
    A star deployment is routed by leaf links alone, and an AP-cell one by
    leaf links and each AP's direct link to the backbone, so neither loads
    it."""

    def test_star_run_never_imports_networkx(self):
        assert run_fresh(STAR_RUN) == {"completed": 50, "networkx": False}

    def test_star_run_needs_no_networkx_installed(self):
        report = run_fresh(STAR_RUN, block_networkx=True)
        assert report == {"completed": 50, "networkx": False}

    def test_ap_cell_run_never_imports_networkx(self):
        assert run_fresh(AP_CELL_RUN) == {"violations": 0, "networkx": False}

    def test_ap_cell_run_needs_no_networkx_installed(self):
        report = run_fresh(AP_CELL_RUN, block_networkx=True)
        assert report == {"violations": 0, "networkx": False}

    def test_tied_hub_route_imports_networkx(self):
        """The control: the check does see networkx once a route loads it,
        so the cases above cannot pass vacuously."""
        report = run_fresh(TIED_HUBS_RUN)
        assert report == {"route": ["a1", "h1", "h2", "b1"], "networkx": True}


class TestRetainedState:
    def test_only_nodes_that_get_datagrams_have_a_mailbox(self, monkeypatch):
        """A node's datagram mailbox is built when a datagram reaches it or
        a MAS server's pump waits on it; a population's devices get
        neither, so they hold none."""
        deployments, destinations = [], set()
        build, send = DeploymentBuilder.build, Network.send_datagram

        def build_and_keep(self):
            deployments.append(build(self))
            return deployments[-1]

        def send_and_note(self, src, dst, *args, **kwargs):
            destinations.add(dst)
            return send(self, src, dst, *args, **kwargs)

        monkeypatch.setattr(DeploymentBuilder, "build", build_and_keep)
        monkeypatch.setattr(Network, "send_datagram", send_and_note)
        assert run_population(POP, seed=0).tasks_completed == POP
        (deployment,) = deployments
        nodes = list(deployment.network.nodes)
        with_mailbox = {n.address for n in nodes if n._datagrams is not None}
        mas_hosts = {n.address for n in nodes if "mas_server" in n.metadata}
        assert destinations  # agents report each arrival to their home
        assert with_mailbox == mas_hosts | destinations
        assert len(nodes) - len(with_mailbox) >= POP


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
