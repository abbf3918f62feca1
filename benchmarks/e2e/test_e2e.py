"""Self-test of the end-to-end benchmark at tiny input sizes.

    pytest benchmarks/e2e

Every test drives the benchmark through its command line, as a user would.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import BOUNDARIES
from run import WORKLOADS, load_definition

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TINY = ["--seconds", "0", "--reps", "1", "--scale", "0.05"]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = _run("--workload", workload, *TINY)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in load_definition()["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert result["metrics"][name]["value"] > 0, name
        row = rf"^{re.escape(name)}\s+{re.escape(unit)}\s+(host|sim)\s+\d+\s"
        assert re.search(row, proc.stdout, re.M), name


def test_every_declared_boundary_is_entered_on_some_workload():
    """A renamed or bypassed entry point must fail here, not measure zero."""
    idle_everywhere = None
    for workload in WORKLOADS:
        proc = _run("--workload", workload, "--trace", "1", *TINY)
        result = _result(proc)
        assert result["correct"], proc.stdout
        declared = {m["name"] for m in load_definition()["per_layer"]}
        assert set(result["metrics"]) == declared
        line = re.search(r"^boundaries not entered on this workload: (.*)$", proc.stdout, re.M)
        idle = set(line.group(1).split(", ")) - {"none"}
        idle_everywhere = idle if idle_everywhere is None else idle_everywhere & idle
    keys = {f"{layer}:{module}.{name}" for layer, module, name, _ in BOUNDARIES}
    keys.add("simnet.http:HttpServer.route")
    assert not idle_everywhere & keys, sorted(idle_everywhere & keys)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "city-rush", *TINY],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def change(tmp_path) -> Path:
    """A copy of this checkout for a deliberately worse 'change' side."""
    dst = tmp_path / "change"
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", dst / "src", ignore=skip)
    shutil.copytree(HERE, dst / "benchmarks" / "e2e", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    return dst


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} not in {path}"
    path.write_text(text.replace(old, new, 1))


def _compare(change: Path) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(ROOT), str(change),
         "--workload", "city-rush", "--pairs", "5", "--seconds", "0",
         "--reps", "1", "--scale", "0.1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    rows = json.loads(proc.stdout.strip().splitlines()[-1])["rows"]
    return {row["metric"]: row["label"] for row in rows}


def test_compare_flags_a_slower_compressor_as_worse_throughput(change):
    _edit(change / "src" / "repro" / "compressor" / "api.py",
          "    data = bytes(data)\n",
          "    data = bytes(data)\n    __import__('time').sleep(0.002)\n")
    labels = _compare(change)
    assert labels["tasks_per_s"] == "worse"
    assert labels["task_sim_p90_s"] == "unchanged"


def test_compare_flags_a_slower_wireless_link_as_worse_latency(change):
    _edit(change / "benchmarks" / "e2e" / "workloads.py",
          'CITY_WLAN = link_profile("WLAN")',
          'CITY_WLAN = dataclasses.replace(link_profile("WLAN"), latency=0.25)')
    labels = _compare(change)
    assert labels["task_sim_p90_s"] == "worse"
    assert labels["task_sim_p50_s"] == "worse"
