"""Smoke tests of the benchmark harness on tiny instances.

    python3 -m pytest bench/test_bench.py

Each test runs bench/run.py end to end, as the benchmark command does, but
with --size smoke, which swaps the paper's instances for tiny ones.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from tracer import MAY_BE_ZERO  # noqa: E402


def run(workload, trace, cwd=ROOT, size="smoke", seconds=1):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = run(workload, 0)
    metrics = result_of(proc)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    for name, m in metrics.items():
        assert m["value"] > 0, name
        assert any(line.split()[:1] == [name] and line.endswith(m["unit"])
                   for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_span_fires(workload):
    # a wrapper patched into a namespace the package no longer calls through
    # would read exactly zero here
    metrics = result_of(run(workload, 1))["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    silent = [name for name, m in metrics.items()
              if name not in MAY_BE_ZERO and not m["value"] > 0]
    assert not silent


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, size="bench")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_counts_are_per_pass():
    # a run of several passes in one interpreter must report what one pass does
    one = result_of(run(WORKLOADS[0], 1))["metrics"]
    proc = run(WORKLOADS[0], 1, seconds=6)
    assert "passes: 1;" not in proc.stdout
    many = result_of(proc)["metrics"]
    for name, m in many.items():
        if m["unit"] == "count":
            assert m["value"] == one[name]["value"], name
