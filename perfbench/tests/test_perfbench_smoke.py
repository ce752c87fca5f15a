"""Tiny-scale runs of every workload through the benchmark's command line."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from conftest import BENCH_DIR, ROOT


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_gate(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True, info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.PER_LAYER if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert info["environment"]["HEATPROP_THREADS_before_unset"] is None


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sbm-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
