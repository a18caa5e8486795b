"""Smoke test for the benchmark: every workload at a tiny size, schema only.

Run with ``python -m pytest perfbench`` from the repository root.  It
checks the result line and the full record against ``BENCHMARK.json`` --
names, units, directions, every metric present -- and asserts no timings.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, out, seed=3):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", "--out", str(out),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][1] == "perfbench/run.py" and SPEC["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace, tmp_path):
    proc = _run(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1

    specs = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    record = json.loads((tmp_path / f"{workload}-tiny-seed3-trace{trace}.json").read_text())
    for spec in specs:
        name = spec["name"]
        metric = result["metrics"][name]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert record["metrics"][name]["better"] == spec["better"]
        # the human-readable table names every metric with unit and direction
        row = rf"^{re.escape(name)}\s+\S+\s+{re.escape(spec['unit'])}\s+{spec['better']}\b"
        assert re.search(row, proc.stdout, re.M), name

    env = record["env"]
    assert env["blas_threads"] <= env["nproc"]
    assert set(env["thread_env"].values()) == {str(env["blas_threads"])}
    for key in ("python", "numpy", "scipy", "numpy_blas"):
        assert env[key]


def test_counts_repeat_across_runs(tmp_path):
    """A second traced run with the same seed is compared against the first."""
    for _ in range(2):
        proc = _run(ROOT, "dense-large", 1, tmp_path, seed=5)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
    assert list((tmp_path / "fingerprints").glob("dense-large-tiny-seed5-*.json"))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "dense-large", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
