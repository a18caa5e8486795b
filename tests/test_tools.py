"""Smoke tests for the measurement tools in ``tools/``: the verdict corpus on
five draws of each family and the BENCH writer at perfbench's tiny sizes.
They check line formats and the file's schema, not verdicts or timings."""

import importlib.util
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

HASH = r"[0-9a-f]{16}"
LINE = re.compile(
    r"(?P<case>\S+) (?:def|rank0) (?:cholesky|diagonalization|pcg|bht|inertia) "
    r"(?:holds|fails|error) step=(?:None|\d+) reason=\S+ products=\d+ continuations=\d+ "
    rf"curvature=\S+ keys=(?P<keys>\S+) direction=(?:none|{HASH})(?P<hashed>(?: \S+={HASH})*)"
)


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_line_format():
    corpus = _load("corpus")
    # the generator, M = 0 and boundary families, 5 cases x 2 options x 5
    # methods each; the Thomson family after them is not solved
    lines = list(itertools.islice(corpus.lines(5), 150))
    cases = [f"{family}{i}" for family in ("gen", "m0-", "bnd") for i in range(5)]
    assert [line.split()[0] for line in lines[::10]] == cases
    for line in lines:
        match = LINE.fullmatch(line)
        assert match, line
        keys = match["keys"].split(",")
        assert keys == sorted(keys) and "wall_time_s" not in keys
        assert {"method", "operator_products", "continuations"} <= set(keys)
        assert [item.split("=")[0] for item in match["hashed"].split()] == keys


def test_corpus_diff_lists_each_differing_line():
    corpus = _load("corpus")
    assert corpus.diff(["a", "b"], ["a", "b"]) == []
    assert corpus.diff(["a", "b", "c"], ["a", "x"]) == ["- b", "+ x", "- c", "+ <missing>"]


def test_corpus_diff_of_a_tree_against_itself_prints_nothing():
    command = [sys.executable, str(TOOLS / "corpus.py"), "--draws", "5", "--diff", str(ROOT)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""


def test_bench_snapshot_schema(tmp_path):
    command = [sys.executable, str(TOOLS / "bench_snapshot.py"), "--label", "smoke",
               "--size", "tiny", "--tier1-seconds", "12.5", "--out-dir", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(doc) == {"label", "commit", "size", "seeds", "seconds", "env", "source_digest",
                        "corpus", "tier1_seconds", "workloads"}
    assert (doc["label"], doc["size"], doc["tier1_seconds"]) == ("smoke", "tiny", 12.5)
    assert doc["commit"] is None or re.fullmatch(r"[0-9a-f]{40}", doc["commit"])
    # one draw of each family, 2 options x 5 methods
    assert doc["corpus"]["lines"] == 40 and re.fullmatch(r"[0-9a-f]{64}", doc["corpus"]["sha256"])
    for key in ("python", "numpy", "scipy", "numpy_blas", "blas_threads"):
        assert doc["env"][key]

    specs = SPEC["end_to_end"] + SPEC["per_layer"]
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload in doc["workloads"].values():
        assert workload["correct"] is True
        assert sorted((r["seed"], r["trace"]) for r in workload["runs"]) == [(3, 0), (3, 1)]
        metrics = workload["metrics"]
        assert set(metrics) == {m["name"] for m in specs}
        for spec in specs:
            metric = metrics[spec["name"]]
            assert (metric["unit"], metric["better"]) == (spec["unit"], spec["better"])
            assert metric["n"] == len(metric["values"]) == 1
            assert metric["q1"] <= metric["median"] <= metric["q3"]
