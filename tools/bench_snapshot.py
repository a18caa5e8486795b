#!/usr/bin/env python3
"""Write ``BENCH_<label>.json``: perfbench's metrics over a fixed list of seeds.

    python tools/bench_snapshot.py --label NAME [--tree DIR_OR_REV]
        [--tier1-seconds T] [--label NAME --tree DIR_OR_REV ...]
        [--size full|tiny] [--out-dir DIR]

For each seed, workload and trace setting (0, then 1), every tree runs its
own ``perfbench/run.py``, unchanged, as a subprocess; when several trees
are given their order alternates from seed to seed, so that drift of the
host spreads over all of them.  The records the runs write under
``<out-dir>/.bench_out/<label>/`` are read back, and each label's file
gets, per workload, the median and quartiles of every metric over the
seeds, with the values themselves; the environment and source digest the
records carry; the tree's commit; the line count and sha256 of the
verdict corpus (``tools/corpus.py`` of this checkout, run on the tree);
and the tier-1 wall time when ``--tier1-seconds`` gives it.

A tree is a directory holding ``src/`` and ``perfbench/`` (default: this
checkout), or a revision of this repository, which is extracted with
``git archive`` into ``<out-dir>/.bench_trees/<label>/`` first, so that
all revisions run from one directory.  ``--tree`` and ``--tier1-seconds``
pair with the ``--label`` in the same position.  ``--size full`` runs
seeds 1-5 for ``BENCHMARK.json``'s ``run_seconds`` each and the whole
corpus; ``--size tiny`` runs seed 3 at perfbench's tiny sizes for 0.2 s
and the corpus's first draw of each family, which checks the file's
schema, not its timings.  The files go to ``<out-dir>`` (default: this
checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense-large", "dense-campaign", "thomson-fd")
# size -> (seeds, seconds per run, corpus draws per family); None is every
# draw and BENCHMARK.json's run_seconds
PROFILES = {"full": ((1, 2, 3, 4, 5), None, None), "tiny": ((3,), 0.2, 1)}


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def prepare_tree(tree: str, label: str, out_dir: Path):
    """The directory to run and its commit: a directory as given, with the
    commit it is a checkout of (None when it is none), or a revision of
    this repository extracted by ``git archive``."""
    path = Path(tree)
    if path.is_dir():
        path = path.resolve()
        try:
            top = Path(_git("rev-parse", "--show-toplevel", cwd=path)).resolve()
            commit = _git("rev-parse", "HEAD", cwd=path) if top == path else None
        except subprocess.CalledProcessError:
            commit = None
        return path, commit
    commit = _git("rev-parse", "--verify", f"{tree}^{{commit}}")
    path = out_dir / ".bench_trees" / label
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(path)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {commit} failed")
    return path, commit


def corpus(tree: Path, draws) -> dict:
    """Line count and sha256 of the verdict corpus on ``tree``."""
    command = [sys.executable, str(ROOT / "tools" / "corpus.py"), "--tree", str(tree)]
    if draws is not None:
        command += ["--draws", str(draws)]
    out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
    return {"lines": out.count("\n"), "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "draws": draws}


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int,
                  size: str, records: Path) -> dict:
    """One perfbench run of ``tree``; its full record."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--size", size, "--out", str(records)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    path = records / f"{workload}-{size}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summary(values: list) -> dict:
    """Median, quartiles and the values of one metric over the seeds."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def snapshot(label, commit, corpus_stats, tier1, size, seeds, seconds, records) -> dict:
    """The BENCH document of one label from its perfbench records."""
    workloads = {}
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload]
        metrics = {}
        for record in runs:
            for name, metric in record["metrics"].items():
                entry = metrics.setdefault(
                    name, {"unit": metric["unit"], "better": metric["better"], "values": []})
                entry["values"].append(metric["value"])
        workloads[workload] = {
            "correct": all(r["correct"] for r in runs),
            "runs": [{key: r[key] for key in ("seed", "trace", "correct", "attempted", "failed")}
                     for r in runs],
            "metrics": {
                name: {"unit": m["unit"], "better": m["better"], **summary(m["values"])}
                for name, m in sorted(metrics.items())
            },
        }
    return {
        "label": label, "commit": commit, "size": size, "seeds": list(seeds),
        "seconds": seconds, "env": records[0]["env"],
        "source_digest": sorted({r["source_digest"] for r in records}),
        "corpus": corpus_stats, "tier1_seconds": tier1, "workloads": workloads,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", action="append", required=True,
                        help="name of the file BENCH_<label>.json; repeat for more trees")
    parser.add_argument("--tree", action="append", default=[],
                        help="directory or revision of the label in the same position "
                             "(default: this checkout)")
    parser.add_argument("--tier1-seconds", type=float, action="append", default=[],
                        help="tier-1 wall time of the label in the same position")
    parser.add_argument("--size", choices=tuple(PROFILES), default="full")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    n = len(args.label)
    if len(set(args.label)) != n:
        parser.error("labels must differ")
    if len(args.tree) not in (0, n) or len(args.tier1_seconds) not in (0, n):
        parser.error("give --tree and --tier1-seconds once per --label, or not at all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds, seconds, draws = PROFILES[args.size]
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out_dir = args.out_dir.resolve()
    labels = args.label
    trees = args.tree or [str(ROOT)] * len(labels)
    tier1 = args.tier1_seconds or [None] * len(labels)
    prepared = [prepare_tree(tree, label, out_dir) for tree, label in zip(trees, labels)]
    stats = []
    for label, (path, _) in zip(labels, prepared):
        stats.append(corpus(path, draws))
        print(f"{label}: corpus {stats[-1]['lines']} lines, sha256 {stats[-1]['sha256']}",
              flush=True)
    records = {label: [] for label in labels}
    order = list(range(len(labels)))
    for i, seed in enumerate(seeds):
        for workload in WORKLOADS:
            for trace in (0, 1):
                for j in (order if i % 2 == 0 else order[::-1]):
                    label, path = labels[j], prepared[j][0]
                    out = out_dir / ".bench_out" / label
                    record = run_perfbench(path, workload, seed, seconds, trace, args.size, out)
                    records[label].append(record)
                    print(f"{label}: {workload} seed {seed} trace {trace} "
                          f"correct={record['correct']}", flush=True)
    for j, label in enumerate(labels):
        doc = snapshot(label, prepared[j][1], stats[j], tier1[j], args.size, seeds,
                       seconds, records[label])
        path = out_dir / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{label}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
