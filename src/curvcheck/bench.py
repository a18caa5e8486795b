"""Randomized accuracy/timing campaigns over the dense generator.

One :class:`TrialRecord` is produced per (trial, method) pair.  Trials are
seeded individually so a campaign is reproducible from its base seed.
"""

from __future__ import annotations

import csv
import dataclasses
from typing import Optional, Sequence

import numpy as np

from .problems import GeneratorSpec, generate
from .sosc import METHODS, SoscVerdict, Status, VerifyOptions, verify

__all__ = [
    "TrialRecord",
    "CSV_HEADER",
    "run_trial",
    "run_campaign",
    "write_csv",
    "summarize",
]

# CSV column names, in order
CSV_HEADER = (
    "seed", "N", "M", "P", "conditioning", "method", "verdict", "truth",
    "agree", "wall_time_s", "operator_products", "continuations", "fail_step",
)


@dataclasses.dataclass
class TrialRecord:
    """One method's verdict on one generated problem: the spec that drew
    the problem, the method and the verdict :func:`verify` returned."""

    spec: GeneratorSpec
    method: str
    verdict: SoscVerdict

    def row(self) -> list:
        """The record's CSV row, in the order of :data:`CSV_HEADER`."""
        spec, verdict = self.spec, self.verdict
        diag = verdict.diagnostics
        return [
            spec.seed, spec.n, spec.m, spec.p, spec.conditioning, self.method,
            verdict.status.value, spec.truth, verdict.holds == spec.truth,
            format(diag["wall_time_s"], ".17g"),
            diag["operator_products"],
            diag["continuations"],
            "" if verdict.step is None else verdict.step,
        ]


def run_trial(
    spec: GeneratorSpec,
    methods: Sequence[str] = METHODS,
    options: Optional[VerifyOptions] = None,
) -> list:
    """Generate the problem of ``spec`` and run every requested method on
    it once.

    ``options`` defaults to the rank guard off, ``tol_rank=0``.
    """
    if options is None:
        options = VerifyOptions(tol_rank=0.0)
    problem = generate(spec)
    return [TrialRecord(spec, method, verify(problem, method, options))
            for method in methods]


def _trial_args(n_list, trials_per_n, base_seed, conditioning):
    """The campaign's generator specs, each seeded from (base_seed, n, t)."""
    for n in n_list:
        for t in range(trials_per_n):
            seed = int(np.random.SeedSequence([base_seed, n, t]).generate_state(1)[0])
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, n))
            p = int(rng.integers(0, n + 1))
            yield GeneratorSpec(n=n, m=m, p=p, conditioning=conditioning, seed=seed)


def run_campaign(
    n_list: Sequence[int],
    trials_per_n: int,
    conditioning: str = "well",
    methods: Sequence[str] = METHODS,
    base_seed: int = 0,
    options: Optional[VerifyOptions] = None,
) -> list:
    """Run trials_per_n random problems at each size with every method.

    Constraint count and positive-eigenvalue count are drawn uniformly per
    trial, and each verification is timed once; ``options`` is passed to
    :func:`run_trial`.
    """
    for n in n_list:
        if n < 4:
            raise ValueError("benchmark sizes must be at least 4")
    records = []
    for spec in _trial_args(n_list, trials_per_n, base_seed, conditioning):
        records.extend(run_trial(spec, methods, options))
    return records


def write_csv(records: Sequence[TrialRecord], dest) -> None:
    """Write the header and one row per record to ``dest``, a text file
    opened with ``newline=""``."""
    writer = csv.writer(dest)
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.row())


def _rate(num: int, den: int) -> str:
    return f"{num}/{den} ({100.0 * num / den:.1f}%)" if den else "n/a"


def _time(record: TrialRecord) -> float:
    return record.verdict.diagnostics["wall_time_s"]


def summarize(records: Sequence[TrialRecord]) -> str:
    """Per-method accuracy counts, continuation fraction, relative timings."""
    lines = []
    methods = sorted({r.method for r in records})
    sizes = sorted({r.spec.n for r in records})
    by_method = {m: [r for r in records if r.method == m] for m in methods}
    inertia_times = {r.spec: _time(r) for r in by_method.get("inertia", [])}

    lines.append(f"{'method':>16} {'trials':>7} {'FP':>14} {'FN':>14} "
                 f"{'errors':>7} {'rel. median time':>17}")
    for m in methods:
        recs = by_method[m]
        holds_truth = [r for r in recs if r.spec.truth]
        fails_truth = [r for r in recs if not r.spec.truth]
        fp = sum(1 for r in fails_truth if r.verdict.holds)
        fn = sum(1 for r in holds_truth if not r.verdict.holds)
        errors = sum(1 for r in recs if r.verdict.status is Status.ERROR)
        ratios = [
            _time(r) / inertia_times[r.spec]
            for r in recs
            if inertia_times.get(r.spec, 0) > 0
        ]
        rel = f"{float(np.median(ratios)):.2f}x" if ratios else "n/a"
        lines.append(
            f"{m:>16} {len(recs):>7} {_rate(fp, len(fails_truth)):>14} "
            f"{_rate(fn, len(holds_truth)):>14} {errors:>7} {rel:>17}"
        )

    pcg = [r for r in by_method.get("pcg", []) if r.spec.truth]
    if pcg:
        cont = sum(1 for r in pcg if r.verdict.diagnostics["continuations"] > 0)
        lines.append(
            f"pcg continued at least once in {_rate(cont, len(pcg))} of "
            "condition-holds trials"
        )
    lines.append("sizes: " + ", ".join(str(n) for n in sizes))
    return "\n".join(lines)
