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
from .sosc import METHODS, Status, VerifyOptions, verify

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
    seed: int
    n: int
    m: int
    p: int
    conditioning: str
    method: str
    verdict: str
    truth: Optional[bool]
    agree: Optional[bool]
    wall_time_s: float
    operator_products: int
    continuations: int
    fail_step: Optional[int]

    def row(self) -> list:
        return [
            self.seed, self.n, self.m, self.p, self.conditioning, self.method,
            self.verdict,
            "" if self.truth is None else self.truth,
            "" if self.agree is None else self.agree,
            format(self.wall_time_s, ".17g"),
            self.operator_products,
            self.continuations,
            "" if self.fail_step is None else self.fail_step,
        ]


def run_trial(
    n: int,
    m: int,
    p: int,
    conditioning: str,
    seed: int,
    methods: Sequence[str] = METHODS,
    options: Optional[VerifyOptions] = None,
) -> list:
    """Generate one problem and run every requested method on it once.

    ``options`` defaults to the rank guard off, ``tol_rank=0``.
    """
    if options is None:
        options = VerifyOptions(tol_rank=0.0)
    spec = GeneratorSpec(n=n, m=m, p=p, conditioning=conditioning, seed=seed)
    problem = generate(spec)
    records = []
    for method in methods:
        verdict = verify(problem, method, options)
        records.append(
            TrialRecord(
                seed=seed, n=n, m=m, p=p, conditioning=conditioning,
                method=method,
                verdict=verdict.status.value,
                truth=problem.truth,
                agree=(None if problem.truth is None
                       else (verdict.status is Status.HOLDS) == problem.truth),
                wall_time_s=verdict.diagnostics["wall_time_s"],
                operator_products=int(verdict.diagnostics.get("operator_products", 0)),
                continuations=int(verdict.diagnostics.get("continuations", 0)),
                fail_step=verdict.step,
            )
        )
    return records


def _trial_args(n_list, trials_per_n, base_seed):
    """Deterministic (n, m, p, seed) tuples for a campaign."""
    out = []
    for n in n_list:
        for t in range(trials_per_n):
            seed = int(np.random.SeedSequence([base_seed, n, t]).generate_state(1)[0])
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, n))
            p = int(rng.integers(0, n + 1))
            out.append((n, m, p, seed))
    return out


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
    for n, m, p, seed in _trial_args(n_list, trials_per_n, base_seed):
        records.extend(run_trial(n, m, p, conditioning, seed, methods, options))
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


def summarize(records: Sequence[TrialRecord]) -> str:
    """Per-method accuracy counts, continuation fraction, relative timings."""
    lines = []
    methods = sorted({r.method for r in records})
    sizes = sorted({r.n for r in records})
    by_method = {m: [r for r in records if r.method == m] for m in methods}

    inertia_times = {}
    for r in by_method.get("inertia", []):
        inertia_times[(r.seed, r.n)] = r.wall_time_s

    lines.append(f"{'method':>16} {'trials':>7} {'FP':>14} {'FN':>14} "
                 f"{'errors':>7} {'rel. median time':>17}")
    for m in methods:
        recs = by_method[m]
        truths = [r for r in recs if r.truth is not None]
        holds_truth = [r for r in truths if r.truth]
        fails_truth = [r for r in truths if not r.truth]
        fp = sum(1 for r in fails_truth if r.verdict == "holds")
        fn = sum(1 for r in holds_truth if r.verdict != "holds")
        errors = sum(1 for r in recs if r.verdict == "error")
        ratios = [
            r.wall_time_s / inertia_times[(r.seed, r.n)]
            for r in recs
            if (r.seed, r.n) in inertia_times and inertia_times[(r.seed, r.n)] > 0
        ]
        rel = f"{float(np.median(ratios)):.2f}x" if ratios else "n/a"
        lines.append(
            f"{m:>16} {len(recs):>7} {_rate(fp, len(fails_truth)):>14} "
            f"{_rate(fn, len(holds_truth)):>14} {errors:>7} {rel:>17}"
        )

    pcg = [r for r in by_method.get("pcg", []) if r.truth]
    if pcg:
        cont = sum(1 for r in pcg if r.continuations > 0)
        lines.append(
            f"pcg continued at least once in {_rate(cont, len(pcg))} of "
            "condition-holds trials"
        )
    lines.append("sizes: " + ", ".join(str(n) for n in sizes))
    return "\n".join(lines)
