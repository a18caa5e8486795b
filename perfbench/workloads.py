"""Seeded benchmark inputs and the independent correctness gate.

Each workload turns ``--seed`` into a list of :class:`Case` objects: a
curvcheck ``Problem`` plus what the gate needs to judge a verdict on it
without trusting curvcheck's own arithmetic -- the true answer and an
explicit Lagrangian Hessian for re-checking failure certificates.

The program under test receives only ``case.problem``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from curvcheck import (
    GeneratorSpec,
    ThomsonInstance,
    ThomsonProblem,
    VerifyOptions,
    generate,
    solve_thomson,
)

# Problem sizes per workload.  "tiny" keeps the shape of each workload at a
# size the smoke test can run in seconds; it is not a measurement setting.
SIZES = {
    "full": {
        "dense-large": 1000,
        "dense-campaign": ((20, 50, 100, 200), 25),
        "thomson-fd": (30, 40, 50),
    },
    "tiny": {
        "dense-large": 40,
        "dense-campaign": ((20,), 4),
        "thomson-fd": (4, 5, 6),
    },
}

# dense-large runs with the rank guard off, as curvcheck's bench harness
# does, so that it times the kernels: with the guard on, the SVD guard calls
# some of its full-rank Jacobians rank deficient (seed 4: sigma_min 1.0e-5
# against a tolerance of 3.6e-5 at condition 7.6e7) and pcg, bht and inertia
# stop before doing any work.  The other workloads keep the defaults, so
# dense-campaign measures the guard and shows its trips.
OPTIONS = {"dense-large": {"tol_rank": 0.0}}

# Host-speed reference parts (see hostspeed.py) per workload, chosen to
# resemble the work that dominates it.  Over 25 s windows on a shared 2-core
# VM, these parts cut the spread of the window medians of a fixed pass to
# 0.02-0.05 of the median, from 0.05-0.22 for the wall times.
REFERENCE = {
    "dense-large": ("gemv", "rank1"),
    "dense-campaign": ("interp", "lapack", "gemm"),
    "thomson-fd": ("numpy_loop", "lapack"),
}

# Certificate feasibility bound, as in the acceptance suite's criterion 5.
CERT_FEAS_TOL = 1e-8


@dataclasses.dataclass
class Case:
    """One verification input and the facts the gate checks it against."""

    label: str
    problem: object
    truth: bool
    hessian: np.ndarray

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def l(self) -> int:
        return self.problem.l


SpanFactory = Callable[[str], contextlib.AbstractContextManager]


def _derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _dense_case(label: str, spec: GeneratorSpec, span: SpanFactory) -> Case:
    with span("setup.generator"):
        problem = generate(spec)
    # the generator's construction fixes the truth analytically
    return Case(label, problem, spec.truth, problem.hessian)


def dense_large(seed: int, n: int) -> list:
    """One holds instance (p = N) and one deep-failing instance (p = L-1)."""
    m = n // 4
    l = n - m
    return [
        (f"n{n}-holds", GeneratorSpec(n=n, m=m, p=n, seed=seed)),
        (f"n{n}-fails", GeneratorSpec(n=n, m=m, p=l - 1, seed=seed)),
    ]


def dense_campaign(seed: int, sizes: tuple, per_size: int) -> list:
    """The criterion-1 population, drawn by stratified sampling.

    ``bench._trial_args`` draws m in [1, n-1] and p in [0, n] uniformly.
    Here each size splits that square into a k x k grid (per_size = k*k)
    and draws one (m, p) uniformly inside every cell, so the marginals are
    still uniform but the total work of a pass barely depends on the seed.
    A plain uniform draw of 100 problems made the pass times of different
    seeds differ by 20-40%.
    """
    k = math.isqrt(per_size)
    if k * k != per_size:
        raise ValueError("per_size must be a perfect square")
    specs = []
    for n in sizes:
        for t in range(per_size):
            trial_seed = _derived_seed(seed, n, t)
            rng = np.random.default_rng(trial_seed)
            row, col = divmod(t, k)
            m = 1 + int((row + rng.random()) * (n - 1) / k)
            p = int((col + rng.random()) * (n + 1) / k)
            specs.append((f"n{n}-t{t}-m{m}-p{p}", GeneratorSpec(n=n, m=m, p=p, seed=trial_seed)))
    return specs


def thomson_points(seed: int, ks: tuple, span: SpanFactory) -> list:
    """Frame-fixed Thomson stationary points found by ``solve_thomson``."""
    points = []
    for k in ks:
        with span("setup.generator"):
            points.append((k, solve_thomson(k, seed=_derived_seed(seed, k))))
    return points


def thomson_case(k: int, point) -> Case:
    """A Thomson point behind the finite-difference operator; the truth
    comes from the analytic reduced Hessian."""
    tp = ThomsonProblem(ThomsonInstance(k))
    problem = tp.as_problem(point.x, point.lam)
    H = tp.lagrangian_hessian(point.x, point.lam)
    return Case(f"k{k}", problem, _reduced_hessian_holds(H, problem.jacobian), H)


def _reduced_hessian_holds(H: np.ndarray, A: np.ndarray) -> bool:
    """Sign of the smallest eigenvalue of W'HW, W an SVD basis of null(A)."""
    _, svals, vt = np.linalg.svd(A)
    rank = int(np.sum(svals > svals[0] * max(A.shape) * np.finfo(float).eps))
    W = vt[rank:].T
    reduced = W.T @ H @ W
    return bool(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0] > 0.0)


def warmup_problem():
    """A small fixed problem that takes every method through its first call."""
    return generate(GeneratorSpec(n=40, m=10, p=40, seed=0))


def options(name: str) -> VerifyOptions:
    """The ``verify`` options of one workload."""
    return VerifyOptions(**OPTIONS.get(name, {}))


def sources(name: str, seed: int, size: str, span: SpanFactory) -> list:
    """What the cases are built from; the same seed gives the same sources.

    For the dense workloads these are generator specs.  For ``thomson-fd``
    they are the stationary points, found here once: the solver's iteration
    count depends on the start (at K = 40 from 300 to over 6000 steps), so
    it is kept out of the set-up that ``build`` repeats and times.
    """
    shape = SIZES[size][name]
    if name == "dense-large":
        return dense_large(seed, shape)
    if name == "dense-campaign":
        return dense_campaign(seed, shape[0], shape[1])
    if name == "thomson-fd":
        return thomson_points(seed, shape, span)
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, sources: list, span: SpanFactory) -> list:
    """The cases of one workload, made from its sources.

    ``span(name)`` wraps each generator call, so set-up can be split.
    """
    if name == "thomson-fd":
        return [thomson_case(k, point) for k, point in sources]
    return [_dense_case(label, spec, span) for label, spec in sources]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def certificate_defect(case: Case, d) -> Optional[str]:
    """Re-check a failure direction with plain numpy: A d = 0 and d'Hd < 0."""
    d = np.asarray(d, dtype=float)
    A = case.problem.jacobian
    if d.shape != (case.n,) or not np.all(np.isfinite(d)):
        return "certificate is not a finite N-vector"
    feas = float(np.abs(A @ d).max())
    bound = CERT_FEAS_TOL * float(np.linalg.norm(d)) * float(np.linalg.norm(A, "fro"))
    if feas > bound:
        return f"|Ad|_inf {feas:.3e} > {bound:.3e}"
    curvature = float(d @ (case.hessian @ d))
    if not curvature < 0.0:
        return f"d'Hd {curvature:.3e} >= 0"
    return None


# The matrix-free tests always return a failure direction with FAILS.
DIRECTION_METHODS = ("cholesky", "diagonalization", "pcg")


def judge(method: str, case: Case, verdict) -> tuple:
    """Classify one verdict as ("ok" | "inconclusive" | "failed", detail)."""
    status = verdict.status.value
    if status == "error":
        return "inconclusive", verdict.reason
    if status not in ("holds", "fails"):
        return "failed", f"unknown status {status!r}"
    if (status == "holds") != case.truth:
        return "failed", f"{status} contradicts truth={case.truth}"
    if status == "fails" and verdict.direction is not None:
        defect = certificate_defect(case, verdict.direction)
        if defect is not None:
            return "failed", f"certificate: {defect}"
    elif status == "fails" and method in DIRECTION_METHODS:
        return "failed", "fails without a failure direction"
    return "ok", None
