"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  The randomized campaigns are seeded and deterministic.
"""

import dataclasses
import time

import numpy as np
import pytest

from curvcheck.linalg import BorderedLu, HessianOperator
from curvcheck.problems import (
    GeneratorSpec,
    ThomsonInstance,
    ThomsonProblem,
    build_bordered,
    generate,
    near_rank_deficient_kkt,
    sample_truth_rate,
    truth_probability,
)
from curvcheck.sosc import METHODS, Status, VerifyOptions, verify
from curvcheck.stationary import solve_thomson

BASE_SEED = 20260811
HESSIAN_FREE = ("cholesky", "diagonalization", "pcg")
ZERO_FN_METHODS = ("cholesky", "diagonalization", "pcg", "bht")

WELL_TRIALS = 1000
ILL_HOLDS_TARGET = 200


def report(line: str) -> None:
    print(f"\n{line}")


@dataclasses.dataclass
class MethodOutcome:
    status: Status
    step: int
    products: int
    continuations: int
    sweeps_converged: int


@dataclasses.dataclass
class TrialOutcome:
    n: int
    m: int
    p: int
    seed: int
    truth: bool
    oracle_holds: bool
    outcomes: dict
    cert_checked: int
    cert_violations: list
    budget_violations: list


def _certificate_defects(problem, verdict):
    """Independently re-verify a failure certificate (criterion 5)."""
    d = verdict.direction
    A = problem.jacobian
    feas = float(np.abs(A @ d).max())
    bound = 1e-8 * float(np.linalg.norm(d)) * float(np.linalg.norm(A, "fro"))
    # a fresh operator, so the check does not reuse any verifier state
    curvature = float(d @ HessianOperator.from_matrix(problem.hessian).apply(d))
    defects = []
    if feas > bound:
        defects.append(f"|Ad|_inf {feas:.3e} > {bound:.3e}")
    if curvature >= 0.0:
        defects.append(f"d'Hd {curvature:.3e} >= 0")
    return defects


def _run_trial(n, m, p, seed, conditioning, options, with_oracle, with_budget):
    problem = generate(
        GeneratorSpec(n=n, m=m, p=p, conditioning=conditioning, seed=seed)
    )
    if with_oracle:
        W = problem.exact_basis
        reduced = W.T @ problem.hessian @ W
        oracle_holds = bool(
            np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0] > 0
        )
    else:
        oracle_holds = problem.truth

    outcomes = {}
    cert_checked = 0
    cert_violations = []
    budget_violations = []
    for method in METHODS:
        verdict = verify(problem, method, options)
        outcomes[method] = MethodOutcome(
            status=verdict.status,
            step=verdict.step,
            products=int(verdict.diagnostics.get("operator_products", 0)),
            continuations=int(verdict.diagnostics.get("continuations", 0)),
            sweeps_converged=int(verdict.diagnostics.get("sweeps_converged", 0)),
        )
        if method in HESSIAN_FREE and verdict.status is Status.FAILS:
            cert_checked += 1
            for defect in _certificate_defects(problem, verdict):
                cert_violations.append(f"{method} n={n} m={m} p={p}: {defect}")
        if with_budget and method in ("cholesky", "diagonalization"):
            L = n - m
            prod = outcomes[method].products
            if verdict.status is Status.HOLDS:
                expected = L
            elif verdict.status is Status.FAILS:
                # one extra product re-verifies the certificate
                expected = L + 1 if method == "cholesky" else verdict.step + 1
            else:
                expected = prod
            if prod != expected:
                budget_violations.append(
                    f"{method} n={n} m={m} p={p}: {prod} products, "
                    f"expected {expected}"
                )
    return TrialOutcome(
        n=n, m=m, p=p, seed=seed, truth=problem.truth,
        oracle_holds=oracle_holds, outcomes=outcomes,
        cert_checked=cert_checked, cert_violations=cert_violations,
        budget_violations=budget_violations,
    )


@pytest.fixture(scope="module")
def well_campaign():
    """Criterion-1 population: 1000 well-conditioned trials, N in 10..200."""
    options = VerifyOptions(tol_rank=0.0)
    trials = []
    t0 = time.perf_counter()
    for index in range(WELL_TRIALS):
        seed = int(np.random.SeedSequence([BASE_SEED, index]).generate_state(1)[0])
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 201))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        trials.append(
            _run_trial(n, m, p, seed, "well", options,
                       with_oracle=True, with_budget=True)
        )
    return {"trials": trials, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def ill_campaign():
    """Criterion-3 population: ill-conditioned N=100 trials, at least 200 of
    them with the condition true."""
    options = VerifyOptions(tol_rank=0.0)
    trials = []
    holds = 0
    t0 = time.perf_counter()
    index = 0
    while holds < ILL_HOLDS_TARGET:
        seed = int(
            np.random.SeedSequence([BASE_SEED, 777, index]).generate_state(1)[0]
        )
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 100))
        p = int(rng.integers(0, 101))
        outcome = _run_trial(100, m, p, seed, "ill", options,
                             with_oracle=False, with_budget=False)
        trials.append(outcome)
        holds += outcome.truth
        index += 1
    return {"trials": trials, "elapsed": time.perf_counter() - t0}


def test_criterion_1_oracle_equivalence(well_campaign):
    trials = well_campaign["trials"]
    elapsed = well_campaign["elapsed"]
    assert len(trials) == WELL_TRIALS

    oracle_mismatch = sum(1 for t in trials if t.oracle_holds != t.truth)
    fp = {m: 0 for m in METHODS}
    fn = {m: 0 for m in METHODS}
    for t in trials:
        for method, out in t.outcomes.items():
            if t.truth and out.status is not Status.HOLDS:
                fn[method] += 1
            if not t.truth and out.status is Status.HOLDS:
                fp[method] += 1

    holds_total = sum(1 for t in trials if t.truth)
    report(
        f"[criterion 1] {WELL_TRIALS} well-conditioned trials "
        f"({holds_total} with the condition true) in {elapsed:.0f}s; "
        f"FP={sum(fp.values())}, FN(chol/diag/pcg/bht)="
        f"{[fn[m] for m in ZERO_FN_METHODS]}, FN(inertia)={fn['inertia']} "
        "(inertia false negatives are expected to appear at scale and are "
        "reported, not gated)"
    )
    assert oracle_mismatch == 0, "eigen-oracle disagreed with analytic truth"
    assert all(v == 0 for v in fp.values()), f"false positives: {fp}"
    for method in ZERO_FN_METHODS:
        assert fn[method] == 0, f"{method} false negatives: {fn[method]}"
    assert elapsed <= 600.0, f"criterion-1 campaign took {elapsed:.0f}s"
    report("[PASS] criterion 1: oracle equivalence (0 FP all methods; 0 FN "
           "for cholesky/diagonalization/pcg/bht)")


def test_criterion_2_truth_rate():
    t0 = time.perf_counter()
    n, trials = 10, 100_000
    rate = sample_truth_rate(n, trials, np.random.default_rng(BASE_SEED))
    expected = truth_probability(n)
    sigma = np.sqrt(expected * (1 - expected) / trials)
    elapsed = time.perf_counter() - t0
    report(
        f"[criterion 2] empirical rate {rate:.5f} vs (N+2)/(2(N+1)) = "
        f"{expected:.5f} (|diff| = {abs(rate - expected) / sigma:.2f} sigma, "
        f"{elapsed:.2f}s)"
    )
    assert abs(rate - expected) <= 3 * sigma
    assert elapsed <= 60.0
    report("[PASS] criterion 2: uniform-draw truth rate within 3 sigma")


def test_criterion_3_ill_conditioned_fragility(ill_campaign):
    trials = ill_campaign["trials"]
    elapsed = ill_campaign["elapsed"]
    holds_trials = [t for t in trials if t.truth]
    fails_trials = [t for t in trials if not t.truth]
    assert len(holds_trials) >= ILL_HOLDS_TARGET

    fn_by_method = {
        m: sum(1 for t in holds_trials if t.outcomes[m].status is not Status.HOLDS)
        for m in METHODS
    }
    fp_total = sum(
        1
        for t in fails_trials
        for m in METHODS
        if t.outcomes[m].status is Status.HOLDS
    )
    pooled = sum(fn_by_method.values()) / (len(METHODS) * len(holds_trials))
    per_method = {m: f"{v / len(holds_trials):.0%}" for m, v in fn_by_method.items()}
    report(
        f"[criterion 3] N=100 ill-conditioned: {len(trials)} trials "
        f"({len(holds_trials)} true) in {elapsed:.0f}s; pooled FN rate "
        f"{pooled:.1%}; per-method {per_method}; false positives {fp_total}"
    )
    assert pooled > 0.0
    assert 0.30 <= pooled <= 0.95, f"pooled FN rate {pooled:.1%} outside [30%, 95%]"
    assert fp_total == 0, "false positives in ill-conditioned trials"
    assert elapsed <= 300.0
    report("[PASS] criterion 3: round-off fragility reproduced with no "
           "false positives")


def test_criterion_4_pcg_continuation(well_campaign):
    trials = [t for t in well_campaign["trials"] if t.n >= 100 and t.truth]
    assert trials, "no qualifying trials"
    continued = sum(1 for t in trials if t.outcomes["pcg"].continuations > 0)
    converged = sum(1 for t in trials if t.outcomes["pcg"].sweeps_converged > 0)
    fraction = continued / len(trials)
    report(
        f"[criterion 4] PCG restarted at least once in {continued}/{len(trials)} "
        f"= {fraction:.1%} of well-conditioned condition-true trials with "
        f"N >= 100 (gate: >= 80%); for context, at least one sweep hit the "
        f"convergence tolerance in {converged / len(trials):.1%} of them"
    )
    assert fraction >= 0.80, (
        f"continuation fraction {fraction:.1%} below the 80% gate; see the "
        "decisions ledger for the blocking analysis"
    )
    report("[PASS] criterion 4: continuation occurs in >= 80% of qualifying trials")


def test_criterion_5_failure_certificates(well_campaign, ill_campaign):
    checked = 0
    violations = []
    for campaign in (well_campaign, ill_campaign):
        for t in campaign["trials"]:
            checked += t.cert_checked
            violations.extend(t.cert_violations)
    report(
        f"[criterion 5] {checked} negative-curvature certificates re-verified "
        f"independently; {len(violations)} violations"
    )
    assert checked > 0, "no failure certificates were produced to check"
    assert not violations, "\n".join(violations[:10])
    report("[PASS] criterion 5: every emitted direction is feasible with "
           "negative recomputed curvature")


def test_criterion_6_bht_matches_naive_oracle():
    rng = np.random.default_rng(BASE_SEED + 6)
    t0 = time.perf_counter()
    mismatches = 0
    minors_checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 101))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=int(rng.integers(2**31))))
        B = build_bordered(problem.hessian, problem.jacobian)
        lu = BorderedLu(B, 2 * m)
        for i in range(1, n - m + 1):
            dim = 2 * m + i
            (sign,) = lu.update(1)
            naive_sign, _ = np.linalg.slogdet(B[:dim, :dim])
            minors_checked += 1
            if sign != int(naive_sign):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        f"[criterion 6] updated-LU minor signs vs naive per-minor LU: "
        f"{minors_checked} minors over 200 instances, {mismatches} mismatches "
        f"({elapsed:.0f}s)"
    )
    assert mismatches == 0
    report("[PASS] criterion 6: updated factorization matches the naive "
           "determinant oracle sign-for-sign")


def test_criterion_7_weyl_bound_sweep():
    rng = np.random.default_rng(BASE_SEED + 7)
    n, m = 20, 5
    failures = []
    for eps_norm in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for _ in range(5):
            H = rng.standard_normal((n, n))
            H = 0.5 * (H + H.T)
            A_prime = rng.standard_normal((m - 1, n))
            beta = rng.standard_normal(m - 1)
            eps = rng.standard_normal(n)
            eps *= eps_norm / np.linalg.norm(eps)
            K, bound = near_rank_deficient_kkt(H, A_prime, beta, eps)
            smallest = float(np.abs(np.linalg.eigvalsh(K)).min())
            if smallest > bound:
                failures.append((eps_norm, smallest, bound))
    report(
        f"[criterion 7] nearly-dependent constraint rows at (N,M)=({n},{m}): "
        f"min |eigenvalue(K)| <= perturbation norm in all 25 instances "
        f"({len(failures)} violations)"
    )
    assert not failures, failures
    report("[PASS] criterion 7: eigenvalue perturbation bound holds across "
           "the sweep")


def test_criterion_8_thomson_pipeline():
    t0 = time.perf_counter()
    analytic = {2: 0.5, 3: np.sqrt(3.0), 4: 6.0 * np.sqrt(3.0 / 8.0)}
    times = {}
    for k, reference in analytic.items():
        point = solve_thomson(k, seed=0)
        tp = ThomsonProblem(ThomsonInstance(k))
        energy = tp.objective(point.x)
        assert abs(energy - reference) <= 1e-5 * reference, (k, energy)
        problem = tp.as_problem(point.x, point.lam)
        L = 2 * k - 3
        for method in ("cholesky", "diagonalization"):
            verdict = verify(problem, method)
            assert verdict.status is Status.HOLDS, (k, method, verdict.reason)
            assert verdict.diagnostics["operator_products"] <= L, (k, method)
        inertia_verdict = verify(problem, "inertia")
        assert inertia_verdict.status is Status.HOLDS, (k, "inertia")
        times[k] = {
            "matrix_free": verdict.diagnostics["wall_time_s"],
            "inertia": inertia_verdict.diagnostics["wall_time_s"],
        }
    elapsed = time.perf_counter() - t0
    ratio_txt = ", ".join(
        f"K={k}: {v['matrix_free'] / v['inertia']:.2f}x inertia time"
        for k, v in times.items()
    )
    report(
        f"[criterion 8] sphere energies at K=2,3,4 within 1e-5 of the "
        f"analytic configurations; matrix-free checks hold with <= 2K-3 "
        f"products ({elapsed:.0f}s; timing reported, not asserted: {ratio_txt})"
    )
    assert elapsed <= 120.0
    report("[PASS] criterion 8: sphere pipeline converges and verifies "
           "with the matrix-free budget")


def test_criterion_9_hessian_free_budget(well_campaign):
    violations = []
    for t in well_campaign["trials"]:
        violations.extend(t.budget_violations)
    report(
        f"[criterion 9] cholesky/diagonalization product counts checked on "
        f"{len(well_campaign['trials'])} trials; {len(violations)} violations"
    )
    assert not violations, "\n".join(violations[:10])
    report("[PASS] criterion 9: exactly L operator applications plus at most "
           "one certificate re-verification")
