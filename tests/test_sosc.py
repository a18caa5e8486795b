"""Verifier-level tests: hand cases, certificates, cross-method agreement."""

import logging
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from curvcheck import linalg
from curvcheck.linalg import (
    DependentColumnError,
    DimensionMismatchError,
    HessianOperator,
    NullSpaceBasis,
    NullSpaceProjector,
    RankDeficientError,
    check_full_rank,
    default_rank_tolerance,
    null_space_basis,
)
from curvcheck.problems import (
    GeneratorSpec,
    Problem,
    ThomsonInstance,
    ThomsonProblem,
    build_bordered,
    generate,
    near_rank_deficient_kkt,
)
from curvcheck.sosc import (
    METHODS,
    Status,
    VerifyOptions,
    _certified_failure,
    bordered_hessian_test,
    continued_pcg,
    diagonalization,
    implicit_cholesky,
    inertia_test,
    verify,
)


def adhoc_basis(W, A=None):
    """The basis W of null(A); A defaults to an orthonormal basis of the
    orthogonal complement of W's columns, as rows."""
    W = np.asarray(W, dtype=float)
    return NullSpaceBasis(W, sla.null_space(W.T).T if A is None else A)


def op(H):
    return HessianOperator.from_matrix(np.asarray(H, dtype=float))


def reference_cholesky(hessian, basis):
    """The modified pivot recurrence of the reduced Cholesky factorization,
    one rank-1 update per step, kept as the oracle for the LAPACK kernel.

    Returns the verdict and the pivots computed."""
    W = basis.matrix
    N, L = W.shape
    start = hessian.product_count
    V = hessian.apply_block(W)
    alphas = np.zeros(L)
    cross = np.zeros((L, L))
    for n in range(L):
        alpha = float(W[:, n] @ V[:, n])
        alphas[n] = alpha
        if not alpha > 0.0:
            break
        if n + 1 < L:
            g = V[:, n] @ W[:, n + 1 :]
            cross[n, n + 1 :] = g
            V[:, n + 1 :] -= np.outer(V[:, n], g / alpha)
    else:
        return Status.HOLDS, None, None, hessian.product_count - start, alphas
    if not alpha < 0.0:
        return (Status.ERROR, n + 1, "semidefinite_boundary",
                hessian.product_count - start, alphas[: n + 1])
    s = np.zeros(n + 1)
    s[n] = 1.0
    for m in range(n - 1, -1, -1):
        s[m] = -(cross[m, m + 1 : n + 1] @ s[m + 1 :]) / alphas[m]
    verdict = _certified_failure(hessian, basis.jacobian, W[:, : n + 1] @ s,
                                 n + 1, {})
    return (verdict.status, n + 1, verdict.reason,
            hessian.product_count - start, alphas[: n + 1])


def reference_diagonalization(hessian, basis):
    """Oblique diagonalization with one rank-1 update of the whole trailing
    basis per step, kept as the oracle for the panel-blocked kernel.

    The recurrence runs in ``np.longdouble`` on the operator's stored
    matrix, one product per step, so that a pivot left by cancellation is
    not compared against an oracle that rounds as much as the kernel; only
    the certificate of a failure goes through the operator.

    Returns status, step, reason, products and the pivots computed."""
    H = hessian.matrix.astype(np.longdouble)
    W = basis.matrix.astype(np.longdouble)
    L = W.shape[1]
    start = hessian.product_count
    V = W.copy()
    alphas = np.zeros(L, dtype=np.longdouble)
    for n in range(L):
        z = H @ V[:, n]
        alpha = V[:, n] @ z
        alphas[n] = alpha
        if not alpha > 0.0:
            break
        if n + 1 < L:
            V[:, n + 1 :] -= np.outer(V[:, n], (z @ W[:, n + 1 :]) / alpha)
    else:
        return Status.HOLDS, None, None, L, alphas.astype(float)
    alphas = alphas[: n + 1].astype(float)
    if not alpha < 0.0:
        return Status.ERROR, n + 1, "semidefinite_boundary", n + 1, alphas
    verdict = _certified_failure(hessian, basis.jacobian, V[:, n].astype(float),
                                 n + 1, {})
    return (verdict.status, n + 1, verdict.reason,
            n + 1 + hessian.product_count - start, alphas)


def reference_bht(H, A, pivot_tol=1e-8):
    """The bordered Hessian test with one LU update per column, kept as the
    oracle for the Schur-complement kernel: each column is pushed through
    the factors by two triangular solves and eliminated with one pivot; a
    stalled pivot refactors the grown matrix densely.

    Returns status, step, reason and the number of minors computed."""
    M, N = A.shape
    B = build_bordered(0.5 * (H + H.T), A)
    expected = -1 if M % 2 else 1
    eps = np.finfo(float).eps

    def factor(C):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lufac, piv = sla.lu_factor(C)
        perm, parity = np.arange(C.shape[0]), 1
        for i, p in enumerate(piv):
            if p != i:
                perm[i], perm[p] = perm[p], perm[i]
                parity = -parity
        return np.tril(lufac, -1) + np.eye(C.shape[0]), np.triu(lufac), perm, parity

    lower, upper, perm, parity = factor(B[: 2 * M, : 2 * M])
    for i in range(1, N - M + 1):
        n = 2 * M + i - 1
        b, gamma = B[:n, n], B[n, n]
        delta = None
        if np.abs(np.diag(upper)).min() > 0.0:
            y = sla.solve_triangular(lower, b[perm], lower=True, unit_diagonal=True)
            x = sla.solve_triangular(upper, b, trans="T")
            delta = gamma - x @ y
        if delta is not None and abs(delta) > pivot_tol * max(abs(gamma), np.abs(b).max(), 1e-300):
            lower = np.block([[lower, np.zeros((n, 1))], [x[None, :], np.ones((1, 1))]])
            upper = np.block([[upper, y[:, None]], [np.zeros((1, n)), np.full((1, 1), delta)]])
            perm = np.append(perm, n)
        else:
            lower, upper, perm, parity = factor(B[: n + 1, : n + 1])
        udiag = np.diag(upper)
        floor = (n + 1) * eps * max(np.linalg.norm(B[: n + 1, : n + 1]), 1e-300)
        if np.abs(udiag).min() <= floor:
            return Status.ERROR, i, "singular_minor", i
        if parity * np.prod(np.sign(udiag)) != expected:
            return Status.FAILS, i, None, i
    return Status.HOLDS, None, None, N - M


def eigen_oracle(problem):
    """Sign of the smallest reduced eigenvalue over the exact basis."""
    W = problem.exact_basis
    reduced = W.T @ problem.hessian @ W
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0]) > 0


# ---------------------------------------------------------------------------
# Implicit Cholesky
# ---------------------------------------------------------------------------


class TestImplicitCholesky:
    def test_identity_holds(self):
        verdict = implicit_cholesky(op(np.eye(3)), adhoc_basis(np.eye(3)[:, :2]))
        assert verdict.status is Status.HOLDS
        np.testing.assert_allclose(verdict.diagnostics["alphas"], [1.0, 1.0])
        problem = Problem(jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=np.eye(3))
        via_verify = verify(problem, "cholesky")
        assert via_verify.status is Status.HOLDS
        np.testing.assert_allclose(via_verify.diagnostics["alphas"], [1.0, 1.0])

    def test_indefinite_fails_with_direction(self):
        H = np.diag([1.0, -1.0, 1.0])
        verdict = implicit_cholesky(op(H), adhoc_basis(np.eye(3)[:, :2]))
        assert verdict.status is Status.FAILS
        assert verdict.step == 2
        d = verdict.direction / np.linalg.norm(verdict.direction)
        np.testing.assert_allclose(np.abs(d), [0.0, 1.0, 0.0], atol=1e-14)
        assert verdict.curvature == pytest.approx(-1.0)
        # the same verdict through verify
        problem = Problem(jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=H)
        via_verify = verify(problem, "cholesky")
        assert via_verify.status is Status.FAILS
        d = via_verify.direction / np.linalg.norm(via_verify.direction)
        np.testing.assert_allclose(np.abs(d), [0.0, 1.0, 0.0], atol=1e-14)
        assert via_verify.curvature == pytest.approx(-1.0)

    def test_failure_at_first_step_returns_first_column(self):
        verdict = implicit_cholesky(op(-np.eye(2)), adhoc_basis(np.eye(2)[:, :1]))
        assert verdict.status is Status.FAILS and verdict.step == 1
        np.testing.assert_allclose(np.abs(verdict.direction), [1.0, 0.0], atol=1e-14)

    def test_back_substitution_couples_columns(self):
        # reduced matrix [[1, 2], [2, 1]]: second pivot -3, direction (-2, 1)
        H = np.array([[1.0, 2.0], [2.0, 1.0]])
        verdict = implicit_cholesky(op(H), adhoc_basis(np.eye(2)))
        assert verdict.status is Status.FAILS and verdict.step == 2
        np.testing.assert_allclose(verdict.direction, [-2.0, 1.0], atol=1e-14)
        assert verdict.curvature == pytest.approx(-3.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_direction_curvature_equals_pivot(self, seed):
        problem = generate(GeneratorSpec(n=20, m=6, p=int(seed % 13), seed=seed))
        verdict = verify(problem, "cholesky")
        assert verdict.status is Status.FAILS
        alpha = verdict.diagnostics["alpha"]
        assert verdict.curvature == pytest.approx(alpha, rel=1e-8)
        d = verdict.direction
        feas = np.abs(problem.jacobian @ d).max()
        assert feas <= 1e-8 * np.linalg.norm(d) * np.linalg.norm(problem.jacobian)

    def test_generator_truth(self):
        holds = generate(GeneratorSpec(n=10, m=4, p=6, seed=0))
        fails = generate(GeneratorSpec(n=10, m=4, p=5, seed=0))
        assert implicit_cholesky(op(holds.hessian),
                                 null_space_basis(holds.jacobian)).holds
        assert not implicit_cholesky(op(fails.hessian),
                                     null_space_basis(fails.jacobian)).holds

    def test_matches_reference_recurrence(self):
        # seeded draws across sizes and conditioning.  One operator per draw
        # carries a small skew part, as a finite-difference one does.
        paths = set()
        for seed in range(250):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 151))
            m = int(rng.integers(1, n))
            p = int(rng.integers(0, n + 1))
            conditioning = ("well", "ill")[seed % 2]
            problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed,
                                             conditioning=conditioning))
            basis = null_space_basis(problem.jacobian, tol_rank=0.0)
            K = rng.standard_normal((n, n))
            skewed = problem.hessian + 1e-6 * (K - K.T)
            for hessian in (lambda: op(problem.hessian),
                            lambda: HessianOperator.from_callback(
                                skewed.__matmul__, n)):
                status, step, reason, products, alphas = reference_cholesky(
                    hessian(), basis)
                kernel_op = hessian()
                verdict = implicit_cholesky(kernel_op, basis)
                assert (verdict.status, verdict.step, verdict.reason) == (
                    status, step, reason), seed
                assert kernel_op.product_count == products
                got = verdict.diagnostics.get("alphas")
                if got is None:
                    got = verdict.diagnostics["alpha"]
                    alphas = alphas[-1]
                np.testing.assert_allclose(got, alphas, rtol=1e-9)
                paths.add(reason or status.value)
        assert paths >= {"holds", "fails"}

    @pytest.mark.parametrize("n", [10, 300])
    @pytest.mark.parametrize("entry, value", [
        ("first", np.nan), ("last", np.nan), ("off", np.nan), ("middle", np.inf),
        ("off", np.inf),
    ])
    def test_non_finite_hessian_is_boundary_at_step_one(self, n, entry, value):
        # verify rejects the stored Hessian before any method runs; the
        # Cholesky kernel alone stops at its first pivot, which is not finite
        problem = generate(GeneratorSpec(n=n, m=n // 5, p=n, seed=n))
        i, j = {"first": (0, 0), "last": (n - 1, n - 1), "off": (1, n - 2),
                "middle": (n // 2, n // 2)}[entry]
        H = problem.hessian.copy()
        H[i, j] = value
        for method in METHODS:
            verdict = verify(Problem(problem.jacobian, H), method)
            assert verdict.status is Status.ERROR, method
            assert verdict.reason == "non_finite", method
            assert verdict.diagnostics["operator_products"] == 0, method
        with np.errstate(invalid="ignore"):
            verdict = implicit_cholesky(op(H), null_space_basis(problem.jacobian))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "non_finite"
        assert verdict.step == 1

    def test_huge_finite_hessian_holds(self):
        # products whose 2-norm overflows leave the pivots finite, and only
        # their signs count
        problem = generate(GeneratorSpec(n=12, m=3, p=12, seed=4))
        scaled = Problem(problem.jacobian, 1e200 * problem.hessian)
        assert verify(scaled, "cholesky").status is Status.HOLDS

    def test_non_finite_product_is_boundary_at_its_step(self):
        def matvec(s):
            return np.full(5, np.nan) if s[2] != 0 else 2.0 * s

        hessian = HessianOperator.from_callback(matvec, 5)
        verdict = implicit_cholesky(hessian, adhoc_basis(np.eye(5)[:, :3]))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "non_finite"
        assert verdict.step == 3

    def test_pivot_recomputed_positive_is_boundary(self, monkeypatch):
        # dpotrf stopping at a pivot whose recomputation from the partial
        # factor is positive leaves the sign open; here the factorization
        # is cut after its first pivot, and the second recomputes to 3
        from curvcheck import sosc

        def cut(work, fill, rejects):
            U, alphas = linalg._leading_cholesky(work, fill, rejects)
            return U, alphas[:1]

        monkeypatch.setattr(sosc, "_leading_cholesky", cut)
        hessian = op(np.diag([2.0, 3.0, 5.0]))
        verdict = implicit_cholesky(hessian, adhoc_basis(np.eye(3)[:, :2]))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "semidefinite_boundary"
        assert verdict.step == 2
        assert verdict.diagnostics["alpha"] == 3.0
        assert hessian.product_count == 2


# ---------------------------------------------------------------------------
# Diagonalization
# ---------------------------------------------------------------------------


class TestDiagonalization:
    def test_identity_holds(self):
        verdict = diagonalization(op(np.eye(3)), adhoc_basis(np.eye(3)[:, :2]))
        assert verdict.status is Status.HOLDS

    def test_indefinite_fails_with_conjugated_vector(self):
        H = np.diag([1.0, -1.0, 1.0])
        verdict = diagonalization(op(H), adhoc_basis(np.eye(3)[:, :2]))
        assert verdict.status is Status.FAILS and verdict.step == 2
        np.testing.assert_allclose(verdict.direction, [0.0, 1.0, 0.0], atol=1e-14)

    def test_matches_reference_recurrence(self):
        # seeded draws up to N = 200, so that the kernel crosses several
        # 64-column panels; every third draw has L > 130 and either
        # holds or has one or two negative reduced eigenvalues, which tends
        # to fail late
        def check(hessian, basis, label, rtol=1e-12, atol=0.0):
            status, step, reason, products, alphas = reference_diagonalization(
                hessian(), basis)
            kernel_op = hessian()
            verdict = diagonalization(kernel_op, basis)
            assert (verdict.status, verdict.step, verdict.reason) == (
                status, step, reason), label
            assert kernel_op.product_count == products, label
            got = verdict.diagnostics.get("alphas")
            if got is None:
                got, alphas = verdict.diagnostics["alpha"], alphas[-1]
            np.testing.assert_allclose(got, alphas, rtol=rtol, atol=atol,
                                       err_msg=label)
            return verdict

        rng = np.random.default_rng(20241018)
        outcomes = set()
        for trial in range(300):
            if trial % 3:
                n = int(rng.integers(4, 201))
                m = int(rng.integers(1, n))
                p = int(rng.integers(0, n + 1))
            else:
                n = int(rng.integers(140, 201))
                m = int(rng.integers(1, n - 130))
                p = (n - m - 1, n - m - 2, n)[(trial // 3) % 3]
            l = n - m
            conditioning = ("well", "ill")[trial % 2]
            problem = generate(GeneratorSpec(
                n=n, m=m, p=p, seed=int(rng.integers(2**31)), conditioning=conditioning,
            ))
            basis = null_space_basis(problem.jacobian, tol_rank=0.0)
            verdict = check(lambda: op(problem.hessian), basis,
                            f"draw {trial}: n={n} m={m} p={p} {conditioning}")
            panel = (l if verdict.holds else verdict.step - 1) // 64
            outcomes.add((verdict.reason or verdict.status.value, min(panel, 2)))
        assert outcomes >= {("holds", 2), ("fails", 0), ("fails", 1)}

        # a hand-built reduced matrix whose pivot 70 is 1e-9 while its
        # conjugated vector's image has unit size: the next pivot,
        # 0 - 1/1e-9, fails.  Pivot 70 is left by cancellation of
        # unit-sized terms, and pivot 71 inherits its relative error,
        # about eps / 1e-9.
        rng = np.random.default_rng(7)
        K = rng.standard_normal((69, 69))
        lead = K @ K.T / 69 + np.eye(69)
        cross = 0.1 * rng.standard_normal((69, 2))
        schur = np.array([[1e-9, 1.0], [1.0, 0.0]])
        H = np.zeros((100, 100))
        H[:69, :69] = lead
        H[:69, 69:71] = cross
        H[69:71, :69] = cross.T
        H[69:71, 69:71] = schur + cross.T @ np.linalg.solve(lead, cross)
        H[71:, 71:] = np.eye(29)
        basis = adhoc_basis(np.eye(100))
        failing = check(lambda: op(H), basis, "hand-built", rtol=1e-5)
        assert (failing.status, failing.step) == (Status.FAILS, 71)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_cholesky(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        basis = null_space_basis(problem.jacobian)
        v_chol = implicit_cholesky(op(problem.hessian), basis)
        v_diag = diagonalization(op(problem.hessian), basis)
        assert v_chol.status == v_diag.status
        assert v_chol.holds == problem.truth

    @pytest.mark.parametrize("seed", range(8))
    def test_invariant_under_basis_transformation(self, seed):
        # any well-conditioned recombination of the basis gives the same verdict
        rng = np.random.default_rng(seed)
        problem = generate(GeneratorSpec(n=24, m=9, p=int(rng.integers(0, 25)),
                                         seed=seed))
        basis = null_space_basis(problem.jacobian)
        L = basis.matrix.shape[1]
        u, _ = np.linalg.qr(rng.standard_normal((L, L)))
        v, _ = np.linalg.qr(rng.standard_normal((L, L)))
        svals = np.exp(rng.uniform(np.log(0.05), np.log(50.0), L))  # cond <= 1e3
        S = u @ np.diag(svals) @ v
        transformed = NullSpaceBasis(basis.matrix @ S, problem.jacobian)
        for runner in (implicit_cholesky, diagonalization):
            before = runner(op(problem.hessian), basis)
            after = runner(op(problem.hessian), transformed)
            assert before.status == after.status


# ---------------------------------------------------------------------------
# Continued PCG
# ---------------------------------------------------------------------------


def trivial_projector(n):
    return NullSpaceProjector(np.empty((0, n)))


class TestContinuedPcg:
    def test_negative_curvature_in_second_step(self):
        # first search direction has positive curvature, the conjugate one
        # flips negative
        H = np.diag([1.0, -1.0])
        verdict = continued_pcg(op(H), trivial_projector(2),
                                b0=np.array([2.0, 1.0]))
        assert verdict.status is Status.FAILS and verdict.step == 2
        assert verdict.curvature < 0

    def test_negative_curvature_in_first_step(self):
        # with the dominant weight on the negative eigendirection the very
        # first curvature value is already negative
        H = np.diag([1.0, -1.0])
        verdict = continued_pcg(op(H), trivial_projector(2),
                                b0=np.array([1.0, 2.0]))
        assert verdict.status is Status.FAILS and verdict.step == 1

    def test_exact_zero_curvature_is_boundary(self):
        H = np.diag([1.0, 0.0])
        verdict = continued_pcg(op(H), trivial_projector(2),
                                b0=np.array([0.0, 1.0]))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "semidefinite_boundary"

    def test_continuation_uncovers_indefiniteness(self):
        # the seed lies in an invariant subspace: one-step convergence, then
        # the restart finds the negative direction
        H = np.diag([1.0, -1.0])
        verdict = continued_pcg(op(H), trivial_projector(2),
                                b0=np.array([1.0, 0.0]))
        assert verdict.status is Status.FAILS
        assert verdict.step == 2
        assert verdict.diagnostics["continuations"] == 1
        d = verdict.direction / np.linalg.norm(verdict.direction)
        np.testing.assert_allclose(np.abs(d), [0.0, 1.0], atol=1e-10)

    def test_continuation_past_a_huge_image_keeps_the_negative_direction(self):
        # the first sweep converges on the positive direction e_2 with an
        # image near 1e200; appending it must remove e_2, not e_1, which
        # carries the negative curvature
        H = 1e200 * np.diag([-1.0, 1.0, 1.0, 1.0])
        with np.errstate(over="raise"):
            verdict = continued_pcg(op(H), trivial_projector(4),
                                    b0=np.array([0.0, 1.0, 0.0, 0.0]))
        assert verdict.status is Status.FAILS
        assert verdict.diagnostics["continuations"] == 1

    def test_identity_holds_with_unit_product_budget(self):
        n = 7
        hessian = op(np.eye(n))
        verdict = continued_pcg(hessian, trivial_projector(n), seed=1)
        assert verdict.status is Status.HOLDS
        assert hessian.product_count == n
        # every sweep on the identity converges in one step
        assert verdict.diagnostics["continuations"] == n - 1

    def test_seed_in_the_row_space_falls_back_to_a_drawn_one(self):
        # b0 projects to zero, so the first seed is drawn as if no b0 were
        # given
        A = np.array([[1.0, 0.0, 0.0]])
        verdict = continued_pcg(op(np.eye(3)), NullSpaceProjector(A),
                                b0=np.array([1.0, 0.0, 0.0]))
        drawn = continued_pcg(op(np.eye(3)), NullSpaceProjector(A))
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics == drawn.diagnostics

    def test_no_usable_seed_is_subspace_exhausted(self):
        class NullProjector(NullSpaceProjector):
            def project(self, r):
                return np.zeros_like(r)

        hessian = op(np.eye(3))
        verdict = continued_pcg(hessian, NullProjector(np.empty((0, 3))))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "subspace_exhausted"
        assert verdict.step is None
        assert hessian.product_count == 0

    def test_refused_images_do_not_stop_the_search(self):
        # the projector may refuse a sweep's images as already annihilated;
        # the search restarts without them and still covers null(A)
        class RefusingProjector(NullSpaceProjector):
            def append_column(self, C):
                raise DependentColumnError("images inside the annihilated span")

        A = np.array([[0.0, 0.0, 1.0]])
        hessian = op(np.eye(3))
        verdict = continued_pcg(hessian, RefusingProjector(A))
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["continuations"] == 1
        assert hessian.product_count == 2
        assert verdict.diagnostics["sweeps_converged"] == 2

    def test_no_usable_restart_seed_is_subspace_exhausted(self):
        # the first sweep converges with one of two dimensions searched;
        # every restart seed then projects to zero
        class EmptiedProjector(NullSpaceProjector):
            appended = False

            def append_column(self, C):
                super().append_column(C)
                self.appended = True

            def project(self, r):
                return np.zeros_like(r) if self.appended else super().project(r)

        A = np.array([[0.0, 0.0, 1.0]])
        hessian = op(np.eye(3))
        verdict = continued_pcg(hessian, EmptiedProjector(A))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "subspace_exhausted"
        assert verdict.step is None
        assert verdict.diagnostics["continuations"] == 1
        assert hessian.product_count == 1

    def test_callback_returning_a_view_of_its_argument(self):
        # s -> s reversed is symmetric, and a callback may return that view
        # of s; pcg updates its search direction in place, which must not
        # rewrite the product it keeps
        n = 6
        verdicts = [
            continued_pcg(HessianOperator.from_callback(matvec, n),
                          trivial_projector(n), seed=0)
            for matvec in (lambda s: s[::-1], lambda s: s[::-1].copy())
        ]
        assert verdicts[0].status is Status.FAILS
        assert verdicts[0].curvature == verdicts[1].curvature

    @pytest.mark.parametrize("seed", range(6))
    def test_constrained_agreement(self, seed):
        rng = np.random.default_rng(seed)
        problem = generate(GeneratorSpec(n=30, m=11, p=int(rng.integers(0, 31)),
                                         seed=seed))
        verdict = continued_pcg(op(problem.hessian),
                                NullSpaceProjector(problem.jacobian), seed=seed)
        assert verdict.holds == problem.truth
        if verdict.status is Status.FAILS:
            d = verdict.direction
            assert verdict.curvature < 0
            assert np.abs(problem.jacobian @ d).max() <= (
                1e-8 * np.linalg.norm(d) * np.linalg.norm(problem.jacobian)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_directions_are_conjugate(self, seed):
        # conjugacy is an exact-arithmetic property; round-off drift grows
        # roughly like sqrt(cond)^steps, so it is tolerance-tested where
        # that product stays far below the 1e-6 bound
        problem = generate(GeneratorSpec(n=40, m=12, p=40, seed=seed,
                                         eig_lo=1.0, eig_hi=10.0))
        H = problem.hessian
        # each search direction is the argument of one product, and each
        # converged sweep but the last is one block appended to the projector
        dirs = []
        sizes = []

        def recorded_product(p):
            dirs.append(p.copy())
            return H @ p

        class RecordingProjector(NullSpaceProjector):
            def append_column(self, q):
                sizes.append(np.shape(q)[1])
                return super().append_column(q)

        verdict = continued_pcg(
            HessianOperator.from_callback(recorded_product, problem.n),
            RecordingProjector(problem.jacobian), seed=seed,
        )
        assert verdict.status is Status.HOLDS
        assert len(dirs) == problem.l
        sizes.append(len(dirs) - sum(sizes))
        pos = 0
        for size in sizes:
            sweep = dirs[pos : pos + size]
            pos += size
            images = [H @ p for p in sweep]
            for i in range(size):
                for j in range(i + 1, size):
                    bound = 1e-6 * np.linalg.norm(sweep[i]) * np.linalg.norm(images[j])
                    assert abs(sweep[i] @ images[j]) <= bound


# ---------------------------------------------------------------------------
# Bordered Hessian test
# ---------------------------------------------------------------------------


class TestBorderedHessian:
    def test_positive_definite_holds(self):
        verdict = bordered_hessian_test(op(2.0 * np.eye(2)), np.array([[1.0, 0.0]]))
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["minors"] == 1

    def test_indefinite_fails_without_direction(self):
        verdict = bordered_hessian_test(op(np.diag([1.0, -1.0])), np.array([[1.0, 0.0]]))
        assert verdict.status is Status.FAILS
        assert verdict.direction is None

    def test_singular_minor_is_inconclusive(self):
        # leading column of A is zero, so the first bordered minor vanishes
        verdict = bordered_hessian_test(op(np.eye(3)), np.array([[0.0, 0.0, 1.0]]))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "singular_minor"

    def test_operator_backed_hessian_is_materialized(self):
        H = np.diag([2.0, 3.0])
        hessian = HessianOperator.from_callback(lambda s: H @ s, 2)
        verdict = bordered_hessian_test(hessian, np.array([[1.0, 0.0]]))
        assert verdict.status is Status.HOLDS
        assert hessian.product_count == 2

    def test_matches_per_column_reference(self):
        # seeded draws across sizes and conditioning (the ill-conditioned
        # ones reach the singular-minor path), then frame-fixed Thomson
        # points, whose Jacobian pins coordinates so that the leading M x M
        # block of A, and with it the seed, is exactly singular; the stall
        # and refactor paths are covered in tests/test_linalg.py
        from curvcheck.stationary import solve_thomson

        def check(H, A, label):
            verdict = bordered_hessian_test(op(H), A)
            got = (verdict.status, verdict.step, verdict.reason,
                   verdict.diagnostics["minors"])
            assert got == reference_bht(H, A), label
            return verdict

        rng = np.random.default_rng(20240605)
        verdicts = set()
        for trial in range(300):
            n = int(rng.integers(4, 201))
            m = int(rng.integers(1, n))
            p = int(rng.integers(0, n + 1))
            conditioning = ("well", "ill")[trial % 2]
            problem = generate(GeneratorSpec(
                n=n, m=m, p=p, seed=int(rng.integers(2**31)), conditioning=conditioning,
            ))
            verdict = check(problem.hessian, problem.jacobian,
                            f"draw {trial}: n={n} m={m} p={p} {conditioning}")
            verdicts.add((verdict.status, verdict.reason))
        assert verdicts == {(Status.HOLDS, None), (Status.FAILS, None),
                            (Status.ERROR, "singular_minor")}

        for k in (4, 5, 6):
            point = solve_thomson(k, seed=0)
            tp = ThomsonProblem(ThomsonInstance(k))
            verdict = check(tp.lagrangian_hessian(point.x, point.lam),
                            tp.jacobian(point.x), f"Thomson K={k}")
            assert verdict.reason == "singular_minor"

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-300])
    def test_uniformly_scaled_input_keeps_its_verdict(self, scale):
        # scaling H and A alike scales the bordered matrix, its pivots and
        # its singular floor together; |B|_F^2 must not overflow on the way
        for p, expected in ((12, Status.HOLDS), (8, Status.FAILS)):
            problem = generate(GeneratorSpec(n=12, m=3, p=p, seed=4))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = bordered_hessian_test(op(scale * problem.hessian),
                                                scale * problem.jacobian)
            assert (verdict.status, verdict.step) == (
                expected,
                bordered_hessian_test(op(problem.hessian), problem.jacobian).step)

    @pytest.mark.parametrize("seed", range(10))
    def test_sign_sequence_matches_truth(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        verdict = bordered_hessian_test(op(problem.hessian), problem.jacobian)
        assert verdict.status is not Status.ERROR
        assert verdict.holds == problem.truth

    def test_overflowing_norm_keeps_finite_floors(self):
        # |B|_F overflows on these finite entries; the reduced Hessian is
        # exactly 0, so the Schur pivot is 0 and the minor is singular,
        # reported against a finite floor and without a warning
        a = 1e308
        problem = Problem(np.array([[a, a]]), np.diag([a, -a]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = verify(problem, "bht")
        assert (verdict.status, verdict.step, verdict.reason) == (
            Status.ERROR, 1, "singular_minor")
        assert "inf" not in verdict.diagnostics["detail"]


# ---------------------------------------------------------------------------
# Leading blocks of the Cholesky and bordered Hessian factorizations
# ---------------------------------------------------------------------------


def counted_dpotrf(monkeypatch):
    """Record the order of every LAPACK ``dpotrf`` call."""
    orders = []
    original = sla.lapack.dpotrf

    def counted(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(sla.lapack, "dpotrf", counted)
    return orders


def pivots_with_one_negative(L, step, rng):
    """Positive pivots in [1, 2], except -1 at ``step``."""
    d = rng.uniform(1.0, 2.0, L)
    d[step - 1] = -1.0
    return d


class TestLeadingBlocks:
    """Both tests factor doubling leading blocks from order 256, and stop
    at the block that holds the first failing pivot."""

    EDGES = [(255, 1), (256, 1), (257, 2), (511, 2), (512, 2), (513, 3)]

    @pytest.mark.parametrize("step, tries", EDGES)
    def test_cholesky_failure_at_a_block_edge(self, step, tries, monkeypatch):
        # an orthonormal basis W and H = W diag(d) W^T: the reduced matrix
        # is diag(d), whose only negative entry is at the failing step
        L, M = 514, 2
        rng = np.random.default_rng(step)
        Q, _ = np.linalg.qr(rng.standard_normal((L + M, L + M)))
        basis = adhoc_basis(Q[:, :L], Q[:, L:].T)
        H = (Q[:, :L] * pivots_with_one_negative(L, step, rng)) @ Q[:, :L].T
        status, ref_step, reason, products, alphas = reference_cholesky(op(H), basis)
        orders = counted_dpotrf(monkeypatch)
        hessian = op(H)
        verdict = implicit_cholesky(hessian, basis)
        assert (verdict.status, verdict.step, verdict.reason) == (
            status, ref_step, reason) == (Status.FAILS, step, None)
        assert hessian.product_count == products == L + 1
        assert verdict.diagnostics["alpha"] == pytest.approx(alphas[-1], rel=1e-9)
        assert verdict.diagnostics["alpha"] == pytest.approx(-1.0, rel=1e-9)
        assert orders == [256, 512, 514][:tries]

    @pytest.mark.parametrize("step, tries", EDGES)
    def test_bht_failure_at_a_block_edge(self, step, tries, monkeypatch):
        # with A = [I_M 0] the Schur complement of the seed in the bordered
        # matrix is H22, here F diag(d) F^T with F unit lower triangular, so
        # the first minor of the wrong sign is at the failing step
        L, M = 514, 2
        rng = np.random.default_rng(step)
        F = np.eye(L) + np.tril(rng.standard_normal((L, L)), -1) / L
        H = rng.standard_normal((L + M, L + M)) / L
        H[M:, M:] = (F * pivots_with_one_negative(L, step, rng)) @ F.T
        H = 0.5 * (H + H.T)
        A = np.eye(M, L + M)
        orders = counted_dpotrf(monkeypatch)
        hessian = op(H)
        verdict = bordered_hessian_test(hessian, A)
        assert orders == [256, 512, 514][:tries]
        assert (verdict.status, verdict.step, verdict.reason,
                verdict.diagnostics["minors"]) == reference_bht(H, A) == (
            Status.FAILS, step, None, step)
        assert verdict.diagnostics["sign"] == -1
        assert hessian.product_count == 0

    @pytest.mark.parametrize("n, m", [(20, 6), (300, 44), (300, 43)])
    @pytest.mark.parametrize("method", ["cholesky", "bht"])
    def test_one_try_up_to_order_256(self, n, m, method, monkeypatch):
        problem = generate(GeneratorSpec(n=n, m=m, p=n, seed=n))
        orders = counted_dpotrf(monkeypatch)
        assert verify(problem, method).holds
        assert orders == ([n - m] if n - m <= 256 else [256, n - m])

    @pytest.mark.parametrize("method", ["cholesky", "bht"])
    def test_tries_on_the_dense_large_shape(self, method, monkeypatch):
        # N = 1000, M = 250: the holds problem takes three tries, and its
        # deep-fail twin (p = L - 1) fails in the second block
        orders = counted_dpotrf(monkeypatch)
        options = VerifyOptions(tol_rank=0.0)
        holds = generate(GeneratorSpec(n=1000, m=250, p=1000, seed=1))
        assert verify(holds, method, options).holds
        assert orders == [256, 512, 750]
        orders.clear()
        fails = generate(GeneratorSpec(n=1000, m=250, p=749, seed=1))
        verdict = verify(fails, method, options)
        assert verdict.status is Status.FAILS and 256 < verdict.step <= 512
        assert orders == [256, 512]

    @pytest.mark.parametrize("first", [2, 8, 128])
    def test_verdicts_do_not_depend_on_the_first_block(self, first, monkeypatch):
        # a small first block makes small problems take several tries
        rng = np.random.default_rng(first)
        draws = []
        for trial in range(30):
            n = int(rng.integers(4, 201))
            m = int(rng.integers(1, n))
            p = int(rng.integers(0, n + 1))
            draws.append(generate(GeneratorSpec(
                n=n, m=m, p=p, seed=trial, conditioning=("well", "ill")[trial % 2])))

        def outcomes():
            for problem in draws:
                for method in ("cholesky", "bht"):
                    v = verify(problem, method, VerifyOptions(tol_rank=0.0))
                    d = v.diagnostics
                    yield (method, v.status, v.step, v.reason, d["operator_products"],
                           d.get("minors"), d.get("sign"))

        default = list(outcomes())
        monkeypatch.setattr(linalg, "_FIRST_BLOCK", first)
        assert list(outcomes()) == default

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [300, 250])
    @pytest.mark.parametrize("method", ["cholesky", "bht"])
    def test_verify_leaves_the_problem_alone(self, order, p, method):
        base = generate(GeneratorSpec(n=300, m=20, p=p, seed=5))
        problem = Problem(np.array(base.jacobian, order=order),
                          np.array(base.hessian, order=order))
        verdict = verify(problem, method)
        assert verdict.status is (Status.HOLDS if p == 300 else Status.FAILS)
        np.testing.assert_array_equal(problem.hessian, base.hessian)
        np.testing.assert_array_equal(problem.jacobian, base.jacobian)


# ---------------------------------------------------------------------------
# Inertia test
# ---------------------------------------------------------------------------


class TestInertia:
    def test_holds(self):
        verdict = inertia_test(op(np.eye(2)), np.array([[1.0, 0.0]]))
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["inertia"] == (2, 1, 0)

    def test_fails(self):
        verdict = inertia_test(op(np.diag([1.0, -1.0])), np.array([[1.0, 0.0]]))
        assert verdict.status is Status.FAILS
        assert verdict.diagnostics["inertia"] == (1, 2, 0)
        assert verdict.direction is None  # this route yields no certificate

    def test_near_singular_kkt_still_returns(self):
        # nearly dependent constraint rows: the verdict may be wrong, but the
        # test must complete and report an inertia triple
        rng = np.random.default_rng(5)
        H = rng.standard_normal((6, 6))
        H = H @ H.T + np.eye(6)
        A_prime = rng.standard_normal((2, 6))
        eps = 1e-12 * rng.standard_normal(6)
        K, bound = near_rank_deficient_kkt(H, A_prime, np.array([0.4, -1.2]), eps)
        A = K[6:, :6]
        verdict = inertia_test(op(H), A)
        assert verdict.status in (Status.HOLDS, Status.FAILS)
        assert "inertia" in verdict.diagnostics

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_truth_well_conditioned(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        verdict = inertia_test(op(problem.hessian), problem.jacobian)
        assert verdict.holds == problem.truth

    def test_overflowing_two_by_two_block_keeps_its_signs(self):
        # a*c - b*b of a 2 x 2 block of D near 1e200 is inf - inf; scaled by
        # the block's largest entry, its sign is that of the unscaled inertia
        problem = generate(GeneratorSpec(n=12, m=3, p=8, seed=4))
        plain = inertia_test(op(problem.hessian), problem.jacobian)
        assert plain.diagnostics["inertia"] == (11, 4, 0)
        with np.errstate(over="ignore"):
            scaled = inertia_test(op(1e200 * problem.hessian), problem.jacobian)
        assert scaled.status is Status.FAILS
        assert scaled.diagnostics["inertia"] == (11, 4, 0)


@pytest.mark.parametrize("kernel", [bordered_hessian_test, inertia_test])
@pytest.mark.parametrize("A", [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.eye(2)],
                         ids=["M3", "M2"])
def test_classical_kernels_reject_m_at_least_n(kernel, A):
    # both read A without the Jacobian check: with M = 3 and N = 2 bht held
    # with minors -1, and inertia failed with inertia (2, 2, 1); with M = N
    # both held
    with pytest.raises(DimensionMismatchError, match="fewer constraints"):
        kernel(op(np.diag([1.0, -1.0])), np.asarray(A))


def test_kernels_reject_inputs_of_another_dimension():
    # an operator on R^3 with a basis, projector or Jacobian on R^4
    A = np.array([[0.0, 0.0, 0.0, 1.0]])
    for kernel in (implicit_cholesky, diagonalization):
        with pytest.raises(DimensionMismatchError, match="basis dimensions"):
            kernel(op(np.eye(3)), null_space_basis(A))
    with pytest.raises(DimensionMismatchError, match="projector dimensions"):
        continued_pcg(op(np.eye(3)), NullSpaceProjector(A))
    for kernel in (bordered_hessian_test, inertia_test):
        with pytest.raises(DimensionMismatchError, match="inconsistent"):
            kernel(op(np.eye(3)), A)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


class TestVerify:
    @pytest.mark.parametrize("method", ["bht", "inertia"])
    @pytest.mark.parametrize("where", ["H", "A"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_classical_tests_reject_non_finite_input(self, method, where, value):
        problem = generate(GeneratorSpec(n=10, m=3, p=10, seed=1))
        H, A = problem.hessian.copy(), problem.jacobian.copy()
        (H if where == "H" else A)[1, 2] = value
        runner = bordered_hessian_test if method == "bht" else inertia_test
        for verdict in (runner(op(H), A), verify(Problem(A, H), method)):
            assert verdict.status is Status.ERROR
            assert verdict.reason == "non_finite"

    @pytest.mark.parametrize("p, seed, scale", [
        (12, 53, 2e306), (12, 141, 2e306), (8, 13, 1e306), (8, 15, 1e306), (8, 23, 1e306),
    ])
    def test_overflowing_factors_are_non_finite(self, p, seed, scale):
        # finite input whose factors overflow: bht's seed LU holds a NaN
        # pivot (p = 12), where BorderedLu.sign raised from int(NaN), and
        # dsytrf's D holds inf or NaN (p = 8), where inertia read FAILS from
        # a meaningless count
        problem = generate(GeneratorSpec(n=12, m=3, p=p, seed=seed))
        scaled = Problem(scale * problem.jacobian, scale * problem.hessian)
        with np.errstate(all="ignore"):
            verdicts = {m: verify(scaled, m) for m in ("bht", "inertia")}
        method = "bht" if p == 12 else "inertia"
        assert verdicts[method].status is Status.ERROR
        assert verdicts[method].reason == "non_finite"
        assert verdicts[method].step == (1 if method == "bht" else None)
        if method == "bht":
            assert verdicts["inertia"].status is Status.HOLDS

    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_jacobian_is_error(self, method):
        problem = generate(GeneratorSpec(n=10, m=3, p=10, seed=1))
        A = problem.jacobian.copy()
        A[0, 4] = np.nan
        verdict = verify(Problem(A, problem.hessian), method)
        assert verdict.status is Status.ERROR
        assert verdict.reason == "non_finite"

    @pytest.mark.parametrize("method", ["cholesky", "diagonalization", "pcg"])
    @pytest.mark.parametrize("value, reason", [
        (-np.inf, "non_finite"), (np.nan, "non_finite"),
    ])
    def test_non_finite_curvature_is_not_a_failure(self, method, value, reason):
        # a product-backed operator is not scanned.  A NaN or -inf pivot or
        # curvature is no certificate: the kernel answers non_finite at its
        # step, not FAILS
        problem = generate(GeneratorSpec(n=10, m=2, p=10, seed=10))
        H = problem.hessian.copy()
        H[1, 8] = H[8, 1] = value
        with np.errstate(invalid="ignore"):
            verdict = verify(Problem(problem.jacobian, matvec=lambda s: H @ s), method)
        assert verdict.status is Status.ERROR
        assert verdict.reason == reason
        assert verdict.step == 1
        assert verdict.direction is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_products_stop_each_kernel_at_their_step(self, value):
        # products of diag(2, 2, value, 2, 2), formed as an overflowing
        # product would be: a zero entry of s gives a zero entry.  +inf used
        # to pass as positive curvature, so diagonalization held; -inf cost
        # one more product for a certificate that could not be one
        def matvec(s):
            out = 2.0 * s
            if s[2] != 0:
                out[2] = value * s[2]
            return out

        hessians = {method: HessianOperator.from_callback(matvec, 5)
                    for method in ("cholesky", "diagonalization", "pcg")}
        basis = adhoc_basis(np.eye(5)[:, :3])
        projector = NullSpaceProjector(np.eye(5)[3:])
        with np.errstate(invalid="ignore"):
            verdicts = {
                "cholesky": implicit_cholesky(hessians["cholesky"], basis),
                "diagonalization": diagonalization(hessians["diagonalization"], basis),
                "pcg": continued_pcg(hessians["pcg"], projector),
            }
        for method, verdict in verdicts.items():
            assert verdict.status is Status.ERROR, method
            assert verdict.reason == "non_finite", method
            assert verdict.step == (1 if method == "pcg" else 3), method
            assert hessians[method].product_count == verdict.step, method
            assert verdict.direction is None, method

    def test_non_finite_recheck_of_a_failure_is_not_a_failure(self):
        # the first product gives negative curvature, the certificate's
        # re-check product NaN: no direction is certified
        products = iter([lambda s: -s, lambda s: np.full_like(s, np.nan)])
        hessian = HessianOperator.from_callback(lambda s: next(products)(s), 2)
        basis = adhoc_basis(np.eye(2)[:, :1], np.array([[0.0, 1.0]]))
        verdict = diagonalization(hessian, basis)
        assert verdict.status is Status.ERROR
        assert verdict.reason == "non_finite"
        assert verdict.step == 1
        assert verdict.direction is None
        assert np.isnan(verdict.diagnostics["recomputed_curvature"])
        assert hessian.product_count == 2

    @pytest.mark.parametrize("p, expected", [(12, Status.HOLDS), (8, Status.FAILS)])
    def test_overflowing_product_norms_keep_a_zero_threshold(self, p, expected):
        # |v| |Hv| overflows to inf for H near 1e200; the threshold is 0
        # whatever that scale, so only the pivot signs count
        problem = generate(GeneratorSpec(n=12, m=3, p=p, seed=4))
        assert problem.truth is (expected is Status.HOLDS)
        scaled = Problem(problem.jacobian, 1e200 * problem.hessian)
        methods = ("diagonalization", "pcg") if p == 12 else (
            "cholesky", "diagonalization", "pcg")
        for method in methods:
            with np.errstate(over="ignore"):
                verdict = verify(scaled, method)
            assert verdict.status is expected, method
            if expected is Status.FAILS:
                assert verdict.curvature < 0
                assert np.abs(problem.jacobian @ verdict.direction).max() <= (
                    1e-8 * np.linalg.norm(verdict.direction))

    @pytest.mark.parametrize("p, expected", [(12, Status.HOLDS), (8, Status.FAILS)])
    def test_overflowing_jacobian_norm_keeps_the_rank_guard(self, p, expected):
        # |A|_F overflows for entries near 1e200; the default tolerance must
        # follow it without calling a full-rank Jacobian rank deficient
        problem = generate(GeneratorSpec(n=12, m=3, p=p, seed=4))
        assert problem.truth is (expected is Status.HOLDS)
        scaled = Problem(1e200 * problem.jacobian, problem.hessian)
        for method in ("cholesky", "diagonalization", "pcg", "inertia"):
            with np.errstate(over="ignore"):
                verdict = verify(scaled, method)
                unguarded = verify(scaled, method, VerifyOptions(tol_rank=0.0))
            assert verdict.status is expected, method
            assert (verdict.status, verdict.step) == (unguarded.status, unguarded.step)
        # the scale of H against A is still out of reach of bht's floor
        with np.errstate(over="ignore"):
            assert verify(scaled, "bht").reason == "singular_minor"

    def test_overflowing_jacobian_norm_keeps_the_feasibility_check(self):
        # |A|_F overflows for a row near 1e200; the defect of an infeasible
        # certificate must not read as |A d| / inf = 0
        A = np.array([[1e200, 0.0]])
        H = op(-np.eye(2))
        infeasible = _certified_failure(H, A, np.array([1.0, 1.0]), 1, {})
        assert infeasible.reason == "verification_failed"
        feasible = _certified_failure(H, A, np.array([0.0, 1.0]), 1, {})
        assert feasible.status is Status.FAILS

    def test_identity_problem_all_methods(self):
        problem = Problem(jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=np.eye(3))
        for method in ("cholesky", "diagonalization", "pcg", "inertia"):
            verdict = verify(problem, method)
            assert verdict.status is Status.HOLDS, method
            assert verdict.diagnostics["wall_time_s"] >= 0
        with pytest.raises(ValueError, match="unknown method 'lanczos'"):
            verify(problem, "lanczos")

    def test_semidefinite_boundary_not_holds(self):
        # scalar cubic objective at its flat stationary point: zero curvature
        problem = Problem(jacobian=np.empty((0, 1)), hessian=np.zeros((1, 1)))
        for method in ("cholesky", "diagonalization", "pcg"):
            verdict = verify(problem, method)
            assert verdict.status is Status.ERROR, method
            assert verdict.reason == "semidefinite_boundary"

    def test_rank_deficient_jacobian_reported(self):
        problem = Problem(
            jacobian=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            hessian=np.eye(3),
        )
        for method in METHODS:
            verdict = verify(problem, method)
            assert verdict.status is Status.ERROR, method
            assert verdict.reason == "rank_deficient"

    def test_rank_guard_disabled_runs_anyway(self):
        problem = Problem(
            jacobian=np.array([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0]]),
            hessian=np.eye(3),
        )
        verdict = verify(problem, "cholesky", VerifyOptions(tol_rank=0.0))
        assert verdict.reason != "rank_deficient"

    def test_rank_guard_keeps_inertia_from_a_wrong_fails(self):
        # full rank but ill-conditioned: the SVD guard trips, the unpivoted
        # QR of A^T would not, and unguarded inertia misreads the KKT matrix
        problem = generate(GeneratorSpec(n=50, m=30, p=22, seed=1844278217))
        A = problem.jacobian
        assert problem.truth
        tol = default_rank_tolerance(A)
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        rmin = np.abs(np.diag(sla.qr(A.T, mode="r")[0][:30, :30])).min()
        assert np.linalg.cond(A) == pytest.approx(1.1e10, rel=0.05)
        assert smin == pytest.approx(4.9e-9, rel=0.05)
        assert tol == pytest.approx(1.4e-6, rel=0.05)
        assert rmin == pytest.approx(2.2e-5, rel=0.05)
        assert smin <= tol < rmin
        assert verify(problem, "inertia").status is not Status.FAILS
        unguarded = verify(problem, "inertia", VerifyOptions(tol_rank=0.0))
        assert unguarded.status is Status.FAILS
        assert unguarded.diagnostics["inertia"] == (49, 31, 0)

    def test_huge_finite_hessian_is_not_non_finite(self):
        # H + H^T overflows at 1e308; the symmetrized matrix stays finite.
        # bht stops at a singular minor: its roundoff floor scales with H,
        # the pivots of its seed with A (the H-versus-A scale defect)
        problem = Problem(np.array([[1.0, 0.0]]), np.diag([1.0, 1e308]))
        verdicts = {
            method: (v.status, v.reason)
            for method, v in ((m, verify(problem, m)) for m in METHODS)
        }
        assert verdicts == {
            "cholesky": (Status.HOLDS, None),
            "diagonalization": (Status.HOLDS, None),
            "pcg": (Status.HOLDS, None),
            "bht": (Status.ERROR, "singular_minor"),
            "inertia": (Status.HOLDS, None),
        }

    def test_pcg_restarts_log_at_debug(self, caplog):
        problem = generate(GeneratorSpec(n=40, m=10, p=40, seed=2))
        with caplog.at_level(logging.DEBUG, logger="curvcheck.sosc"):
            verdict = verify(problem, "pcg")
        restarts = verdict.diagnostics["continuations"]
        assert restarts > 0
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * restarts
        assert all(r.getMessage().startswith("pcg: sweep ") for r in caplog.records)
        caplog.clear()
        verify(problem, "pcg")
        assert not caplog.records

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p", [30, 12])
    def test_nonsymmetric_hessian_reads_as_its_symmetric_part(self, method, p):
        base = generate(GeneratorSpec(n=30, m=10, p=p, seed=5))
        K = np.random.default_rng(5).standard_normal((30, 30))
        H = base.hessian + (K - K.T)
        plain = verify(Problem(base.jacobian, H), method)
        symmetric = verify(Problem(base.jacobian, (H + H.T) / 2), method)
        assert plain.holds == base.truth
        assert plain.status == symmetric.status
        assert plain.step == symmetric.step
        assert (plain.diagnostics["operator_products"]
                == symmetric.diagnostics["operator_products"])

    @pytest.mark.parametrize("method", METHODS)
    def test_fd_sigma_option_sets_the_step(self, method):
        # verify steps FD_SIGMA (1 + |x|_inf); no option changes it.  Every
        # product is one gradient call past g(x): bht and inertia pay the N
        # products of materialize
        x0 = np.array([3.0, -1.0, 0.5, 2.0])
        points = []

        def grad(x):
            points.append(np.array(x))
            return np.array([1.0, 2.0, 3.0, 4.0]) * x

        problem = Problem(jacobian=np.array([[1.0, 1.0, 0.0, 0.0]]),
                          gradient=grad, x=x0)
        verdict = verify(problem, method)
        assert verdict.status is Status.HOLDS
        assert len(points) == verdict.diagnostics["operator_products"] + 1
        if method in ("bht", "inertia"):
            assert verdict.diagnostics["operator_products"] == 4
        np.testing.assert_array_equal(points[0], x0)
        steps = [np.linalg.norm(p - x0) for p in points[1:]]
        np.testing.assert_allclose(steps, 1e-6 * (1.0 + 3.0), rtol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_cross_method_agreement_with_oracle(self, seed):
        rng = np.random.default_rng(seed + 1000)
        n = int(rng.integers(6, 80))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        oracle = eigen_oracle(problem)
        assert oracle == problem.truth
        for method in METHODS:
            verdict = verify(problem, method)
            assert verdict.holds == oracle, (method, n, m, p)

    @pytest.mark.parametrize("method", ["cholesky", "diagonalization", "pcg"])
    def test_hessian_free_budget(self, method):
        problem = generate(GeneratorSpec(n=40, m=15, p=40, seed=2))
        verdict = verify(problem, method)
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["operator_products"] == problem.l

    @pytest.mark.parametrize("field, value", [
        ("tol_alpha", np.nan), ("tol_alpha", np.inf),
        ("tol_feas", -1e-8), ("tol_feas", np.nan), ("tol_feas", np.inf),
        ("pcg_tol", 0.0), ("pcg_tol", -1e-10), ("pcg_tol", np.inf),
        ("fd_sigma", 0.0), ("fd_sigma", -1e-6), ("fd_sigma", np.nan),
        ("tol_rank", -1.0), ("tol_rank", np.nan), ("tol_rank", np.inf),
        ("tol_rank", True), ("tol_rank", "0.5"),
    ])
    def test_options_out_of_range_are_rejected(self, field, value):
        # the verifiers read tol_alpha, tol_feas, pcg_tol and fd_sigma as
        # constants: they are no fields, and any value of one is refused
        if field == "tol_rank":
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                VerifyOptions(**{field: value})
        else:
            with pytest.raises(TypeError, match=f"'{field}'"):
                VerifyOptions(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # seed = -1 was accepted, and pcg then raised from default_rng
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
            VerifyOptions(seed=seed)

    def test_options_at_their_bounds_are_accepted(self):
        for tol_rank in (None, 0.0):
            VerifyOptions(tol_rank=tol_rank)
        VerifyOptions(seed=0)
        VerifyOptions(seed=np.int64(2**40))

    def test_fd_backed_thomson_holds(self):
        from curvcheck.stationary import solve_thomson
        from curvcheck.problems import ThomsonInstance, ThomsonProblem

        point = solve_thomson(3, seed=0)
        tp = ThomsonProblem(ThomsonInstance(3))
        problem = tp.as_problem(point.x, point.lam)
        verdict = verify(problem, "diagonalization")
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["operator_products"] == 3  # L = 2K - 3


# ---------------------------------------------------------------------------
# One rank guard
# ---------------------------------------------------------------------------


def thomson_problem(k, dense=False):
    """The frame-fixed Thomson problem at a solved point: behind the
    finite-difference operator, or with its analytic Hessian."""
    from curvcheck.stationary import solve_thomson

    point = solve_thomson(k, seed=0)
    tp = ThomsonProblem(ThomsonInstance(k))
    if dense:
        return Problem(tp.jacobian(point.x), tp.lagrangian_hessian(point.x, point.lam))
    return tp.as_problem(point.x, point.lam)


class TestOneRankGuard:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec(n=50, m=30, p=22, seed=1844278217),
        GeneratorSpec(n=1000, m=250, p=749, seed=4),
    ])
    def test_all_methods_decline_the_same_jacobian(self, spec):
        # full rank but ill-conditioned: the basis, projector and guard of
        # every method read one pivoted QR of A^T and trip together
        problem = generate(spec)
        for method in METHODS:
            verdict = verify(problem, method)
            assert (verdict.status, verdict.reason) == (
                Status.ERROR, "rank_deficient"), method

    def test_no_verify_path_runs_an_svd(self, monkeypatch):
        problems = [generate(GeneratorSpec(n=30, m=10, p=30, seed=1)),
                    generate(GeneratorSpec(n=30, m=10, p=12, seed=1)),
                    thomson_problem(4)]

        def forbidden(*args, **kwargs):
            raise AssertionError("SVD called")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(sla, "svd", forbidden)
        for problem in problems:
            for method in METHODS:
                verdict = verify(problem, method)
                # bht's leading block is singular at Thomson points
                assert verdict.status is not Status.ERROR or (
                    method == "bht" and verdict.reason == "singular_minor"), method

    def test_pivoted_guard_agrees_with_the_svd(self):
        # ill-conditioned seeded draws at N 10-200; the pivoted guard reads
        # |R_MM| >= sigma_min, so it can only miss an SVD trip, never add one
        trips = missed = 0
        draws = 400
        for seed in range(draws):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 201))
            m = int(rng.integers(1, n))
            A = generate(GeneratorSpec(n=n, m=m, p=n, seed=seed,
                                       conditioning="ill")).jacobian
            oracle = np.linalg.svd(A, compute_uv=False)[-1] <= default_rank_tolerance(A)
            try:
                check_full_rank(A)
                tripped = False
            except RankDeficientError:
                tripped = True
            assert oracle or not tripped, seed
            trips += tripped
            missed += oracle and not tripped
        assert trips >= draws // 2
        assert missed <= draws // 100

    def test_zero_jacobian_trips_the_default_guard(self):
        # the default tolerance sqrt(eps) |A|_F is 0 here; a 2-column basis
        # of the 3-dimensional null space would make the reduced tests hold
        problem = Problem(np.zeros((1, 3)), np.diag([-1.0, 2.0, 3.0]))
        with pytest.raises(RankDeficientError):
            check_full_rank(problem.jacobian)
        for method in METHODS:
            verdict = verify(problem, method)
            assert (verdict.status, verdict.reason) == (
                Status.ERROR, "rank_deficient"), method
        # only an explicit zero turns the guard off
        check_full_rank(problem.jacobian, 0.0)
        for method in METHODS:
            verdict = verify(problem, method, VerifyOptions(tol_rank=0.0))
            assert verdict.reason != "rank_deficient", method

    def test_tiny_full_rank_jacobian_passes_the_default_guard(self):
        # the default tolerance underflows to 0 while the pivot does not
        A = np.array([[1e-320, 0.0, 0.0]])
        assert default_rank_tolerance(A) == 0.0
        check_full_rank(A)

    @pytest.mark.parametrize("tol_rank", [None, 0.0])
    def test_basis_on_a_singular_leading_block(self, tol_rank):
        # the leading M x M block of A is singular here; the pivoted QR of
        # A^T does not depend on which columns of A come first
        options = VerifyOptions(tol_rank=tol_rank)
        problems = [Problem(np.array([[0.0, 0.0, 1.0]]), np.eye(3))]
        problems += [thomson_problem(k, dense=True) for k in (3, 4, 6)]
        for problem in problems:
            for method in ("cholesky", "diagonalization"):
                verdict = verify(problem, method, options)
                assert verdict.status is Status.HOLDS, (problem.n, method)
