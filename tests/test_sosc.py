"""Verifier-level tests: hand cases, certificates, cross-method agreement."""

import numpy as np
import pytest
import scipy.linalg as sla

from curvcheck.linalg import (
    HessianOperator,
    NullSpaceBasis,
    NullSpaceProjector,
    default_rank_tolerance,
    null_space_basis,
)
from curvcheck.problems import GeneratorSpec, Problem, generate, near_rank_deficient_kkt
from curvcheck.sosc import (
    METHODS,
    Status,
    VerifyOptions,
    bordered_hessian_test,
    cholesky_negative_direction,
    continued_pcg,
    diagonalization,
    implicit_cholesky,
    inertia_test,
    verify,
)

VARIANTS = ["modified", "classical"]


def adhoc_basis(W, A=None):
    return NullSpaceBasis(np.asarray(W, dtype=float), "qr_at", False, A)


def op(H):
    return HessianOperator.from_matrix(np.asarray(H, dtype=float))


def eigen_oracle(problem):
    """Sign of the smallest reduced eigenvalue over the exact basis."""
    W = problem.exact_basis
    reduced = W.T @ problem.hessian @ W
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0]) > 0


# ---------------------------------------------------------------------------
# Implicit Cholesky
# ---------------------------------------------------------------------------


class TestImplicitCholesky:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_identity_holds(self, variant):
        verdict = implicit_cholesky(op(np.eye(3)), adhoc_basis(np.eye(3)[:, :2]),
                                    variant=variant)
        assert verdict.status is Status.HOLDS
        np.testing.assert_allclose(verdict.diagnostics["alphas"], [1.0, 1.0])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_indefinite_fails_with_direction(self, variant):
        H = np.diag([1.0, -1.0, 1.0])
        verdict = implicit_cholesky(op(H), adhoc_basis(np.eye(3)[:, :2]),
                                    variant=variant)
        assert verdict.status is Status.FAILS
        assert verdict.step == 2
        d = verdict.direction / np.linalg.norm(verdict.direction)
        np.testing.assert_allclose(np.abs(d), [0.0, 1.0, 0.0], atol=1e-14)
        assert verdict.curvature == pytest.approx(-1.0)

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

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_direction_curvature_equals_pivot(self, variant, seed):
        problem = generate(GeneratorSpec(n=20, m=6, p=int(seed % 13), seed=seed))
        basis = null_space_basis(problem.jacobian)
        hessian = op(problem.hessian)
        verdict = implicit_cholesky(hessian, basis, variant=variant)
        if verdict.status is Status.FAILS:
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

    def test_trace_direction_requires_negative_pivot(self):
        from curvcheck.sosc import CholeskyTrace

        trace = CholeskyTrace(np.array([1.0, 2.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cholesky_negative_direction(trace, np.eye(2), 2)


# ---------------------------------------------------------------------------
# Diagonalization
# ---------------------------------------------------------------------------


class TestDiagonalization:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_identity_holds(self, variant):
        verdict = diagonalization(op(np.eye(3)), adhoc_basis(np.eye(3)[:, :2]),
                                  variant=variant)
        assert verdict.status is Status.HOLDS

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_indefinite_fails_with_conjugated_vector(self, variant):
        H = np.diag([1.0, -1.0, 1.0])
        verdict = diagonalization(op(H), adhoc_basis(np.eye(3)[:, :2]),
                                  variant=variant)
        assert verdict.status is Status.FAILS and verdict.step == 2
        np.testing.assert_allclose(verdict.direction, [0.0, 1.0, 0.0], atol=1e-14)

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
        L = basis.n_columns
        u, _ = np.linalg.qr(rng.standard_normal((L, L)))
        v, _ = np.linalg.qr(rng.standard_normal((L, L)))
        svals = np.exp(rng.uniform(np.log(0.05), np.log(50.0), L))  # cond <= 1e3
        S = u @ np.diag(svals) @ v
        transformed = NullSpaceBasis(basis.matrix @ S, basis.method, False,
                                     problem.jacobian)
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

    def test_breakdown_on_boundary(self):
        # the classic first-step breakdown seed; BLAS dots leave eta at
        # roundoff scale rather than exactly zero, which is what tol_alpha
        # is for
        H = np.diag([1.0, -1.0])
        verdict = continued_pcg(op(H), trivial_projector(2),
                                b0=np.array([1.0, 1.0]), tol_alpha=1e-12)
        assert verdict.status is Status.ERROR
        assert verdict.reason == "semidefinite_boundary"

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

    def test_identity_holds_with_unit_product_budget(self):
        n = 7
        verdict = continued_pcg(op(np.eye(n)), trivial_projector(n), seed=1)
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["operator_products"] == n
        # every sweep on the identity converges in one step
        assert verdict.diagnostics["continuations"] == n - 1

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
        verdict = continued_pcg(op(H), NullSpaceProjector(problem.jacobian),
                                seed=seed, keep_directions=True)
        assert verdict.status is Status.HOLDS
        dirs = verdict.diagnostics["directions"]
        sizes = verdict.diagnostics["sweep_sizes"]
        assert sum(sizes) == len(dirs) == problem.l
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
        verdict = bordered_hessian_test(2.0 * np.eye(2), np.array([[1.0, 0.0]]))
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["minors"] == 1

    def test_indefinite_fails_without_direction(self):
        verdict = bordered_hessian_test(np.diag([1.0, -1.0]), np.array([[1.0, 0.0]]))
        assert verdict.status is Status.FAILS
        assert verdict.direction is None

    def test_singular_minor_is_inconclusive(self):
        # leading column of A is zero, so the first bordered minor vanishes
        verdict = bordered_hessian_test(np.eye(3), np.array([[0.0, 0.0, 1.0]]))
        assert verdict.status is Status.ERROR
        assert verdict.reason == "singular_minor"

    def test_operator_backed_hessian_is_materialized(self):
        H = np.diag([2.0, 3.0])
        hessian = HessianOperator.from_callback(lambda s: H @ s, 2)
        verdict = bordered_hessian_test(hessian, np.array([[1.0, 0.0]]))
        assert verdict.status is Status.HOLDS
        assert hessian.product_count == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_sign_sequence_matches_truth(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        verdict = bordered_hessian_test(problem.hessian, problem.jacobian)
        assert verdict.status is not Status.ERROR
        assert verdict.holds == problem.truth


# ---------------------------------------------------------------------------
# Inertia test
# ---------------------------------------------------------------------------


class TestInertia:
    def test_holds(self):
        verdict = inertia_test(np.eye(2), np.array([[1.0, 0.0]]))
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["inertia"] == (2, 1, 0)

    def test_fails(self):
        verdict = inertia_test(np.diag([1.0, -1.0]), np.array([[1.0, 0.0]]))
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
        verdict = inertia_test(H, A)
        assert verdict.status in (Status.HOLDS, Status.FAILS)
        assert "inertia" in verdict.diagnostics

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_truth_well_conditioned(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        verdict = inertia_test(problem.hessian, problem.jacobian)
        assert verdict.holds == problem.truth


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


class TestVerify:
    def test_identity_problem_all_methods(self):
        problem = Problem(jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=np.eye(3))
        for method in ("cholesky", "diagonalization", "pcg", "inertia"):
            verdict = verify(problem, method)
            assert verdict.status is Status.HOLDS, method
            assert verdict.diagnostics["wall_time_s"] >= 0

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

    def test_fd_sigma_option_sets_the_step(self):
        x0 = np.array([3.0, -1.0, 0.5, 2.0])
        points = []

        def grad(x):
            points.append(np.array(x))
            return np.array([1.0, 2.0, 3.0, 4.0]) * x

        problem = Problem(jacobian=np.array([[1.0, 1.0, 0.0, 0.0]]),
                          gradient=grad, x=x0)
        verdict = verify(problem, "cholesky", VerifyOptions(fd_sigma=1e-3))
        assert verdict.status is Status.HOLDS
        assert len(points) == verdict.diagnostics["operator_products"] + 1
        np.testing.assert_array_equal(points[0], x0)
        steps = [np.linalg.norm(p - x0) for p in points[1:]]
        np.testing.assert_allclose(steps, 1e-3 * (1.0 + 3.0), rtol=1e-9)

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

    def test_classical_variants_cross_check(self):
        problem = generate(GeneratorSpec(n=30, m=10, p=12, seed=9))
        for method in ("cholesky", "diagonalization"):
            modified = verify(problem, method, VerifyOptions(variant="modified"))
            classical = verify(problem, method, VerifyOptions(variant="classical"))
            assert modified.status == classical.status

    def test_fd_backed_thomson_holds(self):
        from curvcheck.stationary import solve_thomson
        from curvcheck.problems import ThomsonInstance, ThomsonProblem

        point = solve_thomson(3, seed=0)
        tp = ThomsonProblem(ThomsonInstance(3))
        problem = tp.as_problem(point.x, point.lam)
        verdict = verify(problem, "diagonalization")
        assert verdict.status is Status.HOLDS
        assert verdict.diagnostics["operator_products"] == 3  # L = 2K - 3
