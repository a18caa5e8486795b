"""Kernel-level tests: operators, bases, projectors, bordered LU, LDL."""

import numpy as np
import pytest
import scipy.linalg as sla

from curvcheck.linalg import (
    BorderedLu,
    DependentColumnError,
    DimensionMismatchError,
    HessianOperator,
    NullSpaceProjector,
    RankDeficientError,
    SingularMinorError,
    ZeroDirectionError,
    ldl_factor,
    null_space_basis,
)
from curvcheck.problems import (
    GeneratorSpec,
    ThomsonInstance,
    ThomsonProblem,
    generate,
)


def naive_det_sign(B):
    """Independent determinant-sign oracle."""
    sign, _ = np.linalg.slogdet(B)
    return int(sign)


# ---------------------------------------------------------------------------
# HessianOperator
# ---------------------------------------------------------------------------


class TestHessianOperator:
    def test_identity_apply(self):
        op = HessianOperator.from_matrix(np.eye(3))
        s = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(op.apply(s), s)
        assert op.product_count == 1

    def test_explicit_symmetrized(self):
        H = np.array([[1.0, 2.0], [0.0, 3.0]])
        op = HessianOperator.from_matrix(H)
        np.testing.assert_allclose(op.matrix, np.array([[1.0, 1.0], [1.0, 3.0]]))

    def test_fd_exact_on_linear_gradient(self):
        # gradient of |x|^2/2 is x itself, so forward differencing is exact
        op = HessianOperator.from_gradient(lambda x: x, np.array([0.3, -1.2, 4.0]))
        out = op.apply(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_fd_zero_direction_raises(self):
        op = HessianOperator.from_gradient(lambda x: x, np.zeros(2))
        with pytest.raises(ZeroDirectionError):
            op.apply(np.zeros(2))

    def test_dimension_mismatch(self):
        op = HessianOperator.from_matrix(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            op.apply(np.ones(4))

    def test_fd_matches_analytic_on_sphere_energy(self):
        # antipodal two-point configuration; multipliers make it stationary
        tp = ThomsonProblem(ThomsonInstance(2))
        x = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
        lam = np.array([-0.25, -0.25, 0.0, 0.0, 0.0])
        H = tp.lagrangian_hessian(x, lam)
        fd = HessianOperator.from_gradient(tp.lagrangian_gradient, x, lam, sigma=1e-6)
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = rng.standard_normal(6)
            s /= np.linalg.norm(s)
            exact = H @ s
            approx = fd.apply(s)
            assert np.linalg.norm(approx - exact) <= 1e-5 * np.linalg.norm(exact)

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((6, 6))
        op = HessianOperator.from_matrix(H)
        s = rng.standard_normal(6)
        np.testing.assert_allclose(op.apply(3.5 * s), 3.5 * op.apply(s), rtol=1e-13)
        # FD variant on a quadratic Lagrangian: gradient is linear in x
        Hs = 0.5 * (H + H.T)
        fd = HessianOperator.from_gradient(lambda x: Hs @ x, rng.standard_normal(6))
        dev = fd.apply(2.0 * s) - 2.0 * fd.apply(s)
        assert np.linalg.norm(dev) <= 10 * 1e-6 * np.linalg.norm(fd.apply(s))

    def test_block_apply_counts(self):
        op = HessianOperator.from_matrix(np.eye(4))
        out = op.apply_block(np.eye(4)[:, :3])
        assert out.shape == (4, 3)
        assert op.product_count == 3

    def test_materialize_from_callback(self):
        H = np.array([[2.0, 1.0], [1.0, -1.0]])
        op = HessianOperator.from_callback(lambda s: H @ s, 2)
        np.testing.assert_allclose(op.materialize(), H, atol=1e-14)

    def test_fd_gradient_calls(self):
        # g(x) is evaluated once, at the first product: k products cost
        # k + 1 gradient calls
        x0 = np.array([0.5, -2.0, 1.0])
        calls = []

        def grad(x):
            calls.append(np.array(x))
            return 2.0 * x

        op = HessianOperator.from_gradient(grad, x0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            op.apply(rng.standard_normal(3))
        op.apply_block(rng.standard_normal((3, 2)))
        assert op.product_count == 5
        assert len(calls) == 6
        np.testing.assert_array_equal(calls[0], x0)
        assert not any(np.array_equal(c, x0) for c in calls[1:])

    def test_constructor_needs_product(self):
        with pytest.raises(TypeError):
            HessianOperator(3)
        op = HessianOperator(3, lambda s: 2.0 * s)
        np.testing.assert_array_equal(op.apply(np.ones(3)), np.full(3, 2.0))
        assert op.matrix is None
        assert op.product_count == 1


# ---------------------------------------------------------------------------
# Null-space bases
# ---------------------------------------------------------------------------


class TestNullSpaceBasis:
    def test_coordinate_plane(self):
        basis = null_space_basis(np.array([[1.0, 0.0, 0.0]]), "qr_at")
        W = basis.matrix
        assert W.shape == (3, 2)
        np.testing.assert_allclose(np.abs(np.array([[1.0, 0, 0]]) @ W), 0, atol=1e-14)
        # spans {e2, e3}: no component along e1
        np.testing.assert_allclose(W[0], 0, atol=1e-14)
        assert basis.orthonormal

    def test_third_axis(self):
        basis = null_space_basis(np.array([[0.0, 0.0, 1.0]]), "qr_at")
        np.testing.assert_allclose(basis.matrix[2], 0, atol=1e-14)

    def test_matches_exact_generator_basis(self):
        problem = generate(GeneratorSpec(n=30, m=12, p=20, seed=3))
        for method in ("svd", "qr_at", "qr_a", "lu_a"):
            basis = null_space_basis(problem.jacobian, method)
            angles = sla.subspace_angles(basis.matrix, problem.exact_basis)
            assert angles.max(initial=0.0) <= 1e-8

    def test_rank_deficient_raises(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficientError):
            null_space_basis(A, "qr_at")
        with pytest.raises(RankDeficientError):
            null_space_basis(A, "svd")

    @pytest.mark.parametrize("method", ["svd", "qr_at", "qr_a", "lu_a"])
    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_random(self, method, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 201))
        m = int(rng.integers(2, n))
        A = rng.standard_normal((m, n))
        basis = null_space_basis(A, method)
        W = basis.matrix
        L = n - m
        assert W.shape == (n, L)
        assert np.linalg.matrix_rank(W) == L
        scale = np.linalg.norm(A, "fro") * np.linalg.norm(W, "fro")
        assert np.abs(A @ W).max() <= 1e-10 * scale
        if basis.orthonormal:
            assert np.abs(W.T @ W - np.eye(L)).max() <= 1e-12

    def test_unconstrained_identity(self):
        basis = null_space_basis(np.empty((0, 4)))
        np.testing.assert_array_equal(basis.matrix, np.eye(4))


# ---------------------------------------------------------------------------
# Projector
# ---------------------------------------------------------------------------


class TestProjector:
    def test_hand_case(self):
        proj = NullSpaceProjector(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(proj.project(np.array([3.0, 4.0])), [0.0, 4.0],
                                   atol=1e-14)

    def test_oblique_unit_row(self):
        a = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        proj = NullSpaceProjector(a)
        # r - a a^T r for the unit row a
        np.testing.assert_allclose(proj.project(np.array([1.0, 0.0])), [0.5, -0.5],
                                   atol=1e-14)

    def test_fixed_point_and_idempotence(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 8))
        proj = NullSpaceProjector(A)
        r = rng.standard_normal(8)
        p = proj.project(r)
        assert np.abs(A @ p).max() <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(A)
        np.testing.assert_allclose(proj.project(p), p, atol=1e-12 * np.linalg.norm(r))

    def test_append_to_empty(self):
        proj = NullSpaceProjector(np.empty((0, 3)))
        proj.append_column(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(proj.project(np.array([1.0, 0.0, 0.0])), 0,
                                   atol=1e-14)

    def test_append_annihilates(self):
        proj = NullSpaceProjector(np.array([[0.0, 0.0, 1.0]]))
        proj.append_column(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(proj.project(np.array([1.0, 1.0, 0.0])),
                                   [0.0, 1.0, 0.0], atol=1e-14)
        assert proj.n_appended == 1

    def test_dependent_column_rejected(self):
        proj = NullSpaceProjector(np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(DependentColumnError):
            proj.append_column(np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_sequential_appends_stay_annihilated(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((2, 10))
        proj = NullSpaceProjector(A)
        appended = []
        for _ in range(5):
            q = rng.standard_normal(10)
            proj.append_column(q)
            appended.append(q)
            r = rng.standard_normal(10)
            p = proj.project(r)
            for prior in appended:
                assert abs(prior @ p) <= 1e-10 * np.linalg.norm(r) * np.linalg.norm(prior)
            assert np.abs(A @ p).max() <= 1e-10 * np.linalg.norm(r) * np.linalg.norm(A)


# ---------------------------------------------------------------------------
# Bordered LU
# ---------------------------------------------------------------------------


class TestBorderedLu:
    def test_hand_example(self):
        # grow [[0,1],[1,2]] by a zero border and diagonal 2: det -2
        lu = BorderedLu(np.array([[0.0, 1.0], [1.0, 2.0]]))
        sign = lu.update(np.zeros(2), 2.0)
        assert sign == -1

    def test_diagonal_growth_sign_flip(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((4, 4))
        lu = BorderedLu(B)
        base = lu.sign
        assert lu.update(np.zeros(4), 3.0) == base
        assert lu.update(np.zeros(5), -2.0) == -base

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fresh_determinants(self, seed):
        rng = np.random.default_rng(seed)
        n0 = int(rng.integers(1, 6))
        total = int(rng.integers(n0 + 1, 100))
        B = rng.standard_normal((total, total))
        B = 0.5 * (B + B.T)
        lu = BorderedLu(B[:n0, :n0])
        for dim in range(n0 + 1, total + 1):
            sign = lu.update(B[: dim - 1, dim - 1], B[dim - 1, dim - 1])
            assert sign == naive_det_sign(B[:dim, :dim]), f"minor {dim}"

    def test_singular_growth_raises(self):
        lu = BorderedLu(np.eye(2))
        with pytest.raises(SingularMinorError):
            lu.update(np.zeros(2), 0.0)

    def test_from_empty_seed(self):
        lu = BorderedLu(np.zeros((0, 0)))
        assert lu.update(np.zeros(0), -5.0) == -1
        assert lu.update(np.array([0.0]), 1.0) == -1

    def test_recovers_from_singular_intermediate(self):
        # leading 1x1 minor is exactly zero; later minors are fine
        B = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        lu = BorderedLu(B[:1, :1])
        assert lu.update(B[:1, 1], B[1, 1]) == naive_det_sign(B[:2, :2])
        assert lu.update(B[:2, 2], B[2, 2]) == naive_det_sign(B)


# ---------------------------------------------------------------------------
# LDL factorization and inertia
# ---------------------------------------------------------------------------


class TestLdlFactor:
    def test_signature_matrix(self):
        fact = ldl_factor(np.diag([1.0, -1.0]))
        assert fact.inertia == (1, 1, 0)

    def test_small_kkt_blocks(self):
        K = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert ldl_factor(K).inertia == (2, 1, 0)
        K2 = np.array([[1.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        assert ldl_factor(K2).inertia == (1, 2, 0)

    def test_zero_pivot_counted(self):
        fact = ldl_factor(np.zeros((3, 3)))
        assert fact.inertia == (0, 0, 3)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ldl_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_inertia_matches_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 101))
        K = rng.standard_normal((n, n))
        K = 0.5 * (K + K.T)
        eigs = np.linalg.eigvalsh(K)
        if np.abs(eigs).min() <= 1e-6 * np.linalg.norm(K):
            pytest.skip("eigenvalue too close to zero for a clean count")
        fact = ldl_factor(K)
        expected = (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)), 0)
        assert fact.inertia == expected
        # reconstruction sanity on the small ones
        if n <= 40:
            err = np.linalg.norm(fact.reconstruct() - K, "fro")
            assert err <= 1e-10 * np.linalg.norm(K, "fro")

    def test_two_by_two_blocks_present(self):
        # strongly indefinite with zero diagonal forces 2x2 pivots
        K = np.array([[0.0, 1.0], [1.0, 0.0]])
        fact = ldl_factor(K)
        assert fact.inertia == (1, 1, 0)
