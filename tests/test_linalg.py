"""Kernel-level tests: operators, bases, projectors, bordered LU, LDL."""

import functools
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from curvcheck import linalg
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
    build_kkt,
    generate,
)
from curvcheck.sosc import Status, bordered_hessian_test, continued_pcg
from curvcheck.stationary import solve_thomson


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

    def test_symmetrization_keeps_huge_finite_entries_finite(self):
        # H + H^T overflows above about 9e307; the halves are summed instead
        H = np.array([[1.0, 1.5e308], [1.7e308, 1e308]])
        op = HessianOperator.from_matrix(H)
        assert np.isfinite(op.matrix).all()
        np.testing.assert_array_equal(op.matrix, 0.5 * H + 0.5 * H.T)
        np.testing.assert_array_equal(op.matrix, op.matrix.T)

    def test_symmetrization_halves_only_the_overflowing_sums(self):
        # the off-diagonal sum overflows and is taken from the halves; the
        # subnormal diagonal entry keeps its halved sum, which the halves
        # 0.5 * 5e-324 + 0.5 * 5e-324 would round to 0
        H = np.array([[5e-324, 1.7e308], [1.5e308, 1.0]])
        S = HessianOperator.from_matrix(H).matrix
        assert S[0, 0] == 5e-324
        assert S[0, 1] == S[1, 0] == 0.5 * 1.7e308 + 0.5 * 1.5e308
        assert S[1, 1] == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetrization_keeps_every_finite_sum_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        exponents = rng.choice([-323, -310, -1, 0, 307, 308], size=(40, 40))
        H = rng.uniform(-1.7, 1.7, (40, 40)) * 10.0 ** exponents
        with np.errstate(over="ignore"):
            total = H + H.T
        finite = np.isfinite(total)
        assert not finite.all()
        S = linalg._symmetric_part(H)
        np.testing.assert_array_equal(S[finite].view(np.int64),
                                      (0.5 * total[finite]).view(np.int64))
        np.testing.assert_array_equal(S[~finite], 0.5 * H[~finite] + 0.5 * H.T[~finite])
        assert np.isfinite(S).all()
        assert linalg._bitwise_symmetric(S)

    def test_symmetrization_is_the_halved_sum_on_finite_sums(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((9, 9)) * np.logspace(-300, 300, 9)
        op = HessianOperator.from_matrix(H)
        np.testing.assert_array_equal(op.matrix, 0.5 * (H + H.T))
        assert op.matrix is not H

    @pytest.mark.parametrize("n", [5, 64, 300])
    def test_symmetric_part_is_the_halved_sum_bitwise(self, n):
        # the one symmetrization helper that the operator, the generator and
        # the compare oracle share gives 0.5 * (S + S^T) on finite sums
        rng = np.random.default_rng(n)
        for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):
            S = scale * rng.standard_normal((n, n))
            np.testing.assert_array_equal(linalg._symmetric_part(S), 0.5 * (S + S.T))

    def test_fd_exact_on_linear_gradient(self):
        # gradient of |x|^2/2 is x itself, so forward differencing is exact
        op = HessianOperator.from_gradient(lambda x: x, np.array([0.3, -1.2, 4.0]))
        out = op.apply(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_fd_zero_direction_raises(self):
        op = HessianOperator.from_gradient(lambda x: x, np.zeros(2))
        with pytest.raises(ZeroDirectionError):
            op.apply(np.zeros(2))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_fd_direction_norm_neither_overflows_nor_underflows(self, scale):
        # |s| of [1e200, 1e200] overflows and that of [1e-200, 1e-200]
        # underflows when summed unscaled
        op = HessianOperator.from_gradient(lambda x: 2.0 * x, np.zeros(2))
        out = op.apply(np.array([scale, scale]))
        np.testing.assert_allclose(out, [2.0 * scale, 2.0 * scale], rtol=1e-9)

    def test_dimension_mismatch(self):
        op = HessianOperator.from_matrix(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            op.apply(np.ones(4))
        with pytest.raises(DimensionMismatchError, match="3 rows"):
            op.apply_block(np.ones((4, 2)))
        with pytest.raises(DimensionMismatchError, match="square"):
            HessianOperator.from_matrix(np.ones((3, 2)))
        short = HessianOperator.from_callback(lambda s: s[:2], 3)
        with pytest.raises(DimensionMismatchError, match="wrong shape"):
            short.apply(np.ones(3))

    @pytest.mark.parametrize("sigma", [0.0, -1e-6])
    def test_fd_scale_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="must be positive"):
            HessianOperator.from_gradient(lambda x: x, np.zeros(2), sigma=sigma)

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

    @pytest.mark.parametrize("layout", [
        "nonsymmetric", "fortran", "strided", "strided_vector", "one", "huge",
    ])
    def test_dense_product_is_the_symmetric_part_times_s(self, layout):
        # a vector product reads one triangle of the stored symmetric part,
        # a block product all of it; both match a general product with that
        # part to a few ulps of |S| |s|
        rng = np.random.default_rng(11)
        n = 1 if layout == "one" else 37
        H = rng.standard_normal((n, n))
        s = rng.standard_normal(n)
        if layout == "fortran":
            H = np.asfortranarray(H)
        elif layout == "strided":
            H = rng.standard_normal((2 * n, 3 * n))[::2, ::3]
        elif layout == "strided_vector":
            s = rng.standard_normal(2 * n)[::2]
        elif layout == "huge":
            H *= 1e200
        op = HessianOperator.from_matrix(H)
        S = (H + H.T) / 2
        bound = 8 * np.finfo(float).eps * (np.abs(S) @ np.abs(s))
        assert (np.abs(op.apply(s) - S @ s) <= bound).all()
        assert (np.abs(op.apply_block(s[:, None])[:, 0] - S @ s) <= bound).all()
        assert op.product_count == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_dense_product_propagates_non_finite_entries(self, value):
        # an off-diagonal NaN or inf reaches both rows it sits in, also
        # through a zero entry of s, as with a general product
        H = np.eye(6)
        H[1, 4] = value
        op = HessianOperator.from_matrix(H)
        for s in (np.ones(6), np.eye(6)[0], np.eye(6)[4]):
            with np.errstate(invalid="ignore"):
                out, ref = op.apply(s), op.matrix @ s
            np.testing.assert_array_equal(out, ref)
            assert not np.isfinite(out[[1, 4]]).any()
            assert np.isfinite(np.delete(out, [1, 4])).all()

    def test_stored_matrix_is_c_ordered(self):
        # its transpose is then the Fortran-ordered array BLAS takes
        # without a per-product copy
        rng = np.random.default_rng(13)
        for H in (rng.standard_normal((5, 5)),
                  np.asfortranarray(rng.standard_normal((5, 5))),
                  rng.standard_normal((10, 10))[::2, ::2],
                  np.full((3, 3), 1e308)):
            op = HessianOperator.from_matrix(H)
            assert op.matrix.flags.c_contiguous
            assert op.matrix.T.flags.f_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_exactly_symmetric_matrix_is_stored_without_a_copy(self, order):
        # an H equal to its transpose bit for bit is its own halved sum: the
        # operator keeps a read-only, C-ordered view of it
        K = np.random.default_rng(17).standard_normal((40, 40))
        H = np.array(0.5 * (K + K.T), order=order)
        op = HessianOperator.from_matrix(H)
        assert np.shares_memory(op.matrix, H)
        assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable
        np.testing.assert_array_equal(op.matrix, 0.5 * (H + H.T))
        with pytest.raises(ValueError, match="read-only"):
            op.matrix[0, 0] = 1.0
        assert H.flags.writeable

    def test_signed_zeros_are_symmetrized(self):
        # 0.0 == -0.0, but the pair is not symmetric bit for bit, and its
        # halved sum is 0.0 on both sides
        H = np.array([[1.0, 0.0], [-0.0, 1.0]])
        op = HessianOperator.from_matrix(H)
        assert not np.shares_memory(op.matrix, H)
        assert not np.signbit(op.matrix).any()

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
        W = null_space_basis(np.array([[1.0, 0.0, 0.0]])).matrix
        assert W.shape == (3, 2)
        np.testing.assert_allclose(np.abs(np.array([[1.0, 0, 0]]) @ W), 0, atol=1e-14)
        # spans {e2, e3}: no component along e1
        np.testing.assert_allclose(W[0], 0, atol=1e-14)
        np.testing.assert_allclose(W.T @ W, np.eye(2), atol=1e-15)

    def test_third_axis(self):
        basis = null_space_basis(np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(basis.matrix[2], 0, atol=1e-14)
        # a 1-D Jacobian is read as one row; a 3-D one is refused
        row = null_space_basis(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(row.matrix, basis.matrix)
        assert row.jacobian.shape == (1, 3)
        with pytest.raises(DimensionMismatchError, match="2-D"):
            null_space_basis(np.zeros((1, 1, 3)))

    def test_matches_exact_generator_basis(self):
        problem = generate(GeneratorSpec(n=30, m=12, p=20, seed=3))
        basis = null_space_basis(problem.jacobian)
        angles = sla.subspace_angles(basis.matrix, problem.exact_basis)
        assert angles.max(initial=0.0) <= 1e-8

    def test_rank_deficient_raises(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficientError):
            null_space_basis(A)

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 201))
        m = int(rng.integers(2, n))
        A = rng.standard_normal((m, n))
        W = null_space_basis(A).matrix
        L = n - m
        assert W.shape == (n, L)
        assert np.linalg.matrix_rank(W) == L
        scale = np.linalg.norm(A, "fro") * np.linalg.norm(W, "fro")
        assert np.abs(A @ W).max() <= 1e-10 * scale
        assert np.abs(W.T @ W - np.eye(L)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_qr_at_is_the_trailing_columns_of_q(self, seed):
        # the basis is built without forming Q; it must still be the last
        # L columns of the full Q of the column-pivoted QR, so the verdicts
        # do not depend on how
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 301))
        m = int(rng.integers(1, n))
        A = rng.standard_normal((m, n))
        Q, _, _ = sla.qr(A.T, pivoting=True)
        W = null_space_basis(A, tol_rank=0.0).matrix
        assert W.flags.c_contiguous
        np.testing.assert_allclose(W, Q[:, m:], rtol=0, atol=1e-13)
        A[0, 1] = np.nan
        with pytest.raises(ValueError):
            null_space_basis(A)

    def test_unconstrained_identity(self):
        basis = null_space_basis(np.empty((0, 4)))
        np.testing.assert_array_equal(basis.matrix, np.eye(4))


# ---------------------------------------------------------------------------
# Projector
# ---------------------------------------------------------------------------


class ReferenceProjector:
    """The projector kept in compact WY form, kept as the oracle for the
    orthonormal-basis kernel: a Householder QR of ``[A^T P, appended]``,
    P the column pivoting of ``A^T``, grown by one reflector per constraint
    and per append; a projection applies ``Q^T``, zeroes the leading
    coordinates and applies ``Q``.  Like the projector at ``tol_rank=0``
    it has no rank guard."""

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.jacobian = A
        self.n_constraints, self.dimension = A.shape
        n = self.dimension
        self._refl = np.zeros((n, 0))
        self._tmat = np.zeros((0, 0))
        if self.n_constraints:
            (packed, tau), _, _ = sla.qr(A.T, mode="raw", pivoting=True)
            for j in range(self.n_constraints):
                v = np.zeros(n)
                v[j] = 1.0
                v[j + 1 :] = packed[j + 1 :, j]
                self._grow(v, float(tau[j]))

    def _grow(self, v, beta):
        c = self._refl.shape[1]
        tcol = -beta * (self._tmat @ (self._refl.T @ v))
        self._tmat = np.block([[self._tmat, tcol[:, None]],
                               [np.zeros((1, c)), np.full((1, 1), beta)]])
        self._refl = np.column_stack([self._refl, v])

    def _qt(self, r):
        V, T = self._refl, self._tmat
        return r - V @ (T.T @ (V.T @ r))

    def project(self, r):
        c = self._refl.shape[1]
        t = self._qt(np.asarray(r, dtype=float))
        t[:c] = 0.0
        V, T = self._refl, self._tmat
        return t - V @ (T @ (V.T @ t))

    def append_column(self, q):
        """Append the columns of an N-vector or N x k block one at a time;
        return how many were skipped, raising when none is kept."""
        Q = np.asarray(q, dtype=float).reshape(self.dimension, -1)
        skipped = 0
        for column in Q.T:
            try:
                self._append_one(column)
            except DependentColumnError:
                skipped += 1
        if skipped == Q.shape[1]:
            raise DependentColumnError(f"all {skipped} columns dependent")
        return skipped

    def _append_one(self, q):
        tol = np.sqrt(np.finfo(float).eps) * np.linalg.norm(q)
        c = self._refl.shape[1]
        tail = self._qt(q)[c:]
        residual = float(np.linalg.norm(tail))
        if c >= self.dimension or residual <= tol:
            raise DependentColumnError(f"residual {residual:.3e}")
        alpha = -np.copysign(residual, tail[0] if tail[0] != 0 else 1.0)
        u = np.zeros(self.dimension)
        u[c:] = tail
        u[c] -= alpha
        self._grow(u, 2.0 / float(u @ u))


def pcg_outcome(problem, projector_class, seed):
    verdict = continued_pcg(HessianOperator.from_matrix(problem.hessian),
                            projector_class(problem.jacobian), seed=seed)
    diag = verdict.diagnostics
    return (verdict.status, verdict.step, verdict.reason,
            diag["operator_products"], diag["continuations"])


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

    def test_append_removes_the_direction_of_a_huge_column(self):
        # the reflector of a column near 1e200 must not overflow, which
        # would leave it the identity and drop the basis's first column
        # instead of the column's direction
        proj = NullSpaceProjector(np.empty((0, 4)))
        with np.errstate(over="raise"):
            proj.append_column(np.array([0.0, 1e200, 0.0, 0.0]))
        np.testing.assert_allclose(proj.project(np.ones(4)), [1.0, 0.0, 1.0, 1.0],
                                   atol=1e-14)

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

    @pytest.mark.parametrize("m", [0, 1, 7, 20])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_householder_reference(self, m, seed):
        rng = np.random.default_rng(seed)
        n = 40
        A = rng.standard_normal((m, n))
        proj, ref = NullSpaceProjector(A), ReferenceProjector(A)
        for k in range(n - m):
            r = rng.standard_normal(n)
            np.testing.assert_allclose(proj.project(r), ref.project(r),
                                       rtol=0, atol=1e-12 * np.linalg.norm(r))
            q = rng.standard_normal(n)
            proj.append_column(q)
            ref.append_column(q)
        assert proj.n_appended == n - m
        np.testing.assert_array_equal(proj.project(rng.standard_normal(n)), 0.0)
        # nothing is left to remove
        for projector in (proj, ref):
            with pytest.raises(DependentColumnError):
                projector.append_column(rng.standard_normal(n))

    @pytest.mark.parametrize("m", [0, 5])
    def test_dependent_column_rejected_like_reference(self, m):
        rng = np.random.default_rng(m)
        n = 12
        A = rng.standard_normal((m, n))
        appended = rng.standard_normal((n, 3))
        proj, ref = NullSpaceProjector(A), ReferenceProjector(A)
        for projector in (proj, ref):
            for q in appended.T:
                projector.append_column(q)
        # a combination of the rows of A and of the appended columns adds
        # nothing, nor does one that leaves the span by less than
        # sqrt(eps) |q|; both projectors keep their state after rejecting it
        q = appended @ rng.standard_normal(3) + A.T @ rng.standard_normal(m)
        inside = proj.project(rng.standard_normal(n))
        inside *= np.linalg.norm(q) / np.linalg.norm(inside)
        for q_out in (q, q + 1e-9 * inside):
            for projector in (proj, ref):
                with pytest.raises(DependentColumnError):
                    projector.append_column(q_out)
        assert proj.n_appended == 3
        r = rng.standard_normal(n)
        np.testing.assert_allclose(proj.project(r), ref.project(r),
                                   rtol=0, atol=1e-12 * np.linalg.norm(r))
        # just above the threshold the column is taken
        for projector in (proj, ref):
            projector.append_column(q + 1e-7 * inside)
        assert proj.n_appended == 4

    def test_symmetric_and_idempotent_after_many_appends(self):
        rng = np.random.default_rng(7)
        n, m = 120, 30
        A = rng.standard_normal((m, n))
        proj = NullSpaceProjector(A)
        for _ in range(n - m - 4):
            proj.append_column(rng.standard_normal(n))
        for _ in range(5):
            r, s = rng.standard_normal(n), rng.standard_normal(n)
            pr, ps = proj.project(r), proj.project(s)
            scale = np.linalg.norm(r) * np.linalg.norm(s)
            assert abs(s @ pr - r @ ps) <= 1e-13 * scale
            np.testing.assert_allclose(proj.project(pr), pr, rtol=0,
                                       atol=1e-13 * np.linalg.norm(r))
            assert np.abs(A @ pr).max() <= 1e-13 * np.linalg.norm(r) * np.linalg.norm(A)

    @pytest.mark.parametrize("m", [0, 5])
    def test_block_skips_a_dependent_middle_column_like_reference(self, m):
        rng = np.random.default_rng(10 + m)
        n = 12
        A = rng.standard_normal((m, n))
        q1, q2, q4 = rng.standard_normal((3, n))
        block = np.column_stack([q1, q2, q1 + q2, q4])
        proj, ref = NullSpaceProjector(A), ReferenceProjector(A)
        assert proj.append_column(block) == 1
        assert ref.append_column(block) == 1
        assert proj.n_appended == 3
        for _ in range(3):
            r = rng.standard_normal(n)
            np.testing.assert_allclose(proj.project(r), ref.project(r),
                                       rtol=0, atol=1e-12 * np.linalg.norm(r))

    def test_all_dependent_block_raises_and_keeps_the_subspace(self):
        rng = np.random.default_rng(3)
        n, m = 10, 3
        A = rng.standard_normal((m, n))
        held = rng.standard_normal((n, 2))
        proj, ref = NullSpaceProjector(A), ReferenceProjector(A)
        for projector in (proj, ref):
            projector.append_column(held)
        r = rng.standard_normal(n)
        before = proj.project(r)
        block = np.column_stack([held.sum(axis=1), 2.0 * held[:, 0],
                                 A.T @ rng.standard_normal(m), np.zeros(n)])
        for projector in (proj, ref):
            with pytest.raises(DependentColumnError):
                projector.append_column(block)
        assert proj.n_appended == 2
        np.testing.assert_array_equal(proj.project(r), before)

    def test_block_wider_than_the_subspace_keeps_its_dimension(self):
        rng = np.random.default_rng(4)
        n, m, k = 8, 3, 7
        A = rng.standard_normal((m, n))
        block = rng.standard_normal((n, k))
        proj, ref = NullSpaceProjector(A), ReferenceProjector(A)
        assert proj.append_column(block) == k - (n - m)
        assert ref.append_column(block) == k - (n - m)
        assert proj.n_appended == n - m
        np.testing.assert_array_equal(proj.project(rng.standard_normal(n)), 0.0)

    def test_block_removes_the_direction_of_a_huge_column(self):
        # the huge column is kept and the next column, inside its span
        # plus e_1, removes e_1 only
        proj = NullSpaceProjector(np.empty((0, 4)))
        block = np.column_stack([[0.0, 1e200, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        with np.errstate(over="raise"):
            assert proj.append_column(block) == 0
        np.testing.assert_allclose(proj.project(np.ones(4)), [0.0, 0.0, 1.0, 1.0],
                                   atol=1e-14)

    @pytest.mark.parametrize("n", [10, 11])
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_projection_side_switches_at_half_the_dimension(self, n, m):
        # d = N - m runs from N/2 + 1 down across N/2 by single appends:
        # the projection goes through C while 2d > N, through Z after, and
        # both agree with the reference, before and after Z is formed
        rng = np.random.default_rng(100 * n + m)
        A = rng.standard_normal((m, n))
        proj, ref = NullSpaceProjector(A), ReferenceProjector(A)
        appended = np.zeros((n, 0))
        for _ in range(3):
            r = rng.standard_normal(n)
            p = proj.project(r)
            np.testing.assert_allclose(p, ref.project(r), rtol=0,
                                       atol=1e-13 * np.linalg.norm(r))
            scale = np.linalg.norm(r) * max(np.linalg.norm(A), 1.0)
            assert np.abs(A @ p).max(initial=0.0) <= 1e-13 * scale
            assert np.abs(appended.T @ p).max(initial=0.0) <= 1e-13 * scale
            q = rng.standard_normal(n)
            for projector in (proj, ref):
                projector.append_column(q)
            appended = np.column_stack([appended, q])

    def test_early_failure_matches_the_reference_without_an_append(self):
        # pcg meets negative curvature in its first sweep, so the projector
        # is never appended to and Z never formed: every projection goes
        # through the complement, 2d > N
        appends = []

        class Recording(NullSpaceProjector):
            def append_column(self, q):
                appends.append(np.shape(q))
                return super().append_column(q)

        problem = generate(GeneratorSpec(n=200, m=50, p=149, seed=1))
        H = HessianOperator.from_matrix(problem.hessian)
        unguarded = functools.partial(Recording, tol_rank=0.0)
        outcome = pcg_outcome(problem, unguarded, 1)
        assert outcome[0] is Status.FAILS and outcome[4] == 0
        assert appends == []
        assert outcome == pcg_outcome(problem, ReferenceProjector, 1)
        verdict = continued_pcg(H, unguarded(problem.jacobian), seed=1)
        expected = continued_pcg(H, ReferenceProjector(problem.jacobian), seed=1)
        np.testing.assert_allclose(verdict.direction, expected.direction, rtol=1e-8,
                                   atol=1e-10 * np.linalg.norm(expected.direction))

    def test_continued_pcg_appends_each_converged_sweep_once(self):
        # three distinct eigenvalues: each sweep converges in three steps
        calls = []

        class Recording(NullSpaceProjector):
            def append_column(self, q):
                calls.append(np.shape(q))
                return super().append_column(q)

        n = 12
        H = np.diag(np.tile([1.0, 2.0, 5.0], n // 3))
        verdict = continued_pcg(HessianOperator.from_matrix(H),
                                Recording(np.empty((0, n))), seed=1)
        assert verdict.holds
        assert verdict.diagnostics["continuations"] == len(calls) > 0
        assert all(shape[0] == n and len(shape) == 2 for shape in calls)
        assert sum(shape[1] for shape in calls) < n

    def test_continued_pcg_matches_householder_reference(self):
        # seeded generator draws at N 4-200, alternately well and
        # ill-conditioned, alternately holding and failing; the oracle has
        # no rank guard, so neither has the projector
        unguarded = functools.partial(NullSpaceProjector, tol_rank=0.0)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 201))
            m = int(rng.integers(1, n))
            p = int(rng.integers(n - m, n + 1) if seed % 2 else rng.integers(0, n - m))
            problem = generate(GeneratorSpec(
                n=n, m=m, p=p, seed=seed,
                conditioning="ill" if seed % 4 >= 2 else "well",
            ))
            assert (pcg_outcome(problem, unguarded, seed)
                    == pcg_outcome(problem, ReferenceProjector, seed)), seed


# ---------------------------------------------------------------------------
# Bordered LU
# ---------------------------------------------------------------------------


class TestBorderedLu:
    def test_hand_example(self):
        # grow [[0,1],[1,2]] by a zero border and diagonal 2: det -2
        B = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        assert list(BorderedLu(B, 2).update(1)) == [-1]

    def test_non_finite_pivot_has_no_sign(self):
        # an overflowed seed factor leaves every later sign undefined: the
        # sign reads 0 and an update raises, rather than int(NaN) raising
        B = np.array([[np.nan, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        lu = BorderedLu(B, 2)
        assert lu.sign == 0
        with pytest.raises(FloatingPointError):
            lu.update(1)

    def test_diagonal_growth_sign_flip(self):
        rng = np.random.default_rng(1)
        B = np.zeros((6, 6))
        B[:4, :4] = rng.standard_normal((4, 4))
        B[4, 4], B[5, 5] = 3.0, -2.0
        lu = BorderedLu(B, 4)
        base = lu.sign
        assert list(lu.update(1)) == [base]
        assert list(lu.update(1)) == [-base]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fresh_determinants(self, seed):
        rng = np.random.default_rng(seed)
        n0 = int(rng.integers(1, 6))
        total = int(rng.integers(n0 + 1, 100))
        B = rng.standard_normal((total, total))
        B = 0.5 * (B + B.T)
        lu = BorderedLu(B, n0)
        for dim in range(n0 + 1, total + 1):
            (sign,) = lu.update(1)
            assert sign == naive_det_sign(B[:dim, :dim]), f"minor {dim}"

    def test_singular_growth_raises(self):
        lu = BorderedLu(np.diag([1.0, 1.0, 0.0]), 2)
        with pytest.raises(SingularMinorError):
            lu.update(1)

    def test_shapes_are_checked(self):
        with pytest.raises(DimensionMismatchError, match="must be square"):
            BorderedLu(np.ones((2, 3)), 2)
        for n0 in (-1, 4):
            with pytest.raises(DimensionMismatchError, match=f"seed order {n0} is outside 0..3"):
                BorderedLu(np.eye(3), n0)

    def test_from_empty_seed(self):
        lu = BorderedLu(np.diag([-5.0, 1.0]), 0)
        assert list(lu.update(1)) == [-1]
        assert list(lu.update(1)) == [-1]

    def test_update_is_clamped_to_the_columns_left(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((9, 9))
        B = G @ G.T + 9 * np.eye(9)
        lu = BorderedLu(B, 3)
        assert lu.update(0).size == 0
        assert lu.dim == 3
        assert list(lu.update(100)) == [1] * 6
        assert lu.dim == 9
        for k in (0, 1, 100):
            assert lu.update(k).size == 0
        assert (lu.dim, lu.sign) == (9, 1)
        assert BorderedLu(B, 9).update(5).size == 0

    def test_recovers_from_singular_intermediate(self):
        # leading 1x1 minor is exactly zero; later minors are fine
        B = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        lu = BorderedLu(B, 1)
        assert list(lu.update(1)) == [naive_det_sign(B[:2, :2])]
        assert list(lu.update(1)) == [naive_det_sign(B)]

    @staticmethod
    def grow(B, n0, width):
        """Signs of the leading minors of B past the n0 x n0 seed, from
        updates of up to ``width`` columns, asking for the rest again after
        a short update.  Also returns the dimension of the minor that
        raised :class:`SingularMinorError`, or None."""
        lu = BorderedLu(B, n0)
        signs = []
        d = n0
        while d < B.shape[0]:
            try:
                got = list(lu.update(width))
            except SingularMinorError:
                return signs, d + 1
            assert 1 <= len(got) <= min(width, B.shape[0] - d)
            signs += got
            d += len(got)
        return signs, None

    @pytest.mark.parametrize("case", ["random", "zero_seed", "stall", "singular"])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_border_matches_single_columns(self, case, seed, monkeypatch):
        # "zero_seed": the seed minor is exactly zero, so the first column
        # refactors; "stall": one pivot is cut to 1e-10 of its column scale,
        # below the stall threshold and above the singular floor, so the
        # grown matrix is refactored; "singular": one leading minor has a
        # zero column and must raise at the same dimension on every path
        rng = np.random.default_rng(seed)
        total = int(rng.integers(12, 80))
        B = rng.standard_normal((total, total))
        B = 0.5 * (B + B.T)
        n0 = 1 if case == "zero_seed" else int(rng.integers(0, 5))
        d = int(rng.integers(n0 + 3, total - 1))
        if case == "zero_seed":
            B[0, 0] = 0.0
        elif case == "stall":
            b = B[: d - 1, d - 1]
            scale = np.abs(B[:d, d - 1]).max()
            B[d - 1, d - 1] = (b @ np.linalg.solve(B[: d - 1, : d - 1], b)
                               + rng.choice([-1.0, 1.0]) * 1e-10 * scale)
        elif case == "singular":
            B[:d, d - 1] = 0.0
            B[d - 1, :d] = 0.0

        refactors = []
        original = linalg._lu_with_parity
        monkeypatch.setattr(
            linalg, "_lu_with_parity",
            lambda C: refactors.append(C.shape[0]) or original(C),
        )
        runs = []
        for width in (1, 3, total):
            refactors.clear()
            runs.append(self.grow(B, n0, width))
            assert runs[-1] == runs[0], f"width {width}"
            if case in ("zero_seed", "stall"):
                # the constructor factors the seed; the rest are refactors
                assert len(refactors) > 1
        signs, raised = runs[0]
        assert raised == (d if case == "singular" else None)
        for dim, sign in enumerate(signs, start=n0 + 1):
            assert sign == naive_det_sign(B[:dim, :dim]), f"minor {dim}"

    def test_stalled_pivot_refactor_logs_at_debug(self, caplog):
        # the second pivot of [[1, 1], [1, 1 + 1e-10]] stalls below 1e-8 of
        # its column scale, so the grown matrix is refactored densely
        B = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
        with caplog.at_level(logging.DEBUG, logger="curvcheck.linalg"):
            assert list(BorderedLu(B, 1).update(1)) == [1]
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert "refactoring the leading 2 x 2 block densely" in caplog.text
        caplog.clear()
        BorderedLu(B, 1).update(1)
        assert not caplog.records

    def test_pending_border_reads_like_the_assembled_one(self):
        # dim and sign come from the kept pivots before the next update
        # assembles the extended factors
        rng = np.random.default_rng(7)
        B = rng.standard_normal((30, 30))
        B = B @ B.T + 30 * np.eye(30)
        B[12:, 12:] -= 100 * np.eye(18)
        lu = BorderedLu(B, 4)
        assert list(lu.update(8)) == [1] * 8
        assert (lu.dim, lu.sign) == (12, 1)
        got = lu.update(18)
        assert got[0] == naive_det_sign(B[:13, :13]) == -1
        assert (lu.dim, lu.sign) == (13, -1)
        assert list(lu.update(1)) == [naive_det_sign(B[:14, :14])]

    def test_bht_holds_with_one_update_and_no_assembly(self, monkeypatch):
        # the whole border is absorbed by one update, and nothing reads
        # the extended factors afterwards, so none are assembled
        problem = generate(GeneratorSpec(n=60, m=20, p=60, seed=1))
        updates, assembled = [], []
        update, commit = BorderedLu.update, BorderedLu._commit

        def counted_commit(self):
            if self._pending is not None:
                assembled.append(self.dim)
            return commit(self)

        monkeypatch.setattr(
            BorderedLu, "update", lambda self, *a: updates.append(1) or update(self, *a)
        )
        monkeypatch.setattr(BorderedLu, "_commit", counted_commit)
        verdict = bordered_hessian_test(problem.hessian, problem.jacobian)
        assert verdict.holds
        assert verdict.diagnostics["minors"] == 40
        assert (len(updates), len(assembled)) == (1, 0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_inputs_are_left_alone(self, order, k):
        # the triangular solves, the Schur complement and dpotrf work in
        # place on the update's own arrays, never on B; k = 300 takes two
        # tries of the doubling factorization
        rng = np.random.default_rng(k)
        G = rng.standard_normal((k + 6, k + 6))
        B = np.array(G @ G.T + (k + 6) * np.eye(k + 6), order=order)
        kept = B.copy()
        lu = BorderedLu(B, 4)
        assert list(lu.update(k)) == [1] * k
        # a second update assembles the first border's factors
        assert list(lu.update(2)) == [1, 1]
        np.testing.assert_array_equal(B, kept)

    def test_read_only_matrix_is_absorbed_to_the_end(self):
        # a stall refactor and a doubling Cholesky run on a read-only B
        rng = np.random.default_rng(5)
        G = rng.standard_normal((40, 40))
        B = G @ G.T + 40 * np.eye(40)
        b = B[:19, 19]
        B[19, 19] = b @ np.linalg.solve(B[:19, :19], b) + 1e-10 * np.abs(B[:20, 19]).max()
        B.flags.writeable = False
        kept = B.copy()
        lu = BorderedLu(B, 2)
        signs = []
        while lu.dim < 40:
            signs += list(lu.update(40))
        assert signs == [naive_det_sign(B[:d, :d]) for d in range(3, 41)]
        np.testing.assert_array_equal(B, kept)

    def test_holds_no_copy_of_the_matrix(self):
        # a 1500 x 1500 B of 18 MB: factoring an 8 x 8 seed and absorbing
        # four columns allocates a few kB, not a copy of B
        rng = np.random.default_rng(6)
        B = rng.standard_normal((1500, 1500))
        B = B + B.T + 3000 * np.eye(1500)
        tracemalloc.start()
        try:
            signs = BorderedLu(B, 8).update(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(signs) == [1] * 4
        assert peak < B.nbytes / 100

    def test_floors_stay_finite_near_the_overflow_threshold(self):
        # |B|_F of these finite entries overflows; the singular floors are
        # scaled by dim * eps before it is formed, so they stay finite and
        # the exactly zero Schur pivot is reported as singular
        a = 1e308
        B = np.array([[0.0, a, a], [a, a, 0.0], [a, 0.0, -a]])
        lu = BorderedLu(B, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMinorError) as exc:
                lu.update(1)
        assert "inf" not in str(exc.value)


class TestLeadingCholesky:
    """The doubling factorization behind the Cholesky and bordered Hessian
    tests, with a small first block so that small matrices take several
    tries."""

    @staticmethod
    def factor(S, first, monkeypatch, rejects=lambda p: False, in_place=False):
        monkeypatch.setattr(linalg, "_FIRST_BLOCK", first)
        work = np.full(S.shape, np.nan, order="F")
        fills = []

        def fill(done, size):
            fills.append((done, size))
            work[:size, done:size] = S[:size, done:size]

        factor, pivots = linalg._leading_cholesky(work, fill, rejects, in_place)
        return factor, pivots, fills, work

    @staticmethod
    def with_pivots(d, seed=0):
        """A symmetric matrix whose Cholesky pivots are ``d`` until the
        first nonpositive one."""
        n = d.size
        rng = np.random.default_rng(seed)
        F = np.eye(n) + np.tril(rng.standard_normal((n, n)), -1) / n
        S = (F * d) @ F.T
        return 0.5 * (S + S.T)

    def test_tries_double_up_to_the_order(self, monkeypatch):
        S = self.with_pivots(np.linspace(1.0, 2.0, 10))
        factor, pivots, fills, work = self.factor(S, 2, monkeypatch)
        assert fills == [(0, 2), (2, 4), (4, 8), (8, 10)]
        full, info = sla.lapack.dpotrf(S)
        assert info == 0
        np.testing.assert_allclose(pivots, np.diag(full) ** 2, rtol=1e-12)
        np.testing.assert_allclose(np.triu(factor), full, rtol=1e-12, atol=1e-14)
        # each try factored a copy: the filled entries are kept
        np.testing.assert_array_equal(np.triu(work), np.triu(S))

    @pytest.mark.parametrize("first", [2, 3, 16])
    def test_one_try_when_the_first_block_holds_the_order(self, first, monkeypatch):
        S = self.with_pivots(np.ones(3))
        _, pivots, fills, _ = self.factor(S, first, monkeypatch)
        assert fills == ([(0, 2), (2, 3)] if first == 2 else [(0, 3)])
        assert pivots.size == 3

    @pytest.mark.parametrize("step, tries", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (9, 4)])
    def test_stops_at_the_block_of_the_first_negative_pivot(self, step, tries, monkeypatch):
        d = np.ones(10)
        d[step - 1] = -1.0
        _, pivots, fills, _ = self.factor(self.with_pivots(d), 2, monkeypatch)
        assert len(fills) == tries
        assert pivots.size == step - 1

    def test_stops_at_the_block_of_the_first_rejected_pivot(self, monkeypatch):
        d = np.ones(10)
        d[4] = 1e-3
        _, pivots, fills, _ = self.factor(
            self.with_pivots(d), 2, monkeypatch, rejects=lambda p: (p < 0.1).any()
        )
        assert fills == [(0, 2), (2, 4), (4, 8)]
        assert pivots.size == 8
        assert pivots[4] == pytest.approx(1e-3)

    def test_in_place_only_at_the_full_order(self, monkeypatch):
        S = self.with_pivots(np.linspace(1.0, 2.0, 6))
        factor, _, fills, work = self.factor(S, 4, monkeypatch, in_place=True)
        assert fills == [(0, 4), (4, 6)]
        assert np.shares_memory(factor, work)
        d = np.ones(6)
        d[1] = -1.0
        factor, _, fills, work = self.factor(self.with_pivots(d), 4, monkeypatch,
                                             in_place=True)
        assert fills == [(0, 4)]
        assert not np.shares_memory(factor, work)


def sequential_swaps(piv):
    """The permutation and parity of LAPACK row interchanges, applied one
    at a time: the oracle for the ``dlaswp`` read."""
    perm = np.arange(len(piv))
    parity = 1
    for i, p in enumerate(piv):
        if p != i:
            perm[i], perm[p] = perm[p], perm[i]
            parity = -parity
    return perm, parity


class TestLuWithParity:
    @staticmethod
    def check(B):
        n = B.shape[0]
        lu, perm, parity = linalg._lu_with_parity(B)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lufac, piv = sla.lu_factor(B)
        ref_perm, ref_parity = sequential_swaps(piv)
        np.testing.assert_array_equal(perm, ref_perm)
        assert parity == ref_parity
        np.testing.assert_array_equal(lu, lufac)
        lower = np.tril(lu, -1) + np.eye(n)
        np.testing.assert_allclose(
            lower @ np.triu(lu), B[perm], atol=1e-12 * max(1.0, np.abs(B).max()) * n
        )
        return parity

    def test_empty(self):
        lu, perm, parity = linalg._lu_with_parity(np.zeros((0, 0)))
        assert lu.shape == (0, 0) and perm.size == 0 and parity == 1

    @pytest.mark.parametrize("B", [[[3.0]], [[1.0, 2.0], [3.0, 4.0]],
                                   [[4.0, 2.0], [3.0, 1.0]]])
    def test_small(self, B):
        self.check(np.array(B))

    def test_swap_parity_of_a_2x2(self):
        assert self.check(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_up_to_400(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 401))
        self.check(rng.standard_normal((n, n)))

    def test_exactly_singular(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((40, 40))
        B[:, 17] = 0.0
        lu, _, _ = linalg._lu_with_parity(B)
        assert np.count_nonzero(np.diag(lu) == 0.0) == 1
        self.check(B)


# ---------------------------------------------------------------------------
# LDL factorization and inertia
# ---------------------------------------------------------------------------


def reference_ldl_inertia(K):
    """The inertia read kept as the oracle for the ``dsytrf`` read:
    ``scipy.linalg.ldl`` builds D as a matrix, and a loop walks its blocks,
    taking a nonzero subdiagonal entry as the start of a 2x2 block that it
    scales by its largest entry before reading the signs of its determinant
    and trace."""
    _, d, _ = sla.ldl(K, lower=True)
    n = d.shape[0]
    pos = neg = zero = 0
    i = 0
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0.0:
            a, bb, c = float(d[i, i]), float(d[i + 1, i]), float(d[i + 1, i + 1])
            big = max(abs(a), abs(bb), abs(c))
            a, bb, c = a / big, bb / big, c / big
            det = a * c - bb * bb
            tr = a + c
            if det < 0.0:
                pos += 1
                neg += 1
            elif det > 0.0:
                if tr > 0.0:
                    pos += 2
                else:
                    neg += 2
            else:
                # one zero eigenvalue; the other has the sign of the trace
                zero += 1
                if tr > 0.0:
                    pos += 1
                elif tr < 0.0:
                    neg += 1
                else:
                    zero += 1
            i += 2
        else:
            v = d[i, i]
            if v > 0.0:
                pos += 1
            elif v < 0.0:
                neg += 1
            else:
                zero += 1
            i += 1
    return (pos, neg, zero)


def _symmetric(rng, n):
    K = rng.standard_normal((n, n))
    return K + K.T


ORACLE_KINDS = ("random", "kkt", "zero_diagonal", "singular", "one_by_one", "thomson")


def _oracle_cases(kind):
    """Seeded symmetric matrices of one kind for the inertia oracle."""
    if kind == "thomson":
        for k in range(4, 13):
            point = solve_thomson(k, seed=0)
            tprob = ThomsonProblem(ThomsonInstance(k))
            yield build_kkt(tprob.lagrangian_hessian(point.x, point.lam),
                            tprob.jacobian(point.x))
        return
    for seed in range(60 if kind in ("random", "kkt") else 30):
        rng = np.random.default_rng([seed, ORACLE_KINDS.index(kind)])
        n = int(rng.integers(1, 61))
        if kind == "random":
            yield _symmetric(rng, n)
        elif kind == "kkt":
            # M = 0 on every fourth draw, H = 0 on every fifth
            m = 0 if seed % 4 == 0 else int(rng.integers(1, n + 1))
            H = np.zeros((n, n)) if seed % 5 == 0 else _symmetric(rng, n)
            yield build_kkt(H, rng.standard_normal((m, n)))
        elif kind == "zero_diagonal":
            K = _symmetric(rng, n + 1)
            np.fill_diagonal(K, 0.0)
            yield K
        elif kind == "singular":
            # integer entries, one row and column repeated and one zeroed
            K = rng.integers(-3, 4, (n + 2, n + 2)).astype(float)
            K = K + K.T
            i, j, z = rng.choice(n + 2, 3, replace=False)
            K[j], K[:, j] = K[i], K[:, i]
            K[j, j] = K[i, i]
            K[z], K[:, z] = 0.0, 0.0
            yield K
        else:  # one_by_one
            yield np.array([[(-1.0, 0.0, 1.0)[seed % 3] * rng.random()]])


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
        with pytest.raises(DimensionMismatchError, match="square"):
            ldl_factor(np.zeros((2, 3)))

    def test_symmetry_check_does_not_overflow(self):
        # |K|_F of a 1e200 matrix overflows as a plain sum of squares
        problem = generate(GeneratorSpec(n=12, m=3, p=12, seed=4))
        K = build_kkt(problem.hessian, problem.jacobian)
        scaled = 1e200 * K
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ldl_factor(scaled).inertia == ldl_factor(K).inertia == (12, 3, 0)
            scaled[0, 1] += 1e199
            with pytest.raises(ValueError, match="not symmetric"):
                ldl_factor(scaled)

    def test_input_not_overwritten(self):
        K = _symmetric(np.random.default_rng(3), 30)
        kept = K.copy()
        ldl_factor(K)
        np.testing.assert_array_equal(K, kept)

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_symmetric_input_factors_like_its_fortran_copy(self, n):
        # an exactly symmetric C-ordered K reaches dsytrf as K^T, which has
        # the same entries; the factor and pivots are those of a Fortran
        # copy of K, bit for bit, and K is left as it was
        problem = generate(GeneratorSpec(n=n + 1, m=1, p=n // 2, seed=n))
        K = build_kkt(problem.operator().matrix, problem.jacobian)
        assert K.flags.c_contiguous and np.array_equal(K, K.T)
        kept = K.copy()
        lwork, _ = sla.lapack.dsytrf_lwork(K.shape[0], lower=1)
        factor, ipiv, _ = sla.lapack.dsytrf(np.asfortranarray(K), lower=1, lwork=int(lwork))
        fact = ldl_factor(K)
        np.testing.assert_array_equal(fact.factor, factor)
        np.testing.assert_array_equal(fact.ipiv, ipiv)
        np.testing.assert_array_equal(K, kept)

    def test_nearly_symmetric_input_factors_its_lower_triangle(self):
        # a K symmetric to 1e-8 but not bit for bit is passed as given, so
        # dsytrf reads its own lower triangle
        K = _symmetric(np.random.default_rng(5), 30)
        K[0, 1] += 1e-12
        lwork, _ = sla.lapack.dsytrf_lwork(30, lower=1)
        factor, ipiv, _ = sla.lapack.dsytrf(K, lower=1, lwork=int(lwork))
        fact = ldl_factor(K)
        np.testing.assert_array_equal(fact.factor, factor)
        np.testing.assert_array_equal(fact.ipiv, ipiv)
        upper, _, _ = sla.lapack.dsytrf(K.T, lower=1, lwork=int(lwork))
        assert not np.array_equal(fact.factor, upper)

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
        # the factor is a valid one: LAPACK solves K x = b with it
        b = rng.standard_normal((n, 2))
        x, info = sla.lapack.dsytrs(fact.factor, fact.ipiv, b, lower=1)
        assert info == 0
        residual = np.linalg.norm(K @ x - b)
        assert residual <= 1e-10 * np.linalg.norm(K, 2) * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_inertia_matches_reference(self, kind):
        cases = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in _oracle_cases(kind):
                for scale in (1.0, 1e200, 1e-200):
                    inertia = ldl_factor(scale * K).inertia
                    assert inertia == reference_ldl_inertia(scale * K), (kind, cases)
                    # a zeroed row and column leave an exact zero pivot
                    assert kind != "singular" or inertia[2] >= 1
                    cases += 1
        assert cases >= 27

    def test_zero_diagonal_forces_consecutive_blocks(self):
        # the zero-diagonal oracle cases do exercise runs of 2x2 blocks
        runs = 0
        for K in _oracle_cases("zero_diagonal"):
            starts = np.flatnonzero(ldl_factor(K).ipiv < 0)[0::2]
            runs += int(np.any(np.diff(starts) == 2))
        assert runs > 0

    def test_two_by_two_blocks_present(self):
        # strongly indefinite with zero diagonal forces 2x2 pivots
        K = np.array([[0.0, 1.0], [1.0, 0.0]])
        fact = ldl_factor(K)
        assert fact.inertia == (1, 1, 0)
        np.testing.assert_array_equal(fact.ipiv, [-2, -2])
