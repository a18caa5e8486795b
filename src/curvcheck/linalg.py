"""Dense linear-algebra kernels shared by the curvature tests.

This module provides the low-level machinery the definiteness tests are
built from:

  - :class:`HessianOperator`: the action ``s -> H s`` as one product
    callable, built from an explicit dense matrix (kept, symmetrized once,
    for the classical tests), a matrix-vector callback, or a directional
    finite difference of a Lagrangian-gradient callback.
  - :func:`check_full_rank`: the one constraint-rank guard, which reads
    |R_ii| of a column-pivoted Householder QR of ``A^T`` (LAPACK
    ``dgeqp3``), computed there or passed by a caller that holds it.
  - :func:`null_space_basis`: the orthonormal basis of ``null(A)`` from
    that QR of ``A^T`` (its reflectors applied to ``[0; I_L]``, the full Q
    never formed), guarded by the same |R_ii|.
  - :class:`NullSpaceProjector`: the orthogonal projector onto ``null(A)``
    intersected with the complement of appended columns, through an
    orthonormal basis of that subspace that starts as the null-space
    basis; a block of k columns is appended at once, the basis rotated by
    their Householder reflectors in compact WY form (LAPACK ``dgeqrt`` and
    ``dgemqrt``) and shorn of one column per column kept.
  - :class:`BorderedLu`: an LU factorization of a matrix that grows by
    symmetric borders, tracking determinant signs exactly; a border of k
    columns is absorbed at once through the Cholesky factor of its Schur
    complement.
  - :func:`ldl_factor`: one blocked Bunch-Kaufman LDL factorization
    (LAPACK ``dsytrf``), with the inertia counted exactly from the 1x1 and
    2x2 blocks of D, which ``ipiv`` locates.

Dense Hessians are symmetrized only in :meth:`HessianOperator.from_matrix`;
the kernels below take their inputs as given.

All operations are pure functions of their inputs except the operator's
product counter.  Arrays are never modified in place by callers' views.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

__all__ = [
    "DimensionMismatchError",
    "ZeroDirectionError",
    "RankDeficientError",
    "DependentColumnError",
    "SingularMinorError",
    "HessianOperator",
    "NullSpaceBasis",
    "null_space_basis",
    "default_rank_tolerance",
    "check_full_rank",
    "NullSpaceProjector",
    "BorderedLu",
    "LdlFactorization",
    "ldl_factor",
]

_EPS = float(np.finfo(float).eps)


class DimensionMismatchError(ValueError):
    """Operand shapes are inconsistent with the operator or factorization."""


class ZeroDirectionError(ValueError):
    """A finite-difference product was requested for the zero vector."""


class RankDeficientError(RuntimeError):
    """Constraint Jacobian is numerically rank deficient (LICQ fails)."""


class DependentColumnError(RuntimeError):
    """A column appended to a projector lies in the span already held."""


class SingularMinorError(RuntimeError):
    """A leading minor is numerically singular; its determinant sign is
    unreliable."""


# ---------------------------------------------------------------------------
# Hessian operator
# ---------------------------------------------------------------------------


class HessianOperator:
    """The action ``s -> H s`` of a symmetric matrix, with product counting.

    Every operator is one product callable ``matvec`` on vectors of length
    ``dimension``; the constructors differ only in the callable they build:

    - :meth:`from_matrix` stores ``(H + H^T)/2`` in :attr:`matrix` and
      multiplies by it.  This is the one place a dense Hessian is
      symmetrized; the classical tests read :attr:`matrix` as is.
    - :meth:`from_callback` calls a user function computing ``H s``.
    - :meth:`from_gradient` approximates ``H s`` from a Lagrangian-gradient
      callback ``g`` as ``(|s|/h) * (g(x + h*s/|s|) - g(x))`` with step
      ``h = sigma * (1 + |x|_inf)``, an O(sigma) approximation.

    :attr:`matrix` is None for the product-backed operators.
    ``product_count`` increases by one per single apply and by ``k`` per
    ``k``-column block apply.  Instances are safe to share across threads as
    long as user callbacks are reentrant; the counter uses plain integer
    increments.
    """

    def __init__(
        self,
        dim: int,
        matvec: Callable[[np.ndarray], np.ndarray],
        matrix: Optional[np.ndarray] = None,
    ):
        if dim < 1:
            raise ValueError("operator dimension must be positive")
        self.dimension = int(dim)
        self.matrix = matrix
        self._matvec = matvec
        self.product_count = 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "HessianOperator":
        """Wrap an explicit dense matrix, stored as ``(H + H^T)/2``."""
        H = np.asarray(matrix, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DimensionMismatchError("explicit Hessian must be square")
        H = 0.5 * (H + H.T)
        return cls(H.shape[0], H.__matmul__, H)

    @classmethod
    def from_callback(cls, matvec: Callable[[np.ndarray], np.ndarray], dim: int) -> "HessianOperator":
        """Wrap a callback computing ``H s`` for an N-vector ``s``."""

        def checked(s: np.ndarray) -> np.ndarray:
            out = np.asarray(matvec(s), dtype=float)
            if out.shape != (dim,):
                raise DimensionMismatchError("callback returned a wrong shape")
            return out

        return cls(dim, checked)

    @classmethod
    def from_gradient(
        cls,
        grad: Callable,
        x: np.ndarray,
        lam: Optional[np.ndarray] = None,
        sigma: float = 1e-6,
    ) -> "HessianOperator":
        """Finite-difference operator from a Lagrangian-gradient callback.

        ``grad`` is called as ``grad(x, lam)`` when multipliers are given and
        ``grad(x)`` otherwise; it must return the gradient of the Lagrangian
        at the supplied point with the multipliers held fixed.  ``g(x)`` is
        evaluated once, at the first product, so ``k`` products cost ``k + 1``
        gradient calls.
        """
        x = np.array(x, dtype=float)
        if sigma <= 0:
            raise ValueError("finite-difference scale sigma must be positive")
        extra = () if lam is None else (np.array(lam, dtype=float),)
        h = float(sigma) * (1.0 + float(np.linalg.norm(x, np.inf)))
        g0 = None

        def difference(s: np.ndarray) -> np.ndarray:
            nonlocal g0
            nrm = float(np.linalg.norm(s))
            if nrm == 0.0:
                raise ZeroDirectionError("finite differencing needs s != 0")
            if g0 is None:
                g0 = np.asarray(grad(x, *extra), dtype=float)
            g1 = np.asarray(grad(x + (h / nrm) * s, *extra), dtype=float)
            return (nrm / h) * (g1 - g0)

        return cls(x.size, difference)

    # -- application --------------------------------------------------------

    def apply(self, s: np.ndarray) -> np.ndarray:
        """Return ``H s``; increments the product counter by one."""
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected vector of length {self.dimension}, got shape {s.shape}"
            )
        out = self._matvec(s)
        self.product_count += 1
        return out

    def apply_block(self, S: np.ndarray) -> np.ndarray:
        """Return ``H S`` for an N x k block; counter increases by ``k``."""
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"expected block with {self.dimension} rows, got shape {S.shape}"
            )
        if self.matrix is not None:
            self.product_count += S.shape[1]
            return self.matrix @ S
        cols = [self.apply(S[:, j]) for j in range(S.shape[1])]
        return np.column_stack(cols) if cols else np.empty((self.dimension, 0))

    def materialize(self) -> np.ndarray:
        """Assemble a dense symmetric matrix from the operator.

        Explicit operators return a copy; callback and finite-difference
        operators apply the operator to all N coordinate directions (N
        products) and symmetrize the result.
        """
        if self.matrix is not None:
            return self.matrix.copy()
        H = self.apply_block(np.eye(self.dimension))
        return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Null-space bases
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class NullSpaceBasis:
    """An N x L matrix whose columns span ``null(A)``.

    ``jacobian`` keeps the matrix the basis was computed from so failure
    certificates can be re-verified against it; ad-hoc bases may leave it
    None.
    """

    matrix: np.ndarray
    jacobian: Optional[np.ndarray] = None


def default_rank_tolerance(A: np.ndarray) -> float:
    """Default LICQ guard: sqrt(machine eps) times the Frobenius norm.

    BLAS ``dnrm2`` scales as it sums, so the squares of finite entries
    neither overflow nor underflow.
    """
    A = np.asarray(A, dtype=float)
    return np.sqrt(_EPS) * float(sla.blas.dnrm2(A.ravel())) if A.size else 0.0


def _as_jacobian(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise DimensionMismatchError("constraint Jacobian must be 2-D")
    M, N = A.shape
    if M >= N and M > 0:
        raise DimensionMismatchError(
            f"need fewer constraints than variables, got shape {A.shape}"
        )
    return A


def _pivoted_qr(X: np.ndarray):
    """Column-pivoted Householder QR ``X P = Q R`` (LAPACK ``dgeqp3``): the
    reflectors with R in their upper triangle, their scalars, and the
    0-based column order of P.

    The workspace is queried first: at its default ``lwork`` ``dgeqp3``
    runs unblocked, about 1.4x slower on a 1000 x 250 matrix.
    """
    X = np.asarray_chkfinite(X, dtype=float)
    work = sla.lapack.dgeqp3(X, lwork=-1)[3]
    qr, jpvt, tau, _, _ = sla.lapack.dgeqp3(X, lwork=int(work[0]))
    return qr, tau, jpvt - 1


def check_full_rank(
    A: np.ndarray,
    tol_rank: Optional[float] = None,
    pivots: Optional[np.ndarray] = None,
) -> None:
    """Raise :class:`RankDeficientError` when A is rank deficient to tol.

    The guard compares the smallest of ``pivots`` in absolute value with
    ``tol_rank``.  ``pivots`` is the diagonal R_ii of the column-pivoted
    QR of ``A^T`` when the caller already holds it; without it that QR is
    computed here, and only when the guard is on.
    ``tol_rank=None`` uses :func:`default_rank_tolerance`; ``tol_rank=0``
    disables the guard entirely (only exact rank collapse is reported by
    downstream factorizations).
    """
    A = _as_jacobian(A)
    if tol_rank is None:
        tol_rank = default_rank_tolerance(A)
    if A.shape[0] == 0 or not tol_rank > 0:
        return
    if pivots is None:
        pivots = np.diag(_pivoted_qr(A.T)[0])
    smallest = np.abs(pivots).min()
    if smallest <= tol_rank:
        raise RankDeficientError(
            f"smallest pivot {smallest:.3e} <= tolerance {tol_rank:.3e}"
        )


def _qr_at(A: np.ndarray, tol_rank: Optional[float]) -> np.ndarray:
    """The trailing L columns of Q, Fortran-ordered, from the column-pivoted
    QR ``A^T P = Q R`` of an M x N Jacobian with M > 0, once the rank guard
    has passed on its |R_ii|.  Pivoting reorders the rows of A only, so
    these columns span ``null(A)``; the reflectors are applied to
    ``[0; I_L]`` without forming Q."""
    M, N = A.shape
    qr, tau, _ = _pivoted_qr(A.T)
    check_full_rank(A, tol_rank, np.diag(qr))
    W = np.zeros((N, N - M), order="F")
    W[M:] = np.eye(N - M)
    _, work, _ = sla.lapack.dormqr("L", "N", qr, tau, W, -1)
    W, _, _ = sla.lapack.dormqr("L", "N", qr, tau, W, int(work[0]), overwrite_c=1)
    return W


def null_space_basis(
    A: np.ndarray,
    tol_rank: Optional[float] = None,
) -> NullSpaceBasis:
    """Orthonormal basis of ``null(A)`` for a full-row-rank M x N Jacobian.

    Parameters
    ----------
    A : ndarray, shape (M, N), M < N
        Constraint Jacobian (rows are constraint gradients).
    tol_rank : float, optional
        Rank guard threshold (:func:`check_full_rank`), read from |R_ii| of
        the column-pivoted QR ``A^T P = Q R`` whose last L columns of Q are
        the basis; None selects sqrt(eps)*|A|_F, zero disables.  With
        M = 0 the basis is ``I_N``.

    Raises
    ------
    RankDeficientError
        When A is rank deficient to ``tol_rank``; callers must not proceed
        to the curvature tests in that case.
    """
    A = _as_jacobian(A)
    if A.shape[0] == 0:
        return NullSpaceBasis(np.eye(A.shape[1]), A)
    return NullSpaceBasis(np.ascontiguousarray(_qr_at(A, tol_rank)), A)


# ---------------------------------------------------------------------------
# Updatable projector
# ---------------------------------------------------------------------------


class NullSpaceProjector:
    """Orthogonal projector onto ``null(A)`` minus appended directions.

    The projector holds ``Z``, an orthonormal N x d basis of the subspace
    still to be searched: ``null(A)`` intersected with the orthogonal
    complement of the columns appended through :meth:`append_column`.  It
    starts as the trailing L columns of Q from the column-pivoted
    Householder QR of ``A^T`` (``Z = I_N`` when M = 0), whose |R_ii| the
    rank guard reads at ``tol_rank`` as in :func:`null_space_basis`.  One
    projection ``Z (Z^T r)`` costs two slim matrix-vector products, O(N d).
    An append of r independent columns rotates ``Z`` by r Householder
    reflectors, applied at once in compact WY form, so that its first r
    columns carry the parts of the new columns inside the subspace, and
    drops those columns; as ``Z`` only changes through orthogonal
    transformations it stays orthonormal and inside ``null(A)`` to working
    precision.
    """

    def __init__(self, A: np.ndarray, tol_rank: Optional[float] = None):
        A = _as_jacobian(A)
        self._jacobian = A
        self._m, self._n = A.shape
        # Fortran order: dropping the first column leaves a contiguous view
        self._basis = _qr_at(A, tol_rank) if self._m else np.eye(self._n, order="F")
        self._k = 0

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def n_constraints(self) -> int:
        return self._m

    @property
    def n_appended(self) -> int:
        return self._k

    @property
    def jacobian(self) -> np.ndarray:
        return self._jacobian

    def project(self, r: np.ndarray) -> np.ndarray:
        """Project ``r`` onto the current subspace."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self._n,):
            raise DimensionMismatchError(
                f"expected vector of length {self._n}, got shape {r.shape}"
            )
        Z = self._basis
        return Z @ (Z.T @ r)

    def append_column(self, q: np.ndarray) -> int:
        """Remove the directions of the columns of ``q`` from the subspace.

        ``q`` is an N-vector or an N x k block, whose columns are taken in
        order: column j is skipped when its residual in the subspace left
        by the earlier kept columns is at most sqrt(eps) |q_j|, i.e. it
        adds nothing.  Returns the number of columns skipped.  Raises
        :class:`DependentColumnError` when no column is kept; callers treat
        the remaining subspace as exhausted.

        The residuals are the |R_jj| of one Householder QR of the kept
        columns of ``W = Z^T Q`` (LAPACK ``dgeqrt``); when one is at or
        below its tolerance that column is dropped and the QR taken again.
        LAPACK ``dlarfg`` scales the reflectors, so a column near 1e200
        cannot overflow them.  The r reflectors, in compact WY form ``I - U
        T U^T``, rotate ``Z`` in place, ``Z -= ((Z U) T) U^T`` through
        LAPACK ``dgemqrt`` (triangular and general matrix products), so
        that its first r columns carry the kept columns; those are dropped.
        """
        Q = np.asarray(q, dtype=float, order="F")
        if Q.ndim == 1:
            Q = Q[:, None]
        if Q.ndim != 2 or Q.shape[0] != self._n:
            raise DimensionMismatchError(
                f"expected {self._n} rows, got shape {np.shape(q)}"
            )
        k = Q.shape[1]
        Z = self._basis
        d = Z.shape[1]
        tol = np.sqrt(_EPS) * np.array([sla.blas.dnrm2(Q[:, j]) for j in range(k)])
        W = Z.T @ Q
        while True:
            # after d kept columns the subspace is empty: the rest are skipped
            r = min(d, W.shape[1])
            if r == 0:
                raise DependentColumnError(
                    f"none of {k} appended columns leaves the span held"
                )
            qr, T, _ = sla.lapack.dgeqrt(r, W[:, :r])
            low = np.flatnonzero(np.abs(qr.diagonal()) <= tol[:r])
            if not low.size:
                break
            W = np.delete(W, low[0], axis=1)
            tol = np.delete(tol, low[0])

        Z, _ = sla.lapack.dgemqrt(qr, T, Z, side="R", overwrite_c=1)
        self._basis = Z[:, r:]
        self._k += r
        return k - r


# ---------------------------------------------------------------------------
# Bordered LU with determinant-sign tracking
# ---------------------------------------------------------------------------


class BorderedLu:
    """LU factorization of a matrix growing by bordering, with exact signs.

    Starting from a partially pivoted LU of the seed ``B_n``, each
    :meth:`update` appends a symmetric border of k columns ``b`` with its
    k x k corner ``gamma`` and absorbs it at once: two triangular solves
    push ``b`` through the current factors, one product forms the Schur
    complement ``S = gamma - b^T B_n^-1 b``, and LAPACK ``dpotrf`` factors
    ``S``.  As ``det(B_{n+j}) = det(B_n) det(S[:j, :j])``, a run of
    positive Cholesky pivots keeps the determinant sign, and the Cholesky
    factor extends the LU factors; pivoting stays confined to the seed rows
    so the border structure survives updates.  The first pivot that is not
    a healthy positive one (negative, stalled relative to its border
    column's scale, at or below the singular floor, or not finite) is
    recomputed from the partial factor, and that column takes the
    single-column step: it is bordered with its pivot, or, when the pivot
    stalls, the grown matrix is refactored densely with partial pivoting.
    The sign of each determinant is computed exactly from pivot signs and
    permutation parity of the computed factorization.
    """

    def __init__(self, seed: np.ndarray, pivot_tol: float = 1e-8):
        B = np.asarray(seed, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DimensionMismatchError("seed must be square")
        self._pivot_tol = float(pivot_tol)
        self._matrix = B.copy()
        self._lower, self._upper, self._perm, self._parity = _lu_with_parity(B)

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def sign(self) -> int:
        """Sign of det of the current matrix; 0 when numerically singular."""
        udiag = np.diag(self._upper)
        if udiag.size == 0:
            return self._parity
        if np.any(udiag == 0.0):
            return 0
        return int(self._parity * np.prod(np.sign(udiag)))

    def update(self, b: np.ndarray, gamma):
        """Grow by the border ``(b, gamma)``; return the new minors' signs.

        ``b`` is the n x k border and ``gamma`` its k x k corner, read from
        its upper triangle like the columns it completes.  The update stops
        after the first column whose pivot is not a healthy positive one and
        returns the signs of the new leading minors up to that column; the
        caller passes the remaining columns again.  A 1-D ``b`` with a
        scalar ``gamma`` is the k = 1 case and returns one int.

        Raises :class:`SingularMinorError` when the first new minor is
        numerically singular, which makes its sign meaningless; a singular
        minor later in the border ends the update just before it.
        """
        b = np.asarray(b, dtype=float)
        single = b.ndim == 1
        if single:
            b = b[:, None]
        n = self.dim
        k = b.shape[1] if b.ndim == 2 else 0
        if b.ndim != 2 or b.shape[0] != n or np.size(gamma) != k * k:
            raise DimensionMismatchError(
                f"border must have {n} rows and a square corner of its width"
            )
        if k == 0:
            return np.zeros(0, dtype=int)
        corner = np.triu(np.reshape(gamma, (k, k)))
        udiag = np.abs(np.diag(self._upper))
        singular = udiag.size and udiag.min() == 0.0
        if singular:
            # an exactly singular factor cannot be bordered: the first
            # column refactors and the caller passes the rest again
            b, corner, k = b[:, :1], corner[:1, :1], 1
        grown = np.empty((n + k, n + k))
        grown[:n, :n] = self._matrix
        grown[:n, n:] = b
        grown[n:, :n] = b.T
        grown[n:, n:] = corner + np.triu(corner, 1).T
        b, corner = grown[:n, n:], grown[n:, n:]

        # stall threshold and singular floor of each new minor, from the
        # entries of each border column above and on the diagonal; the
        # Frobenius norms are summed relative to the largest entry, since
        # the squares of finite entries can overflow or underflow
        above = np.abs(np.triu(grown[:, n:], 1 - n))
        diag = np.abs(np.diag(corner))
        colmax = np.maximum(above.max(axis=0), diag)
        stall = self._pivot_tol * np.maximum(colmax, 1e-300)
        big = max(np.abs(self._matrix).max(initial=0.0), colmax.max()) or 1.0
        above /= big
        growth = 2.0 * np.einsum("ij,ij->j", above, above) + (diag / big) ** 2
        del above
        fro = big * np.sqrt(np.linalg.norm(self._matrix / big) ** 2 + np.cumsum(growth))
        floor = (n + 1 + np.arange(k)) * _EPS * np.maximum(fro, 1e-300)

        pivot = np.nan
        if singular:
            j = 0
        else:
            Y = sla.solve_triangular(
                self._lower, b[self._perm], lower=True, unit_diagonal=True,
                check_finite=False,
            )
            X = sla.solve_triangular(self._upper, b, trans="T", check_finite=False)
            # the Schur complement of the current matrix in the grown one
            chol, info = sla.lapack.dpotrf(corner - X.T @ Y, lower=0)
            m = info - 1 if info > 0 else k
            pivots = np.diag(chol)[:m] ** 2
            smallest = np.minimum.accumulate(
                np.minimum(pivots, udiag.min(initial=np.inf))
            )
            # OpenBLAS dpotrf does not stop at a NaN pivot
            healthy = np.isfinite(pivots) & (pivots > stall[:m]) & (smallest > floor[:m])
            j = m if healthy.all() else int(np.argmin(healthy))
            if j < k:
                # the pivot of column j, from the partial factor
                col = corner[: j + 1, j] - X[:, : j + 1].T @ Y[:, j]
                t = sla.solve_triangular(
                    chol[:j, :j], col[:j], trans="T", check_finite=False
                )
                pivot = float(col[j] - t @ t)

        commit = None
        if j < k:
            dim = n + j + 1
            if np.isfinite(pivot) and abs(pivot) > stall[j]:
                ubar = np.eye(j + 1)
                ubar[:j, :j] = chol[:j, :j]
                ubar[:j, j] = t
                factors = self._bordered(
                    X[:, : j + 1], Y[:, : j + 1], ubar, np.append(pivots[:j], pivot)
                )
            else:
                factors = _lu_with_parity(grown[:dim, :dim])
            least = np.abs(np.diag(factors[1])).min()
            if least > floor[j]:
                commit = grown[:dim, :dim], factors
            elif j == 0:
                raise SingularMinorError(
                    f"pivot {least:.3e} at or below roundoff floor {floor[j]:.3e}"
                )
        if commit is None:
            commit = (
                grown[: n + j, : n + j],
                self._bordered(X[:, :j], Y[:, :j], chol[:j, :j], pivots[:j]),
            )

        signs = [self.sign] * j
        matrix, (self._lower, self._upper, self._perm, self._parity) = commit
        self._matrix = matrix if matrix.shape[0] == n + k else matrix.copy()
        if self.dim > n + j:
            signs.append(self.sign)
        return signs[0] if single else np.array(signs)

    def _bordered(self, X, Y, ubar, pivots):
        """Factors extended by a border whose images through the current
        factors are ``X = U^-T b`` and ``Y = L^-1 b[perm]``: the lower factor
        gains ``ubar^T`` scaled to a unit diagonal, the upper factor
        ``diag(ubar) ubar`` with ``pivots`` on its diagonal."""
        n, c = X.shape
        scale = np.diag(ubar).copy()
        lower = np.zeros((n + c, n + c))
        lower[:n, :n] = self._lower
        lower[n:, :n] = X.T
        lower[n:, n:] = ubar.T
        lower[n:, n:] /= scale
        upper = np.zeros((n + c, n + c))
        upper[:n, :n] = self._upper
        upper[:n, n:] = Y
        upper[n:, n:] = ubar
        upper[n:, n:] *= scale[:, None]
        np.fill_diagonal(upper[n:, n:], pivots)
        return lower, upper, np.append(self._perm, np.arange(n, n + c)), self._parity


def _lu_with_parity(B: np.ndarray):
    """Partially pivoted LU ``B[perm] = lower @ upper`` and the parity of
    ``perm``."""
    n = B.shape[0]
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, 0)), np.arange(0), 1
    with warnings.catch_warnings():
        # exact zero pivots are handled through the singular guard
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lufac, piv = sla.lu_factor(B, check_finite=False)
    perm = np.arange(n)
    parity = 1
    for i, p in enumerate(piv):
        if p != i:
            perm[i], perm[p] = perm[p], perm[i]
            parity = -parity
    return np.tril(lufac, -1) + np.eye(n), np.triu(lufac), perm, parity


# ---------------------------------------------------------------------------
# Symmetric-indefinite LDL factorization and inertia
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class LdlFactorization:
    """Bunch-Kaufman factorization ``P K P^T = L D L^T`` as LAPACK stores it.

    ``factor`` and ``ipiv`` are the output of LAPACK ``dsytrf`` with
    ``lower=1``: D's diagonal sits on the diagonal of ``factor``, the
    subdiagonal entry of each 2x2 block of D just below it, and the
    multipliers of L under the diagonal.  ``ipiv`` is 1-based; a 2x2 block
    at rows k, k+1 shows as ``ipiv[k] = ipiv[k+1] < 0``.  LAPACK ``dsytrs``
    solves with the pair.  ``inertia`` holds the counts of positive,
    negative and zero eigenvalues, computed exactly from the blocks of D:
    Sylvester's law makes the inertia of D equal that of K.
    """

    factor: np.ndarray
    ipiv: np.ndarray
    inertia: tuple


def _inertia(factor: np.ndarray, ipiv: np.ndarray) -> tuple:
    """Inertia of the block-diagonal D held in ``dsytrf`` output.

    A 1x1 pivot counts by its sign, an exact 0 (or NaN) as a zero
    eigenvalue.  A 2x2 block ``[[a, b], [b, c]]`` is scaled by its largest
    entry, so that the signs of its determinant and trace neither overflow
    nor underflow, and counts (1, 1) when the determinant is negative, two
    of the trace's sign when it is positive, and one zero plus one of the
    trace's sign when it is zero.
    """
    d = np.diag(factor)
    paired = ipiv < 0
    ones = d[~paired]
    pos = int(np.count_nonzero(ones > 0.0))
    neg = int(np.count_nonzero(ones < 0.0))
    zero = ones.size - pos - neg
    k = np.flatnonzero(paired)[0::2]
    if k.size:
        a, b, c = d[k], factor[k + 1, k], d[k + 1]
        with np.errstate(all="ignore"):
            # a block that overflowed to inf or NaN in the factorization
            # counts its NaN determinant or trace as zeros, without a warning
            big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
            a, b, c = a / big, b / big, c / big
            det = a * c - b * b
            tr = a + c
        split = det < 0.0
        definite = det > 0.0
        singular = ~(split | definite)
        up, down = tr > 0.0, tr < 0.0
        pos += int(np.count_nonzero(split) + 2 * np.count_nonzero(definite & up)
                   + np.count_nonzero(singular & up))
        neg += int(np.count_nonzero(split) + 2 * np.count_nonzero(definite & ~up)
                   + np.count_nonzero(singular & down))
        zero += int(np.count_nonzero(singular) + np.count_nonzero(singular & ~up & ~down))
    return (pos, neg, zero)


def ldl_factor(K: np.ndarray) -> LdlFactorization:
    """Bunch-Kaufman block LDL factorization of a symmetric matrix.

    One blocked LAPACK ``dsytrf`` call factors ``K`` from its lower
    triangle, as given (the caller's array is not overwritten); the
    inertia is read from D's diagonal and ``ipiv``.  The factorization
    always completes; zero pivots surface as zero eigenvalue counts in the
    inertia.  ``K`` must be finite and symmetric to a relative 1e-8 in the
    Frobenius norm, taken with BLAS ``dnrm2`` so that it does not overflow;
    that norm is only computed for a ``K`` that is not exactly symmetric.
    """
    K = np.asarray_chkfinite(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatchError("matrix must be square")
    if not np.array_equal(K, K.T):
        scale = float(sla.blas.dnrm2(K.ravel()))
        if float(sla.blas.dnrm2((K - K.T).ravel())) > 1e-8 * scale:
            raise ValueError("matrix is not symmetric")
    # without lwork dsytrf runs unblocked, about 2x slower at n = 1000
    lwork, _ = sla.lapack.dsytrf_lwork(K.shape[0], lower=1)
    factor, ipiv, info = sla.lapack.dsytrf(K, lower=1, lwork=int(lwork))
    if info < 0:
        raise ValueError(f"dsytrf: illegal value in argument {-info}")
    return LdlFactorization(factor, ipiv, _inertia(factor, ipiv))
