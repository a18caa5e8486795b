"""Dense linear-algebra kernels shared by the curvature tests.

This module provides the low-level machinery the definiteness tests are
built from:

  - :class:`HessianOperator`: the action ``s -> H s`` as one product
    callable, built from an explicit dense matrix (kept, symmetrized once,
    for the classical tests), a matrix-vector callback, or a directional
    finite difference of a Lagrangian-gradient callback.  A stored matrix
    multiplies a vector through BLAS ``dsymv``, which reads one triangle,
    and a block through a general matrix product; the two may differ in
    the last bits.
  - :func:`check_full_rank`: the one constraint-rank guard, which reads
    |R_ii| of a column-pivoted Householder QR of ``A^T`` (LAPACK
    ``dgeqp3``), computed there or passed by a caller that holds it.
  - :func:`null_space_basis`: the orthonormal basis of ``null(A)`` from
    that QR of ``A^T`` (its reflectors applied to ``[0; I_L]``, the full Q
    never formed), guarded by the same |R_ii|.
  - :class:`NullSpaceProjector`: the orthogonal projector onto ``null(A)``
    intersected with the complement of appended columns, through the Q of
    that QR split into an orthonormal basis of the subspace and one of its
    complement; a projection multiplies through the narrower of the two,
    O(N min(d, N - d)) for a subspace of dimension d, and each block is
    formed when first read.  A block of k columns is appended at once, the
    subspace's basis rotated by their Householder reflectors in compact WY
    form (LAPACK ``dgeqrt`` and ``dgemqrt``) and one column per column
    kept passed to the complement.
  - :class:`BorderedLu`: an LU factorization of the growing leading
    blocks of one matrix ``B``, symmetric past its seed block, tracking
    determinant signs exactly; the next k columns of ``B`` are absorbed
    at once through the Cholesky factor of their Schur complement, formed
    in place by BLAS ``dtrsm`` and one product.  ``B`` is read through
    views and never copied.  The factors stay in the packed form of
    LAPACK ``dgetrf``, and those extended by a border are assembled only
    when the next update reads them.
  - :func:`_leading_cholesky`: the Cholesky factorization of
    :class:`BorderedLu` and of the Cholesky test, one LAPACK ``dpotrf``
    per leading block of doubling order from :data:`_FIRST_BLOCK`, which
    stops at the block that holds the first rejected pivot; the caller
    forms only the columns each block adds.
  - :func:`ldl_factor`: one blocked Bunch-Kaufman LDL factorization
    (LAPACK ``dsytrf``), with the inertia counted exactly from the 1x1 and
    2x2 blocks of D, which ``ipiv`` locates.

Dense Hessians are symmetrized only in :meth:`HessianOperator.from_matrix`
(and in :meth:`~HessianOperator.materialize` for product-backed ones);
the kernels below take their inputs as given.  A Hessian that equals its
transpose bit for bit is its own symmetric part: the operator stores a
read-only view of it, not a copy, so a caller who changes that Hessian
afterwards builds a new operator.  Arrays are copied only where a kernel
reads the copy; a LAPACK workspace query is handed its array in place.
The dense refactors of :class:`BorderedLu` are logged at DEBUG level.

All operations are pure functions of their inputs except the operator's
product counter and the projector's state.  Arrays are never modified in
place by callers' views.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
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
_PIVOT_TOL = 1e-8  # BorderedLu's pivot stall threshold
# order of the first leading block _leading_cholesky factors; a matrix of
# this order or less is factored by one dpotrf call
_FIRST_BLOCK = 256
#: finite-difference scale of :meth:`HessianOperator.from_gradient`: a
#: product steps ``FD_SIGMA * (1 + |x|_inf)``
FD_SIGMA = 1e-6
_log = logging.getLogger(__name__)


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

    - :meth:`from_matrix` stores ``(H + H^T)/2`` in :attr:`matrix`, as a
      read-only view that shares memory with an exactly symmetric ``H``,
      and multiplies by it: a vector through BLAS ``dsymv`` on one
      triangle, a block through a general matrix product, so :meth:`apply` and
      :meth:`apply_block` may differ in the last bits.  This is the one
      place a dense Hessian is symmetrized; the classical tests read
      :attr:`matrix` as is.
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
        """Wrap an explicit dense matrix, stored as ``(H + H^T)/2``.

        The stored matrix is a read-only, C-ordered view of what
        :func:`_symmetric_part` returns: of ``H`` itself (or of its
        transpose, for a Fortran-ordered ``H``) when ``H`` equals its
        transpose bit for bit, so that a verification holds one copy of
        ``H``, and of a new array otherwise.  A write through the view
        raises; a caller who changes ``H`` afterwards builds a new
        operator.  A product ``H s`` is BLAS ``dsymv`` on the upper
        triangle of the stored matrix, passed as the lower triangle of the
        Fortran-ordered transpose, so neither the matrix nor a contiguous
        ``s`` is copied; it reads half the entries that a general
        matrix-vector product reads.  Blocks go through
        :meth:`apply_block`'s general matrix product.
        """
        H = np.asarray(matrix, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DimensionMismatchError("explicit Hessian must be square")
        H = _symmetric_part(H).view()
        H.flags.writeable = False
        return cls(H.shape[0], functools.partial(sla.blas.dsymv, 1.0, H.T, lower=1), H)

    @classmethod
    def from_callback(cls, matvec: Callable[[np.ndarray], np.ndarray], dim: int) -> "HessianOperator":
        """Wrap a callback computing ``H s`` for an N-vector ``s``."""

        def checked(s: np.ndarray) -> np.ndarray:
            out = np.asarray(matvec(s), dtype=float)
            if out.shape != (dim,):
                raise DimensionMismatchError("callback returned a wrong shape")
            # a callback may return its argument, which callers update in place
            return out.copy() if np.may_share_memory(out, s) else out

        return cls(dim, checked)

    @classmethod
    def from_gradient(
        cls,
        grad: Callable,
        x: np.ndarray,
        lam: Optional[np.ndarray] = None,
        sigma: float = FD_SIGMA,
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
            # dnrm2 scales as it sums: |s| neither overflows near 1e200 nor
            # underflows to 0 near 1e-200
            nrm = float(sla.blas.dnrm2(s))
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

        Explicit operators return the stored read-only matrix, without a
        copy; callback and finite-difference operators apply the operator
        to all N coordinate directions (N products) and symmetrize the
        result.
        """
        if self.matrix is not None:
            return self.matrix
        return _symmetric_part(self.apply_block(np.eye(self.dimension)))


def _bitwise_symmetric(X: np.ndarray) -> bool:
    """Whether the square ``X`` equals its transpose bit for bit (so 0.0
    and -0.0 differ).  The first row is compared with the first column
    before the whole matrix, so that most matrices that are not symmetric
    answer after reading 2n entries."""
    bits = X.view(np.int64)
    return np.array_equal(bits[:1], bits[:, :1].T) and np.array_equal(bits, bits.T)


def _symmetric_part(H: np.ndarray) -> np.ndarray:
    """``(H + H^T)/2`` as a C-ordered array, finite wherever H is.

    An ``H`` equal to its transpose bit for bit is its own halved sum and
    is returned without a copy: ``H`` itself when it is C-ordered, the
    C-ordered view ``H.T`` when it is Fortran-ordered (a strided ``H`` is
    copied), so the result may share memory with ``H``.  Otherwise the
    sum is a new array halved in place; at the entries where it overflows,
    which finite entries above about 9e307 can make it do, the halves are
    summed instead, so every other entry keeps the halved sum's bits
    (the halves round subnormals).
    """
    if _bitwise_symmetric(H):
        return np.ascontiguousarray(H.T if H.flags.f_contiguous else H)
    try:
        with np.errstate(over="raise"):
            S = np.add(H, H.T, order="C")
        over = None
    except FloatingPointError:
        with np.errstate(over="ignore"):
            S = np.add(H, H.T, order="C")
        over = np.isinf(S)
    S *= 0.5
    if over is not None:
        S[over] = 0.5 * H[over] + 0.5 * H.T[over]
    return S


# ---------------------------------------------------------------------------
# Null-space bases
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class NullSpaceBasis:
    """An N x L matrix whose columns span ``null(A)``.

    ``jacobian`` is the M x N matrix A, kept so that failure certificates
    are re-verified against it.
    """

    matrix: np.ndarray
    jacobian: np.ndarray


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
    runs unblocked, about 1.4x slower on a 1000 x 250 matrix.  X is copied
    once, into the Fortran-ordered array that the query (which returns
    before reading it) and the factorization both take in place.
    """
    X = np.asarray_chkfinite(np.array(X, dtype=float, order="F"))
    work = sla.lapack.dgeqp3(X, lwork=-1, overwrite_a=1)[3]
    qr, jpvt, tau, _, _ = sla.lapack.dgeqp3(X, lwork=int(work[0]), overwrite_a=1)
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
    ``tol_rank=None`` uses :func:`default_rank_tolerance`, which is 0 for
    a zero A, so that a zero pivot still trips it; only an explicit
    ``tol_rank=0`` disables the guard entirely (only exact rank collapse
    is reported by downstream factorizations).
    """
    A = _as_jacobian(A)
    if A.shape[0] == 0 or (tol_rank is not None and not tol_rank > 0):
        return
    if tol_rank is None:
        tol_rank = default_rank_tolerance(A)
    if pivots is None:
        pivots = np.diag(_pivoted_qr(A.T)[0])
    smallest = np.abs(pivots).min()
    if smallest <= tol_rank:
        raise RankDeficientError(
            f"smallest pivot {smallest:.3e} <= tolerance {tol_rank:.3e}"
        )


def _qr_at(A: np.ndarray, tol_rank: Optional[float]):
    """The reflectors and their scalars of the column-pivoted QR ``A^T P =
    Q R`` of an M x N Jacobian with M > 0, once the rank guard has passed on
    its |R_ii|.  Pivoting reorders the rows of A only, so the leading M
    columns of Q span the row space of A and the trailing N - M columns
    ``null(A)``."""
    qr, tau, _ = _pivoted_qr(A.T)
    check_full_rank(A, tol_rank, np.diag(qr))
    return qr, tau


def _q_columns(reflectors, C: np.ndarray, start: int) -> np.ndarray:
    """Overwrite the Fortran-ordered N x k array ``C`` with the columns of
    Q from ``start`` on and return it.  Q is the product of the reflectors
    ``(qr, tau)`` of :func:`_qr_at`, or ``I_N`` when ``reflectors`` is None
    (M = 0).  LAPACK ``dormqr`` applies them in place to those columns of
    the identity, which forms them without forming the rest of Q."""
    C[:] = 0.0
    np.fill_diagonal(C[start:], 1.0)
    if reflectors is not None:
        qr, tau = reflectors
        # the query returns before reading C, so it need not be copied
        _, work, _ = sla.lapack.dormqr("L", "N", qr, tau, C, -1, overwrite_c=1)
        sla.lapack.dormqr("L", "N", qr, tau, C, int(work[0]), overwrite_c=1)
    return C


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
    M, N = A.shape
    reflectors = _qr_at(A, tol_rank) if M else None
    W = _q_columns(reflectors, np.empty((N, N - M), order="F"), M)
    return NullSpaceBasis(np.ascontiguousarray(W), A)


# ---------------------------------------------------------------------------
# Updatable projector
# ---------------------------------------------------------------------------


class NullSpaceProjector:
    """Orthogonal projector onto ``null(A)`` minus appended directions.

    The projector holds Q of the column-pivoted Householder QR of ``A^T``
    (``Q = I_N`` when M = 0), whose |R_ii| the rank guard reads at
    ``tol_rank`` as in :func:`null_space_basis`, as one Fortran-ordered
    N x N array split in two orthonormal blocks: ``Z``, its trailing d
    columns, spans the subspace still to be searched, ``null(A)``
    intersected with the orthogonal complement of the columns appended
    through :meth:`append_column`, and ``C``, its leading N - d columns,
    spans the complement of that subspace.  A projection multiplies
    through the narrower block, ``Z (Z^T r)`` when 2d <= N and ``r - C
    (C^T r)`` otherwise: two slim matrix-vector products, O(N min(d, N -
    d)).  A block is formed from the reflectors only when first read: C
    at set-up when projection starts on its side, ``Z`` at the first
    append or at the first projection through it.  An append of r
    independent columns rotates ``Z`` in place by r Householder
    reflectors, applied at once in compact WY form, so that its first r
    columns carry the parts of the new columns inside the subspace, and
    those columns pass from ``Z`` to ``C``; as Q only changes through
    orthogonal transformations of ``Z`` it stays orthogonal to working
    precision, ``Z`` inside ``null(A)``.
    """

    def __init__(self, A: np.ndarray, tol_rank: Optional[float] = None):
        A = _as_jacobian(A)
        self._jacobian = A
        self._m, self._n = A.shape
        # Fortran order: the columns of C and of Z are contiguous blocks
        self._q = np.empty((self._n, self._n), order="F")
        self._c = self._m
        # the reflectors of Q, kept until Z is formed
        self._reflectors = _qr_at(A, tol_rank) if self._m else None
        self._z_formed = False
        if self._m and 2 * (self._n - self._m) > self._n:
            _q_columns(self._reflectors, self._q[:, : self._m], 0)

    def _basis(self) -> np.ndarray:
        """``Z``, formed at its first read."""
        Z = self._q[:, self._c :]
        if not self._z_formed:
            _q_columns(self._reflectors, Z, self._m)
            self._z_formed = True
            self._reflectors = None
        return Z

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def n_constraints(self) -> int:
        return self._m

    @property
    def n_appended(self) -> int:
        return self._c - self._m

    @property
    def jacobian(self) -> np.ndarray:
        return self._jacobian

    def project(self, r: np.ndarray) -> np.ndarray:
        """Project ``r`` onto the current subspace; the result is a new
        array."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self._n,):
            raise DimensionMismatchError(
                f"expected vector of length {self._n}, got shape {r.shape}"
            )
        if 2 * (self._n - self._c) <= self._n:
            Z = self._basis()
            return Z @ (Z.T @ r)
        C = self._q[:, : self._c]
        return r - C @ (C.T @ r)

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
        that its first r columns carry the kept columns; those pass to C.
        """
        Q = np.asarray(q, dtype=float, order="F")
        if Q.ndim == 1:
            Q = Q[:, None]
        if Q.ndim != 2 or Q.shape[0] != self._n:
            raise DimensionMismatchError(
                f"expected {self._n} rows, got shape {np.shape(q)}"
            )
        k = Q.shape[1]
        Z = self._basis()
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

        sla.lapack.dgemqrt(qr, T, Z, side="R", overwrite_c=1)
        self._c += r
        return k - r


# ---------------------------------------------------------------------------
# Cholesky factorization up to the first rejected pivot
# ---------------------------------------------------------------------------


def _leading_cholesky(
    work: np.ndarray,
    fill: Callable[[int, int], None],
    rejects: Callable[[np.ndarray], bool],
    in_place: bool = False,
):
    """Upper Cholesky factor of the leading block of the symmetric ``work``
    that holds its first rejected pivot, found by doubling the block.

    Each try calls ``fill(done, size)``, which writes columns ``done:size``,
    rows ``:size``, of the upper triangle of the n x n ``work`` (the columns
    of earlier tries are kept), and factors the leading ``size x size``
    block with one LAPACK ``dpotrf``.  The first try has order
    :data:`_FIRST_BLOCK`, or n when that is smaller, and each next one twice
    the order of the last, up to n.  The tries stop at the first block where
    ``dpotrf`` stops early or ``rejects`` refuses its pivots, or at order n.
    A failure thus pays only for the leading block that holds it; a matrix
    factored in full pays for every try, about 1.36x the ``dpotrf`` flops of
    one call at n = 750.  A try below order n factors a copy of its block;
    the try at order n factors ``work`` itself when ``in_place`` is set,
    which needs a Fortran-ordered ``work``, and a copy otherwise.

    Returns the factor of the last block tried and its pivots, the squared
    diagonal up to the column where ``dpotrf`` stopped.
    """
    n = work.shape[0]
    done, size = 0, min(n, _FIRST_BLOCK)
    while True:
        fill(done, size)
        factor, info = sla.lapack.dpotrf(
            work[:size, :size], lower=0, clean=0, overwrite_a=in_place and size == n
        )
        pivots = np.diag(factor)[: info - 1 if info > 0 else size] ** 2
        if size == n or pivots.size < size or rejects(pivots):
            return factor, pivots
        done, size = size, min(2 * size, n)


# ---------------------------------------------------------------------------
# Bordered LU with determinant-sign tracking
# ---------------------------------------------------------------------------


class BorderedLu:
    """LU factorization of the leading blocks of one matrix, with exact
    signs.

    ``BorderedLu(B, n0)`` factors the seed ``B[:n0, :n0]`` with partial
    pivoting.  Each :meth:`update` absorbs the next k columns of ``B`` at
    once, as the border ``b = B[:n, n:n+k]`` of the n x n block factored
    so far with its k x k corner ``gamma``: two triangular solves (BLAS
    ``dtrsm``) push ``b`` through the current factors, one product forms
    the upper triangle of the Schur complement ``S = gamma - b^T B_n^-1
    b`` in place, and LAPACK ``dpotrf`` factors ``S``.  These run on
    leading blocks of doubling order (:func:`_leading_cholesky`): each
    block solves and forms only the columns it adds, and the update stops
    at the first block that holds an irregular pivot, so the columns after
    it are never pushed through the factors.  As ``det(B_{n+j}) = det(B_n)
    det(S[:j, :j])``, a run of positive Cholesky pivots keeps the
    determinant sign, and the Cholesky factor extends the LU factors;
    pivoting stays confined to the seed rows so the border structure
    survives updates.  The first pivot that is not
    a healthy positive one (negative, stalled below :data:`_PIVOT_TOL` of
    its border column's scale, at or below the singular floor, or not
    finite) is recomputed from the partial factor, and that column takes
    the single-column step: it is bordered with its pivot, or, when the
    pivot stalls, the leading block of ``B`` up to it is refactored
    densely with partial pivoting.  The sign of each determinant is
    computed exactly from pivot signs and permutation parity of the
    computed factorization.

    ``B`` is read through views, never copied or written, so it must not
    change while the factorization is in use.  Outside the seed it must
    be symmetric: a border is read from its upper triangle, and a dense
    refactor reads both.  Both factors live in one packed array, L below
    its diagonal (whose unit entries are not stored) and U on and above
    it, as LAPACK ``dgetrf`` leaves them, Fortran-ordered; the triangular
    solves read each triangle from it in place.  An absorbed border is
    committed lazily: the update keeps the images of the border and the
    Cholesky factor of its Schur complement, and the extended factors are
    only assembled at the start of the next update, the one place that
    reads them.  :attr:`sign` and :attr:`dim` read the kept pivots
    directly.
    """

    def __init__(self, B: np.ndarray, n0: int):
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DimensionMismatchError("bordered matrix must be square")
        if not 0 <= n0 <= B.shape[0]:
            raise DimensionMismatchError(
                f"seed order {n0} is outside 0..{B.shape[0]}"
            )
        self._B = B
        self._lu, self._perm, self._parity = _lu_with_parity(B[:n0, :n0])
        # (X, Y, ubar, pivots) of a border absorbed but not yet assembled
        # into the factors; see _commit
        self._pending = None

    @property
    def dim(self) -> int:
        extra = 0 if self._pending is None else self._pending[3].size
        return self._lu.shape[0] + extra

    @property
    def sign(self) -> int:
        """Sign of det of the current matrix; 0 when numerically singular
        or when a pivot is NaN or inf, which leaves it undefined."""
        udiag = np.diag(self._lu)
        if self._pending is not None:
            udiag = np.append(udiag, self._pending[3])
        if not (np.isfinite(udiag) & (udiag != 0.0)).all():
            return 0
        return int(self._parity * np.prod(np.sign(udiag)))

    def update(self, k: int) -> np.ndarray:
        """Absorb the next ``k`` columns of ``B``; return the new minors'
        signs.

        ``k`` is clamped to the columns that are left, so an update at the
        end returns no signs.  The update stops after the first column
        whose pivot is not a healthy positive one and returns the signs of
        the new leading minors up to that column; the caller asks for the
        remaining columns again.

        Raises :class:`SingularMinorError` when the first new minor is
        numerically singular, which makes its sign meaningless, and
        ``FloatingPointError`` when a pivot of the current factors or of
        the first new minor is NaN or inf, which leaves it undefined; such
        a minor later in the border ends the update just before it.
        """
        self._commit()
        n = self.dim
        k = min(k, self._B.shape[0] - n)
        if k <= 0:
            return np.zeros(0, dtype=int)
        b, corner = self._B[:n, n:n + k], self._B[n:n + k, n:n + k]
        udiag = np.abs(np.diag(self._lu))
        if not np.isfinite(udiag).all():
            raise FloatingPointError("a pivot of the current factors is not finite")
        singular = udiag.size and udiag.min() == 0.0
        if singular:
            # an exactly singular factor cannot be bordered: the first
            # column refactors and the caller asks for the rest again
            b, corner, k = b[:, :1], corner[:1, :1], 1

        # stall threshold and singular floor of each new minor, from the
        # entries of each border column above and on the diagonal; the
        # Frobenius norms are summed relative to the largest entry, since
        # the squares of finite entries can overflow or underflow
        above = np.empty((n + k, k))
        np.abs(b, out=above[:n])
        np.abs(np.triu(corner, 1), out=above[n:])
        diag = np.abs(np.diag(corner))
        colmax = np.maximum(above.max(axis=0), diag)
        stall = _PIVOT_TOL * np.maximum(colmax, 1e-300)
        current = self._B[:n, :n]
        big = max(np.abs(current).max(initial=0.0), colmax.max()) or 1.0
        above /= big
        growth = 2.0 * np.einsum("ij,ij->j", above, above) + (diag / big) ** 2
        del above
        # fro is |B_dim|_F / big; dim * eps scales big before fro does, so
        # that finite entries near the overflow threshold give finite floors
        scaled = (n + 1 + np.arange(k)) * _EPS
        fro = np.sqrt(np.linalg.norm(current / big) ** 2 + np.cumsum(growth))
        floor = np.maximum(scaled * big * fro, scaled * 1e-300)

        pivot = np.nan
        if singular:
            j = 0
        else:
            # Y = L^-1 b[perm] and X = U^-T b, and the upper triangle of the
            # Schur complement of the current matrix in the grown one, S =
            # corner - X^T Y, are formed in place for the columns each try
            # of _leading_cholesky adds
            Y, X = np.array(b[self._perm], order="F"), np.array(b, order="F")
            schur = np.empty((k, k), order="F")

            def fill(done, size):
                sla.blas.dtrsm(1.0, self._lu, Y[:, done:size], lower=1, diag=1,
                               overwrite_b=1)
                sla.blas.dtrsm(1.0, self._lu, X[:, done:size], trans_a=1, overwrite_b=1)
                # S[:size, done:size], through the C-ordered transpose
                np.matmul(Y[:, done:size].T, X[:, :size], out=schur.T[done:size, :size])
                block = schur[:size, done:size]
                np.subtract(corner[:size, done:size], block, out=block)

            def healthy(pivots):
                m = pivots.size
                smallest = np.minimum.accumulate(
                    np.minimum(pivots, udiag.min(initial=np.inf))
                )
                # OpenBLAS dpotrf does not stop at a NaN pivot
                return np.isfinite(pivots) & (pivots > stall[:m]) & (smallest > floor[:m])

            chol, pivots = _leading_cholesky(
                schur, fill, lambda p: not healthy(p).all(), in_place=True
            )
            ok = healthy(pivots)
            j = pivots.size if ok.all() else int(np.argmin(ok))
            if j < k:
                # the pivot of column j, from the partial factor
                col = corner[: j + 1, j] - X[:, : j + 1].T @ Y[:, j]
                t = sla.solve_triangular(
                    chol[:j, :j], col[:j], trans="T", check_finite=False
                )
                pivot = float(col[j] - t @ t)

        signs = [self.sign] * j
        # the columns absorbed through the Schur complement: the first j,
        # and column j too when its own pivot is bordered
        border = None if singular else (chol[:j, :j], pivots[:j])
        if j < k:
            c = j + 1
            if np.isfinite(pivot) and abs(pivot) > stall[j]:
                ubar = np.eye(c)
                ubar[:j, :j] = chol[:j, :j]
                ubar[:j, j] = t
                bordered = np.append(pivots[:j], pivot)
                least = np.minimum(udiag.min(initial=np.inf), np.abs(bordered).min())
                if least > floor[j]:
                    border = ubar, bordered
            else:
                _log.debug(
                    "bordered LU: refactoring the leading %d x %d block densely "
                    "(pivot %.3e, stall threshold %.3e)", n + c, n + c, pivot, stall[j],
                )
                lu, perm, parity = _lu_with_parity(self._B[:n + c, :n + c])
                least = np.abs(np.diag(lu)).min()
                if least > floor[j]:
                    self._lu, self._perm, self._parity = lu, perm, parity
                    border = None
            if j == 0 and not np.isfinite(least):
                raise FloatingPointError(f"pivot {least:.3e} is not finite")
            if j == 0 and not least > floor[j]:
                raise SingularMinorError(
                    f"pivot {least:.3e} at or below roundoff floor {floor[j]:.3e}"
                )
        if border is not None and border[1].size:
            c = border[1].size
            self._pending = (X[:, :c], Y[:, :c], *border)
        if self.dim > n + j:
            signs.append(self.sign)
        return np.array(signs)

    def _commit(self):
        """Assemble the extended factors of the border absorbed by the last
        update, from ``X = U^-T b``, ``Y = L^-1 b[perm]``, the upper
        triangle of ``ubar`` and the new pivots: the lower factor gains
        ``X^T`` and ``ubar^T`` scaled to a unit diagonal, the upper factor
        ``Y`` and ``diag(ubar) ubar`` with the pivots on its diagonal.  The
        factors are Fortran-ordered, as BLAS ``dtrsm`` reads them."""
        if self._pending is None:
            return
        X, Y, ubar, pivots = self._pending
        self._pending = None
        n, c = X.shape
        # dpotrf leaves the strict lower triangle of ubar as it found it
        ubar = np.triu(ubar)
        scale = np.diag(ubar)
        lu = np.empty((n + c, n + c), order="F")
        lu[:n, :n] = self._lu
        lu[n:, :n] = X.T
        lu[:n, n:] = Y
        lu[n:, n:] = np.where(
            np.tri(c, k=-1, dtype=bool), ubar.T / scale, ubar * scale[:, None]
        )
        np.fill_diagonal(lu[n:, n:], pivots)
        self._lu = lu
        self._perm = np.append(self._perm, np.arange(n, n + c))


def _lu_with_parity(B: np.ndarray):
    """Partially pivoted LU ``B[perm] = L U`` in the packed form of LAPACK
    ``dgetrf`` (unit lower L below the diagonal, U on and above it), and
    ``perm`` with its parity.

    ``perm`` is ``arange(n)`` put through the row interchanges by LAPACK
    ``dlaswp``, which takes the 0-based pivots; the parity is -1 to the
    number of interchanges that are not the identity.
    """
    n = B.shape[0]
    if n == 0:
        return np.zeros((0, 0)), np.arange(0), 1
    with warnings.catch_warnings():
        # exact zero pivots are handled through the singular guard
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lufac, piv = sla.lu_factor(B, check_finite=False)
    perm = sla.lapack.dlaswp(np.arange(n, dtype=float)[:, None], piv)[:, 0]
    swaps = np.count_nonzero(piv != np.arange(n))
    return lufac, perm.astype(np.intp), -1 if swaps % 2 else 1


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

    @property
    def finite(self) -> bool:
        """Whether every entry of D is finite; the factorization of a
        finite matrix can overflow to inf or NaN."""
        k = np.flatnonzero(self.ipiv < 0)[0::2]
        return bool(np.isfinite(np.diag(self.factor)).all()
                    and np.isfinite(self.factor[k + 1, k]).all())


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
    that norm is only computed for a ``K`` that is not symmetric bit for
    bit.  A ``K`` that is has the same entries as ``K^T``, so a C-ordered
    one is passed as its Fortran-ordered transpose, which LAPACK takes
    after a plain copy rather than a transposing one; any other ``K`` is
    passed as given.
    """
    K = np.asarray_chkfinite(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatchError("matrix must be square")
    exact = _bitwise_symmetric(K)
    if not exact:
        scale = float(sla.blas.dnrm2(K.ravel()))
        if float(sla.blas.dnrm2((K - K.T).ravel())) > 1e-8 * scale:
            raise ValueError("matrix is not symmetric")
    if exact and K.flags.c_contiguous:
        K = K.T
    # without lwork dsytrf runs unblocked, about 2x slower at n = 1000
    lwork, _ = sla.lapack.dsytrf_lwork(K.shape[0], lower=1)
    factor, ipiv, info = sla.lapack.dsytrf(K, lower=1, lwork=int(lwork))
    if info < 0:
        raise ValueError(f"dsytrf: illegal value in argument {-info}")
    return LdlFactorization(factor, ipiv, _inertia(factor, ipiv))
