"""Dense linear-algebra kernels shared by the curvature tests.

This module provides the low-level machinery the definiteness tests are
built from:

  - :class:`HessianOperator`: the action ``s -> H s`` as one product
    callable, built from an explicit dense matrix (kept, symmetrized once,
    for the classical tests), a matrix-vector callback, or a directional
    finite difference of a Lagrangian-gradient callback.
  - :func:`null_space_basis`: bases of ``null(A)`` via SVD, QR of ``A^T``,
    QR of ``A``, or LU of ``A``, each guarded by the pivots of its own
    factorization; :func:`check_full_rank` is the SVD guard for the tests
    that need no basis.
  - :class:`NullSpaceProjector`: the orthogonal projector onto ``null(A)``
    intersected with the complement of appended columns, maintained through
    a QR factorization of ``A^T`` that is updated (not rebuilt) per append.
  - :class:`BorderedLu`: an LU factorization of a matrix that grows by
    symmetric borders, tracking determinant signs exactly.
  - :func:`ldl_factor`: symmetric-indefinite block LDL factorization with
    exact inertia extraction from the computed block-diagonal factor.

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

BASIS_METHODS = ("svd", "qr_at", "qr_a", "lu_a")

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
    method: str
    orthonormal: bool
    jacobian: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


def default_rank_tolerance(A: np.ndarray) -> float:
    """Default LICQ guard: sqrt(machine eps) times the Frobenius norm."""
    return np.sqrt(_EPS) * float(np.linalg.norm(A, "fro"))


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


def _check_pivots(pivots: np.ndarray, tol_rank: float, what: str) -> None:
    """Raise :class:`RankDeficientError` when the smallest of ``pivots`` is at
    or below ``tol_rank``; a nonpositive ``tol_rank`` disables the guard."""
    if tol_rank > 0 and pivots.min(initial=np.inf) <= tol_rank:
        raise RankDeficientError(
            f"smallest {what} {pivots.min():.3e} <= tolerance {tol_rank:.3e}"
        )


def check_full_rank(A: np.ndarray, tol_rank: Optional[float] = None) -> None:
    """Raise :class:`RankDeficientError` when A is rank deficient to tol.

    ``tol_rank=None`` uses :func:`default_rank_tolerance`; ``tol_rank=0``
    disables the guard entirely (only exact rank collapse is reported by
    downstream factorizations).
    """
    A = _as_jacobian(A)
    if tol_rank is None:
        tol_rank = default_rank_tolerance(A)
    # the SVD is only paid for when the guard is on
    if A.shape[0] > 0 and tol_rank > 0:
        _check_pivots(np.linalg.svd(A, compute_uv=False), tol_rank, "singular value")


def null_space_basis(
    A: np.ndarray,
    method: str = "qr_at",
    tol_rank: Optional[float] = None,
) -> NullSpaceBasis:
    """Compute a basis of ``null(A)`` for a full-row-rank M x N Jacobian.

    Parameters
    ----------
    A : ndarray, shape (M, N), M < N
        Constraint Jacobian (rows are constraint gradients).
    method : {"qr_at", "svd", "qr_a", "lu_a"}
        "svd" and "qr_at" produce orthonormal bases; "qr_a" and "lu_a" use
        a triangular solve against the trailing block and carry an identity
        lower block.
    tol_rank : float, optional
        Rank guard threshold; None selects sqrt(eps)*|A|_F, zero disables.

    Raises
    ------
    RankDeficientError
        When A is rank deficient to ``tol_rank``; callers must not proceed
        to the curvature tests in that case.
    """
    A = _as_jacobian(A)
    M, N = A.shape
    L = N - M
    if method not in BASIS_METHODS:
        raise ValueError(f"unknown basis method {method!r}")
    if M == 0:
        return NullSpaceBasis(np.eye(N), method, True, A)
    if tol_rank is None:
        tol_rank = default_rank_tolerance(A)

    if method == "svd":
        _, svals, Vt = np.linalg.svd(A, full_matrices=True)
        _check_pivots(svals, tol_rank, "singular value")
        W = Vt[M:].T
        orthonormal = True
    elif method == "qr_at":
        Q, R = sla.qr(A.T, mode="full")
        _check_pivots(np.abs(np.diag(R[:M, :M])), tol_rank, "|R_ii|")
        W = Q[:, M:]
        orthonormal = True
    elif method == "qr_a":
        Q, R = sla.qr(A, mode="economic")
        R1, S = R[:, :M], R[:, M:]
        _check_pivots(np.abs(np.diag(R1)), tol_rank, "|R_ii|")
        T = sla.solve_triangular(R1, S, lower=False)
        W = np.vstack([-T, np.eye(L)])
        orthonormal = False
    else:  # lu_a
        _, _, U = sla.lu(A)
        U1, U2 = U[:, :M], U[:, M:]
        _check_pivots(np.abs(np.diag(U1)), tol_rank, "|U_ii|")
        T = sla.solve_triangular(U1, U2, lower=False)
        W = np.vstack([-T, np.eye(L)])
        orthonormal = False

    return NullSpaceBasis(np.ascontiguousarray(W), method, orthonormal, A)


# ---------------------------------------------------------------------------
# Updatable projector
# ---------------------------------------------------------------------------


class NullSpaceProjector:
    """Orthogonal projector onto ``null(A)`` minus appended directions.

    The projector holds a Householder QR factorization of the N x (M+k)
    matrix whose first M columns are ``A^T`` and whose later k columns were
    appended through :meth:`append_column`.  The reflectors are kept in
    compact WY form (Q = I - V T V^T), so one projection costs four slim
    matrix-vector products, O(N(M+k)), and each append adds exactly one new
    reflector in O(N(M+k)) work rather than refactoring.
    """

    def __init__(self, A: np.ndarray):
        A = _as_jacobian(A)
        self._jacobian = A
        self._m = A.shape[0]
        self._n = A.shape[1]
        n, m = self._n, self._m
        self._refl = np.zeros((n, m))      # Householder vectors, column j
        self._tmat = np.zeros((m, m))      # triangular factor of the WY form
        self._ncols = 0
        self._k = 0
        if m > 0:
            (packed, tau), _ = sla.qr(A.T, mode="raw")
            for j in range(m):
                v = np.zeros(n)
                v[j] = 1.0
                v[j + 1 :] = packed[j + 1 :, j]
                self._grow_wy(v, float(tau[j]))
        self._ncols = m

    def _grow_wy(self, v: np.ndarray, beta: float) -> None:
        c = self._ncols
        if c >= self._refl.shape[1]:
            grow = max(8, self._refl.shape[1])
            self._refl = np.hstack([self._refl, np.zeros((self._n, grow))])
            tnew = np.zeros((c + grow, c + grow))
            tnew[:c, :c] = self._tmat[:c, :c]
            self._tmat = tnew
        self._refl[:, c] = v
        self._tmat[:c, c] = -beta * (self._tmat[:c, :c] @ (self._refl[:, :c].T @ v))
        self._tmat[c, c] = beta
        self._ncols = c + 1

    def _qt_apply(self, r: np.ndarray) -> np.ndarray:
        # Q^T r = r - V T^T (V^T r)
        V = self._refl[:, : self._ncols]
        T = self._tmat[: self._ncols, : self._ncols]
        return r - V @ (T.T @ (V.T @ r))

    def _q_apply(self, t: np.ndarray) -> np.ndarray:
        # Q t = t - V T (V^T t)
        V = self._refl[:, : self._ncols]
        T = self._tmat[: self._ncols, : self._ncols]
        return t - V @ (T @ (V.T @ t))

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
        if self._ncols == 0:
            return r.copy()
        t = self._qt_apply(r)
        t[: self._ncols] = 0.0
        return self._q_apply(t)

    def append_column(self, q: np.ndarray, tol: Optional[float] = None) -> None:
        """Extend the annihilated span by ``q`` with one new reflector.

        Raises :class:`DependentColumnError` when the projection of ``q``
        onto the current subspace is negligible, i.e. ``q`` adds nothing;
        callers treat the remaining subspace as exhausted.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self._n,):
            raise DimensionMismatchError(
                f"expected vector of length {self._n}, got shape {q.shape}"
            )
        if tol is None:
            tol = np.sqrt(_EPS) * float(np.linalg.norm(q))
        c = self._ncols
        t = self._qt_apply(q) if c else q.astype(float, copy=True)
        tail = t[c:]
        residual = float(np.linalg.norm(tail))
        if c >= self._n or residual <= tol:
            raise DependentColumnError(
                f"appended column residual {residual:.3e} below tolerance"
            )
        alpha = -np.copysign(residual, tail[0] if tail[0] != 0 else 1.0)
        u = np.zeros(self._n)
        u[c:] = tail
        u[c] -= alpha
        beta = 2.0 / float(u @ u)
        self._grow_wy(u, beta)
        self._k += 1


# ---------------------------------------------------------------------------
# Bordered LU with determinant-sign tracking
# ---------------------------------------------------------------------------


class BorderedLu:
    """LU factorization of a matrix growing by bordering, with exact signs.

    Starting from a partially pivoted LU of the seed, each
    :meth:`update` appends a border column ``b`` and row ``(b, gamma)``:
    the new column is pushed through the existing factors (two triangular
    solves) and the new row is eliminated last with a single pivot
    ``delta = gamma - x.T y``; pivoting is confined to the rows established
    by the seed factorization so the border structure survives updates.
    When the incoming pivot stalls relative to the border scale the grown
    matrix is refactored densely with partial pivoting before a verdict on
    the sign is made.  The sign of each determinant is computed exactly
    from pivot signs and permutation parity of the computed factorization.
    """

    def __init__(self, seed: np.ndarray, pivot_tol: float = 1e-8):
        B = np.asarray(seed, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DimensionMismatchError("seed must be square")
        self._pivot_tol = float(pivot_tol)
        self._matrix = B.copy()
        self._refactor(B)

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

    def _refactor(self, B: np.ndarray) -> None:
        n = B.shape[0]
        if n == 0:
            self._lower = np.zeros((0, 0))
            self._upper = np.zeros((0, 0))
            self._perm = np.arange(0)
            self._parity = 1
            return
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
        self._lower = np.tril(lufac, -1) + np.eye(n)
        self._upper = np.triu(lufac)
        self._perm = perm
        self._parity = parity

    def _singular_guard(self) -> None:
        scale = float(np.linalg.norm(self._matrix, "fro"))
        udiag = np.abs(np.diag(self._upper))
        floor = self.dim * _EPS * max(scale, 1e-300)
        if udiag.size and udiag.min() <= floor:
            raise SingularMinorError(
                f"pivot {udiag.min():.3e} at or below roundoff floor {floor:.3e}"
            )

    def update(self, b: np.ndarray, gamma: float) -> int:
        """Grow by the border ``(b, gamma)`` and return the new det sign.

        Raises :class:`SingularMinorError` when the grown matrix is
        numerically singular, which makes the sign meaningless.
        """
        b = np.asarray(b, dtype=float)
        n = self.dim
        if b.shape != (n,):
            raise DimensionMismatchError(f"border must have length {n}")
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = self._matrix
        grown[:n, n] = b
        grown[n, :n] = b
        grown[n, n] = gamma
        self._matrix = grown

        healthy = True
        udiag = np.abs(np.diag(self._upper))
        if udiag.size and udiag.min() == 0.0:
            healthy = False

        if healthy and n > 0:
            y = sla.solve_triangular(
                self._lower, b[self._perm], lower=True, unit_diagonal=True,
                check_finite=False,
            )
            x = sla.solve_triangular(
                self._upper, b, lower=False, trans="T", check_finite=False
            )
            delta = gamma - float(x @ y)
            scale = max(abs(gamma), float(np.linalg.norm(b, np.inf)), 1e-300)
            if abs(delta) <= self._pivot_tol * scale:
                healthy = False
            else:
                self._lower = np.block(
                    [[self._lower, np.zeros((n, 1))], [x.reshape(1, -1), np.ones((1, 1))]]
                )
                self._upper = np.block(
                    [[self._upper, y.reshape(-1, 1)], [np.zeros((1, n)), np.full((1, 1), delta)]]
                )
                self._perm = np.append(self._perm, n)
        elif healthy and n == 0:
            self._lower = np.ones((1, 1))
            self._upper = np.full((1, 1), float(gamma))
            self._perm = np.arange(1)
            self._parity = 1

        if not healthy:
            self._refactor(self._matrix)
        self._singular_guard()
        return self.sign


# ---------------------------------------------------------------------------
# Symmetric-indefinite LDL factorization and inertia
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class LdlFactorization:
    """Block LDL factorization ``K = L D L^T`` with permutation and inertia.

    ``lower`` is the (row-permuted) factor as returned by the backend;
    ``lower[perm]`` is unit lower triangular.  ``diag`` is block diagonal
    with 1x1 and 2x2 blocks.  ``inertia`` holds the counts of positive,
    negative, and zero eigenvalues, computed exactly from the blocks of
    the factor: Sylvester's law makes the inertia of D equal that of K.
    """

    lower: np.ndarray
    diag: np.ndarray
    perm: np.ndarray
    inertia: tuple

    def reconstruct(self) -> np.ndarray:
        return self.lower @ self.diag @ self.lower.T

    @property
    def permuted_lower(self) -> np.ndarray:
        return self.lower[self.perm]


def _inertia_from_blocks(d: np.ndarray) -> tuple:
    n = d.shape[0]
    pos = neg = zero = 0
    i = 0
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0.0:
            a, bb, c = d[i, i], d[i + 1, i], d[i + 1, i + 1]
            det = a * c - bb * bb
            if det < 0.0:
                pos += 1
                neg += 1
            else:
                tr = a + c
                if det > 0.0:
                    if tr > 0.0:
                        pos += 2
                    else:
                        neg += 2
                else:
                    # one zero eigenvalue; other has the sign of the trace
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


def ldl_factor(K: np.ndarray) -> LdlFactorization:
    """Bunch-Kaufman block LDL factorization of a symmetric matrix.

    The factorization always completes; zero pivots surface as zero
    eigenvalue counts in the inertia.  ``K`` must be symmetric to a relative
    1e-8; it is factored as given, from its lower triangle.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatchError("matrix must be square")
    scale = float(np.linalg.norm(K, "fro"))
    if scale > 0 and float(np.linalg.norm(K - K.T, "fro")) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    lower, diag, perm = sla.ldl(K, lower=True)
    return LdlFactorization(lower, diag, perm, _inertia_from_blocks(diag))
