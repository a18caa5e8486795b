"""Five interchangeable tests of constrained positive-definiteness.

Each verifier decides whether the Lagrangian Hessian is positive definite
over the null space of the constraint Jacobian and returns a
:class:`SoscVerdict`: HOLDS, FAILS (with a feasible direction of negative
curvature for the three matrix-free tests), or ERROR when the test is
inconclusive.

The three matrix-free tests need only products ``s -> H s``:

  - :func:`implicit_cholesky` runs the pivot recurrence of the Cholesky
    factorization of the reduced matrix ``W^T H W`` without forming it;
  - :func:`diagonalization` obliquely conjugates the basis so the reduced
    matrix becomes diagonal, one product per step;
  - :func:`continued_pcg` runs projected conjugate gradients and restarts
    in the conjugate complement of the searched directions until the null
    space is exhausted or negative curvature appears.

The two classical tests need the Hessian entries explicitly:

  - :func:`bordered_hessian_test` checks the signs of the trailing leading
    principal minors of the bordered matrix through updated LU
    factorizations;
  - :func:`inertia_test` factors the saddle-point matrix once (block LDL)
    and compares its inertia against (N, M, 0).

:func:`verify` dispatches on a method name, builds whatever basis or
projector the method needs, and attaches wall time and operator-product
counts to the verdict.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Optional, Union

import numpy as np

from . import problems as _problems
from .linalg import (
    DependentColumnError,
    DimensionMismatchError,
    HessianOperator,
    NullSpaceBasis,
    NullSpaceProjector,
    RankDeficientError,
    BorderedLu,
    SingularMinorError,
    check_full_rank,
    ldl_factor,
    null_space_basis,
)

__all__ = [
    "Status",
    "SoscVerdict",
    "CholeskyTrace",
    "VerifyOptions",
    "METHODS",
    "implicit_cholesky",
    "cholesky_negative_direction",
    "diagonalization",
    "continued_pcg",
    "bordered_hessian_test",
    "inertia_test",
    "verify",
]

METHODS = ("cholesky", "diagonalization", "pcg", "bht", "inertia")


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    ERROR = "error"


@dataclasses.dataclass
class SoscVerdict:
    """Outcome of one verification.

    A FAILS verdict from a matrix-free test always carries a feasible
    direction of negative curvature whose feasibility and curvature were
    re-verified before the verdict was emitted; the two classical tests
    report failure without a direction.  ERROR marks inconclusive runs
    (boundary pivots, singular minors, rank-deficient constraints,
    certificate verification failures) and carries a reason string.
    """

    status: Status
    direction: Optional[np.ndarray] = None
    curvature: Optional[float] = None
    step: Optional[int] = None
    reason: Optional[str] = None
    diagnostics: dict = dataclasses.field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS


@dataclasses.dataclass
class CholeskyTrace:
    """Pivots and the triangular array of inner products of a Cholesky run.

    ``cross[m, k]`` holds the inner product of the m-th conjugated vector
    with the k-th basis column, stored as computed so the failure direction
    needs no recomputation.
    """

    alphas: np.ndarray
    cross: np.ndarray


def _feasibility_defect(A: Optional[np.ndarray], d: np.ndarray) -> float:
    """|A d|_inf relative to |d| |A|_F; zero when no Jacobian is attached."""
    if A is None or A.shape[0] == 0:
        return 0.0
    scale = float(np.linalg.norm(d)) * float(np.linalg.norm(A, "fro"))
    if scale == 0.0:
        return np.inf
    return float(np.linalg.norm(A @ d, np.inf)) / scale


def _certified_failure(
    hessian: HessianOperator,
    A: Optional[np.ndarray],
    d: np.ndarray,
    step: int,
    tol_feas: float,
    diagnostics: dict,
) -> SoscVerdict:
    """Re-verify a candidate direction through the operator before emitting
    FAILS; round-off pathologies downgrade to ERROR."""
    curvature = float(d @ hessian.apply(d))
    defect = _feasibility_defect(A, d)
    if curvature >= 0.0 or defect > tol_feas:
        return SoscVerdict(
            Status.ERROR,
            step=step,
            reason="verification_failed",
            diagnostics=dict(
                diagnostics, recomputed_curvature=curvature, feasibility_defect=defect
            ),
        )
    return SoscVerdict(
        Status.FAILS, direction=d, curvature=curvature, step=step,
        diagnostics=diagnostics,
    )


def _classify(alpha: float, scale: float, tol_alpha: float) -> int:
    """Three-way pivot sign: +1 accept, -1 negative curvature, 0 boundary."""
    thresh = tol_alpha * scale
    if alpha > thresh:
        return 1
    if alpha < -thresh:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Implicit Cholesky
# ---------------------------------------------------------------------------


def implicit_cholesky(
    hessian: HessianOperator,
    basis: NullSpaceBasis,
    variant: str = "modified",
    tol_alpha: float = 0.0,
    tol_feas: float = 1e-8,
) -> SoscVerdict:
    """Pivot recurrence of the reduced Cholesky factorization, matrix-free.

    The reduced matrix is positive definite exactly when every pivot is
    positive.  The Hessian is applied to the whole basis at once (L
    products); the Gram-Schmidt style elimination then works on the
    product block.  The "modified" variant subtracts each finished vector
    from all later ones immediately; the "classical" variant accumulates
    the subtractions when a vector is reached.  On a negative pivot the
    stored trace is back-substituted into a feasible direction of negative
    curvature; a pivot at the boundary (within ``tol_alpha`` of zero,
    scaled) yields an inconclusive ERROR since definiteness is neither
    verified nor refuted.
    """
    if variant not in ("modified", "classical"):
        raise ValueError("variant must be 'modified' or 'classical'")
    W = basis.matrix
    N, L = W.shape
    if hessian.dimension != N:
        raise DimensionMismatchError("operator and basis dimensions differ")

    start = hessian.product_count
    V = hessian.apply_block(W)
    alphas = np.zeros(L)
    cross = np.zeros((L, L))

    failing = None
    boundary = None
    for n in range(L):
        if variant == "classical" and n > 0:
            # pivot numerators use the fixed basis column, so the whole
            # inner loop collapses to one block operation
            g = V[:, :n].T @ W[:, n]
            cross[:n, n] = g
            V[:, n] -= V[:, :n] @ (g / alphas[:n])
        alpha = float(W[:, n] @ V[:, n])
        scale = float(np.linalg.norm(W[:, n]) * np.linalg.norm(V[:, n]))
        alphas[n] = alpha
        kind = _classify(alpha, scale, tol_alpha)
        if kind < 0:
            failing = n
            break
        if kind == 0:
            boundary = n
            break
        if variant == "modified" and n + 1 < L:
            g = V[:, n] @ W[:, n + 1 :]
            cross[n, n + 1 :] = g
            V[:, n + 1 :] -= np.outer(V[:, n], g / alpha)

    trace = CholeskyTrace(alphas, cross)
    diagnostics = {"operator_products": hessian.product_count - start}
    if boundary is not None:
        diagnostics["alpha"] = alphas[boundary]
        return SoscVerdict(
            Status.ERROR, step=boundary + 1, reason="semidefinite_boundary",
            diagnostics=diagnostics,
        )
    if failing is None:
        diagnostics["alphas"] = alphas
        return SoscVerdict(Status.HOLDS, diagnostics=diagnostics)

    d = cholesky_negative_direction(trace, W, failing + 1)
    verdict = _certified_failure(
        hessian, basis.jacobian, d, failing + 1, tol_feas, diagnostics
    )
    verdict.diagnostics["operator_products"] = hessian.product_count - start
    verdict.diagnostics["alpha"] = alphas[failing]
    return verdict


def cholesky_negative_direction(trace: CholeskyTrace, W: np.ndarray, n: int) -> np.ndarray:
    """Back-substitute the stored trace into the failure direction.

    For a negative pivot at (1-based) step ``n`` the direction is a
    combination of the first ``n`` basis columns with trailing coefficient
    one; the earlier coefficients come from back substitution through the
    triangular array of stored inner products, which makes the direction's
    curvature equal the failing pivot.
    """
    idx = n - 1
    if trace.alphas[idx] >= 0:
        raise ValueError("trace does not fail at the requested step")
    s = np.zeros(n)
    s[idx] = 1.0
    for m in range(idx - 1, -1, -1):
        s[m] = -(trace.cross[m, m + 1 : n] @ s[m + 1 :]) / trace.alphas[m]
    return W[:, :n] @ s


# ---------------------------------------------------------------------------
# Oblique diagonalization
# ---------------------------------------------------------------------------


def diagonalization(
    hessian: HessianOperator,
    basis: NullSpaceBasis,
    variant: str = "modified",
    tol_alpha: float = 0.0,
    tol_feas: float = 1e-8,
) -> SoscVerdict:
    """Oblique Gram-Schmidt conjugation of the basis, one product per step.

    The basis is transformed in place so the reduced matrix becomes
    diagonal; its entries are the pivots.  Unlike the Cholesky form the
    failing conjugated vector itself is the feasible direction of negative
    curvature, with no back substitution.
    """
    if variant not in ("modified", "classical"):
        raise ValueError("variant must be 'modified' or 'classical'")
    W = basis.matrix
    N, L = W.shape
    if hessian.dimension != N:
        raise DimensionMismatchError("operator and basis dimensions differ")

    start = hessian.product_count
    V = W.copy()
    alphas = np.zeros(L)
    Z = np.zeros((N, L)) if variant == "classical" else None

    failing = None
    boundary = None
    for n in range(L):
        if variant == "classical":
            v = W[:, n].copy()
            for m in range(n):
                v -= ((Z[:, m] @ v) / alphas[m]) * V[:, m]
            V[:, n] = v
        z = hessian.apply(V[:, n])
        alpha = float(V[:, n] @ z)
        scale = float(np.linalg.norm(V[:, n]) * np.linalg.norm(z))
        alphas[n] = alpha
        kind = _classify(alpha, scale, tol_alpha)
        if kind < 0:
            failing = n
            break
        if kind == 0:
            boundary = n
            break
        if variant == "classical":
            Z[:, n] = z
        elif n + 1 < L:
            V[:, n + 1 :] -= np.outer(V[:, n], (z @ W[:, n + 1 :]) / alpha)

    diagnostics = {"operator_products": hessian.product_count - start}
    if boundary is not None:
        diagnostics["alpha"] = alphas[boundary]
        return SoscVerdict(
            Status.ERROR, step=boundary + 1, reason="semidefinite_boundary",
            diagnostics=diagnostics,
        )
    if failing is None:
        diagnostics["alphas"] = alphas
        return SoscVerdict(Status.HOLDS, diagnostics=diagnostics)

    verdict = _certified_failure(
        hessian, basis.jacobian, V[:, failing].copy(), failing + 1, tol_feas,
        diagnostics,
    )
    verdict.diagnostics["operator_products"] = hessian.product_count - start
    verdict.diagnostics["alpha"] = alphas[failing]
    return verdict


# ---------------------------------------------------------------------------
# Continued projected conjugate gradients
# ---------------------------------------------------------------------------


def continued_pcg(
    hessian: HessianOperator,
    projector: NullSpaceProjector,
    tol: float = 1e-10,
    tol_alpha: float = 0.0,
    tol_feas: float = 1e-8,
    seed: int = 0,
    max_seed_draws: int = 3,
    keep_directions: bool = False,
    b0: Optional[np.ndarray] = None,
) -> SoscVerdict:
    """Projected CG with continuation until the null space is exhausted.

    Convergence of a CG sweep alone says nothing about definiteness, so a
    converged sweep (projected residual norm squared at or below ``tol``)
    appends its conjugated images to the projector and restarts from a
    fresh pseudorandom seed projected into the shrunken subspace.  The
    verdict is HOLDS only after as many conjugate directions as the null
    space has dimensions, every one with positive curvature; a nonpositive
    curvature value stops the search, the current search direction being
    the certificate.  Failing to draw a usable restart seed with dimensions
    still unsearched is reported as an inconclusive ERROR.

    ``b0`` overrides the pseudorandom first seed (it is projected onto the
    feasible subspace); restarts always draw from the seeded generator.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    N = hessian.dimension
    if projector.dimension != N:
        raise DimensionMismatchError("operator and projector dimensions differ")
    L = N - projector.n_constraints

    start = hessian.product_count
    rng = np.random.default_rng(seed)
    directions = [] if keep_directions else None
    sweep_sizes = [] if keep_directions else None

    def draw_seed() -> Optional[np.ndarray]:
        for _ in range(max_seed_draws):
            cand = projector.project(rng.standard_normal(N))
            if float(np.linalg.norm(cand)) >= tol:
                return cand
        return None

    def finish(verdict: SoscVerdict) -> SoscVerdict:
        verdict.diagnostics["operator_products"] = hessian.product_count - start
        verdict.diagnostics["continuations"] = continuations
        verdict.diagnostics["sweeps_converged"] = sweeps_converged
        if keep_directions:
            verdict.diagnostics["directions"] = directions
            verdict.diagnostics["sweep_sizes"] = sweep_sizes
        return verdict

    continuations = 0
    sweeps_converged = 0
    n_conj = 0
    if b0 is not None:
        b = projector.project(np.asarray(b0, dtype=float))
        if float(np.linalg.norm(b)) < tol:
            b = draw_seed()
    else:
        b = draw_seed()
    if b is None:
        return finish(
            SoscVerdict(Status.ERROR, reason="subspace_exhausted", diagnostics={})
        )

    while True:
        r = b / float(np.linalg.norm(b))
        s = projector.project(r)
        omega = float(r @ s)
        p = s.copy()
        sweep_images = []
        if keep_directions:
            sweep_sizes.append(0)

        while n_conj < L:
            tau = omega
            q = hessian.apply(p)
            eta = float(p @ q)
            scale = float(np.linalg.norm(p) * np.linalg.norm(q))
            kind = _classify(eta, scale, tol_alpha)
            if kind < 0:
                diagnostics = {"eta": eta}
                verdict = _certified_failure(
                    hessian, projector.jacobian, p.copy(), n_conj + 1, tol_feas,
                    diagnostics,
                )
                return finish(verdict)
            if kind == 0:
                return finish(
                    SoscVerdict(
                        Status.ERROR, step=n_conj + 1,
                        reason="semidefinite_boundary", diagnostics={"eta": eta},
                    )
                )
            n_conj += 1
            sweep_images.append(q)
            if keep_directions:
                directions.append(p.copy())
                sweep_sizes[-1] += 1
            r = r - (tau / eta) * q
            s = projector.project(r)
            omega = float(r @ s)
            if abs(omega) <= tol:
                sweeps_converged += 1
                break
            p = s + (omega / tau) * p

        if n_conj >= L:
            return finish(SoscVerdict(Status.HOLDS, diagnostics={}))

        # converged early: restrict the subspace to the conjugate
        # complement of this sweep and restart
        continuations += 1
        for q in sweep_images:
            try:
                projector.append_column(q)
            except DependentColumnError:
                # long sweeps can emit images that are numerically inside
                # the span already annihilated; restricting by them again
                # is a no-op, so they are skipped
                continue
        b = draw_seed()
        if b is None:
            return finish(
                SoscVerdict(Status.ERROR, reason="subspace_exhausted", diagnostics={})
            )


# ---------------------------------------------------------------------------
# Bordered Hessian test
# ---------------------------------------------------------------------------


def _dense_hessian(hessian: Union[HessianOperator, np.ndarray]) -> np.ndarray:
    """The operator's stored matrix, read without a copy, or the matrix
    assembled from N products; a bare array goes through
    :meth:`HessianOperator.from_matrix` like any dense Hessian."""
    if not isinstance(hessian, HessianOperator):
        hessian = HessianOperator.from_matrix(hessian)
    if hessian.matrix is not None:
        return hessian.matrix
    return hessian.materialize()


def bordered_hessian_test(
    hessian: Union[HessianOperator, np.ndarray],
    A: np.ndarray,
    pivot_tol: float = 1e-8,
) -> SoscVerdict:
    """Sign test on the trailing leading principal minors of the bordered
    matrix.

    The condition holds exactly when the last L leading principal minors
    of [[0, A], [A^T, H]] all have sign (-1)^M.  The minors are factored
    through one growing LU updated border by border instead of L
    independent factorizations.  Needs the Hessian entries explicitly
    (operator-backed Hessians are materialized first); provides no
    direction of negative curvature on failure.  A numerically singular
    minor makes the test inconclusive, which is reported as ERROR rather
    than as a failure of the condition.
    """
    H = _dense_hessian(hessian)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M, N = A.shape
    if H.shape[0] != N:
        raise DimensionMismatchError("H and A dimensions are inconsistent")
    L = N - M
    B = _problems.build_bordered(H, A)
    expected = -1 if M % 2 else 1

    lu = BorderedLu(B[: 2 * M, : 2 * M], pivot_tol=pivot_tol)
    for i in range(1, L + 1):
        dim = 2 * M + i
        try:
            sign = lu.update(B[: dim - 1, dim - 1], B[dim - 1, dim - 1])
        except SingularMinorError as exc:
            return SoscVerdict(
                Status.ERROR, step=i, reason="singular_minor",
                diagnostics={"minors": i, "detail": str(exc)},
            )
        if sign != expected:
            return SoscVerdict(
                Status.FAILS, step=i, diagnostics={"minors": i, "sign": sign}
            )
    return SoscVerdict(Status.HOLDS, diagnostics={"minors": L})


# ---------------------------------------------------------------------------
# Inertia test
# ---------------------------------------------------------------------------


def inertia_test(
    hessian: Union[HessianOperator, np.ndarray],
    A: np.ndarray,
) -> SoscVerdict:
    """Single-factorization test on the saddle-point matrix.

    The condition holds exactly when the inertia of [[H, A^T], [A, 0]] is
    (N, M, 0).  The inertia is read off the block-diagonal factor of one
    symmetric-indefinite LDL factorization; this is exact for the computed
    factor even in floating point, though the computed factor itself may
    misrepresent a matrix with eigenvalues at roundoff scale.  No
    direction of negative curvature is available on failure.
    """
    H = _dense_hessian(hessian)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M, N = A.shape
    if H.shape[0] != N:
        raise DimensionMismatchError("H and A dimensions are inconsistent")
    K = _problems.build_kkt(H, A)
    fact = ldl_factor(K)
    diagnostics = {"inertia": fact.inertia}
    if fact.inertia == (N, M, 0):
        return SoscVerdict(Status.HOLDS, diagnostics=diagnostics)
    return SoscVerdict(Status.FAILS, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class VerifyOptions:
    """Tolerances and method switches shared by the verifiers.

    ``tol_rank=None`` selects the scaled default constraint-rank guard;
    zero disables the guard so the tests run on whatever the factorizations
    produce (the benchmark harness does this to expose round-off behavior).
    """

    variant: str = "modified"
    basis_method: str = "qr_at"
    tol_alpha: float = 0.0
    tol_feas: float = 1e-8
    pcg_tol: float = 1e-10
    tol_rank: Optional[float] = None
    fd_sigma: float = 1e-6
    seed: int = 0


def verify(
    problem: "_problems.Problem",
    method: str = "cholesky",
    options: Optional[VerifyOptions] = None,
) -> SoscVerdict:
    """Run one verification method on a problem.

    Builds the Hessian operator and the basis or projector the method
    needs, hands the two classical tests that same operator (they read its
    dense matrix, or materialize a product-backed one), and attaches wall
    time and the operator-product count to the verdict diagnostics.  Rank-deficient
    constraints (failed LICQ guard) produce an ERROR verdict rather than
    an exception.
    """
    if options is None:
        options = VerifyOptions()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")

    t0 = time.perf_counter()
    hessian = problem.operator(options.fd_sigma)
    verdict: SoscVerdict

    try:
        if method in ("cholesky", "diagonalization"):
            basis = null_space_basis(
                problem.jacobian, options.basis_method, options.tol_rank
            )
            runner = implicit_cholesky if method == "cholesky" else diagonalization
            verdict = runner(
                hessian, basis, variant=options.variant,
                tol_alpha=options.tol_alpha, tol_feas=options.tol_feas,
            )
        elif method == "pcg":
            check_full_rank(problem.jacobian, options.tol_rank)
            projector = NullSpaceProjector(problem.jacobian)
            verdict = continued_pcg(
                hessian, projector, tol=options.pcg_tol,
                tol_alpha=options.tol_alpha, tol_feas=options.tol_feas,
                seed=options.seed,
            )
        else:
            check_full_rank(problem.jacobian, options.tol_rank)
            runner = bordered_hessian_test if method == "bht" else inertia_test
            verdict = runner(hessian, problem.jacobian)
    except RankDeficientError as exc:
        verdict = SoscVerdict(
            Status.ERROR, reason="rank_deficient", diagnostics={"detail": str(exc)}
        )

    verdict.diagnostics["method"] = method
    verdict.diagnostics["wall_time_s"] = time.perf_counter() - t0
    verdict.diagnostics.setdefault("operator_products", hessian.product_count)
    verdict.diagnostics.setdefault("continuations", 0)
    return verdict
