"""Five interchangeable tests of constrained positive-definiteness.

Each verifier decides whether the Lagrangian Hessian is positive definite
over the null space of the constraint Jacobian and returns a
:class:`SoscVerdict`: HOLDS, FAILS (with a feasible direction of negative
curvature for the three matrix-free tests), or ERROR when the test is
inconclusive.

Every test receives H as a :class:`HessianOperator`; for a dense H that
is ``HessianOperator.from_matrix(H)``.  The three matrix-free tests need
only products ``s -> H s``:

  - :func:`implicit_cholesky` forms the reduced matrix ``W^T H W`` from one
    block product of L Hessian products and reads its Cholesky pivots from
    LAPACK ``dpotrf`` on leading blocks of doubling order, from 256 on,
    which stop at the block that holds the first failing pivot;
  - :func:`diagonalization` obliquely conjugates the basis so the reduced
    matrix becomes diagonal, one product per step: earlier steps reach
    each 64-column panel through two matrix products, and each step
    inside a panel applies the panel's earlier steps to its own column
    only (two matrix-vector products);
  - :func:`continued_pcg` runs projected conjugate gradients and restarts
    in the conjugate complement of the searched directions until the null
    space is exhausted or negative curvature appears.

The two classical tests need the Hessian entries explicitly; they read
the operator's stored matrix, or materialize a product-backed one:

  - :func:`bordered_hessian_test` checks the signs of the trailing leading
    principal minors of the bordered matrix: one LU of the 2M x 2M seed,
    then the Cholesky pivots of the Schur complement of the border (BLAS
    ``dtrsm`` and one product for the columns of each leading block, in
    place, and LAPACK ``dpotrf``), in leading blocks of doubling order as
    for the Cholesky test; a verdict reached in one update assembles no
    extended factors;
  - :func:`inertia_test` factors the saddle-point matrix once (block LDL)
    and compares its inertia against (N, M, 0).

:func:`verify` dispatches on a method name, builds a fresh operator and
whatever basis or projector the method needs, and attaches wall time and
the operator's ``product_count`` to the verdict; no test counts products
itself.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
import math
import numbers
import time
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dnrm2

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
    _as_jacobian,
    _leading_cholesky,
    check_full_rank,
    ldl_factor,
    null_space_basis,
)

__all__ = [
    "Status",
    "SoscVerdict",
    "VerifyOptions",
    "METHODS",
    "implicit_cholesky",
    "diagonalization",
    "continued_pcg",
    "bordered_hessian_test",
    "inertia_test",
    "verify",
]

METHODS = ("cholesky", "diagonalization", "pcg", "bht", "inertia")

_log = logging.getLogger(__name__)

# The verifiers' fixed tolerances; the finite-difference scale is
# :data:`curvcheck.linalg.FD_SIGMA`.  There is no pivot threshold: a pivot
# or curvature counts as positive only when it is > 0.
#: largest feasibility defect |A d|_inf / (|d| |A|_F) of a certificate
TOL_FEAS = 1e-8
#: projected residual norm squared at which a pcg sweep has converged
PCG_TOL = 1e-10


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


def _feasibility_defect(A: np.ndarray, d: np.ndarray) -> float:
    """|A d|_inf relative to |d| |A|_F; zero when A has no rows.

    BLAS ``dnrm2`` scales as it sums, so |A|_F of a finite A cannot
    overflow and turn the defect into zero."""
    if A.shape[0] == 0:
        return 0.0
    scale = float(dnrm2(d)) * float(dnrm2(A.ravel()))
    if not scale > 0.0:
        return np.inf
    return float(np.linalg.norm(A @ d, np.inf)) / scale


def _certified_failure(
    hessian: HessianOperator,
    A: np.ndarray,
    d: np.ndarray,
    step: int,
    diagnostics: dict,
) -> SoscVerdict:
    """Re-verify a candidate direction through the operator before emitting
    FAILS; a nonnegative curvature or a feasibility defect above
    :data:`TOL_FEAS` downgrades to ERROR, and a curvature that is not
    finite to ERROR ``non_finite``: it certifies nothing."""
    curvature = float(d @ hessian.apply(d))
    if not np.isfinite(curvature):
        return SoscVerdict(
            Status.ERROR, step=step, reason="non_finite",
            diagnostics=dict(diagnostics, recomputed_curvature=curvature),
        )
    defect = _feasibility_defect(A, d)
    if curvature >= 0.0 or defect > TOL_FEAS:
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


def _classify(alpha: float) -> str:
    """What a pivot or curvature says: ``"positive"`` (accept),
    ``"negative"`` (negative curvature), or the reason of an inconclusive
    ERROR, ``"non_finite"`` for NaN or inf and ``"semidefinite_boundary"``
    for zero."""
    if not math.isfinite(alpha):
        return "non_finite"
    if alpha > 0.0:
        return "positive"
    if alpha < 0.0:
        return "negative"
    return "semidefinite_boundary"


def _stopped(
    hessian: HessianOperator,
    A: np.ndarray,
    alpha: float,
    direction: Optional[Callable[[], np.ndarray]],
    step: int,
    diagnostics: dict,
) -> SoscVerdict:
    """The verdict of a matrix-free test that stopped at ``step`` on the
    pivot or curvature ``alpha``: a negative one is passed to
    :func:`_certified_failure` with the candidate ``direction()``, which is
    called in that case only; any other is an inconclusive ERROR with
    :func:`_classify`'s reason, where a positive one (a pivot ``dpotrf``
    stopped at whose recomputation is positive) is at the boundary too."""
    kind = _classify(alpha)
    if kind == "negative":
        return _certified_failure(hessian, A, direction(), step, diagnostics)
    return SoscVerdict(
        Status.ERROR, step=step,
        reason="semidefinite_boundary" if kind == "positive" else kind,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Implicit Cholesky
# ---------------------------------------------------------------------------


def implicit_cholesky(
    hessian: HessianOperator,
    basis: NullSpaceBasis,
) -> SoscVerdict:
    """Cholesky factorization of the reduced matrix ``W^T H W``.

    The reduced matrix is positive definite exactly when every pivot is
    positive.  The Hessian is applied to the whole basis at once (L
    products), and LAPACK ``dpotrf`` factors leading blocks of the reduced
    matrix ``R = V^T W``, ``V = H W``, of order 256, 512, ... up to L, each
    try forming only the columns it adds to R, until a block holds a
    pivot that ``dpotrf`` stops at or that is not finite; a failure pays
    only for the leading block that holds it, and L <= 256 takes one call.
    The pivots are the squared diagonal of the triangular factor.
    ``dpotrf`` stops at the first nonpositive pivot, which is then
    recomputed from the partial factor; two triangular solves turn the
    partial factor into a feasible direction of negative curvature whose
    curvature is that pivot.  A zero pivot, or one that the two disagree
    on, yields an inconclusive ERROR ``semidefinite_boundary``, and a NaN
    or inf pivot ERROR ``non_finite`` at its step, since definiteness is
    neither verified nor refuted.
    """
    W = basis.matrix
    N, L = W.shape
    if hessian.dimension != N:
        raise DimensionMismatchError("operator and basis dimensions differ")

    V = hessian.apply_block(W)
    # the upper triangle of V^T W holds (H w_i) . w_j for i <= j, the inner
    # products of the modified elimination recurrence; a finite-difference
    # product block is not exactly symmetric, and this keeps its pivots.
    # Each try of _leading_cholesky forms the columns it adds, and R keeps
    # them for the recomputed pivot of a failure
    R = np.empty((L, L))

    def fill(done, size):
        np.matmul(V[:, :size].T, W[:, done:size], out=R[:size, done:size])

    # OpenBLAS dpotrf does not stop at a NaN pivot
    U, alphas = _leading_cholesky(R, fill, lambda p: not np.isfinite(p).all())
    k = alphas.size
    # the rule of _stopped applied to every returned pivot at once: these
    # are squares, so a rejected one is zero (also a square that
    # underflowed) or not finite, and no direction is needed
    rejected = np.flatnonzero(~(np.isfinite(alphas) & (alphas > 0.0)))

    if rejected.size:
        k = int(rejected[0])
        verdict = _stopped(hessian, basis.jacobian, alphas[k], None, k + 1,
                           {"alpha": alphas[k]})
    elif k == L:
        verdict = SoscVerdict(Status.HOLDS, diagnostics={"alphas": alphas})
    else:
        # dpotrf stopped at pivot k: recompute it from the partial factor
        t = solve_triangular(U[:k, :k], R[:k, k], trans="T", check_finite=False)
        s = solve_triangular(U[:k, :k], t, check_finite=False)
        alpha = float(R[k, k] - t @ t)
        verdict = _stopped(hessian, basis.jacobian, alpha,
                           lambda: W[:, k] - W[:, :k] @ s, k + 1, {"alpha": alpha})
    return verdict


# ---------------------------------------------------------------------------
# Oblique diagonalization
# ---------------------------------------------------------------------------

# columns per panel of the diagonalization: wide enough that the
# two panel-entry products run at matrix-product speed, narrow enough that
# the left-looking update of each column inside a panel stays cheap
_PANEL = 64


def diagonalization(
    hessian: HessianOperator,
    basis: NullSpaceBasis,
) -> SoscVerdict:
    """Oblique Gram-Schmidt conjugation of the basis, one product per step.

    The basis is transformed so the reduced matrix becomes diagonal; its
    entries are the pivots.  Unlike the Cholesky form the failing
    conjugated vector itself is the feasible direction of negative
    curvature, with no back substitution.

    Step m subtracts ``(z_m . w_j / alpha_m) v_m`` from every later
    column j, with ``z_m = H v_m`` (modified Gram-Schmidt); the coefficient
    reads the original basis column ``w_j``, so the updates can be applied
    in any grouping.  The columns are taken in panels of
    :data:`_PANEL` columns: on entering a panel, all earlier steps are
    applied to it at once by two matrix products, ``V_J -= V_{<J}
    ((Z_{<J}^T W_J) / alpha_{<J})``.  Inside a panel starting at column s
    the update is left-looking: step n applies the panel's earlier steps
    to its own column only, ``v_n -= V_{s:n} ((Z_{s:n}^T w_n) /
    alpha_{s:n})``, with V and Z in Fortran order so that each column is
    contiguous.  A failure pays only for the steps it reached.  A zero
    pivot is ERROR ``semidefinite_boundary``, a NaN or inf pivot ERROR
    ``non_finite``, at its step.
    """
    W = basis.matrix
    N, L = W.shape
    if hessian.dimension != N:
        raise DimensionMismatchError("operator and basis dimensions differ")

    V = np.array(W, order="F")
    alphas = np.zeros(L)
    Z = np.empty((N, L), order="F")

    for n in range(L):
        v = V[:, n]
        if n % _PANEL == 0:
            s = n
            if n:
                end = min(n + _PANEL, L)
                V[:, n:end] -= V[:, :n] @ ((Z[:, :n].T @ W[:, n:end]) / alphas[:n, None])
        else:
            v -= V[:, s:n] @ ((W[:, n] @ Z[:, s:n]) / alphas[s:n])
        z = hessian.apply(v)
        alpha = float(v @ z)
        alphas[n] = alpha
        if _classify(alpha) != "positive":
            verdict = _stopped(hessian, basis.jacobian, alpha, v.copy, n + 1,
                               {"alpha": alphas[n]})
            break
        Z[:, n] = z
    else:
        verdict = SoscVerdict(Status.HOLDS, diagnostics={"alphas": alphas})
    return verdict


# ---------------------------------------------------------------------------
# Continued projected conjugate gradients
# ---------------------------------------------------------------------------


# pseudorandom restart seeds drawn before an unsearched subspace counts as
# exhausted: a Gaussian draw projects to below :data:`PCG_TOL` only when
# the subspace left is numerically empty
_SEED_DRAWS = 3


def continued_pcg(
    hessian: HessianOperator,
    projector: NullSpaceProjector,
    seed: int = 0,
    b0: Optional[np.ndarray] = None,
) -> SoscVerdict:
    """Projected CG with continuation until the null space is exhausted.

    Convergence of a CG sweep alone says nothing about definiteness, so a
    converged sweep (projected residual norm squared at or below
    :data:`PCG_TOL`) appends its conjugated images to the projector and
    restarts from a fresh pseudorandom seed projected into the shrunken
    subspace.  The verdict is HOLDS only after as many conjugate directions
    as the null space has dimensions, every one with positive curvature; a
    nonpositive curvature value stops the search, the current search
    direction being the certificate.  Failing to draw a usable restart
    seed with dimensions still unsearched, in :data:`_SEED_DRAWS`
    attempts, is reported as an inconclusive ERROR; so is a zero
    curvature (``semidefinite_boundary``) or a NaN or inf one
    (``non_finite``), at its step.

    ``b0`` overrides the pseudorandom first seed (it is projected onto the
    feasible subspace); restarts always draw from the seeded generator
    and are logged at DEBUG level.  A seed is projected when it is drawn,
    so it is its own projection and a sweep starts without projecting it
    again; the residual and the search direction are then updated in
    place.  Each search direction is the argument of one
    ``hessian.apply``, and each continuation appends its sweep's images
    as one :meth:`NullSpaceProjector.append_column` block.
    """
    N = hessian.dimension
    if projector.dimension != N:
        raise DimensionMismatchError("operator and projector dimensions differ")
    L = N - projector.n_constraints

    rng = np.random.default_rng(seed)

    continuations = 0
    sweeps_converged = 0
    n_conj = 0
    b = None if b0 is None else projector.project(np.asarray(b0, dtype=float))
    while True:
        # draw the first seed, unless b0 projects to a usable one, and each
        # restart's
        if b is None or float(dnrm2(b)) < PCG_TOL:
            for _ in range(_SEED_DRAWS):
                b = projector.project(rng.standard_normal(N))
                if float(dnrm2(b)) >= PCG_TOL:
                    break
            else:
                verdict = SoscVerdict(Status.ERROR, reason="subspace_exhausted")
                break
        # the seed is its own projection, so r is its projected residual
        r = b / float(dnrm2(b))
        omega = float(r @ r)
        p = r.copy()
        sweep_images = []
        verdict = None

        while n_conj < L:
            tau = omega
            q = hessian.apply(p)
            eta = float(p @ q)
            if _classify(eta) != "positive":
                verdict = _stopped(hessian, projector.jacobian, eta, p.copy,
                                   n_conj + 1, {"eta": eta})
                break
            n_conj += 1
            sweep_images.append(q)
            r -= (tau / eta) * q
            s = projector.project(r)
            omega = float(r @ s)
            if abs(omega) <= PCG_TOL:
                sweeps_converged += 1
                break
            p *= omega / tau
            p += s

        if verdict is None and n_conj >= L:
            verdict = SoscVerdict(Status.HOLDS)
        if verdict is not None:
            break
        # converged early: restrict the subspace to the conjugate
        # complement of this sweep and restart
        continuations += 1
        _log.debug(
            "pcg: sweep %d converged after %d directions, %d of %d searched; "
            "restarting in their conjugate complement",
            continuations, len(sweep_images), n_conj, L,
        )
        try:
            # long sweeps can emit images that are numerically inside the
            # span already annihilated; restricting by them again is a
            # no-op, so the projector skips them
            projector.append_column(np.column_stack(sweep_images))
        except DependentColumnError:
            pass
        b = None

    verdict.diagnostics["continuations"] = continuations
    verdict.diagnostics["sweeps_converged"] = sweeps_converged
    return verdict


# ---------------------------------------------------------------------------
# Bordered Hessian test
# ---------------------------------------------------------------------------


def _dense_inputs(
    hessian: HessianOperator,
    A: np.ndarray,
):
    """The prelude of the two classical tests: the Hessian as a dense
    matrix, from :meth:`HessianOperator.materialize`, the Jacobian as an
    array, and ERROR ``non_finite`` when either holds NaN or inf, else
    None.  Raises :class:`DimensionMismatchError` when H and A disagree
    on N."""
    H = hessian.materialize()
    A = _as_jacobian(A)
    if H.shape[0] != A.shape[1]:
        raise DimensionMismatchError("H and A dimensions are inconsistent")
    return H, A, _non_finite(H, A)


def _non_finite(*arrays: np.ndarray) -> Optional[SoscVerdict]:
    """ERROR ``non_finite`` when one of ``arrays`` holds NaN or inf, else
    None."""
    if all(np.isfinite(a).all() for a in arrays):
        return None
    return SoscVerdict(
        Status.ERROR, reason="non_finite",
        diagnostics={"detail": "input holds NaN or inf"},
    )


def bordered_hessian_test(
    hessian: HessianOperator,
    A: np.ndarray,
) -> SoscVerdict:
    """Sign test on the trailing leading principal minors of the bordered
    matrix.

    The condition holds exactly when the last L leading principal minors
    of [[0, A], [A^T, H]] all have sign (-1)^M.  :class:`BorderedLu`
    factors the 2M x 2M seed of that one matrix once, and one
    :meth:`BorderedLu.update` asks for all L columns after it: the signs
    follow from the Cholesky pivots of the border's Schur complement,
    factored in leading blocks of doubling order up to the block that
    holds the first irregular pivot.  An irregular pivot (negative,
    stalled or singular) ends that update at its column, and the next
    update asks for the columns that are left.  Needs the Hessian entries
    explicitly: an explicit operator's stored matrix is read as it is, a
    product-backed one is materialized first (N products).  Provides no
    direction of negative curvature on failure.  A numerically singular
    minor makes the test inconclusive, which is reported as ERROR rather
    than as a failure of the condition; so is NaN or inf in H or A
    (``non_finite``), and a NaN or inf pivot (``non_finite`` at its step),
    where the factorization of finite entries overflowed.
    """
    H, A, rejected = _dense_inputs(hessian, A)
    if rejected is not None:
        return rejected
    M, N = A.shape
    L = N - M
    B = _problems.build_bordered(H, A)
    expected = -1 if M % 2 else 1

    lu = BorderedLu(B, 2 * M)
    i = 0
    while i < L:
        try:
            signs = lu.update(L - i)
        except (SingularMinorError, FloatingPointError) as exc:
            reason = "singular_minor" if isinstance(exc, SingularMinorError) else "non_finite"
            return SoscVerdict(
                Status.ERROR, step=i + 1, reason=reason,
                diagnostics={"minors": i + 1, "detail": str(exc)},
            )
        wrong = np.flatnonzero(signs != expected)
        if wrong.size:
            step = i + int(wrong[0]) + 1
            return SoscVerdict(
                Status.FAILS, step=step,
                diagnostics={"minors": step, "sign": int(signs[wrong[0]])},
            )
        i += signs.size
    return SoscVerdict(Status.HOLDS, diagnostics={"minors": L})


# ---------------------------------------------------------------------------
# Inertia test
# ---------------------------------------------------------------------------


def inertia_test(
    hessian: HessianOperator,
    A: np.ndarray,
) -> SoscVerdict:
    """Single-factorization test on the saddle-point matrix.

    The condition holds exactly when the inertia of [[H, A^T], [A, 0]] is
    (N, M, 0).  The inertia is counted from the 1x1 and 2x2 blocks of D in
    one Bunch-Kaufman factorization (LAPACK ``dsytrf``, the blocks located
    through its pivot vector); this is exact for the computed
    factor even in floating point, though the computed factor itself may
    misrepresent a matrix with eigenvalues at roundoff scale.  H comes
    from the operator as for :func:`bordered_hessian_test`.  No
    direction of negative curvature is available on failure.  NaN or inf
    in H or A gives ERROR ``non_finite``, and so does NaN or inf in D,
    where the factorization of finite entries overflowed.
    """
    H, A, rejected = _dense_inputs(hessian, A)
    if rejected is not None:
        return rejected
    M, N = A.shape
    K = _problems.build_kkt(H, A)
    fact = ldl_factor(K)
    diagnostics = {"inertia": fact.inertia}
    if not fact.finite:
        diagnostics["detail"] = "D holds NaN or inf"
        return SoscVerdict(Status.ERROR, reason="non_finite", diagnostics=diagnostics)
    if fact.inertia == (N, M, 0):
        return SoscVerdict(Status.HOLDS, diagnostics=diagnostics)
    return SoscVerdict(Status.FAILS, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class VerifyOptions:
    """The settings of a verification; the verifiers' other tolerances are
    the constants :data:`TOL_FEAS`, :data:`PCG_TOL` and
    :data:`curvcheck.linalg.FD_SIGMA`.

    ``tol_rank=None`` selects the scaled default constraint-rank guard;
    zero disables the guard so the tests run on whatever the factorizations
    produce (the benchmark harness does this to expose round-off behavior).
    ``seed`` seeds the pseudorandom starts of ``pcg``.  A given
    ``tol_rank`` must be a finite and nonnegative real number, not a bool,
    and ``seed`` a nonnegative integer; any other value raises
    ``ValueError``, its message starting with the field's name.
    """

    tol_rank: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        tol_rank = self.tol_rank
        if tol_rank is not None and (
            isinstance(tol_rank, bool) or not isinstance(tol_rank, numbers.Real)
            or not (np.isfinite(tol_rank) and tol_rank >= 0)
        ):
            raise ValueError(f"tol_rank must be finite and nonnegative, got {tol_rank!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def verify(
    problem: "_problems.Problem",
    method: str = "cholesky",
    options: Optional[VerifyOptions] = None,
) -> SoscVerdict:
    """Run one verification method on a problem.

    Builds a fresh Hessian operator and the basis or projector the method
    needs, hands every test that same operator (the two classical tests
    read its dense matrix, or materialize a product-backed one), and
    attaches wall time and ``operator_products``, the operator's
    ``product_count`` after the test, to the verdict diagnostics.  Every
    method guards the constraint rank with :func:`check_full_rank` on the
    column-pivoted QR of ``A^T``: the basis and the projector read it from
    the QR they are built from, ``bht`` and ``inertia`` pay for the QR only
    when the guard is on.  Rank-deficient
    constraints (failed LICQ guard) and NaN or inf in the Jacobian or in a
    stored Hessian produce an ERROR verdict rather than an exception; for
    every method the latter is ERROR ``non_finite``, before the rank guard.
    A product-backed operator is not scanned; a matrix-free test answers
    ERROR ``non_finite`` too, at the step where a pivot, a curvature or
    the re-checked curvature of its failure direction is NaN or inf.
    """
    if options is None:
        options = VerifyOptions()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")

    t0 = time.perf_counter()
    hessian = problem.operator()
    verdict: SoscVerdict

    try:
        # the bases and the rank guard would raise on a non-finite Jacobian;
        # a non-finite stored Hessian gave NaN or inf pivots and curvatures
        stored = () if hessian.matrix is None else (hessian.matrix,)
        rejected = _non_finite(problem.jacobian, *stored)
        if rejected is not None:
            verdict = rejected
        elif method in ("cholesky", "diagonalization"):
            basis = null_space_basis(problem.jacobian, options.tol_rank)
            runner = implicit_cholesky if method == "cholesky" else diagonalization
            verdict = runner(hessian, basis)
        elif method == "pcg":
            projector = NullSpaceProjector(problem.jacobian, options.tol_rank)
            verdict = continued_pcg(hessian, projector, seed=options.seed)
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
    verdict.diagnostics["operator_products"] = hessian.product_count
    verdict.diagnostics.setdefault("continuations", 0)
    return verdict
