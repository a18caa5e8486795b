"""Test-problem construction with analytically known ground truth.

Provides the random dense generator whose constrained-definiteness truth is
known from its construction parameters, the KKT/bordered matrix builders,
a nearly-rank-deficient KKT construction whose smallest eigenvalue is
bounded by a chosen perturbation norm, the Thomson sphere problems in
frame-fixed form (rotational degeneracy removed), and JSON round-trip
serialization of dense problems.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Optional

import numpy as np

from .linalg import HessianOperator, _as_jacobian, _symmetric_part

__all__ = [
    "CannotNormalizeError",
    "CoincidentPointsError",
    "Problem",
    "GeneratorSpec",
    "generate",
    "random_orthogonal",
    "random_symmetric_with_eigs",
    "truth_probability",
    "sample_truth_rate",
    "build_kkt",
    "build_bordered",
    "near_rank_deficient_kkt",
    "ThomsonInstance",
    "ThomsonProblem",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
]


class CannotNormalizeError(ValueError):
    """The dependent-row combination vanished; it cannot be normalized."""


class CoincidentPointsError(ValueError):
    """Two sphere points coincide; the pairwise energy is undefined."""


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Problem:
    """An equality-constrained curvature-test instance.

    The Hessian is given one of three ways, tried in this order by
    :meth:`operator`: an explicit dense matrix ``hessian``, a matrix-vector
    callback ``matvec``, or a Lagrangian-gradient callback ``gradient``
    (finite differencing) together with the evaluation point ``x`` and
    multipliers ``lam``.  ``hessian`` is kept as given; the operator
    symmetrizes it.  ``ValueError`` is raised when N is below 1,
    ``hessian`` is not N x N, ``x`` not of length N or ``lam`` not of
    length M.
    """

    jacobian: np.ndarray
    hessian: Optional[np.ndarray] = None
    matvec: Optional[Callable] = None
    gradient: Optional[Callable] = None
    x: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None
    truth: Optional[bool] = None
    exact_basis: Optional[np.ndarray] = None
    provenance: Optional[dict] = None

    def __post_init__(self):
        self.jacobian = _as_jacobian(self.jacobian)
        if self.n < 1:
            raise ValueError(f"need at least one variable, got N={self.n}")
        if self.hessian is not None:
            self.hessian = np.asarray(self.hessian, dtype=float)
            if self.hessian.shape != (self.n, self.n):
                raise ValueError(
                    f"Hessian shape {self.hessian.shape} inconsistent with N={self.n}"
                )
        if self.x is not None:
            self.x = np.asarray(self.x, dtype=float)
            if self.x.shape != (self.n,):
                raise ValueError(f"x shape {self.x.shape} inconsistent with N={self.n}")
        if self.lam is not None:
            self.lam = np.asarray(self.lam, dtype=float)
            if self.lam.shape != (self.m,):
                raise ValueError(
                    f"lambda shape {self.lam.shape} inconsistent with M={self.m}"
                )

    @property
    def n(self) -> int:
        return self.jacobian.shape[1]

    @property
    def m(self) -> int:
        return self.jacobian.shape[0]

    @property
    def l(self) -> int:
        return self.n - self.m

    def operator(self) -> HessianOperator:
        """A fresh Hessian operator (fresh product counter) for this problem;
        a gradient-backed one steps :data:`~curvcheck.linalg.FD_SIGMA`."""
        if self.hessian is not None:
            return HessianOperator.from_matrix(self.hessian)
        if self.matvec is not None:
            return HessianOperator.from_callback(self.matvec, self.n)
        if self.gradient is not None:
            if self.x is None:
                raise ValueError("gradient-backed problem needs a base point x")
            return HessianOperator.from_gradient(self.gradient, self.x, self.lam)
        raise ValueError("problem has no Hessian representation")


# ---------------------------------------------------------------------------
# Random generator with analytic truth
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the random dense generator.

    The emitted Hessian is an orthogonal conjugation of a block-diagonal
    matrix with ``p`` positive and ``n - p`` negative eigenvalues whose
    magnitudes are drawn uniformly from ``[eig_lo, eig_hi]``; the
    transposed Jacobian is the trailing ``m`` columns of the same orthogonal
    factor times an upper-triangular matrix.  With that structure the
    condition holds exactly when ``n - m <= p``.
    """

    n: int
    m: int
    p: int
    conditioning: str = "well"
    eig_lo: float = 0.1
    eig_hi: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= self.m <= self.n - 1:
            raise ValueError("m must be in 1..n-1")
        if not 0 <= self.p <= self.n:
            raise ValueError("p must be in 0..n")
        if self.conditioning not in ("well", "ill"):
            raise ValueError("conditioning must be 'well' or 'ill'")
        if not 0 < self.eig_lo < self.eig_hi:
            raise ValueError("need 0 < eig_lo < eig_hi")

    @property
    def truth(self) -> bool:
        return self.n - self.m <= self.p


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, sign-fixed R)."""
    if n < 1:
        raise ValueError("n must be positive")
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def random_symmetric_with_eigs(eigs, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric matrix with the prescribed eigenvalues."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        return np.zeros((0, 0))
    Q = random_orthogonal(eigs.size, rng)
    return _symmetric_part((Q * eigs) @ Q.T)


def _draw_triangular(m: int, conditioning: str, rng: np.random.Generator) -> np.ndarray:
    R = np.triu(rng.standard_normal((m, m)), k=1)
    if conditioning == "well":
        # descending scales m, m-1, ..., 1 keep R comfortably nonsingular
        scales = np.arange(m, 0, -1, dtype=float)
        diag = rng.standard_normal(m) * scales
        floor = 0.0
    else:
        diag = rng.standard_normal(m)
        floor = 1e-300  # underflow guard: square Gaussian R can degenerate
    for i in range(m):
        while abs(diag[i]) <= floor:
            diag[i] = rng.standard_normal() * (m - i if conditioning == "well" else 1.0)
    R[np.arange(m), np.arange(m)] = diag
    return R


def generate(spec: GeneratorSpec) -> Problem:
    """Draw a random dense test problem with known truth and exact basis."""
    rng = np.random.default_rng(spec.seed)
    n, m, p = spec.n, spec.m, spec.p
    l = n - m

    mags = rng.uniform(spec.eig_lo, spec.eig_hi, size=n)
    lam_plus = mags[:p]
    lam_minus = -mags[p:]

    block_pos = random_symmetric_with_eigs(lam_plus, rng)
    block_neg = random_symmetric_with_eigs(lam_minus, rng)
    core = np.zeros((n, n))
    core[:p, :p] = block_pos
    core[p:, p:] = block_neg

    Q = random_orthogonal(n, rng)
    H = _symmetric_part(Q @ core @ Q.T)

    R = _draw_triangular(m, spec.conditioning, rng)
    A = (Q[:, l:] @ R).T

    provenance = dataclasses.asdict(spec)
    provenance["eigenvalues"] = np.concatenate([lam_plus, lam_minus]).tolist()
    return Problem(
        jacobian=A,
        hessian=H,
        truth=spec.truth,
        exact_basis=Q[:, :l].copy(),
        provenance=provenance,
    )


def truth_probability(n: int) -> float:
    """Probability the condition holds under uniform (m, p) draws."""
    return (n + 2) / (2.0 * (n + 1))


def sample_truth_rate(n: int, trials: int, rng: np.random.Generator) -> float:
    """Empirical fraction of draws with ``n - m <= p`` for uniform m, p."""
    if trials < 1:
        raise ValueError("trials must be positive")
    m = rng.integers(1, n, size=trials)
    p = rng.integers(0, n + 1, size=trials)
    return float(np.mean(n - m <= p))


# ---------------------------------------------------------------------------
# KKT / bordered matrices
# ---------------------------------------------------------------------------


def build_kkt(H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Saddle-point matrix [[H, A^T], [A, 0]]."""
    H = np.asarray(H, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if H.shape != (n, n):
        raise ValueError("H and A dimensions are inconsistent")
    # only the zero block is zeroed: at N = 1000 a fill of np.zeros took
    # 1.8-2.9 ms against 1.2 ms, and 1.4 ms for np.block
    K = np.empty((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = A.T
    K[n:, :n] = A
    K[n:, n:] = 0.0
    return K


def build_bordered(H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Bordered matrix [[0, A], [A^T, H]]."""
    H = np.asarray(H, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if H.shape != (n, n):
        raise ValueError("H and A dimensions are inconsistent")
    B = np.empty((m + n, m + n))
    B[:m, :m] = 0.0
    B[:m, m:] = A
    B[m:, :m] = A.T
    B[m:, m:] = H
    return B


def near_rank_deficient_kkt(H, A_prime, beta, eps):
    """KKT matrix whose last constraint row nearly depends on the others.

    The final row is ``sum(beta_m * a_m) + eps`` rescaled to unit norm
    (beta and eps are scaled jointly).  Returns the KKT matrix and the
    norm of the scaled perturbation; the matrix is guaranteed to have an
    eigenvalue of magnitude at most that norm.
    """
    H = np.asarray(H, dtype=float)
    A_prime = np.atleast_2d(np.asarray(A_prime, dtype=float))
    beta = np.asarray(beta, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if beta.shape != (A_prime.shape[0],):
        raise ValueError("beta must have one coefficient per existing row")
    if eps.shape != (A_prime.shape[1],):
        raise ValueError("eps must be an N-vector")
    if not np.any(beta):
        raise ValueError("beta must not be all zero")
    combo = beta @ A_prime + eps
    nrm = float(np.linalg.norm(combo))
    if nrm == 0.0:
        raise CannotNormalizeError("beta @ A' + eps vanished")
    a_last = combo / nrm
    A = np.vstack([A_prime, a_last])
    return build_kkt(H, A), float(np.linalg.norm(eps)) / nrm


# ---------------------------------------------------------------------------
# Thomson sphere problems
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ThomsonInstance:
    """K points on the unit sphere, frame-fixed: the first point is pinned
    to the first axis and the second point to the first-coordinate plane,
    which removes the rotational solution family.  N = 3K variables, M =
    K + 3 constraints."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least two points")

    @property
    def n(self) -> int:
        return 3 * self.k

    @property
    def m(self) -> int:
        return self.k + 3


class ThomsonProblem:
    """Callbacks for the pairwise inverse-distance energy on K spheres.

    Constraint ordering: the K sphere constraints ``(|x_k|^2 - 1)/2`` come
    first, then the three pinned coordinates ``x_{1,2}``, ``x_{1,3}``,
    ``x_{2,3}``.
    """

    def __init__(self, instance: ThomsonInstance):
        self.instance = instance

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    def _pairs(self, x: np.ndarray):
        """The points (K x 3) with their pairwise differences ``diff[c, a, b]
        = x_{a,c} - x_{b,c}`` (3 x K x K, one contiguous K x K plane per
        coordinate) and squared distances (K x K, inf on the diagonal, so
        that every inverse power of a distance reads 0 there).  Raises
        :class:`CoincidentPointsError` when the smallest distance is below
        1e-12."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}")
        k = self.instance.k
        pts = x.reshape(k, 3)
        # a contiguous copy first: broadcasting the strided transpose
        # took 3x longer at K = 50
        coords = np.ascontiguousarray(pts.T)
        diff = coords[:, :, None] - coords[:, None, :]
        r2 = np.einsum("cab,cab->ab", diff, diff)
        r2.flat[:: k + 1] = np.inf
        if np.sqrt(r2.min()) < 1e-12:
            raise CoincidentPointsError("two points (nearly) coincide")
        return pts, diff, r2

    @staticmethod
    def _energy(r2: np.ndarray) -> float:
        # every pair appears twice in the full matrix
        return 0.5 * float(np.sum(1.0 / np.sqrt(r2)))

    def objective(self, x: np.ndarray) -> float:
        return self._energy(self._pairs(x)[2])

    @staticmethod
    def _gradient(diff: np.ndarray, r2: np.ndarray) -> np.ndarray:
        # d/dx_a of 1/|x_a - x_b| is -(x_a - x_b)/|x_a - x_b|^3; the result
        # is coordinate-major (3 x K)
        return -np.einsum("cab,ab->ca", diff, 1.0 / (r2 * np.sqrt(r2)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        _, diff, r2 = self._pairs(x)
        return self._gradient(diff, r2).T.reshape(self.n)

    def constraints(self, x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float).reshape(self.instance.k, 3)
        vals = 0.5 * (np.sum(pts * pts, axis=1) - 1.0)
        return np.concatenate([vals, [pts[0, 1], pts[0, 2], pts[1, 2]]])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float).reshape(self.instance.k, 3)
        k = self.instance.k
        A = np.zeros((self.m, self.n))
        # sphere row i holds x_i in columns 3i..3i+2
        A[:k].reshape(k, k, 3)[np.arange(k), np.arange(k)] = pts
        A[k, 1] = 1.0
        A[k + 1, 2] = 1.0
        A[k + 2, 5] = 1.0
        return A

    def objective_hessian(self, x: np.ndarray) -> np.ndarray:
        _, diff, r2 = self._pairs(x)
        k = self.instance.k
        inv_r3 = 1.0 / (r2 * np.sqrt(r2))
        # pair blocks B[i, j, a, b] = 3 u_i u_j / |u|^5 - delta_ij / |u|^3
        # with u = x_a - x_b; u_i u_j is formed before it is scaled, so B
        # is exactly symmetric in (i, j) and in (a, b)
        blocks = (diff[:, None] * diff[None, :]) * (3.0 * inv_r3 / r2)
        idx = np.arange(3)
        blocks[idx, idx] -= inv_r3
        # the Hessian of 1/|x_a - x_b| is B in the (a, a) and (b, b) blocks
        # and -B in the (a, b) and (b, a) blocks
        H = np.empty((k, 3, k, 3))
        np.negative(blocks.transpose(2, 0, 3, 1), out=H)
        at = np.arange(k)
        H[at, :, at, :] = blocks.sum(axis=3).transpose(2, 0, 1)
        return H.reshape(self.n, self.n)

    def lagrangian_gradient(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """``gradient(x) - jacobian(x).T @ lam``, without forming the
        Jacobian: sphere row i adds ``lam_i x_i``, the pinned rows add
        their multiplier to x_{1,2}, x_{1,3} and x_{2,3}."""
        lam = np.asarray(lam, dtype=float)
        pts, diff, r2 = self._pairs(x)
        k = self.instance.k
        at_lam = pts * lam[:k, None]
        at_lam[0, 1] += lam[k]
        at_lam[0, 2] += lam[k + 1]
        at_lam[1, 2] += lam[k + 2]
        return (self._gradient(diff, r2).T - at_lam).reshape(self.n)

    def lagrangian_hessian(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        H = self.objective_hessian(x)
        # sphere constraints contribute identity blocks; pinned coordinates
        # are linear and contribute nothing
        H.flat[:: self.n + 1] -= np.repeat(lam[: self.instance.k], 3)
        return H

    def as_problem(self, x: np.ndarray, lam: np.ndarray) -> Problem:
        """Gradient-backed (finite-difference) problem at a stationary point."""
        x = np.asarray(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        return Problem(
            jacobian=self.jacobian(x),
            gradient=self.lagrangian_gradient,
            x=x,
            lam=lam,
            provenance={"kind": "thomson", "k": self.instance.k},
        )


# ---------------------------------------------------------------------------
# JSON serialization (dense-v1 schema)
# ---------------------------------------------------------------------------

_SCHEMA = "dense-v1"


def problem_to_dict(problem: Problem) -> dict:
    """Dense JSON document for a problem (row-major flat arrays).

    The document needs the dense Hessian: a problem backed only by a
    product or gradient callback raises ``ValueError``.
    """
    if problem.hessian is None:
        raise ValueError("problem has no dense Hessian to write")
    doc = {
        "schema": _SCHEMA,
        "N": problem.n,
        "M": problem.m,
        "A": [float(v) for v in problem.jacobian.reshape(-1)],
        "H": [float(v) for v in problem.hessian.reshape(-1)],
    }
    if problem.x is not None:
        doc["x"] = [float(v) for v in problem.x]
    if problem.lam is not None:
        doc["lambda"] = [float(v) for v in problem.lam]
    if problem.truth is not None:
        doc["truth"] = bool(problem.truth)
    if problem.provenance is not None:
        doc["provenance"] = problem.provenance
    return doc


def problem_from_dict(doc: dict) -> Problem:
    """The problem a dense JSON document describes; ``ValueError`` for a
    document that describes none."""
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    try:
        n, m = doc["N"], doc["M"]
        if not (type(n) is int and type(m) is int and n >= 0 and m >= 0):
            raise ValueError(f"N and M must be nonnegative integers, got {n!r}, {m!r}")
        A = np.asarray(doc["A"], dtype=float).reshape(m, n)
        if "H" not in doc:
            raise ValueError("problem document has no Hessian \"H\"")
        H = np.asarray(doc["H"], dtype=float).reshape(n, n)
        x = np.asarray(doc["x"], dtype=float) if "x" in doc else None
        lam = np.asarray(doc["lambda"], dtype=float) if "lambda" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc
    truth = doc.get("truth")
    if truth is not None and not isinstance(truth, bool):
        raise ValueError(f"truth must be true or false, got {truth!r}")
    return Problem(
        jacobian=A, hessian=H, x=x, lam=lam, truth=truth,
        provenance=doc.get("provenance"),
    )


def save_problem(problem: Problem, path) -> None:
    doc = problem_to_dict(problem)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_problem(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
    return problem_from_dict(doc)
