"""First-order point finding for the sphere-energy problems.

A small Riemannian solver good enough to produce tight stationary points
of the Thomson energy at desk scale: projected gradient descent on the
product of unit spheres with Barzilai-Borwein steps and one backtracking
line search (energy decrease, then gradient-norm decrease once the energy
stops resolving), followed by a rigid rotation into the frame-fixed
canonical position (first point on the positive first axis, second point
in the first-coordinate plane) and least-squares recovery of the
multipliers from the stationarity identity.

Energy and gradient come from the pair pass behind
:class:`ThomsonProblem`'s callbacks; a coincident pair reads as infinite
energy, which the line search rejects.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .problems import CoincidentPointsError, ThomsonInstance, ThomsonProblem

__all__ = [
    "MaxIterationsError",
    "FoncPoint",
    "fonc_residual",
    "solve_thomson",
]

#: max-norm stationarity residual :func:`solve_thomson` solves to
TOL_FONC = 1e-9


class MaxIterationsError(RuntimeError):
    """The solver hit its iteration cap before reaching the tolerance."""


@dataclasses.dataclass
class FoncPoint:
    """A computed first-order point with its residuals.

    ``fonc_residual`` is the max-norm of the Lagrangian gradient at
    (x, lambda); ``feas_residual`` is the max-norm of the constraint
    values.
    """

    x: np.ndarray
    lam: np.ndarray
    fonc_residual: float
    feas_residual: float


def fonc_residual(problem, x: np.ndarray, lam: np.ndarray) -> tuple:
    """Max-norm residuals of stationarity and feasibility at (x, lam).

    ``problem`` must provide ``gradient(x)``, ``jacobian(x)``, and
    ``constraints(x)`` callbacks; an exception they raise propagates.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    g = np.asarray(problem.gradient(x), dtype=float)
    A = np.atleast_2d(np.asarray(problem.jacobian(x), dtype=float))
    c = np.atleast_1d(np.asarray(problem.constraints(x), dtype=float))
    grad_lag = g - A.T @ lam
    feas = float(np.linalg.norm(c, np.inf)) if c.size else 0.0
    return float(np.linalg.norm(grad_lag, np.inf)), feas


def _sphere_energy_and_grad(prob: ThomsonProblem, pts: np.ndarray):
    """Energy and Riemannian gradient on the product of unit spheres, from
    ``prob``'s pair pass; (inf, None) when two points (nearly) coincide."""
    try:
        _, diff, r2 = prob._pairs(pts.ravel())
    except CoincidentPointsError:
        return np.inf, None
    grad = prob._gradient(diff, r2).T
    # project onto the sphere tangent spaces
    grad -= np.sum(grad * pts, axis=1, keepdims=True) * pts
    return prob._energy(r2), grad


def _retract(pts: np.ndarray) -> np.ndarray:
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _canonical_rotation(pts: np.ndarray) -> np.ndarray:
    """Orthogonal map sending point 1 to +e1 and point 2 into the e1-e2
    plane with nonnegative second coordinate."""
    x1 = pts[0] / np.linalg.norm(pts[0])
    v = x1 - np.array([1.0, 0.0, 0.0])
    if np.linalg.norm(v) < 1e-14:
        Q = np.eye(3)
    else:
        Q = np.eye(3) - 2.0 * np.outer(v, v) / float(v @ v)
    y = Q @ pts[1]
    rho = float(np.hypot(y[1], y[2]))
    if rho > 1e-14:
        c, s = y[1] / rho, y[2] / rho
        G = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
        Q = G @ Q
    return Q


# below this gradient norm, energy comparisons saturate
_LS_FLOOR = 1e-5

# accepted steps before solve_thomson gives up
_MAX_ITER = 200_000


def _backtrack(pts, energy, grad, gnorm, t, prob):
    """The first step ``pts - t grad``, halving ``t`` after each rejection,
    that passes the line search on ``prob``'s energy: ``(points, energy,
    gradient)`` there, or None.  Above :data:`_LS_FLOOR` the first 60
    trials ask for sufficient decrease of the energy.  The next 60, or all
    60 below the floor, ask for strict decrease of the gradient norm.
    """
    energy_trials = 60 if gnorm > _LS_FLOOR else 0
    for i in range(energy_trials + 60):
        cand = _retract(pts - t * grad)
        cand_energy, cand_grad = _sphere_energy_and_grad(prob, cand)
        if np.isfinite(cand_energy) and (
            cand_energy <= energy - 1e-4 * t * gnorm**2 if i < energy_trials
            else float(np.linalg.norm(cand_grad)) < gnorm
        ):
            return cand, cand_energy, cand_grad
        t *= 0.5
    return None


def solve_thomson(k: int, seed: int = 0) -> FoncPoint:
    """Minimize the sphere energy and emit a frame-fixed stationary point.

    Gradient descent runs on the plain product-of-spheres formulation; the
    energy is invariant under rigid rotations, so the computed minimizer is
    rotated afterwards into the canonical frame of :class:`ThomsonProblem`
    (an equivalent solution) instead of handling the pinned coordinates as
    constraints.  Multipliers are recovered by least squares.

    Each step is accepted by :func:`_backtrack`.  Far from the solution it
    must pass a monotone backtracking test on the energy.  Near the
    solution the energy decrease per step falls below double-precision
    resolution, so the final polish accepts steps by strict decrease of the
    gradient norm instead; true energy decrease continues, it just stops
    being measurable.

    Raises :class:`MaxIterationsError` when the Riemannian gradient does
    not reach :data:`TOL_FONC` within :data:`_MAX_ITER` (200 000) accepted
    steps.
    """
    prob = ThomsonProblem(ThomsonInstance(k))
    rng = np.random.default_rng(seed)

    pts = _retract(rng.standard_normal((k, 3)))
    energy, grad = _sphere_energy_and_grad(prob, pts)
    while not np.isfinite(energy):
        pts = _retract(rng.standard_normal((k, 3)))
        energy, grad = _sphere_energy_and_grad(prob, pts)

    # target the 2-norm a bit below the max-norm residual TOL_FONC
    target = 0.5 * TOL_FONC
    step = 1e-2
    prev_pts = None
    prev_grad = None
    converged = False

    for _ in range(_MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= target:
            converged = True
            break
        if prev_pts is not None:
            s = (pts - prev_pts).ravel()
            y = (grad - prev_grad).ravel()
            sy = float(s @ y)
            if sy > 1e-30:
                step = min(max(float(s @ s) / sy, 1e-8), 1e2)

        accepted = _backtrack(pts, energy, grad, gnorm, step, prob)
        if accepted is None:
            break
        prev_pts, prev_grad = pts, grad
        pts, energy, grad = accepted

    if not converged:
        raise MaxIterationsError(
            f"no stationary point to tolerance {TOL_FONC:g} within {_MAX_ITER} steps"
        )

    Q = _canonical_rotation(pts)
    pts = pts @ Q.T
    # snap the pinned coordinates and renormalize; the adjustment is at
    # rotation round-off scale
    pts[0] = [1.0, 0.0, 0.0]
    pts[1, 2] = 0.0
    pts = _retract(pts)

    x = pts.reshape(3 * k)
    g = prob.gradient(x)
    A = prob.jacobian(x)
    lam, *_ = np.linalg.lstsq(A.T, g, rcond=None)
    fonc, feas = fonc_residual(prob, x, lam)
    return FoncPoint(x=x, lam=lam, fonc_residual=fonc, feas_residual=feas)
