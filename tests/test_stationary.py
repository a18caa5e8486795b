"""Stationary-point solver and residual tests."""

import numpy as np
import pytest

from curvcheck import stationary
from curvcheck.problems import ThomsonInstance, ThomsonProblem
from curvcheck.sosc import Status, verify
from curvcheck.stationary import fonc_residual, solve_thomson


class QuadraticWithPlaneConstraint:
    """|x|^2/2 subject to x_1 = 0; stationary at the origin with zero
    multiplier."""

    def gradient(self, x):
        return np.asarray(x, dtype=float)

    def jacobian(self, x):
        A = np.zeros((1, len(x)))
        A[0, 0] = 1.0
        return A

    def constraints(self, x):
        return np.array([x[0]])


class TestFoncResidual:
    def test_exact_stationary_point(self):
        prob = QuadraticWithPlaneConstraint()
        fonc, feas = fonc_residual(prob, np.zeros(3), np.zeros(1))
        assert fonc == 0.0 and feas == 0.0

    def test_antipodal_pair_with_hand_multipliers(self):
        # stationarity of the pair energy: the gradient on each point is a
        # quarter of the separation vector, matched by sphere multipliers
        # of -1/4 with all frame multipliers zero
        tp = ThomsonProblem(ThomsonInstance(2))
        x = np.array([1.0, 0, 0, -1.0, 0, 0])
        lam = np.array([-0.25, -0.25, 0.0, 0.0, 0.0])
        fonc, feas = fonc_residual(tp, x, lam)
        assert fonc <= 1e-12
        assert feas <= 1e-12

    def test_residual_grows_with_perturbation(self):
        tp = ThomsonProblem(ThomsonInstance(2))
        lam = np.array([-0.25, -0.25, 0.0, 0.0, 0.0])
        base = np.array([1.0, 0, 0, -1.0, 0, 0])
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(6)
        res = []
        for scale in (1e-6, 1e-4, 1e-2):
            fonc, _ = fonc_residual(tp, base + scale * direction, lam)
            res.append(fonc)
        assert res[0] < res[1] < res[2]
        # smooth problem: growth is first order in the perturbation
        assert res[1] / res[0] == pytest.approx(100, rel=0.5)

    def test_callback_errors_propagate_as_raised(self):
        class FailingJacobian(QuadraticWithPlaneConstraint):
            def jacobian(self, x):
                raise KeyError("no jacobian here")

        with pytest.raises(KeyError, match="no jacobian here"):
            fonc_residual(FailingJacobian(), np.zeros(3), np.zeros(1))


class TestSphereEnergyAndGrad:
    @pytest.mark.parametrize("k", [2, 7, 30])
    def test_matches_the_callbacks(self, k):
        # the solver reads the callbacks' pair pass; its gradient is their
        # gradient projected onto the sphere tangent spaces
        tp = ThomsonProblem(ThomsonInstance(k))
        rng = np.random.default_rng(k)
        for _ in range(5):
            pts = stationary._retract(rng.standard_normal((k, 3)))
            energy, grad = stationary._sphere_energy_and_grad(tp, pts)
            x = pts.reshape(-1)
            assert energy == pytest.approx(tp.objective(x), rel=1e-14)
            g = tp.gradient(x).reshape(k, 3)
            tangent = g - np.sum(g * pts, axis=1, keepdims=True) * pts
            np.testing.assert_allclose(grad, tangent, rtol=0,
                                       atol=1e-13 * np.abs(g).max())

    def test_coincident_pair_reads_as_infinite_energy(self):
        tp = ThomsonProblem(ThomsonInstance(3))
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        energy, grad = stationary._sphere_energy_and_grad(tp, pts)
        assert energy == np.inf and grad is None


class TestSolveThomson:
    def test_two_points_antipodal(self):
        point = solve_thomson(2, seed=0)
        tp = ThomsonProblem(ThomsonInstance(2))
        assert tp.objective(point.x) == pytest.approx(0.5, abs=1e-8)
        # canonical frame: first point exactly on the positive first axis
        np.testing.assert_allclose(point.x[:3], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(point.x[3:], [-1.0, 0.0, 0.0], atol=1e-7)

    def test_three_points_equilateral(self):
        point = solve_thomson(3, seed=0)
        tp = ThomsonProblem(ThomsonInstance(3))
        assert tp.objective(point.x) == pytest.approx(np.sqrt(3.0), rel=1e-6)

    def test_four_points_tetrahedral(self):
        point = solve_thomson(4, seed=0)
        tp = ThomsonProblem(ThomsonInstance(4))
        assert tp.objective(point.x) == pytest.approx(6.0 * np.sqrt(3.0 / 8.0),
                                                      rel=1e-5)

    def test_residuals_meet_tolerance(self):
        for k in (2, 5, 7):
            point = solve_thomson(k, seed=1)
            assert point.fonc_residual <= stationary.TOL_FONC == 1e-9
            assert point.feas_residual <= 1e-12

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(stationary, "_MAX_ITER", 2)
        with pytest.raises(stationary.MaxIterationsError, match="within 2 steps"):
            solve_thomson(8, seed=2)

    def test_energy_monotone_on_accepted_steps(self, monkeypatch):
        # the line search returns each accepted step; the energies start
        # from the one it was first called at
        backtrack = stationary._backtrack
        hist = []

        def recording_backtrack(pts, energy, *args):
            accepted = backtrack(pts, energy, *args)
            if not hist:
                hist.append(energy)
            if accepted is not None:
                hist.append(accepted[1])
            return accepted

        monkeypatch.setattr(stationary, "_backtrack", recording_backtrack)
        solve_thomson(8, seed=2)
        hist = np.asarray(hist)
        assert hist.size >= 2
        # true decrease continues below measurement resolution; allow only
        # rounding-level wobble
        slack = 100 * np.finfo(float).eps * hist[-1]
        assert np.all(np.diff(hist) <= slack)

    def test_multipliers_solve_normal_equations(self):
        point = solve_thomson(6, seed=0)
        tp = ThomsonProblem(ThomsonInstance(6))
        g = tp.gradient(point.x)
        A = tp.jacobian(point.x)
        normal_residual = A @ (A.T @ point.lam - g)
        assert np.linalg.norm(normal_residual) <= 1e-8 * np.linalg.norm(g)

    def test_canonical_frame_constraints_hold(self):
        point = solve_thomson(5, seed=4)
        x = point.x
        assert x[1] == 0.0 and x[2] == 0.0  # first point pinned to the axis
        assert x[5] == 0.0                  # second point in-plane

    @pytest.mark.parametrize("k", range(3, 13))
    def test_condition_holds_at_emitted_points(self, k):
        # matrix-free checks at the computed minimizers, K = 3..12
        point = solve_thomson(k, seed=0)
        tp = ThomsonProblem(ThomsonInstance(k))
        problem = tp.as_problem(point.x, point.lam)
        for method in ("cholesky", "diagonalization"):
            verdict = verify(problem, method)
            assert verdict.status is Status.HOLDS, (k, method)

    def test_two_points_hold_after_frame_fixing(self):
        point = solve_thomson(2, seed=0)
        tp = ThomsonProblem(ThomsonInstance(2))
        problem = tp.as_problem(point.x, point.lam)
        verdict = verify(problem, "cholesky")
        assert verdict.status is Status.HOLDS

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            solve_thomson(1)
