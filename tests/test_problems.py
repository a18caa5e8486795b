"""Generator, matrix-builder, sphere-problem, and serialization tests."""

import json

import numpy as np
import pytest
from scipy.special import gammaln

from curvcheck.problems import (
    CannotNormalizeError,
    CoincidentPointsError,
    GeneratorSpec,
    Problem,
    ThomsonInstance,
    ThomsonProblem,
    build_bordered,
    build_kkt,
    generate,
    load_problem,
    near_rank_deficient_kkt,
    problem_from_dict,
    problem_to_dict,
    random_orthogonal,
    random_symmetric_with_eigs,
    sample_truth_rate,
    save_problem,
    truth_probability,
)


def central_difference_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# Random orthogonal / symmetric draws
# ---------------------------------------------------------------------------


class TestRandomDraws:
    def test_orthogonal_one_dimensional(self):
        rng = np.random.default_rng(0)
        vals = {float(random_orthogonal(1, rng)[0, 0]) for _ in range(20)}
        assert vals <= {1.0, -1.0}
        assert len(vals) == 2

    def test_orthogonality_residual(self):
        rng = np.random.default_rng(1)
        Q = random_orthogonal(50, rng)
        assert np.abs(Q.T @ Q - np.eye(50)).max() <= 5e-11

    def test_first_entry_moment(self):
        # |Q_11| has the first-coordinate distribution of a uniform point on
        # the sphere; its exact absolute moment is Gamma(n/2)/(sqrt(pi)
        # Gamma((n+1)/2))
        n, draws = 16, 10_000
        rng = np.random.default_rng(2)
        samples = np.abs([random_orthogonal(n, rng)[0, 0] for _ in range(draws)])
        exact = np.exp(gammaln(n / 2) - gammaln((n + 1) / 2)) / np.sqrt(np.pi)
        se = np.sqrt((1.0 / n - exact**2) / draws)
        assert abs(samples.mean() - exact) <= 4 * se
        # the Gaussian approximation E|g|/sqrt(n) is already close at n=16
        assert abs(exact - np.sqrt(2 / (np.pi * n))) <= 0.1 * exact

    def test_symmetric_identity_eigs(self):
        rng = np.random.default_rng(3)
        S = random_symmetric_with_eigs([1.0, 1.0, 1.0], rng)
        np.testing.assert_allclose(S, np.eye(3), atol=1e-12)

    def test_symmetric_trace_det(self):
        rng = np.random.default_rng(4)
        S = random_symmetric_with_eigs([2.0, -3.0], rng)
        assert np.trace(S) == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.det(S) == pytest.approx(-6.0, rel=1e-12)

    def test_symmetric_eig_recovery(self):
        rng = np.random.default_rng(5)
        eigs = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(100), 10))
                       * rng.choice([-1.0, 1.0], 10))
        S = random_symmetric_with_eigs(eigs, rng)
        np.testing.assert_allclose(np.linalg.eigvalsh(S), np.sort(eigs),
                                   atol=1e-8 * np.abs(eigs).max())


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_truth_flag(self):
        assert generate(GeneratorSpec(n=10, m=4, p=6, seed=0)).truth is True
        assert generate(GeneratorSpec(n=10, m=4, p=5, seed=0)).truth is False
        # p = n makes the condition hold for every constraint count
        for m in (1, 5, 9):
            assert generate(GeneratorSpec(n=10, m=m, p=10, seed=m)).truth is True

    @pytest.mark.parametrize("seed", range(5))
    def test_structure_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        drawn = np.sort(problem.provenance["eigenvalues"])
        eigs = np.linalg.eigvalsh(problem.hessian)
        np.testing.assert_allclose(eigs, drawn, atol=1e-8 * np.abs(drawn).max())
        mags = np.abs(eigs)
        assert mags.min() >= 0.1 * (1 - 1e-9) and mags.max() <= 100 * (1 + 1e-9)
        scale = np.linalg.norm(problem.jacobian, "fro") * np.linalg.norm(
            problem.exact_basis, "fro"
        )
        assert np.abs(problem.jacobian @ problem.exact_basis).max() <= 1e-10 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_truth_matches_eigen_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 200))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        problem = generate(GeneratorSpec(n=n, m=m, p=p, seed=seed))
        W = problem.exact_basis
        reduced = W.T @ problem.hessian @ W
        lam_min = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0]
        assert (lam_min > 0) == problem.truth

    def test_ill_conditioning_is_worse(self):
        # identical (n, m): the all-Gaussian triangular factor must be
        # systematically worse conditioned than the scaled-diagonal one
        conds = {"well": [], "ill": []}
        for conditioning in conds:
            for seed in range(100):
                problem = generate(
                    GeneratorSpec(n=40, m=25, p=40, conditioning=conditioning,
                                  seed=seed)
                )
                conds[conditioning].append(np.linalg.cond(problem.jacobian))
        assert np.median(conds["ill"]) > np.median(conds["well"])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=10, m=0, p=5)
        with pytest.raises(ValueError):
            GeneratorSpec(n=10, m=10, p=5)
        with pytest.raises(ValueError):
            GeneratorSpec(n=10, m=4, p=11)
        with pytest.raises(ValueError):
            GeneratorSpec(n=10, m=4, p=5, conditioning="meh")

    def test_reproducible(self):
        a = generate(GeneratorSpec(n=12, m=3, p=7, seed=42))
        b = generate(GeneratorSpec(n=12, m=3, p=7, seed=42))
        np.testing.assert_array_equal(a.hessian, b.hessian)
        np.testing.assert_array_equal(a.jacobian, b.jacobian)


class TestTruthRate:
    def test_formula_values(self):
        assert truth_probability(2) == pytest.approx(4 / 6)
        assert truth_probability(10) == pytest.approx(12 / 22)
        assert truth_probability(10**6) == pytest.approx(0.5, abs=1e-5)

    def test_sampled_rate_matches_formula(self):
        for n in (2, 10):
            trials = 100_000
            rate = sample_truth_rate(n, trials, np.random.default_rng(0))
            p = truth_probability(n)
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(rate - p) <= 3 * sigma


# ---------------------------------------------------------------------------
# KKT / bordered builders
# ---------------------------------------------------------------------------


class TestMatrixBuilders:
    def test_block_placement(self):
        H = np.array([[5.0]])
        A = np.array([[2.0]])
        np.testing.assert_array_equal(build_kkt(H, A), [[5.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(build_bordered(H, A), [[0.0, 2.0], [2.0, 5.0]])

    def test_kkt_matches_ldl_example(self):
        K = build_kkt(np.eye(2), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(
            K, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        )

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_match_block_assembly(self, m):
        rng = np.random.default_rng(m)
        n = 9
        H = rng.standard_normal((n, n))
        A = rng.standard_normal((m, n))
        zero = np.zeros((m, m))
        np.testing.assert_array_equal(build_kkt(H, A), np.block([[H, A.T], [A, zero]]))
        np.testing.assert_array_equal(build_bordered(H, A),
                                      np.block([[zero, A], [A.T, H]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_similarity(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 7, 3
        H = rng.standard_normal((n, n))
        H = 0.5 * (H + H.T)
        A = rng.standard_normal((m, n))
        eig_k = np.linalg.eigvalsh(build_kkt(H, A))
        eig_b = np.linalg.eigvalsh(build_bordered(H, A))
        np.testing.assert_allclose(eig_k, eig_b, atol=1e-10 * np.abs(eig_k).max())


class TestNearRankDeficientKkt:
    def test_tiny_eigenvalue_bound(self):
        K, bound = near_rank_deficient_kkt(
            np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]),
            np.array([0.0, 1e-8]),
        )
        assert bound == pytest.approx(1e-8, rel=1e-6)
        assert np.abs(np.linalg.eigvalsh(K)).min() <= bound

    def test_exactly_dependent_is_singular(self):
        H = np.eye(3)
        A_prime = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        beta = np.array([0.6, -0.8])
        K, bound = near_rank_deficient_kkt(H, A_prime, beta, np.zeros(3))
        assert bound == 0.0
        null_vec = np.concatenate([np.zeros(3), -beta, [1.0]])
        np.testing.assert_allclose(K @ null_vec, 0, atol=1e-14)

    @pytest.mark.parametrize("eps_norm", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_bound_tracks_perturbation(self, eps_norm):
        rng = np.random.default_rng(17)
        H = rng.standard_normal((8, 8))
        H = 0.5 * (H + H.T)
        A_prime = rng.standard_normal((3, 8))
        beta = rng.standard_normal(3)
        eps = rng.standard_normal(8)
        eps *= eps_norm / np.linalg.norm(eps)
        K, bound = near_rank_deficient_kkt(H, A_prime, beta, eps)
        assert np.abs(np.linalg.eigvalsh(K)).min() <= bound

    def test_cannot_normalize(self):
        A_prime = np.array([[1.0, 0.0]])
        with pytest.raises(CannotNormalizeError):
            near_rank_deficient_kkt(np.eye(2), A_prime, np.array([1.0]),
                                    np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            near_rank_deficient_kkt(np.eye(2), A_prime, np.array([0.0]),
                                    np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# Thomson problems
# ---------------------------------------------------------------------------


class TestThomson:
    def test_antipodal_pair_energy(self):
        tp = ThomsonProblem(ThomsonInstance(2))
        x = np.array([1.0, 0, 0, -1.0, 0, 0])
        assert tp.objective(x) == pytest.approx(0.5)
        np.testing.assert_allclose(tp.constraints(x), 0, atol=1e-15)

    def test_equilateral_triangle_energy(self):
        pts = np.array(
            [[1.0, 0.0, 0.0],
             [-0.5, np.sqrt(3) / 2, 0.0],
             [-0.5, -np.sqrt(3) / 2, 0.0]]
        )
        tp = ThomsonProblem(ThomsonInstance(3))
        assert tp.objective(pts.reshape(-1)) == pytest.approx(np.sqrt(3.0))

    def test_tetrahedron_energy(self):
        pts = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
             [-1.0, -1.0, 1.0]]
        ) / np.sqrt(3.0)
        tp = ThomsonProblem(ThomsonInstance(4))
        assert tp.objective(pts.reshape(-1)) == pytest.approx(6.0 * np.sqrt(3.0 / 8.0))

    def test_dimensions(self):
        inst = ThomsonInstance(5)
        assert inst.n == 15 and inst.m == 8

    def test_gradient_matches_central_differences(self):
        tp = ThomsonProblem(ThomsonInstance(4))
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((4, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        x = pts.reshape(-1)
        g = tp.gradient(x)
        g_fd = central_difference_gradient(tp.objective, x)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g)

    def test_jacobian_matches_central_differences(self):
        tp = ThomsonProblem(ThomsonInstance(3))
        rng = np.random.default_rng(12)
        x = rng.standard_normal(9)
        A = tp.jacobian(x)
        for i in range(tp.m):
            row_fd = central_difference_gradient(
                lambda v, i=i: tp.constraints(v)[i], x
            )
            np.testing.assert_allclose(A[i], row_fd, atol=1e-7)

    def test_lagrangian_hessian_matches_differenced_gradient(self):
        tp = ThomsonProblem(ThomsonInstance(3))
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((3, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        x = pts.reshape(-1)
        lam = rng.standard_normal(tp.m)
        H = tp.lagrangian_hessian(x, lam)
        h = 1e-6
        H_fd = np.zeros_like(H)
        for i in range(tp.n):
            e = np.zeros(tp.n)
            e[i] = h
            H_fd[:, i] = (
                tp.lagrangian_gradient(x + e, lam) - tp.lagrangian_gradient(x - e, lam)
            ) / (2 * h)
        assert np.abs(H - H_fd).max() <= 1e-5 * np.abs(H).max()

    def test_coincident_points_raise(self):
        tp = ThomsonProblem(ThomsonInstance(2))
        with pytest.raises(CoincidentPointsError):
            tp.objective(np.array([1.0, 0, 0, 1.0, 0, 0]))


class TestCubeIterates:
    def test_limit_point_is_boundary_case(self):
        # second derivative of the cubic vanishes at the limit: the check
        # must not report a pass there
        from curvcheck.sosc import Status, verify

        x_limit = 0.0
        problem = Problem(jacobian=np.empty((0, 1)),
                          hessian=np.array([[6.0 * x_limit]]))
        verdict = verify(problem, "cholesky")
        assert verdict.status is Status.ERROR
        assert verdict.reason == "semidefinite_boundary"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        problem = generate(GeneratorSpec(n=8, m=3, p=5, seed=21))
        problem.x = np.arange(8.0) / 7.0
        problem.lam = np.array([0.1, -0.2, 1.0 / 3.0])
        path = tmp_path / "problem.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.jacobian, problem.jacobian)
        np.testing.assert_array_equal(loaded.hessian, problem.hessian)
        np.testing.assert_array_equal(loaded.x, problem.x)
        np.testing.assert_array_equal(loaded.lam, problem.lam)
        assert loaded.truth == problem.truth

    def test_schema_checked(self):
        with pytest.raises(ValueError):
            problem_from_dict({"schema": "sparse-v9", "N": 2, "M": 1, "A": [1, 0]})
        with pytest.raises(ValueError):
            problem_from_dict({"schema": "dense-v1", "N": 2})
        with pytest.raises(ValueError):
            problem_from_dict(
                {"schema": "dense-v1", "N": 2, "M": 1, "A": [1, 0], "H": [1.0]}
            )

    def test_point_and_multipliers_must_match_the_jacobian(self):
        A = np.array([[1.0, 0.0, 0.0]])
        for kwargs in ({"x": np.zeros(5)}, {"lam": np.zeros(7)},
                       {"x": np.zeros((3, 1))}, {"lam": np.zeros(())}):
            with pytest.raises(ValueError, match="inconsistent"):
                Problem(jacobian=A, hessian=np.eye(3), **kwargs)
        problem = Problem(jacobian=A, hessian=np.eye(3), x=[1, 2, 3], lam=[0.5])
        assert problem.x.shape == (3,) and problem.lam.shape == (1,)
        unconstrained = Problem(jacobian=np.empty((0, 2)), hessian=np.eye(2),
                                lam=np.empty(0))
        assert unconstrained.lam.shape == (0,)

    def test_callback_backed_problem_is_not_written(self, tmp_path):
        # dense-v1 needs H, and load_problem rejects a document without it,
        # so the writer refuses such a problem instead of writing that file
        tp = ThomsonProblem(ThomsonInstance(4))
        x = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
             [-1.0, -1.0, 1.0]]
        ).reshape(-1) / np.sqrt(3.0)
        gradient_backed = tp.as_problem(x, np.zeros(tp.instance.m))
        A = np.array([[1.0, 0.0, 0.0]])
        matvec_backed = Problem(jacobian=A, matvec=lambda v: 2.0 * v)
        for problem in (gradient_backed, matvec_backed):
            assert problem.hessian is None
            with pytest.raises(ValueError, match="no dense Hessian"):
                problem_to_dict(problem)
            path = tmp_path / "problem.json"
            with pytest.raises(ValueError, match="no dense Hessian"):
                save_problem(problem, path)
            assert not path.exists()

    def test_document_shape(self):
        problem = generate(GeneratorSpec(n=5, m=2, p=3, seed=0))
        doc = problem_to_dict(problem)
        assert doc["schema"] == "dense-v1"
        assert len(doc["A"]) == 10 and len(doc["H"]) == 25
        # document must be valid JSON
        rebuilt = problem_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(rebuilt.hessian, problem.hessian)
