"""Property tests over seeded generator draws: verdicts that must not depend
on how a problem is written down, and must not contradict each other; the
dense Hessian product against its definition; and the projector against
its Householder reference."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from curvcheck.linalg import HessianOperator, NullSpaceProjector
from curvcheck.problems import GeneratorSpec, Problem, generate
from curvcheck.sosc import METHODS, Status, verify

try:
    from test_linalg import ReferenceProjector
except ImportError:  # pytest's importlib mode leaves tests/ off sys.path
    from tests.test_linalg import ReferenceProjector

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def generator_specs(draw):
    n = draw(st.integers(4, 60))
    m = draw(st.integers(1, n - 1))
    return GeneratorSpec(
        n=n, m=m, p=draw(st.integers(0, n)),
        conditioning=draw(st.sampled_from(["well", "ill"])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@PROPERTY_SETTINGS
@given(spec=generator_specs(), order=st.randoms(use_true_random=False))
def test_symmetric_permutation_keeps_every_verdict(spec, order):
    # x -> P x maps (H, A) to (P H P^T, A P^T), which leaves the condition
    # and its null space unchanged up to the same permutation
    problem = generate(spec)
    perm = list(range(spec.n))
    order.shuffle(perm)
    permuted = Problem(problem.jacobian[:, perm], problem.hessian[np.ix_(perm, perm)])
    for method in METHODS:
        before, after = verify(problem, method), verify(permuted, method)
        assert (after.status, after.reason) == (before.status, before.reason), method


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 60), seed=st.integers(0, 2**31 - 1),
    exponent=st.integers(-200, 200), fortran=st.booleans(),
)
def test_dense_product_matches_the_symmetric_part(n, seed, exponent, fortran):
    # a vector product reads one triangle of the stored (H + H^T)/2, a block
    # product all of it; both stay within a few ulps of |S| |s|
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, n)) * 10.0**exponent
    if fortran:
        H = np.asfortranarray(H)
    s = rng.standard_normal(n)
    op = HessianOperator.from_matrix(H)
    S = (H + H.T) / 2
    bound = 8 * np.finfo(float).eps * (np.abs(S) @ np.abs(s))
    assert (np.abs(op.apply(s) - S @ s) <= bound).all()
    assert (np.abs(op.apply_block(s[:, None])[:, 0] - S @ s) <= bound).all()
    assert op.product_count == 2


def _verdict_bits(verdict):
    """Everything a verdict holds but its wall time, arrays as bytes."""
    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        return repr(value)

    diagnostics = {k: bits(v) for k, v in verdict.diagnostics.items() if k != "wall_time_s"}
    direction = None if verdict.direction is None else bits(verdict.direction)
    return (verdict.status, verdict.step, verdict.reason, repr(verdict.curvature),
            direction, diagnostics)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(spec=generator_specs())
def test_verdicts_do_not_depend_on_the_layout_of_h(spec):
    # a stored H is a view of an exactly symmetric input, of its transpose
    # for a Fortran-ordered one: C order, F order and a read-only H give
    # the same verdicts, bit for bit, as does the generator's own H
    problem = generate(spec)
    H = problem.hessian
    frozen = H.copy()
    frozen.flags.writeable = False
    layouts = [H.copy(), np.asfortranarray(H), frozen]
    for method in METHODS:
        expected = _verdict_bits(verify(problem, method))
        for layout in layouts:
            got = verify(Problem(problem.jacobian, layout), method)
            assert _verdict_bits(got) == expected, method


@PROPERTY_SETTINGS
@given(spec=generator_specs())
def test_no_draw_both_holds_and_fails(spec):
    problem = generate(spec)
    statuses = {method: verify(problem, method).status for method in METHODS}
    conclusive = set(statuses.values()) - {Status.ERROR}
    assert len(conclusive) <= 1, statuses


@st.composite
def jacobian_shapes(draw):
    n = draw(st.integers(1, 40))
    return n, draw(st.integers(0, n - 1))


@PROPERTY_SETTINGS
@given(shape=jacobian_shapes(), seed=st.integers(0, 2**31 - 1))
@example(shape=(9, 0), seed=0).via("M = 0: the complement starts empty")
def test_projector_matches_the_reference_across_the_split(shape, seed):
    # blocks are appended until the subspace is empty, so d crosses N/2
    # whenever it starts above it; after each append the projection lies
    # in null(A), is orthogonal to every appended column, is idempotent and
    # symmetric, and agrees with the reference
    n, m = shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    proj, ref = NullSpaceProjector(A, tol_rank=0.0), ReferenceProjector(A)
    appended = np.zeros((n, 0))
    while True:
        r, t = rng.standard_normal((2, n))
        pr, pt = proj.project(r), proj.project(t)
        size = np.linalg.norm(r)
        np.testing.assert_allclose(pr, ref.project(r), rtol=0, atol=1e-11 * size)
        np.testing.assert_allclose(proj.project(pr), pr, rtol=0, atol=1e-12 * size)
        assert abs(t @ pr - r @ pt) <= 1e-12 * size * np.linalg.norm(t)
        for M in (A, appended.T):
            bound = 1e-12 * size * np.linalg.norm(M, axis=1)
            assert (np.abs(M @ pr) <= bound).all()
        if proj.n_appended == n - m:
            return
        block = rng.standard_normal((n, int(rng.integers(1, 4))))
        assert proj.append_column(block) == ref.append_column(block)
        appended = np.column_stack([appended, block])
