"""Property tests over seeded generator draws: verdicts that must not depend
on how a problem is written down, and must not contradict each other; and
the dense Hessian product against its definition."""

import numpy as np
from hypothesis import given, settings, strategies as st

from curvcheck.linalg import HessianOperator
from curvcheck.problems import GeneratorSpec, Problem, generate
from curvcheck.sosc import METHODS, Status, verify

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


@PROPERTY_SETTINGS
@given(spec=generator_specs())
def test_no_draw_both_holds_and_fails(spec):
    problem = generate(spec)
    statuses = {method: verify(problem, method).status for method in METHODS}
    conclusive = set(statuses.values()) - {Status.ERROR}
    assert len(conclusive) <= 1, statuses
