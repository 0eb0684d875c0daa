"""Property tests of the closed-form abstract entropy and of the
cycle description of the pair polytope.

The abstract entropy of a pair measure nu is inf over psi of
[P(psi) - <nu, psi>], with P the spectral pressure.  The pair polytope
(balanced, mass-one edge vectors) has the uniform simple-cycle
measures as its vertices.  Hypothesis draws seeds; the instances come
from the seeded generators in corrpress.verify, so a failing seed
reproduces with those alone.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from corrpress import (
    Potential,
    TransitionKernel,
    abstract_kernel_entropy,
    invariant_polytope_extremes,
    pair_from_kernel,
    spectral_pressure,
    stationary_measures,
)
from corrpress.simplex import OPTIMAL, simplex
from corrpress.verify import (
    random_kernel,
    random_primitive,
    random_relation,
    random_unbalanced_pair,
)

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
PROPERTY = settings(deadline=None, max_examples=50)


def objective(corr, nu, values):
    return (spectral_pressure(corr, Potential(corr, values)).pressure
            - float(np.dot(nu, values)))


def balanced_pair(rng, corr, thin=False):
    """Stationary pair of a random kernel; thinned kernels drop some
    edges, so the pair can miss edges and states."""
    ker = random_kernel(rng, corr)
    if thin:
        m = ker.matrix.copy()
        for i in range(corr.n_states):
            succ = corr.successors(i)
            keep = rng.choice(succ, size=int(rng.integers(1, len(succ) + 1)),
                              replace=False)
            drop = np.setdiff1d(succ, keep)
            m[i, drop] = 0.0
            m[i] /= m[i].sum()
        ker = TransitionKernel(corr, m)
    _, mu = stationary_measures(ker)[0]
    return pair_from_kernel(mu, ker)


@PROPERTY
@given(seed=SEEDS, thin=st.booleans())
def test_weak_duality_at_random_potentials(seed, thin):
    rng = np.random.default_rng(seed)
    corr = random_primitive(rng, 2, 8)
    nu = balanced_pair(rng, corr, thin)
    res = abstract_kernel_entropy(corr, nu)
    assert not res.minus_infinity
    for scale in (0.01, 1.0, 10.0):
        psi = scale * rng.uniform(-1.0, 1.0, corr.n_edges)
        assert res.value <= objective(corr, nu, psi) + 1e-12


@PROPERTY
@given(seed=SEEDS)
def test_equality_at_the_dual_certificate(seed):
    rng = np.random.default_rng(seed)
    corr = random_primitive(rng, 2, 8)
    nu = balanced_pair(rng, corr)
    res = abstract_kernel_entropy(corr, nu)
    assert not res.boundary
    assert abs(objective(corr, nu, res.potential) - res.value) <= 1e-9


@PROPERTY
@given(seed=SEEDS)
def test_objective_ignores_constants_and_coboundaries(seed):
    rng = np.random.default_rng(seed)
    corr = random_primitive(rng, 2, 8)
    nu = balanced_pair(rng, corr)
    psi = rng.uniform(-1.0, 1.0, corr.n_edges)
    base = objective(corr, nu, psi)
    shifted = psi + float(rng.uniform(-3.0, 3.0))
    cob = Potential.from_state_difference(
        corr, rng.uniform(-2.0, 2.0, corr.n_states)).values
    assert abs(objective(corr, nu, shifted) - base) <= 1e-9
    assert abs(objective(corr, nu, psi + cob) - base) <= 1e-9


@PROPERTY
@given(seed=SEEDS)
def test_unbalanced_pairs_have_a_descent_ray(seed):
    rng = np.random.default_rng(seed)
    corr = random_primitive(rng, 2, 8)
    nu = random_unbalanced_pair(rng, corr)
    res = abstract_kernel_entropy(corr, nu)
    assert res.minus_infinity and res.value == -np.inf
    d = res.potential
    zero = np.zeros(corr.n_edges)
    p0 = spectral_pressure(corr, Potential(corr, zero)).pressure
    assert abs(spectral_pressure(corr, Potential(corr, d)).pressure - p0) <= 1e-9
    assert float(np.dot(nu, d)) > 0.0


@PROPERTY
@given(seed=SEEDS, thin=st.booleans())
def test_relabeling_leaves_the_entropy_fixed(seed, thin):
    rng = np.random.default_rng(seed)
    corr = random_primitive(rng, 2, 8)
    nu = balanced_pair(rng, corr, thin)
    theta = [int(t) for t in rng.permutation(corr.n_states)]
    moved = Potential(corr, nu).relabel(theta)
    a = abstract_kernel_entropy(corr, nu)
    b = abstract_kernel_entropy(moved.corr, moved.values)
    assert a.boundary == b.boundary
    assert abs(a.value - b.value) <= 1e-12


def balance_rows(corr):
    """Out-flow minus in-flow at every state, then the mass row."""
    rows = [[int(i == s) - int(j == s) for i, j in corr.edges]
            for s in range(corr.n_states)]
    return rows + [[1] * corr.n_edges]


@PROPERTY
@given(seed=SEEDS)
def test_pair_vertices_are_the_simple_cycle_measures(seed):
    rng = np.random.default_rng(seed)
    corr = random_relation(rng, 2, 7)
    ext = invariant_polytope_extremes(corr)
    rows = balance_rows(corr)
    for v in ext.pair_vertices:
        assert [sum(a * x for a, x in zip(r, v)) for r in rows] == \
            [0] * corr.n_states + [1]
        # one successor per visited state, and one orbit through them all
        succ = {i: j for (i, j), x in zip(corr.edges, v) if x}
        assert len(succ) == len(set(succ.values())) == \
            sum(1 for x in v if x)
        start = next(iter(succ))
        state, seen = succ[start], 1
        while state != start:
            state, seen = succ[state], seen + 1
        assert seen == len(succ)
    # the vertex list is complete: every cost is minimised at one of them
    for _ in range(4):
        cost = [int(c) for c in rng.integers(-5, 6, corr.n_edges)]
        status, _, value = simplex(rows, [0] * corr.n_states + [1], cost,
                                   exact=True)
        assert status == OPTIMAL
        assert value == min(sum(Fraction(c) * x for c, x in zip(cost, v))
                            for v in ext.pair_vertices)
