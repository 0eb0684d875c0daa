"""The invariance flow against the test-side references: the coupling
LP and the bitmask Hall program of references.py."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrpress import (
    FiniteCorrespondence,
    ModeUnsupported,
    invariant_polytope_extremes,
    is_invariant,
    pushforward,
)
from corrpress.polytope import FEAS_TOL
from corrpress.verify import random_invariant_measure
from corrpress.verify import random_relation as verify_relation
from references import hall_subset, lp_pair


def random_relation(rng, n):
    edges = set()
    for i in range(n):
        k = int(rng.integers(1, n + 1))
        for j in rng.choice(n, size=k, replace=False):
            edges.add((i, int(j)))
    return FiniteCorrespondence(n, sorted(edges))


def test_point_mass_at_a_swallowed_state_is_not_invariant():
    # 0 -> 1 -> 1: nothing returns to 0, so delta_0 cannot be invariant
    corr = FiniteCorrespondence(2, [(0, 1), (1, 1)])
    chk = is_invariant(corr, [1.0, 0.0])
    assert not chk.invariant
    assert chk.by_mode == {"lp": False, "subsets": False}
    assert chk.violating_subset == (0,)
    assert chk.witness_pair is None


def test_swap_relation_fixes_the_uniform_measure():
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0)])
    chk = is_invariant(corr, np.full(2, 1 / 2))
    assert chk.invariant
    assert chk.witness_kernel is not None
    q = chk.witness_kernel.matrix
    assert q[0, 1] == pytest.approx(1.0) and q[1, 0] == pytest.approx(1.0)


def test_point_mass_on_a_self_loop_is_invariant():
    corr = FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 0)])
    chk = is_invariant(corr, [1.0, 0.0])
    assert chk.invariant
    assert chk.witness_kernel.matrix[0, 0] == pytest.approx(1.0)


def test_violating_subset_actually_violates():
    """mu(S) must exceed the mass able to enter S for a reported subset."""
    rng = np.random.default_rng(41)
    found = 0
    for _ in range(200):
        corr = random_relation(rng, int(rng.integers(2, 7)))
        mu = rng.dirichlet(np.ones(corr.n_states))
        chk = is_invariant(corr, mu)
        if chk.invariant:
            continue
        found += 1
        s = set(chk.violating_subset)
        into = set(i for i in range(corr.n_states)
                   if any(j in s for j in corr.successors(i)))
        assert sum(mu[i] for i in s) > sum(mu[i] for i in into) - 1e-9
    assert found > 20


def test_modes_agree_and_witnesses_fix_the_measure():
    rng = np.random.default_rng(42)
    checked_positive = 0
    for _ in range(120):
        corr = random_relation(rng, int(rng.integers(2, 8)))
        if rng.random() < 0.5:
            mu = rng.dirichlet(np.ones(corr.n_states))
        else:
            # cycle-supported measures are invariant by construction
            mu = np.zeros(corr.n_states)
            x = int(rng.integers(corr.n_states))
            seen = {}
            walk = []
            while x not in seen:
                seen[x] = len(walk)
                walk.append(x)
                x = int(rng.choice(corr.successors(x)))
            cycle = walk[seen[x]:]
            for s in cycle:
                mu[s] += 1.0 / len(cycle)
        chk = is_invariant(corr, mu)
        assert chk.by_mode["lp"] == chk.by_mode["subsets"] == chk.invariant
        assert chk.invariant == (lp_pair(corr, mu) is not None)
        assert chk.invariant == (hall_subset(corr, mu) is None)
        if chk.invariant:
            checked_positive += 1
            gap = np.abs(pushforward(mu, chk.witness_kernel) - mu).sum()
            assert gap <= 1e-10
            pair = chk.witness_pair
            assert pair.sum() == pytest.approx(1.0, abs=1e-9)
            left = np.zeros(corr.n_states)
            right = np.zeros(corr.n_states)
            for (i, j), w in zip(corr.edges, pair):
                left[i] += w
                right[j] += w
            assert np.abs(left - mu).sum() <= 1e-9
            assert np.abs(right - mu).sum() <= 1e-9
    assert checked_positive > 30


def test_single_mode_calls():
    """A mode picks the by_mode keys only; both certificates come back."""
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0)])
    lp_only = is_invariant(corr, np.full(2, 1 / 2), mode="lp")
    assert list(lp_only.by_mode) == ["lp"]
    sub_only = is_invariant(corr, np.full(2, 1 / 2), mode="subsets")
    assert list(sub_only.by_mode) == ["subsets"]
    assert sub_only.witness_kernel is not None
    refused = is_invariant(corr, [1.0, 0.0], mode="lp")
    assert refused.by_mode == {"lp": False}
    assert refused.violating_subset == (0,)
    with pytest.raises(ModeUnsupported):
        is_invariant(corr, np.full(2, 1 / 2), mode="exact")


def excess(corr, mu, subset):
    """mu(A) - mu(pre A), from the edge list."""
    pre = {i for i, j in corr.edges if j in subset}
    return sum(mu[j] for j in subset) - sum(mu[i] for i in pre)


def marginals(corr, pair):
    left, right = [0] * corr.n_states, [0] * corr.n_states
    for (i, j), w in zip(corr.edges, pair):
        left[i] += w
        right[j] += w
    return left, right


def exact_measure(rng, corr, invariant):
    """A Fraction measure: a mix of exact extremes, or random integers."""
    if invariant:
        ext = invariant_polytope_extremes(corr).extremes_exact
        w = [int(k) for k in rng.integers(1, 6, len(ext))]
        return [sum(Fraction(wk) * p[i] for wk, p in zip(w, ext)) / sum(w)
                for i in range(corr.n_states)]
    w = [int(k) for k in rng.integers(0, 6, corr.n_states)]
    w[int(rng.integers(corr.n_states))] += 1
    return [Fraction(k, sum(w)) for k in w]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), exact=st.booleans(),
       invariant=st.booleans())
def test_flow_matches_the_lp_and_subset_references(seed, exact, invariant):
    rng = np.random.default_rng(seed)
    corr = verify_relation(rng, 2, 9)
    if exact:
        mu = exact_measure(rng, corr, invariant)
    elif invariant:
        mu = random_invariant_measure(rng, corr)
    else:
        mu = rng.dirichlet(np.ones(corr.n_states))
    chk = is_invariant(corr, mu)
    assert chk.invariant == (lp_pair(corr, mu, exact) is not None)
    assert chk.invariant == (hall_subset(corr, mu, 0 if exact else FEAS_TOL) is None)
    if invariant:
        assert chk.invariant
    if not chk.invariant:
        assert chk.witness_pair is None
        assert excess(corr, mu, set(chk.violating_subset)) > (0 if exact else FEAS_TOL)
        return
    assert chk.violating_subset is None
    left, right = marginals(corr, chk.witness_pair)
    if exact:
        assert all(isinstance(w, Fraction) for w in chk.witness_pair)
        assert left == right == list(mu)
    else:
        assert np.abs(np.subtract(left, mu)).sum() <= 1e-9
        assert np.abs(np.subtract(right, mu)).sum() <= 1e-9
    gap = np.abs(pushforward(np.asarray(mu, dtype=float), chk.witness_kernel)
                 - np.asarray(mu, dtype=float)).sum()
    assert gap <= 1e-10


def test_a_thousand_states_take_the_flow_without_a_cap():
    """A 1000-state cycle with chords: the uniform measure has a witness,
    and a point mass off the loop a certified subset."""
    rng = np.random.default_rng(7)
    n = 1000
    edges = {(i, (i + 1) % n) for i in range(n)} | {(0, 0)}
    edges |= {(int(i), int(j)) for i, j in zip(rng.integers(0, n, 2 * n),
                                                rng.integers(0, n, 2 * n))
              if i != j}
    corr = FiniteCorrespondence(n, sorted(edges))
    t0 = time.perf_counter()
    chk = is_invariant(corr, np.full(n, 1 / n))
    assert time.perf_counter() - t0 < 10.0
    assert chk.invariant
    assert np.abs(pushforward(np.full(n, 1 / n), chk.witness_kernel)
                  - np.full(n, 1 / n)).sum() <= 1e-10
    delta = np.zeros(n)
    delta[1] = 1.0
    refused = is_invariant(corr, delta)    # state 1 has no loop
    assert not refused.invariant
    assert excess(corr, delta, set(refused.violating_subset)) > FEAS_TOL
