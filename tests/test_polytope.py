from fractions import Fraction

import numpy as np
import pytest

from corrpress import (
    FiniteCorrespondence,
    TooLarge,
    extremal_decomposition,
    invariant_polytope_extremes,
    is_invariant,
)
from corrpress.polytope import CYCLE_WORK_CAP


def full_shift(m):
    return FiniteCorrespondence(m, [(i, j) for i in range(m) for j in range(m)])


def random_relation(rng, n):
    edges = set()
    for i in range(n):
        k = int(rng.integers(1, n + 1))
        for j in rng.choice(n, size=k, replace=False):
            edges.add((i, int(j)))
    return FiniteCorrespondence(n, sorted(edges))


def simple_cycles(corr):
    """All simple cycles, each anchored at its smallest state."""
    cycles = []
    n = corr.n_states

    def walk(start, x, path, on_path):
        for y in corr.successors(x):
            if y == start:
                cycles.append(tuple(path))
            elif y > start and y not in on_path:
                on_path.add(y)
                path.append(y)
                walk(start, y, path, on_path)
                path.pop()
                on_path.remove(y)

    for s in range(n):
        walk(s, s, [s], {s})
    return cycles


def cycle_pair_measure(corr, cycle):
    idx = corr.edge_index()
    vec = [Fraction(0)] * corr.n_edges
    m = len(cycle)
    for k, i in enumerate(cycle):
        j = cycle[(k + 1) % m]
        vec[idx[(i, j)]] = Fraction(1, m)
    return tuple(vec)


def test_full_shift_vertices_and_extremes():
    corr = full_shift(2)
    ext = invariant_polytope_extremes(corr)
    # cycles 0->0, 1->1 and 0->1->0 give the three pair vertices
    assert len(ext.pair_vertices) == 3
    # the state projections of the loops are the only extreme measures
    assert len(ext.extremes) == 2
    as_sets = {tuple(e) for e in np.round(np.array(ext.extremes), 12).tolist()}
    assert as_sets == {(1.0, 0.0), (0.0, 1.0)}


def test_full_shift_on_five_states_past_the_old_edge_cap():
    # 25 edges: the rank-and-basis search stopped at 24
    corr = full_shift(5)
    ext = invariant_polytope_extremes(corr)
    assert len(ext.pair_vertices) == len(simple_cycles(corr)) == 89
    assert ext.extremes_exact == tuple(
        tuple(Fraction(int(i == k)) for i in range(5)) for k in reversed(range(5)))


def test_one_long_cycle_needs_no_recursion():
    n = 2000
    corr = FiniteCorrespondence(n, [(i, (i + 1) % n) for i in range(n)])
    ext = invariant_polytope_extremes(corr)
    assert ext.pair_vertices == ((Fraction(1, n),) * n,)
    assert ext.extremes_exact == ((Fraction(1, n),) * n,)


def test_more_cycles_than_the_cap_is_too_large():
    corr = full_shift(8)           # 16072 simple cycles, 8 states, 64 edges
    assert CYCLE_WORK_CAP < 16072 * (8 + 64)
    with pytest.raises(TooLarge):
        invariant_polytope_extremes(corr)


def test_full_shift_on_seven_states_is_within_the_cap():
    corr = full_shift(7)           # 2372 simple cycles, 7 states, 49 edges
    assert 2372 * (7 + 49) <= CYCLE_WORK_CAP
    ext = invariant_polytope_extremes(corr)
    assert len(ext.pair_vertices) == 2372
    # only the loops: every longer cycle shares its states with others
    assert ext.extremes_exact == tuple(
        tuple(Fraction(int(i == k)) for i in range(7)) for k in reversed(range(7)))


def test_loopless_complete_relation_on_three_states():
    corr = FiniteCorrespondence(3, [(i, j) for i in range(3) for j in range(3)
                                    if i != j])
    ext = invariant_polytope_extremes(corr)
    # two 3-cycles share the uniform marginal, the mean of the 2-cycle ones
    uniform = (Fraction(1, 3),) * 3
    assert ext.projections.count(uniform) == 2
    assert uniform not in ext.extremes_exact
    half, zero = Fraction(1, 2), Fraction(0)
    assert ext.extremes_exact == ((zero, half, half), (half, zero, half),
                                  (half, half, zero))


def test_a_chord_keeps_the_uniform_measure_of_its_cycle_extreme():
    # the 3-cycle 0 -> 1 -> 2 -> 0 with the chord 0 -> 2; the chord closes
    # the 2-cycle 0 -> 2 -> 0, but no other cover of all three states
    corr = FiniteCorrespondence(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    ext = invariant_polytope_extremes(corr)
    third, half, zero = Fraction(1, 3), Fraction(1, 2), Fraction(0)
    assert ext.extremes_exact == ((third, third, third), (half, zero, half))


def test_pair_vertices_are_exactly_the_uniform_cycle_measures():
    rng = np.random.default_rng(51)
    for _ in range(18):
        corr = random_relation(rng, int(rng.integers(2, 6)))
        ext = invariant_polytope_extremes(corr)
        expected = {cycle_pair_measure(corr, c) for c in simple_cycles(corr)}
        assert set(ext.pair_vertices) == expected


def test_extremes_are_invariant_and_extremal_decomposition_reconstructs():
    rng = np.random.default_rng(52)
    for _ in range(10):
        corr = random_relation(rng, int(rng.integers(2, 6)))
        ext = invariant_polytope_extremes(corr)
        for e in ext.extremes:
            assert is_invariant(corr, e).invariant
        # a random mixture of extremes is invariant; decompose it back
        k = len(ext.extremes)
        lam = rng.dirichlet(np.ones(k))
        mu = np.zeros(corr.n_states)
        for w, e in zip(lam, ext.extremes):
            mu += w * np.asarray(e)
        idxs, weights, extremes = extremal_decomposition(corr, mu)
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        mix = np.zeros(corr.n_states)
        for i, w in zip(idxs, weights):
            mix += w * np.asarray(extremes[i], dtype=float)
        assert np.abs(mix - mu).sum() <= 1e-9


def test_extremes_cannot_be_decomposed_further():
    corr = FiniteCorrespondence(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)])
    ext = invariant_polytope_extremes(corr)
    for k, e in enumerate(ext.extremes):
        idxs, weights, _ = extremal_decomposition(corr, np.asarray(e), ext)
        big = [i for i, w in zip(idxs, weights) if w > 1e-9]
        assert big == [k]


def test_decomposition_searches_only_the_face_of_mu():
    # 40 point masses; the 5 on states 0-4 sort last, at indices 35-39
    corr = FiniteCorrespondence(40, [(i, i) for i in range(40)])
    ext = invariant_polytope_extremes(corr)
    for fifth in (0.2, Fraction(1, 5)):
        mu = [fifth] * 5 + [0] * 35
        idxs, weights, _ = extremal_decomposition(corr, mu, ext)
        assert idxs == [35, 36, 37, 38, 39]
        assert weights == [fifth] * 5
