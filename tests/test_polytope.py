from fractions import Fraction

import numpy as np
import pytest

import corrpress.polytope
import references
from corrpress import (
    FiniteCorrespondence,
    NotInvariant,
    TooLarge,
    extremal_decomposition,
    invariant_polytope_extremes,
    is_invariant,
)
from corrpress.polytope import CYCLE_WORK_CAP, gauss_solve
from corrpress.verify import (random_invariant_measure, random_map_block_relation,
                              random_relation as verify_relation)


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


def loops_and_lone_states(rng, n):
    """Loops on most states and forward edges, so that most strong
    components are one state, plus a few back edges."""
    edges = {(i, i) for i in range(n) if rng.random() < 0.6}
    edges |= {(i, j) for i in range(n) for j in range(n)
              if rng.random() < (0.3 if i < j else 0.04)}
    edges |= {(i, (i + 1) % n) for i in range(n) if not any(e[0] == i for e in edges)}
    return FiniteCorrespondence(n, sorted(edges))


def test_pair_vertices_are_exactly_the_uniform_cycle_measures():
    rng = np.random.default_rng(51)
    relations = [random_relation(rng, int(rng.integers(2, 6))) for _ in range(18)]
    relations += [loops_and_lone_states(rng, int(rng.integers(1, 13)))
                  for _ in range(30)]
    for corr in relations:
        ext = invariant_polytope_extremes(corr)
        cycles = simple_cycles(corr)
        expected = {cycle_pair_measure(corr, c) for c in cycles}
        assert len(ext.pair_vertices) == len(cycles)
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


def decomposition_outcome(corr, mu, ext, decompose):
    try:
        idxs, weights, pool = decompose(corr, mu, ext)
    except NotInvariant:
        return "NotInvariant"
    return idxs, [(type(w), w) for w in weights], pool


def test_decomposition_matches_the_subset_search():
    """The one solve on an independent face, and the search on a
    dependent one, give the reference search's indices and weights,
    values and types, for float and Fraction measures: extremes,
    Dirichlet mixtures (one with a weight near the zero test) and
    random invariant measures."""
    rng = np.random.default_rng(53)
    faces = set()
    for k in range(60):
        if k % 2:
            corr = verify_relation(rng, 2, 7)
        else:
            corr = random_map_block_relation(rng, 3, 3)[0]
        ext = invariant_polytope_extremes(corr)
        m = len(ext.extremes)
        if m > 10:
            continue
        rows = [list(col) for col in zip(*ext.extremes_exact)] + [[1] * m]
        faces.add(gauss_solve(rows, [0] * len(rows))[0])
        lam = rng.dirichlet(np.ones(m))
        tiny = rng.dirichlet(np.ones(m))
        tiny[0] = 10.0 ** rng.uniform(-12, -7)
        tiny /= tiny.sum()
        ints = [int(v) for v in rng.integers(0, 4, m)]
        ints[0] += 1
        mus = [*ext.extremes, *ext.extremes_exact,
               sum(w * e for w, e in zip(lam, ext.extremes)),
               sum(w * e for w, e in zip(tiny, ext.extremes)),
               [sum(Fraction(w, sum(ints)) * p[i] for w, p in zip(ints, ext.extremes_exact))
                for i in range(corr.n_states)],
               random_invariant_measure(rng, corr)]
        for mu in mus:
            assert (decomposition_outcome(corr, mu, ext, extremal_decomposition)
                    == decomposition_outcome(corr, mu, ext,
                                             references.extremal_decomposition))
    # both routes ran
    assert faces == {"unique", "many"}


@pytest.mark.parametrize("k", [18, 40])
def test_disjoint_loops_decompose_by_one_solve(k):
    # the subset search would try 2^k - 1 subsets
    corr = FiniteCorrespondence(k, [(i, i) for i in range(k)])
    ext = invariant_polytope_extremes(corr)
    for w in (1.0 / k, Fraction(1, k)):
        idxs, weights, _ = extremal_decomposition(corr, [w] * k, ext)
        assert idxs == list(range(k))
        assert [(type(v), v) for v in weights] == [(type(w), w)] * k


def test_a_dependent_face_past_the_work_cap_is_too_large(monkeypatch):
    # 31 extremes of rank 9 on 9 states: their mean has many
    # decompositions, so the subsets are searched
    corr = verify_relation(np.random.default_rng(979), 9, 9)
    ext = invariant_polytope_extremes(corr)
    assert len(ext.extremes) == 31
    mu = np.mean(ext.extremes, axis=0)
    monkeypatch.setattr(corrpress.polytope, "DECOMP_WORK_CAP", 1000)
    # 31 singletons cost 31 x 10 = 310; each pair costs 10 x 2 = 20 more,
    # so the 35th pair passes the cap at 1010
    with pytest.raises(TooLarge, match="atom-minimal search: 1010 .* > 1000"):
        extremal_decomposition(corr, mu, ext)


def typed(table):
    return [[(type(v), v) for v in row] for row in table]


def test_tables_built_on_first_use_match_the_eager_tables():
    """pair_vertices, projections and extremes_exact wait for their first
    reader, then equal the tables built eagerly in Fractions in value,
    type and order; extremes, built up front from floats, equal theirs."""
    rng = np.random.default_rng(54)
    relations = [full_shift(3), FiniteCorrespondence(3, [(0, 1), (1, 2), (2, 0), (0, 2)])]
    relations += [loops_and_lone_states(rng, int(rng.integers(1, 10))) for _ in range(20)]
    relations += [random_relation(rng, int(rng.integers(2, 6))) for _ in range(15)]
    relations += [random_map_block_relation(rng, 3, 3)[0] for _ in range(15)]
    lengths = set()
    for corr in relations:
        ext = invariant_polytope_extremes(corr)
        assert not {"pair_vertices", "projections", "extremes_exact"} & set(vars(ext))
        pair_vertices, projections, extremes_exact, extremes = references.polytope_tables(corr)
        assert len(ext.cycles) == len(pair_vertices)
        assert [e.tolist() for e in ext.extremes] == [e.tolist() for e in extremes]
        assert all(e.dtype == float for e in ext.extremes)
        assert typed(ext.extremes_exact) == typed(extremes_exact)
        assert typed(ext.pair_vertices) == typed(pair_vertices)
        assert typed(ext.projections) == typed(projections)
        assert ext.pair_vertices is ext.pair_vertices
        lengths |= {len(c) for c in ext.cycles}
    assert {1, 2, 3, 4} <= lengths


@pytest.fixture
def counted(monkeypatch):
    """Counts of the calls to the polytope's flow and solves, and to
    the reference search's solves, from here on."""
    count = {"flow": 0, "solve": 0, "reference solve": 0}

    def counting(key, func):
        def call(*args, **kwargs):
            count[key] += 1
            return func(*args, **kwargs)
        return call
    monkeypatch.setattr(corrpress.polytope, "_hall_flow",
                        counting("flow", corrpress.polytope._hall_flow))
    monkeypatch.setattr(corrpress.polytope, "gauss_solve",
                        counting("solve", gauss_solve))
    monkeypatch.setattr(references, "gauss_solve",
                        counting("reference solve", gauss_solve))
    return count


def test_an_accepted_face_solve_runs_no_flow(counted):
    """An invariant mu on an independent face is a positive mix of
    invariant extremes by its one solve, so no flow runs; a measure
    that is not invariant still gets the flow and its subset."""
    k = 18
    corr = FiniteCorrespondence(k, [(i, i) for i in range(k)])
    ext = invariant_polytope_extremes(corr)
    for w in (1.0 / k, Fraction(1, k)):
        assert extremal_decomposition(corr, [w] * k, ext)[0] == list(range(k))
    assert counted == {"flow": 0, "solve": 2, "reference solve": 0}
    rng = np.random.default_rng(55)
    for _ in range(10):
        corr = random_map_block_relation(rng, 3, 3)[0]
        ext = invariant_polytope_extremes(corr)
        mu = rng.dirichlet(np.ones(len(ext.extremes))) @ np.array(ext.extremes)
        assert (decomposition_outcome(corr, mu, ext, extremal_decomposition)
                == decomposition_outcome(corr, mu, ext, references.extremal_decomposition))
    assert counted["flow"] == 0
    corr = FiniteCorrespondence(2, [(0, 1), (1, 1)])
    with pytest.raises(NotInvariant) as caught:
        extremal_decomposition(corr, [0.5, 0.5])
    with pytest.raises(NotInvariant) as expected:
        references.extremal_decomposition(corr, [0.5, 0.5], invariant_polytope_extremes(corr))
    assert caught.value.args == expected.value.args and counted["flow"] == 1


def test_a_dependent_face_solves_fewer_systems(counted, monkeypatch):
    """On a dependent face the search skips the subsets whose extremes
    miss a state of mu, so it solves fewer systems than the reference
    search, for the same atoms and weights, and counts the skipped
    subsets' work alike: TooLarge names the same count."""
    corr = verify_relation(np.random.default_rng(67), 6, 10)
    ext = invariant_polytope_extremes(corr)
    mu = np.mean(ext.extremes, axis=0)
    for m in (mu, [sum(p[i] for p in ext.extremes_exact) / len(ext.extremes)
                   for i in range(corr.n_states)]):
        assert (decomposition_outcome(corr, m, ext, extremal_decomposition)
                == decomposition_outcome(corr, m, ext, references.extremal_decomposition))
    assert counted["flow"] == 2
    assert 0 < counted["solve"] < counted["reference solve"] / 4
    for cap in (300, 1000, 3000):
        monkeypatch.setattr(corrpress.polytope, "DECOMP_WORK_CAP", cap)
        with pytest.raises(TooLarge) as caught:
            extremal_decomposition(corr, mu, ext)
        with pytest.raises(TooLarge) as expected:
            references.extremal_decomposition(corr, mu, ext, cap=cap)
        assert str(caught.value) == str(expected.value)


def test_a_float_mix_past_the_flow_tolerance_gets_the_flow(counted):
    """On the 2000-cycle, mu = 1/n -+ 4e-12 passes the solves' zero test
    in every row, so the one extreme fits, but its l1 distance from mu
    is 8e-9, past FEAS_TOL: the flow decides, and refuses mu as the
    reference does.  At -+ 1e-13 the solve alone certifies it."""
    n = 2000
    corr = FiniteCorrespondence(n, [(i, (i + 1) % n) for i in range(n)])
    ext = invariant_polytope_extremes(corr)
    wiggle = (-1.0) ** np.arange(n)
    mu = np.full(n, 1.0 / n) + 4e-12 * wiggle
    with pytest.raises(NotInvariant) as caught:
        extremal_decomposition(corr, mu, ext)
    with pytest.raises(NotInvariant) as expected:
        references.extremal_decomposition(corr, mu, ext)
    assert caught.value.args == expected.value.args and counted["flow"] == 1
    assert extremal_decomposition(corr, mu - 3.9e-12 * wiggle, ext)[:2] == ([0], [1.0])
    assert counted["flow"] == 1
