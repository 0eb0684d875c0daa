import gc
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrpress import (
    ConvergenceFailure,
    Decomposition,
    FiniteCorrespondence,
    IndexOutOfRange,
    InvalidDecomposition,
    Potential,
    SolverError,
    decomposition_pressure,
    example_branches,
    gibbs_equilibrium,
    grid_discretize,
    inverse_correspondence,
    path_pressure_sequence,
    decomposition_validate,
    spectral_pressure,
)
from corrpress.verify import random_block_relation
from corrpress import pressure, relations
from corrpress.pressure import (
    SWEEP,
    SpectralCache,
    _edge_operator,
    strongly_connected_components,
)
import references

LOG2 = math.log(2.0)
LOG_GOLDEN = math.log((1.0 + math.sqrt(5.0)) / 2.0)


def full_shift(m):
    return FiniteCorrespondence(m, [(i, j) for i in range(m) for j in range(m)])


def golden_mean():
    return FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 0)])


def random_relation(rng, n):
    edges = set()
    for i in range(n):
        k = int(rng.integers(1, n + 1))
        for j in rng.choice(n, size=k, replace=False):
            edges.add((i, int(j)))
    return FiniteCorrespondence(n, sorted(edges))


def random_potential(rng, corr):
    return Potential(corr, rng.uniform(-1.0, 1.0, corr.n_edges))


def brute_force_a_n(corr, phi, n):
    """Direct sum over all walks with n edges, no matrix tricks."""
    idx = corr.edge_index()
    total = 0.0
    stack = [(x, 0, 0.0) for x in range(corr.n_states)]
    while stack:
        x, depth, s = stack.pop()
        if depth == n:
            total += math.exp(s)
            continue
        for y in corr.successors(x):
            stack.append((y, depth + 1, s + phi.values[idx[(x, y)]]))
    return math.log(total) / n


def test_path_sums_match_brute_force_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 6)))
        phi = random_potential(rng, corr)
        n = int(rng.integers(3, 8))
        seq = path_pressure_sequence(corr, phi, n)
        assert seq[n - 1] == pytest.approx(brute_force_a_n(corr, phi, n),
                                           abs=1e-12)


# weights up to +-900 take exp past its range; -inf marks an absent edge
WEIGHTS = st.one_of(st.floats(min_value=-900.0, max_value=900.0),
                    st.just(-math.inf))


@st.composite
def weighted_relations(draw, max_states=8):
    """A relation on up to max_states states with drawn weights."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    edges = sorted((i, j) for i in range(n)
                   for j in draw(st.sets(st.integers(0, n - 1), min_size=1)))
    corr = FiniteCorrespondence(n, edges)
    values = draw(st.lists(WEIGHTS, min_size=len(edges), max_size=len(edges)))
    return corr, Potential(corr, values)


@settings(deadline=None, max_examples=200)
@given(case=weighted_relations(), n_max=st.integers(min_value=1, max_value=60))
def test_path_sums_match_the_scatter_reference(case, n_max):
    corr, phi = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = path_pressure_sequence(corr, phi, n_max)
    ref = references.path_pressure_sequence(corr, phi, n_max)
    assert got.shape == (n_max,)
    assert np.array_equal(got == -np.inf, ref == -np.inf)
    finite = ref > -np.inf
    assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12)


def horizon_relation(rng, kind):
    """A relation on up to 9 states: primitive (a ring through every
    state and a loop), of period 3 (every edge steps from residue r to
    r + 1 mod 3) or reducible (state i reaches only states from
    2 * (i // 2) on, so the pairs are classes in a row)."""
    n = int(rng.integers(1, 10))
    if kind == "period-3":
        n = 3 * (n // 3 + 1)
    edges = set()
    for i in range(n):
        if kind == "period-3":
            targets = np.arange((i + 1) % 3, n, 3)
            edges.add((i, (i + 1) % n))
        elif kind == "reducible":
            targets = np.arange(i // 2 * 2, n)
        else:
            targets = np.arange(n)
            edges.update({(i, (i + 1) % n), (0, 0)})
        for j in rng.choice(targets, size=int(rng.integers(1, 4))):
            edges.add((i, int(j)))
    return FiniteCorrespondence(n, sorted(edges))


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(["primitive", "period-3", "reducible"]),
       n_max=st.integers(min_value=SWEEP, max_value=3000))
def test_path_tail_matches_the_scatter_reference(seed, kind, n_max):
    """Long horizons, where most relations stop stepping and fill the
    tail from the bracket.  Weights lie within 1 of 0, a tenth of them
    -inf: the reference's own rounding grows with n times the size of
    the totals, and by weights of 10 it reaches 1e-12 at n = 3000, where
    the tail lies closer to an exact evaluation than the reference."""
    rng = np.random.default_rng(seed)
    corr = horizon_relation(rng, kind)
    values = rng.uniform(-1.0, 1.0, corr.n_edges)
    values[rng.random(corr.n_edges) < 0.1] = -np.inf
    phi = Potential(corr, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = path_pressure_sequence(corr, phi, n_max)
    ref = references.path_pressure_sequence(corr, phi, n_max)
    assert got.shape == (n_max,)
    assert np.array_equal(got == -np.inf, ref == -np.inf)
    finite = ref > -np.inf
    assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12)


@pytest.fixture
def steps_taken(monkeypatch):
    """A list whose one entry counts the steps of every edge operator
    built from here on."""
    count = [0]

    def counting(*args):
        step = _edge_operator(*args)

        def counted(v):
            count[0] += 1
            return step(v)
        return counted
    monkeypatch.setattr(pressure, "_edge_operator", counting)
    return count


def test_full_shift_path_sums_stop_after_one_sweep(steps_taken):
    corr = full_shift(3)
    seq = path_pressure_sequence(corr, Potential.zero(corr), 10 ** 5)
    assert steps_taken[0] <= SWEEP
    # 3^(n + 1) walks of n steps
    n = np.arange(1, 10 ** 5 + 1)
    assert np.max(np.abs(seq - (n + 1) / n * math.log(3.0))) <= 1e-13


def test_three_cycle_path_sums_take_every_step(steps_taken):
    """Unequal weights: a sweep is 64 = 21 * 3 + 1 steps, so each
    state's growth over it is 21 cycle weights plus the weight of a
    different edge, and no bracket closes."""
    corr = FiniteCorrespondence(3, [(0, 1), (1, 2), (2, 0)])
    phi = Potential(corr, [0.1, 0.5, -0.3])
    seq = path_pressure_sequence(corr, phi, 1000)
    assert steps_taken[0] == 1001
    ref = references.path_pressure_sequence(corr, phi, 1000)
    assert np.max(np.abs(seq - ref)) <= 1e-12


def test_a_state_upstream_of_the_dominant_loop_takes_every_step(steps_taken):
    """{(0, 0), (1, 0), (1, 1)} with weights (1, 0, 0): state 1 feeds
    only the dominant loop at 0, and the walks that end at 1 stay on its
    loop of weight 0.  Over a sweep state 0 grows by 64 and state 1 by
    0, so no bracket closes.  The total weight of the walks of n steps
    is e^n + (e^n - 1) / (e - 1) + 1."""
    corr = FiniteCorrespondence(2, [(0, 0), (1, 0), (1, 1)])
    phi = Potential(corr, [1.0, 0.0, 0.0])
    seq = path_pressure_sequence(corr, phi, 1000)
    assert steps_taken[0] == 1001
    n = np.arange(1, 1001)
    exact = (n + np.log1p((1.0 - np.exp(-n)) / (math.e - 1.0) + np.exp(-n))) / n
    assert np.max(np.abs(seq - exact)) <= 1e-13
    ref = references.path_pressure_sequence(corr, phi, 1000)
    assert np.max(np.abs(seq - ref)) <= 1e-12


@settings(deadline=None, max_examples=100)
@given(case=weighted_relations(), data=st.data())
def test_edge_operator_is_bit_identical_to_the_scatter(case, data):
    """With a cycle added so that every state is a target."""
    corr, phi = case
    n = corr.n_states
    src, dst = corr.edge_arrays()
    src = np.concatenate([src, np.arange(n)])
    dst = np.concatenate([dst, (np.arange(n) + 1) % n])
    w = np.concatenate([phi.values, data.draw(st.lists(WEIGHTS, min_size=n, max_size=n))])
    v = np.array(data.draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    assert np.array_equal(_edge_operator(src, dst, w)(v),
                          references.log_matvec(v, src, dst, w, n))


def test_full_shift_closed_forms():
    for m in (2, 3, 5):
        corr = full_shift(m)
        assert spectral_pressure(corr, Potential.zero(corr)).pressure \
            == pytest.approx(math.log(m), abs=1e-12)
        # a constant weight shifts the pressure by exactly that constant
        assert spectral_pressure(corr, Potential.zero(corr).shift(0.37)).pressure \
            == pytest.approx(math.log(m) + 0.37, abs=1e-12)


def test_golden_mean_closed_form_and_oracle_gap():
    corr = golden_mean()
    phi = Potential.zero(corr)
    assert spectral_pressure(corr, phi).pressure \
        == pytest.approx(LOG_GOLDEN, abs=1e-12)
    seq = path_pressure_sequence(corr, phi, 1000)
    assert abs(seq[-1] - LOG_GOLDEN) <= 5e-3


def test_spectral_pressure_matches_dense_eigenvalues():
    rng = np.random.default_rng(202)
    for _ in range(30):
        corr = random_relation(rng, int(rng.integers(2, 10)))
        phi = random_potential(rng, corr)
        m = np.zeros((corr.n_states, corr.n_states))
        for (i, j), v in zip(corr.edges, phi.values):
            m[i, j] = math.exp(v)
        rho = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert spectral_pressure(corr, phi).pressure \
            == pytest.approx(math.log(rho), abs=1e-10)


def test_two_cycle_period_is_handled():
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0)])
    assert strongly_connected_components(*corr.csr()) == ([(0, 1)], [0, 1])
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    rows, cols, _ = cache.class_edges(0)
    assert cache.periods == {0: 2}
    assert references.component_period(2, rows, cols) == 2
    phi = Potential(corr, {(0, 1): 0.8, (1, 0): -0.2})
    # the only cycle has weight phi01 + phi10 over two steps
    assert spectral_pressure(corr, phi).pressure == pytest.approx(0.3, abs=1e-12)


def test_reducible_relation_takes_component_maximum():
    # two self loops, no interaction; a transient chain in between
    corr = FiniteCorrespondence(3, [(0, 0), (1, 0), (1, 2), (2, 2)])
    phi = Potential(corr, {(0, 0): 0.25, (2, 2): 0.75})
    res = spectral_pressure(corr, phi)
    assert res.pressure == pytest.approx(0.75, abs=1e-12)
    assert len(res.components) == 3
    assert res.dominant_classes == ((2,),)


def test_tied_dominant_classes_are_reported():
    corr = FiniteCorrespondence(2, [(0, 0), (1, 1)])
    res = spectral_pressure(corr, Potential.zero(corr))
    assert res.pressure == pytest.approx(0.0, abs=1e-15)
    assert len(res.dominant) == 2


def test_shift_and_scale_properties():
    rng = np.random.default_rng(303)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 9)))
        phi = random_potential(rng, corr)
        p = spectral_pressure(corr, phi).pressure
        c = float(rng.uniform(-3, 3))
        assert spectral_pressure(corr, phi.shift(c)).pressure \
            == pytest.approx(p + c, abs=1e-9)


def test_monotonicity_in_the_potential():
    rng = np.random.default_rng(404)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 9)))
        phi = random_potential(rng, corr)
        bump = Potential(corr, rng.uniform(0.0, 1.0, corr.n_edges))
        assert spectral_pressure(corr, phi).pressure \
            <= spectral_pressure(corr, phi + bump).pressure + 1e-12


def test_convexity_on_a_grid():
    rng = np.random.default_rng(505)
    for _ in range(10):
        corr = random_relation(rng, int(rng.integers(2, 8)))
        phi, psi = random_potential(rng, corr), random_potential(rng, corr)
        p0 = spectral_pressure(corr, phi).pressure
        p1 = spectral_pressure(corr, psi).pressure
        for t in np.linspace(0.0, 1.0, 11):
            mix = phi.scale(t) + psi.scale(1.0 - t)
            assert spectral_pressure(corr, mix).pressure \
                <= t * p0 + (1.0 - t) * p1 + 1e-10


def test_coboundary_leaves_pressure_fixed():
    rng = np.random.default_rng(606)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 9)))
        phi = random_potential(rng, corr)
        psi = rng.uniform(-2.0, 2.0, corr.n_states)
        cob = Potential.from_state_difference(corr, psi)
        assert spectral_pressure(corr, phi + cob).pressure \
            == pytest.approx(spectral_pressure(corr, phi).pressure, abs=1e-9)


def test_coboundary_past_the_dense_range_is_a_solver_error():
    """phi = (a, -a, 0) is a coboundary, so the pressure is log golden
    for every a.  Past a weight span of about 745 the dense route's
    smallest weight underflows to zero, which would drop an edge."""
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0), (1, 1)])
    phi = Potential(corr, [300.0, -300.0, 0.0])
    assert spectral_pressure(corr, phi).pressure == pytest.approx(LOG_GOLDEN, abs=1e-12)
    for a in (400.0, 1000.0):
        values = np.array([a, -a, 0.0])
        with pytest.raises(SolverError, match="2-state class"):
            spectral_pressure(corr, Potential(corr, values))
        for vectors in (False, True):
            with pytest.raises(SolverError):
                SpectralCache(corr.n_states, *corr.edge_arrays()).solve(
                    0, values, vectors)


def test_a_two_cycle_is_exact_at_any_weight_span():
    """phi = (a, -a) on the 2-cycle is a coboundary: pressure 0 and the
    uniform Gibbs measure for every a.  A cycle's log rho is its mean
    weight, so no weight underflows as on the dense route."""
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0)])
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    for a in (400.0, 1000.0, 1e308):
        phi = Potential(corr, [a, -a])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_pressure(corr, phi).pressure == 0.0
            assert cache.solve(0, phi.values, vectors=False)[3] == (0.0, 0.0)
    phi = Potential(corr, [400.0, -400.0])
    logrho, _, _, bracket = cache.solve(0, phi.values)
    assert logrho == 0.0 and bracket == (0.0, 0.0)
    assert gibbs_equilibrium(corr, phi).measure.tolist() == [0.5, 0.5]


def test_a_cycle_mean_cannot_overflow():
    """The mean sums the weights over k, so a cycle of weights near the
    largest float keeps a finite radius, equal to that weight up to the
    rounding of the sum, and opposite weights cancel exactly."""
    n = 100
    ring = FiniteCorrespondence(n, [(i, (i + 1) % n) for i in range(n)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = spectral_pressure(ring, Potential(ring, np.full(n, 1e308)))
        assert top.pressure == pytest.approx(1e308, rel=1e-15)
        for k in (2, 3, 4):
            corr = FiniteCorrespondence(k, [(i, (i + 1) % k) for i in range(k)])
            values = np.zeros(k)
            values[:2] = (1e308, -1e308)
            assert spectral_pressure(corr, Potential(corr, values)).pressure == 0.0


def test_a_cycle_bracket_encloses_the_exact_mean():
    """A cycle class's bracket holds the exact mean of its weights, in
    Fractions, while log rho stays the segment sum, bit for bit.  The
    cases are seeded cycles of 1-400 states with weights of every scale,
    cycles whose mean is exact, and the 100-cycle of weights 1e308,
    whose rounded mean lies 2 ulps below 1e308.  The width is 0 exactly
    when the rounded mean is exact, as on every loop."""
    rng = np.random.default_rng(61)
    cases = [np.full(100, 1e308), np.array([-0.0]), np.array([1e308, -1e308])]
    cases += [rng.normal(0.0, 10.0 ** rng.uniform(-300, 300), int(rng.integers(1, 400)))
              for _ in range(60)]
    cases += [np.round(rng.normal(0.0, 8.0, k)) for k in (1, 2, 4, 8, 64)]
    widths = []
    for values in cases:
        k = values.size
        cache = SpectralCache(k, np.arange(k), (np.arange(k) + 1) % k)
        logrho, _, _, (lo, hi) = cache.solve(0, values)
        assert cache.solve(0, values, vectors=False)[3] == (lo, hi)
        assert logrho == cache.log_radii(values)[0]
        exact = sum(map(Fraction, values.tolist())) / k
        assert Fraction(lo) <= exact <= Fraction(hi)
        assert (lo == hi) == (exact == logrho)
        widths.append(lo == hi)
    assert widths[1:3] == [True, True] and 0 < sum(widths) < len(widths)
    logrho, _, _, (lo, hi) = SpectralCache(100, np.arange(100),
                                           (np.arange(100) + 1) % 100).solve(0, cases[0])
    assert logrho == 9.999999999999998e307 and lo < 1e308 < hi
    assert hi - lo <= 8 * math.ulp(1e308)


def test_reversal_preserves_pressure():
    rng = np.random.default_rng(707)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 8)))
        if any(not corr.predecessors(j) for j in range(corr.n_states)):
            continue
        phi = random_potential(rng, corr)
        inv = inverse_correspondence(corr)
        flipped = Potential(inv, {(j, i): phi[(i, j)] for i, j in corr.edges})
        assert spectral_pressure(inv, flipped).pressure \
            == pytest.approx(spectral_pressure(corr, phi).pressure, abs=1e-12)


def test_relabel_preserves_pressure_exactly():
    rng = np.random.default_rng(808)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 9)))
        phi = random_potential(rng, corr)
        theta = list(rng.permutation(corr.n_states))
        assert spectral_pressure(corr.relabel(theta), phi.relabel(theta)).pressure \
            == pytest.approx(spectral_pressure(corr, phi).pressure, abs=1e-12)


def test_decomposition_pressure_on_block_triangular_relations():
    rng = np.random.default_rng(909)
    for _ in range(20):
        sizes = rng.integers(1, 4, size=int(rng.integers(2, 4)))
        offs = np.concatenate([[0], np.cumsum(sizes)])
        n = int(offs[-1])
        edges = set()
        blocks = []
        for b, size in enumerate(sizes):
            lo, hi = int(offs[b]), int(offs[b + 1])
            blocks.append(list(range(lo, hi)))
            for i in range(lo, hi):
                edges.add((i, int(rng.integers(lo, hi))))
                if rng.random() < 0.4:
                    edges.add((i, int(rng.integers(lo, hi))))
            # forward edges into any later block are allowed
            if hi < n and rng.random() < 0.7:
                edges.add((int(rng.integers(lo, hi)), int(rng.integers(hi, n))))
        corr = FiniteCorrespondence(n, sorted(edges))
        phi = random_potential(rng, corr)
        dp = decomposition_pressure(corr, phi, Decomposition(blocks))
        assert dp.value == pytest.approx(spectral_pressure(corr, phi).pressure,
                                         abs=1e-9)
        assert max(dp.block_values) == dp.value


def test_decomposition_pressure_rejects_invalid_blocks():
    corr = FiniteCorrespondence(2, [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(InvalidDecomposition):
        decomposition_pressure(corr, Potential.zero(corr),
                               Decomposition([[0], [1]]))


def test_two_block_fixture():
    corr = FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 1)])
    phi = Potential(corr, {(0, 0): 0.3, (1, 1): 0.7})
    dp = decomposition_pressure(corr, phi, Decomposition([[0], [1]]))
    assert dp.value == pytest.approx(0.7, abs=1e-15)
    assert dp.block_values == pytest.approx((0.3, 0.7), abs=1e-15)


def closed_block(rng, corr):
    """A random set of states each of which keeps a successor in it,
    as a list; it may be empty."""
    src, dst = corr.edge_arrays()
    keep = rng.random(corr.n_states) < 0.6
    while True:
        fed = keep & (np.bincount(src[keep[src] & keep[dst]],
                                  minlength=corr.n_states) > 0)
        if (fed == keep).all():
            return np.flatnonzero(keep).tolist()
        keep = fed


def block_covers(rng):
    """(relation, cover) pairs: block-triangular covers, the same with
    two blocks merged into an overlapping one, and covers whose last
    block is every state, after which the earlier blocks may cut
    classes in two."""
    for _ in range(60):
        corr, dec = random_block_relation(rng)
        b = dec.blocks
        yield corr, dec
        yield corr, Decomposition([b[0] + b[1]] + list(b[1:]))
        yield corr, Decomposition([b[0], b[0] + b[1]] + list(b[2:]))
    for _ in range(60):
        corr = random_relation(rng, int(rng.integers(2, 14)))
        blocks = [closed_block(rng, corr) for _ in range(2)]
        blocks = [b for b in blocks if b] + [list(range(corr.n_states))]
        while not decomposition_validate(corr, Decomposition(blocks))["valid"]:
            blocks.pop(0)
        yield corr, Decomposition(blocks)


def test_block_values_are_bit_for_bit_the_restricted_solves():
    """Block values read off the relation's own class index equal
    spectral_pressure on each restricted block relation, to the bit
    (the sign of a zero included), on random weights, on weights with
    -inf edges and on signed zero weights, whose ties the first class
    in the order of least states breaks."""
    rng = np.random.default_rng(114)
    split = 0
    for t, (corr, dec) in enumerate(block_covers(rng)):
        values = random_potential(rng, corr).values
        gone = rng.random(corr.n_edges) < 0.3
        if t % 3 == 1:
            values[gone] = -np.inf
        elif t % 3 == 2:
            values = np.where(gone, -np.inf, np.where(rng.random(corr.n_edges)
                                                      < 0.5, -0.0, 0.0))
        phi = Potential(corr, values)
        dp = decomposition_pressure(corr, phi, dec)
        want = references.block_pressures(corr, phi, dec)
        assert np.array(dp.block_values).tobytes() == np.array(want).tobytes()
        assert dp.value == max(want)
        cache = corr.spectral_cache()
        split += any(not set(cache.components[c]) <= set(b)
                     for b in dec.blocks for c in cache.class_of[list(b)].tolist())
    assert split > 20


def test_a_class_cut_by_an_earlier_block():
    """On the edges {(0,0),(0,1),(1,1),(1,2),(2,1)} the class {1, 2}
    straddles the block [0, 1]: that block's value is the loop at 1,
    and the block [1, 2] takes log rho of the class."""
    corr = FiniteCorrespondence(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    phi = Potential(corr, {(0, 0): -0.5, (0, 1): 0.1, (1, 1): 0.2,
                           (1, 2): 0.5, (2, 1): 0.4})
    dp = decomposition_pressure(corr, phi, Decomposition([[0, 1], [1, 2]]))
    spec = spectral_pressure(corr, phi)
    assert spec.components == ((0,), (1, 2))
    assert dp.block_values == (0.2, spec.log_radii[1])
    a, bc = math.exp(0.2), math.exp(0.9)
    assert dp.value == pytest.approx(
        math.log((a + math.sqrt(a * a + 4.0 * bc)) / 2.0), abs=1e-12)


def test_decomposition_pressure_builds_no_relation(monkeypatch):
    """The blocks are solved on the relation's own class index and on
    index arrays for the states of cut classes: no FiniteCorrespondence
    is constructed, not even for the relation's own index."""
    corr = FiniteCorrespondence(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    phi = Potential(corr, [0.3, 0.1, -0.2, 0.5, 0.4])
    built = []
    original = relations.FiniteCorrespondence.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(relations.FiniteCorrespondence, "__init__", counting)
    for blocks in ([[0, 1], [1, 2]], [[0], [1, 2]], [[0, 1, 2]]):
        decomposition_pressure(corr, phi, Decomposition(blocks))
    assert built == []


def test_an_empty_block_is_index_out_of_range():
    """A cover may name an empty block; its relation has no states, so
    its pressure is IndexOutOfRange, as restricting to it is."""
    corr = FiniteCorrespondence(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    phi = Potential.zero(corr)
    for blocks in ([[], [0, 1, 2]], [[0, 1, 2], []]):
        dec = Decomposition(blocks)
        assert decomposition_validate(corr, dec)["valid"]
        with pytest.raises(IndexOutOfRange, match=r"edges outside 0\.\.-1: \[\]"):
            decomposition_pressure(corr, phi, dec)


def two_power_classes(rng, k=80):
    """Two classes of k > DENSE_MAX states each, a k-cycle with a loop
    and random chords, joined by one edge from the first to the second,
    with random weights."""
    edges = set()
    for base in (0, k):
        for i in range(k):
            edges.add((base + i, base + (i + 1) % k))
            for j in rng.choice(k, size=3, replace=False).tolist():
                edges.add((base + i, base + j))
        edges.add((base, base))
    edges.add((k - 1, k))
    corr = FiniteCorrespondence(2 * k, sorted(edges))
    return corr, random_potential(rng, corr)


def test_block_values_of_classes_marked_slow_hold_within_tolerance():
    """The block values come from the relation's shared index.  On a
    fresh index the power classes match the restricted solves bit for
    bit; once an earlier call has sent them to the dense eigensolve
    (SpectralCache.slow), they match within the solver's tolerance."""
    rng = np.random.default_rng(116)
    k = pressure.DENSE_MAX + 16
    corr, phi = two_power_classes(rng, k)
    covers = (Decomposition([list(range(k)), list(range(k, 2 * k))]),
              Decomposition([list(range(k + 1)), list(range(k, 2 * k))]))
    want = [references.block_pressures(corr, phi, dec) for dec in covers]
    for dec, ref in zip(covers, want):
        assert decomposition_pressure(corr, phi, dec).block_values == ref
    cache = corr.spectral_cache()
    big = [c for c, comp in enumerate(cache.components) if len(comp) > k // 2]
    assert len(big) == 2
    cache.slow.update(big)
    assert all(cache.solve(c, phi.values, vectors=False)[3] is None for c in big)
    for dec, ref in zip(covers, want):
        got = decomposition_pressure(corr, phi, dec).block_values
        assert got == pytest.approx(ref, abs=1e-10)


def test_spectral_cache_agrees_with_power_iteration_route():
    rng = np.random.default_rng(111)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 9)))
        phi = random_potential(rng, corr)
        cache = SpectralCache(corr.n_states, *corr.edge_arrays())
        assert cache.pressure(phi.values) \
            == pytest.approx(spectral_pressure(corr, phi).pressure, abs=1e-9)


def test_class_edges_match_a_per_class_loop():
    rng = np.random.default_rng(112)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 12)))
        cache = SpectralCache(corr.n_states, *corr.edge_arrays())
        for c, comp in enumerate(cache.components):
            pos = {s: k for k, s in enumerate(comp)}
            loop = [(pos[i], pos[j], k) for k, (i, j) in enumerate(corr.edges)
                    if i in pos and j in pos]
            rows, cols, eidx = cache.class_edges(c)
            assert list(zip(rows, cols, eidx)) == loop
            assert all(cache.class_of[s] == c for s in comp)


def ring(rng, states, period=1, extra=2):
    """A cycle through states, and extra successors of each state
    period places on along it, plus whole turns: a class of that
    period (at most) when period divides len(states)."""
    k = len(states)
    at = np.repeat(np.arange(k), extra + 1)
    turns = rng.integers(0, k // period, at.size)
    step = np.tile(np.arange(extra + 1) > 0, k) * period * turns
    return np.stack((states[at], states[(at + 1 + step) % k]), axis=1)


def class_shape(shape, rng):
    """A relation of at least CLASS_MIN states and edges, its states
    shuffled, in one of five shapes:
    giant: one large class fed by transient states, as in a grid model;
    classes: large classes in a row, which leave Tarjan a remainder;
    cycle: one long cycle, on which the reach runs out of levels;
    chain: states in a row with a loop each, peeled by the trim only at
    the ends;
    periods: classes of periods 2-6 in a row, with transient states."""
    pieces, n = [], 0
    if shape == "giant":
        k, t = int(rng.integers(700, 1200)), int(rng.integers(300, 800))
        pieces.append(ring(rng, np.arange(k)))
        lower = k + np.arange(t)
        pieces.append(np.stack((lower, rng.integers(0, k, t)), axis=1))
        # a transient state may also feed a later one
        later = lower[rng.random(t) < 0.5]
        later = later[later < k + t - 1]
        pieces.append(np.stack((later, rng.integers(later + 1, k + t)),
                               axis=1))
        n = k + t
    elif shape in ("classes", "periods"):
        for _ in range(int(rng.integers(3, 6))):
            period = 1 if shape == "classes" else int(rng.integers(2, 7))
            if shape == "periods":
                # a transient state from the earlier classes into this one
                pieces.append([[n, n + 1]])
                if n:
                    pieces.append([[int(rng.integers(n)), n]])
                n += 1
            size = period * int(rng.integers(300 // period, 600 // period))
            states = n + np.arange(size)
            pieces.append(ring(rng, states, period))
            if n:
                # edges from earlier states into this class
                pieces.append(np.stack((rng.integers(0, n, 5),
                                        rng.choice(states, 5)), axis=1))
            n += size
    elif shape == "cycle":
        n = int(rng.integers(1000, 3000))
        pieces.append(ring(rng, np.arange(n), extra=0))
    else:
        n = int(rng.integers(700, 2000))
        pieces.append(np.repeat(np.arange(n), 2).reshape(-1, 2))
        pieces.append(np.stack((np.arange(n - 1), np.arange(1, n)), axis=1))
    shuffle = rng.permutation(n)
    edges = np.unique(shuffle[np.concatenate(pieces)], axis=0)
    return FiniteCorrespondence(n, edges)


CLASS_SHAPES = ("giant", "classes", "cycle", "chain", "periods")


@settings(deadline=None, max_examples=100)
@given(shape=st.sampled_from(CLASS_SHAPES),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_reach_classes_match_tarjan(shape, seed):
    """The classes of pressure.reach_roots against Tarjan's: each
    state's root is the least state of its class, the classes come in
    order of their least states, and the periods from the reach's
    depths are those of a breadth-first search on each class alone."""
    corr = class_shape(shape, np.random.default_rng(seed))
    assert corr.n_states + corr.n_edges >= pressure.CLASS_MIN
    comps = sorted(strongly_connected_components(*corr.csr())[0])
    root, depth = pressure.reach_roots(corr.n_states, *corr.edge_arrays())
    label = np.empty(corr.n_states, dtype=np.int64)
    for c, comp in enumerate(comps):
        assert np.all(root[list(comp)] == comp[0])
        label[list(comp)] = c
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    assert cache.components == comps
    assert np.array_equal(cache.class_of, label)
    src, dst = corr.edge_arrays()
    gaps = depth[src] + 1 - depth[dst]
    multi = [c for c, comp in enumerate(comps) if len(comp) > 1]
    assert sorted(cache.periods) == multi
    for c in multi:
        rows, cols, eidx = cache.class_edges(c)
        period = references.component_period(len(comps[c]), rows, cols)
        assert int(np.gcd.reduce(gaps[eidx])) == cache.periods[c] == period
    if shape == "periods":
        assert all(cache.periods[c] > 1 for c in multi)


@settings(deadline=None, max_examples=100)
@given(large=st.booleans(), seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_class_roots_match_tarjan_on_shuffled_edges(large, seed):
    """pressure.class_roots on edge arrays in random order, with states
    that no edge leaves and states that no edge enters, the shape of
    measure_pressure's residual graph: each state's root is the least
    state of its Tarjan class, below CLASS_MIN and above it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1500, 2500)) if large else int(rng.integers(1, 40))
    m = int(n * rng.uniform(0.7, 3.0))
    keys = np.unique(rng.integers(0, n, m) * n + rng.integers(0, n, m))
    src, dst = np.divmod(keys, n)
    sinks, sources = rng.random(n) < 0.1, rng.random(n) < 0.1
    keep = ~sinks[src] & ~sources[dst]
    order = rng.permutation(int(keep.sum()))
    src, dst = src[keep][order], dst[keep][order]
    assert (n + src.size >= pressure.CLASS_MIN) == large
    succ = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        succ[i].append(j)
    offsets = [0, *np.cumsum([len(s) for s in succ]).tolist()]
    comps, _ = strongly_connected_components(offsets,
                                             [j for s in succ for j in s])
    root, _ = pressure.class_roots(n, src, dst)
    for comp in comps:
        assert np.all(root[list(comp)] == min(comp))


def test_each_class_shape_takes_its_route(monkeypatch):
    """What each shape leaves to Tarjan.  On this seed the least state
    the trim leaves in the giant shape lies in the giant class, so
    Tarjan sees only transient states; a long cycle spends the reach's
    levels, so Tarjan sees every state; a chain loses only its two ends
    to the trim."""
    seen = []

    def counting(offsets, targets):
        seen.append(len(offsets) - 1)
        return strongly_connected_components(offsets, targets)

    monkeypatch.setattr(pressure, "strongly_connected_components", counting)
    for shape in CLASS_SHAPES:
        corr = class_shape(shape, np.random.default_rng(7))
        seen.clear()
        pressure.reach_roots(corr.n_states, *corr.edge_arrays())
        if shape == "giant":
            assert sum(seen) < corr.n_states - 700
        elif shape == "cycle":
            assert seen == [corr.n_states]
        elif shape == "chain":
            assert seen[0] >= corr.n_states - 3
        else:
            assert 0 < sum(seen) < corr.n_states


def test_the_class_index_is_built_once_per_relation():
    corr = golden_mean()
    cache = corr.spectral_cache()
    assert corr.spectral_cache() is cache
    spectral_pressure(corr, Potential.zero(corr))
    gibbs_equilibrium(corr, Potential.zero(corr))
    assert corr.spectral_cache() is cache


def test_a_solved_relation_is_freed_by_reference_counting():
    """The memoised class index holds no reference back to its
    relation, so no cycle keeps a solved relation alive until the
    cycle collector runs."""
    rng = np.random.default_rng(113)
    corr = random_relation(rng, 6)
    phi = random_potential(rng, corr)
    ref = weakref.ref(corr)
    spectral_pressure(corr, phi)
    gibbs_equilibrium(corr, phi)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del corr, phi
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_class_of_minus_infinity_weights_has_radius_minus_infinity():
    # {0, 1} is a class whose two edges weigh -inf; {2} carries 0
    corr = FiniteCorrespondence(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
    phi = Potential(corr, [-np.inf, -np.inf, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = spectral_pressure(corr, phi)
    assert spec.pressure == 0.0
    assert spec.components == ((0, 1), (2,))
    assert spec.log_radii == (-np.inf, 0.0)
    with pytest.raises(ConvergenceFailure):
        SpectralCache(corr.n_states, *corr.edge_arrays()).solve(0, phi.values)


def loopy_relation(rng, n):
    """Mostly one-state classes: forward edges, a self-loop on some
    states, and a closing cycle on the last three states."""
    edges = {(n - 3, n - 2), (n - 2, n - 1), (n - 1, n - 3)}
    for i in range(n - 3):
        later = rng.choice(np.arange(i + 1, n), size=int(rng.integers(1, 3)))
        edges.update((i, int(j)) for j in later)
        if rng.random() < 0.5:
            edges.add((i, i))
    return FiniteCorrespondence(n, sorted(edges))


def per_class_radii(cache, values):
    return [cache.solve(c, values, vectors=False)[0]
            for c in range(len(cache.components))]


def test_one_state_log_radii_are_the_per_class_solves_bit_for_bit():
    rng = np.random.default_rng(5)
    grid = grid_discretize(example_branches(), 4096).corr
    cases = [(grid, np.zeros(grid.n_edges)),
             (grid, rng.uniform(-3.0, 3.0, grid.n_edges))]
    for n in (4, 9, 40):
        corr = loopy_relation(rng, n)
        cases.append((corr, rng.uniform(-2.0, 2.0, corr.n_edges)))
    # state 0 is a one-state class whose loop has weight -inf
    corr = FiniteCorrespondence(3, [(0, 0), (0, 1), (1, 2), (2, 1)])
    cases.append((corr, np.array([-np.inf, 0.5, 0.25, -0.75])))
    kinds = set()
    for corr, values in cases:
        cache = SpectralCache(corr.n_states, *corr.edge_arrays())
        radii = cache.log_radii(values)
        assert radii == per_class_radii(cache, values)
        assert all(type(r) is float for r in radii)
        kinds.update(cache.class_edges(c)[2].size
                     for c, comp in enumerate(cache.components) if len(comp) == 1)
    assert kinds == {0, 1}      # one-state classes without and with a loop
    assert radii[cache.class_of[0]] == -np.inf


def cycle_pieces(rng):
    """A chain of classes: loops, cycles of 2-10 and of 65-80 states,
    states with no loop, and 2-6 state classes with chords, each joined
    to the next by one edge, with the states shuffled."""
    sizes = [1, int(rng.integers(2, 11)), int(rng.integers(65, 81))]
    sizes += rng.integers(1, 7, size=int(rng.integers(0, 6))).tolist()
    rng.shuffle(sizes)
    edges, n = set(), 0
    for size in sizes:
        if size > 1 or rng.random() < 0.7:
            edges.update((n + t, n + (t + 1) % size) for t in range(size))
        if 2 < size < 7:
            edges.add((n, n + int(rng.integers(2, size))))
        n += size
        edges.add((n - 1, n))
    edges.add((n, n))
    shuffle = rng.permutation(n + 1)
    return FiniteCorrespondence(n + 1, [(int(shuffle[i]), int(shuffle[j]))
                                        for i, j in edges])


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cycle_log_radii_are_the_per_class_solves_bit_for_bit(seed):
    """log_radii takes every class that is one cycle in one segment sum;
    each value is bit for bit solve()'s, the sign of a zero included,
    under weights of -0.0 and -inf."""
    rng = np.random.default_rng(seed)
    corr = cycle_pieces(rng)
    values = rng.uniform(-3.0, 3.0, corr.n_edges)
    draw = rng.random(corr.n_edges)
    values[draw < 0.3] = -0.0
    values[draw > 0.9] = -np.inf
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    radii = np.array(cache.log_radii(values))
    solved = np.array(per_class_radii(cache, values))
    assert radii.tobytes() == solved.tobytes()
    lengths = [len(comp) for c, comp in enumerate(cache.components)
               if cache.class_edges(c)[2].size == len(comp)]
    assert min(lengths) == 1 and max(lengths) > pressure.DENSE_MAX
