"""The power route of the Perron solver, on classes above DENSE_MAX."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrpress import pressure
from corrpress import (
    ConvergenceFailure,
    FiniteCorrespondence,
    NonUniqueDominantClass,
    Potential,
    ShapeMismatch,
    TransitionKernel,
    gibbs_equilibrium,
    spectral_pressure,
)
from corrpress.intervals import example_branches, grid_discretize
from corrpress.kernels import stationary_gap
from corrpress.pressure import (DENSE_MAX, POWER_CAP, SpectralCache,
                                _perron_from)
from references import component_period, power_vector


def sparse_primitive(rng, n):
    """A cycle through every state, two extra successors each, one loop."""
    order = [int(s) for s in rng.permutation(n)]
    edges = {(order[k], order[(k + 1) % n]) for k in range(n)}
    for i in range(n):
        for j in rng.choice(n, size=2, replace=False):
            edges.add((i, int(j)))
    edges.add((order[0], order[0]))
    return FiniteCorrespondence(n, sorted(edges))


def block_cyclic(rng, n, period):
    """Every edge steps from state group g to group g + 1 mod period."""
    edges = {(k, (k + 1) % n) for k in range(n)}
    for i in range(n):
        targets = np.arange((i + 1) % period, n, period)
        for j in rng.choice(targets, size=2, replace=False):
            edges.add((i, int(j)))
    return FiniteCorrespondence(n, sorted(edges))


def dense_log_radius(corr, phi):
    m = np.zeros((corr.n_states, corr.n_states))
    src, dst = corr.edge_arrays()
    m[src, dst] = np.exp(phi.values)
    return math.log(float(np.max(np.abs(np.linalg.eigvals(m)))))


def lstsq_stationary(kernel, states):
    """Stationary law of the kernel on a class by least squares."""
    idx = list(states)
    block = kernel.matrix[np.ix_(idx, idx)]
    a = np.vstack([block.T - np.eye(len(idx)), np.ones(len(idx))])
    b = np.zeros(len(idx) + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    mu = np.zeros(kernel.corr.n_states)
    mu[idx] = pi
    return mu


def large_cases():
    rng = np.random.default_rng(4242)
    cases = []
    for n in (150, 300):
        corr = sparse_primitive(rng, n)
        phi = Potential(corr, rng.uniform(-1.0, 1.0, corr.n_edges))
        cases.append(pytest.param(corr, phi, 1, id=f"primitive-{n}"))
    for n, period in ((180, 3), (200, 2)):
        corr = block_cyclic(rng, n, period)
        phi = Potential(corr, rng.uniform(-1.0, 1.0, corr.n_edges))
        cases.append(pytest.param(corr, phi, period,
                                  id=f"cyclic-{n}-period-{period}"))
    return cases


@pytest.mark.parametrize("corr, phi, period", large_cases())
def test_power_route_is_bracketed_and_matches_dense_eig(corr, phi, period):
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    assert len(cache.components) == 1
    assert corr.n_states > DENSE_MAX
    assert cache.periods[0] == period
    assert component_period(corr.n_states, *cache.class_edges(0)[:2]) == period
    logrho, right, left, (lo, hi) = cache.solve(0, phi.values)
    assert lo <= logrho <= hi
    assert hi - lo < 1e-12
    assert logrho == pytest.approx(dense_log_radius(corr, phi), abs=1e-10)
    # both vectors are Perron vectors of the same matrix
    m = np.zeros((corr.n_states, corr.n_states))
    src, dst = corr.edge_arrays()
    m[src, dst] = np.exp(phi.values - logrho)
    assert np.max(np.abs(m @ right - right) / right) <= 1e-10
    assert np.max(np.abs(left @ m - left) / left) <= 1e-10
    assert cache.solve(0, phi.values, vectors=False)[0] == logrho


@pytest.mark.parametrize("corr, phi, period", large_cases())
def test_power_route_gibbs_measure_is_the_stationary_solve(corr, phi, period):
    eq = gibbs_equilibrium(corr, phi)
    assert eq.pressure == spectral_pressure(corr, phi).pressure
    assert stationary_gap(eq.measure, eq.kernel) <= 1e-9
    old = lstsq_stationary(eq.kernel, eq.dominant_class)
    assert np.max(np.abs(eq.measure - old)) <= 1e-10
    assert eq.entropy + eq.integral == pytest.approx(eq.pressure, abs=1e-9)


def grid_class_cases():
    """The 2048-state class of the example's grid model at resolution
    4096, under the zero potential and a random one."""
    corr = grid_discretize(example_branches(), 4096).corr
    rng = np.random.default_rng(4243)
    return [pytest.param(corr, Potential.zero(corr), 1, id="grid-4096-zero"),
            pytest.param(corr, Potential(corr, rng.uniform(-1.0, 1.0, corr.n_edges)),
                         1, id="grid-4096-random")]


@pytest.mark.parametrize("corr, phi, period", large_cases() + grid_class_cases())
def test_power_vector_is_bit_identical_to_the_scatter_reference(corr, phi, period):
    """Both iterations of the power route, step for step the
    np.logaddexp.at scatter they replaced."""
    cache = corr.spectral_cache()
    c = max(range(len(cache.components)), key=lambda c: len(cache.components[c]))
    k = len(cache.components[c])
    assert k > DENSE_MAX and cache.periods[c] == period
    rows, cols, eidx = cache.class_edges(c)
    w = phi.values[eidx]
    cap = min(POWER_CAP, k ** 3 // eidx.size)
    for (src, dst), segments in zip(((rows, cols), (cols, rows)),
                                    cache.segments[c]):
        ref = power_vector(src, dst, w, k, period, cap)
        assert ref is not None
        got = pressure._power_vector(src, dst, w, k, period, cap, segments)
        assert got is not None
        assert got[0] == ref[0] and got[2] == ref[2]
        assert np.array_equal(got[1], ref[1])


def test_a_cycle_class_is_solved_in_closed_form():
    """A class of more than DENSE_MAX states that is one cycle: log rho
    is its mean weight and the Perron vectors follow the cycle, with no
    power sweep over its period of n steps."""
    rng = np.random.default_rng(21)
    n = 300
    order = rng.permutation(n)
    corr = FiniteCorrespondence(n, [(int(order[t]), int(order[(t + 1) % n]))
                                    for t in range(n)])
    phi = Potential(corr, rng.uniform(-1.0, 1.0, n))
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    logrho, right, left, bracket = cache.solve(0, phi.values)
    m = np.zeros((n, n))
    m[corr.edge_arrays()] = np.exp(phi.values)
    assert logrho == pytest.approx(
        math.log(float(np.max(np.abs(np.linalg.eigvals(m))))), abs=1e-10)
    # the bracket encloses the exact mean, a few ulps around the rounded one
    lo, hi = bracket
    exact = sum(map(Fraction, phi.values.tolist())) / n
    assert lo <= exact <= hi and lo <= logrho <= hi
    assert hi - lo <= 6 * math.ulp(logrho)
    assert cache.solve(0, phi.values, vectors=False)[0] == logrho
    rho = math.exp(logrho)
    assert np.allclose(m @ right, rho * right, rtol=1e-12, atol=0.0)
    assert np.allclose(left @ m, rho * left, rtol=1e-12, atol=0.0)
    assert np.allclose(gibbs_equilibrium(corr, phi).measure, 1.0 / n,
                       rtol=1e-12, atol=0.0)


def cyclic_pieces(rng):
    """Up to four block-cyclic classes of periods 1-6 on 1-40 states,
    each strongly connected through a ring, with edges from earlier
    pieces to later ones and the states shuffled."""
    edges, n = set(), 0
    for _ in range(int(rng.integers(1, 5))):
        period = int(rng.integers(1, 7))
        size = period * int(rng.integers(1, 40 // period + 1))
        for t in range(size):
            edges.add((n + t, n + (t + 1) % size))
            for j in rng.choice(np.arange((t + 1) % period, size, period), size=2):
                edges.add((n + t, n + int(j)))
            if n and rng.random() < 0.3:
                edges.add((int(rng.integers(n)), n + t))
        n += size
    shuffle = rng.permutation(n)
    return FiniteCorrespondence(n, [(int(shuffle[i]), int(shuffle[j]))
                                    for i, j in edges])


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_periods_are_the_breadth_first_search_periods(seed):
    """The period of every class from Tarjan's depths, against a
    breadth-first search over the class alone."""
    corr = cyclic_pieces(np.random.default_rng(seed))
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    multi = [c for c, comp in enumerate(cache.components) if len(comp) > 1]
    assert sorted(cache.periods) == multi
    for c in multi:
        rows, cols, _ = cache.class_edges(c)
        assert cache.periods[c] == component_period(
            len(cache.components[c]), rows, cols)


def test_two_large_equal_classes_tie():
    rng = np.random.default_rng(77)
    one = sparse_primitive(rng, 120)
    n = one.n_states
    # a second copy, reached from the first by one transient edge
    edges = list(one.edges) + [(i + n, j + n) for i, j in one.edges] + [(0, n)]
    corr = FiniteCorrespondence(2 * n, edges)
    values = rng.uniform(-1.0, 1.0, one.n_edges)
    phi = Potential(corr, {e: v for e, v in zip(one.edges, values)}
                    | {(i + n, j + n): v for (i, j), v in zip(one.edges, values)})
    res = spectral_pressure(corr, phi)
    assert [len(res.components[k]) for k in res.dominant] == [n, n]
    with pytest.raises(NonUniqueDominantClass):
        gibbs_equilibrium(corr, phi)


def test_kernel_support_check_rejects_mass_off_the_edges():
    rng = np.random.default_rng(78)
    corr = sparse_primitive(rng, 200)
    eq = gibbs_equilibrium(corr, Potential.zero(corr))
    rows = [[] for _ in range(corr.n_states)]
    for (a, b), p in zip(corr.edges, eq.kernel.probs):
        rows[a].append((b, p))
    TransitionKernel.from_rows(corr, rows)
    i = 5
    j = next(j for j in range(corr.n_states) if (i, j) not in corr.edge_index())
    rows[i][0] = (j, rows[i][0][1])
    with pytest.raises(ShapeMismatch, match=rf"\({i}, {j}\)"):
        TransitionKernel.from_rows(corr, rows)


def slowly_mixing_class(n=80):
    """A long cycle with one chord: the second eigenvalue is so close to
    rho in modulus that the power iteration would need far more steps
    than a dense eigensolve costs."""
    return FiniteCorrespondence(
        n, [(k, (k + 1) % n) for k in range(n)] + [(n - 2, 0)])


def test_slowly_mixing_class_falls_back_to_dense():
    corr = slowly_mixing_class()
    phi = Potential.zero(corr)
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    logrho, right, left, bracket = cache.solve(0, phi.values)
    assert bracket is None
    assert logrho == pytest.approx(dense_log_radius(corr, phi), abs=1e-10)
    eq = gibbs_equilibrium(corr, phi)
    assert eq.pressure == spectral_pressure(corr, phi).pressure
    assert stationary_gap(eq.measure, eq.kernel) <= 1e-9


def test_slowly_mixing_class_pays_the_power_budget_once(monkeypatch):
    calls = []
    original = pressure._power_vector

    def counting(*args):
        out = original(*args)
        calls.append(out is None)
        return out

    monkeypatch.setattr(pressure, "_power_vector", counting)
    corr = slowly_mixing_class()
    eq = gibbs_equilibrium(corr, Potential.zero(corr))
    # the radius pass fails once; the vector pass goes straight to dense
    assert calls == [True]
    assert stationary_gap(eq.measure, eq.kernel) <= 1e-9


def test_perron_vector_clips_rounding_negatives_only():
    w = np.array([0.5, 2.0, -1.0])
    vecs = np.zeros((3, 3), dtype=complex)
    # the Perron column, with a phase and one entry negative by rounding
    vecs[:, 1] = -1j * np.array([2.0, 1.0, -1e-11])
    v = _perron_from(w, vecs, 2.0)
    assert np.array_equal(v, [2.0 / 3.0, 1.0 / 3.0, 0.0])
    vecs[:, 1] = np.array([2.0, 1.0, -0.2])
    with pytest.raises(ConvergenceFailure):
        _perron_from(w, vecs, 2.0)
