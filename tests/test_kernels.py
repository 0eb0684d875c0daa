import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corrpress.kernels
import corrpress.pressure
from corrpress import (
    FiniteCorrespondence,
    NotStationary,
    Partition,
    Potential,
    ShapeMismatch,
    TooLarge,
    TransitionKernel,
    entropy_rate,
    gibbs_equilibrium,
    kernel_entropy,
    kernel_from_pair,
    pair_from_kernel,
    pushforward,
    validate_measure,
)
from corrpress.intervals import example_branches, grid_discretize
from corrpress.kernels import measure_entropy, stationary_gap, stationary_measures
from corrpress.verify import random_relation
import references
from references import cell_entropy, chain_paths


def full_shift(m):
    return FiniteCorrespondence(m, [(i, j) for i in range(m) for j in range(m)])


def golden_mean():
    return FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 0)])


def random_kernel(rng, corr):
    m = np.zeros((corr.n_states, corr.n_states))
    for i in range(corr.n_states):
        succ = corr.successors(i)
        row = rng.uniform(0.05, 1.0, len(succ))
        m[i, list(succ)] = row / row.sum()
    return TransitionKernel(corr, m[corr.edge_arrays()])


PARRY_GOLDEN = np.array([(5.0 + math.sqrt(5.0)) / 10.0,
                         (5.0 - math.sqrt(5.0)) / 10.0])


def parry_golden_kernel():
    g = (1.0 + math.sqrt(5.0)) / 2.0
    m = np.array([[1.0 / g, 1.0 / g ** 2], [1.0, 0.0]])
    corr = golden_mean()
    return TransitionKernel(corr, m[corr.edge_arrays()])


def test_measure_validation():
    w = validate_measure(3, [0.2, 0.3, 0.5])
    assert w.sum() == pytest.approx(1.0)
    with pytest.raises(ShapeMismatch):
        validate_measure(3, [0.5, 0.5])
    with pytest.raises(ShapeMismatch):
        validate_measure(2, [0.9, 0.2])
    with pytest.raises(ShapeMismatch):
        validate_measure(2, [1.3, -0.3])
    assert np.array_equal(validate_measure(4, np.full(4, 1 / 4)), np.full(4, 0.25))


def test_nan_weights_are_rejected():
    # every comparison with NaN is false, so no bound check alone catches it
    with pytest.raises(ShapeMismatch, match="mass nan"):
        validate_measure(2, [float("nan"), 1.0])


def test_nan_and_inf_kernel_entries_are_rejected():
    corr = golden_mean()
    nan, inf = float("nan"), float("inf")
    for bad in ([nan, nan, 1.0], [inf, 0.0, 1.0], [0.5, nan, 1.0],
                [inf, -inf, 1.0]):
        with pytest.raises(ShapeMismatch):
            TransitionKernel(corr, bad)
    with pytest.raises(ShapeMismatch):
        TransitionKernel.from_rows(corr, [[(0, nan), (1, nan)], [(0, 1.0)]])


def test_kernel_support_and_row_sums():
    corr = golden_mean()
    with pytest.raises(ShapeMismatch, match="row 0 sums to"):
        TransitionKernel(corr, [0.5, 0.4, 1.0])
    ker = TransitionKernel.from_rows(corr, [[(0, 0.5), (1, 0.5)], [(0, 1.0)]])
    assert ker.matrix[1, 0] == 1.0
    with pytest.raises(ShapeMismatch, match=r"pair \(1, 1\) is not an edge"):
        TransitionKernel.from_rows(corr, [[(0, 1.0)], [(0, 0.5), (1, 0.5)]])


def test_pushforward_examples():
    corr = full_shift(2)
    ker = TransitionKernel(corr, [0.25, 0.75, 0.25, 0.75])
    assert np.allclose(pushforward(np.array([1.0, 0.0]), ker), [0.25, 0.75])


def test_chain_distribution_dense_sums_to_one():
    rng = np.random.default_rng(32)
    corr = golden_mean()
    ker = random_kernel(rng, corr)
    dense = chain_paths(np.full(2, 1 / 2), ker, 6)
    assert sum(dense.values()) == pytest.approx(1.0, abs=1e-12)
    # support is exactly the walks of the relation
    for path in dense:
        for a, b in zip(path, path[1:]):
            assert (a, b) in corr.edge_index()


def test_dense_guard():
    corr = full_shift(4)
    ker = TransitionKernel(corr, np.full(16, 0.25))
    two_cells = Partition(4, [(0, 1), (2, 3)])
    # 2^23 cell sequences are within the limit, 2^24 are past it
    for n_max in (24, 40):
        with pytest.raises(TooLarge, match=f"2\\^{n_max} "):
            kernel_entropy(np.full(4, 1 / 4), ker, n_max, two_cells)


def test_coarse_route_is_refused_before_any_walking(monkeypatch):
    rng = np.random.default_rng(37)
    ker = random_kernel(rng, full_shift(3))
    _, mu = stationary_measures(ker)[0]
    calls = []

    def counting(*args):
        calls.append(1)
        return pushforward(*args)

    monkeypatch.setattr(corrpress.kernels, "pushforward", counting)
    with pytest.raises(TooLarge):
        kernel_entropy(mu, ker, 40, Partition(3, [(0, 1), (2,)]))
    assert calls == []


def test_partition_of_another_state_space_is_refused():
    rng = np.random.default_rng(38)
    ker = random_kernel(rng, full_shift(3))
    _, mu = stationary_measures(ker)[0]
    # three cells of five states once took the closed form for three states
    for part in (Partition(5, [(0, 3), (1, 4), (2,)]), Partition(2, [(0,), (1,)]),
                 Partition(4, [(0, 1), (2, 3)])):
        with pytest.raises(ShapeMismatch, match="partition of"):
            kernel_entropy(mu, ker, 3, part)


def test_entropy_rate_closed_form():
    corr = full_shift(2)
    ker = TransitionKernel(corr, np.full(4, 0.5))
    assert entropy_rate(np.full(2, 1 / 2), ker) \
        == pytest.approx(math.log(2.0), abs=1e-12)
    p = 0.3
    biased = TransitionKernel(corr, [p, 1 - p, p, 1 - p])
    h = -p * math.log(p) - (1 - p) * math.log(1 - p)
    assert entropy_rate(np.array([p, 1 - p]), biased) == pytest.approx(h, abs=1e-12)


def test_kernel_entropy_sequence_and_limit():
    ker = parry_golden_kernel()
    seq, h = kernel_entropy(PARRY_GOLDEN, ker, 30)
    assert h == pytest.approx(entropy_rate(PARRY_GOLDEN, ker), abs=1e-12)
    h0 = measure_entropy(PARRY_GOLDEN)
    for n in (1, 7, 30):
        assert seq[n - 1] == pytest.approx((h0 + (n - 1) * h) / n, abs=1e-12)
    # the Parry chain of the golden mean attains the topological entropy
    assert h == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)


def test_kernel_entropy_requires_stationarity():
    ker = parry_golden_kernel()
    with pytest.raises(NotStationary):
        kernel_entropy(np.array([0.2, 0.8]), ker, 5)


def test_partition_entropy_matches_dense_enumeration():
    rng = np.random.default_rng(34)
    corr = full_shift(3)
    ker = random_kernel(rng, corr)
    _, mu = stationary_measures(ker)[0]
    part = Partition(3, [(0, 1), (2,)])
    seq, value = kernel_entropy(mu, ker, 4, part)
    assert value == seq[-1]
    cell_of = {s: k for k, cell in enumerate(part.cells) for s in cell}
    for n in range(1, 5):
        by_walk = {}
        for path, w in chain_paths(mu, ker, n).items():
            key = tuple(cell_of[x] for x in path)
            by_walk[key] = by_walk.get(key, 0.0) + w
        direct = -sum(w * math.log(w) for w in by_walk.values() if w > 0.0)
        assert n * seq[n - 1] == pytest.approx(direct, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       n_cells=st.sampled_from([2, 3]), n_max=st.integers(1, 8))
def test_one_walk_is_bit_identical_to_a_walk_per_length(seed, n_cells, n_max):
    rng = np.random.default_rng(seed)
    corr = random_relation(rng, n_min=n_cells + 1, n_max=6)
    ker = random_kernel(rng, corr)
    _, mu = stationary_measures(ker)[0]
    label = np.concatenate([np.arange(n_cells),
                            rng.integers(0, n_cells, corr.n_states - n_cells)])
    rng.shuffle(label)
    part = Partition(corr.n_states, [np.flatnonzero(label == c)
                                     for c in range(n_cells)])
    seq, value = kernel_entropy(mu, ker, n_max, part)
    assert list(seq) == [cell_entropy(mu, ker, part, n) / n
                         for n in range(1, n_max + 1)]
    assert value == seq[-1]


def test_coarse_partition_entropy_is_dominated():
    ker = parry_golden_kernel()
    one_cell = Partition(2, [(0, 1)])
    seq, h = kernel_entropy(PARRY_GOLDEN, ker, 6, one_cell)
    assert h == pytest.approx(0.0, abs=1e-12)
    seq_full, h_full = kernel_entropy(PARRY_GOLDEN, ker, 6)
    assert all(s <= f + 1e-12 for s, f in zip(seq, seq_full))


def test_stationary_measures_of_the_parry_chain():
    ker = parry_golden_kernel()
    out = stationary_measures(ker)
    assert len(out) == 1
    states, mu = out[0]
    assert states == (0, 1)
    assert np.allclose(mu, PARRY_GOLDEN, atol=1e-12)
    assert stationary_gap(mu, ker) <= 1e-12


def test_stationary_measures_one_per_recurrent_class():
    corr = FiniteCorrespondence(3, [(0, 0), (1, 0), (1, 2), (2, 2)])
    ker = TransitionKernel(corr, [1.0, 0.5, 0.5, 1.0])
    out = stationary_measures(ker)
    assert len(out) == 2
    assert out[0][0] == (0,) and out[1][0] == (2,)
    assert np.allclose(out[0][1], [1.0, 0.0, 0.0])


def test_stationary_measures_of_a_full_support_kernel_share_the_index(monkeypatch):
    """A kernel that charges every edge has the relation as its support,
    so stationary_measures reads the relation's own class index and
    builds no second one."""
    rng = np.random.default_rng(36)
    corr = random_relation(rng, 6, 9)
    ker = random_kernel(rng, corr)
    cache = corr.spectral_cache()
    built = []
    original = corrpress.pressure._class_edges

    def counting(*args):
        built.append(args[0])
        return original(*args)

    monkeypatch.setattr(corrpress.pressure, "_class_edges", counting)
    out = stationary_measures(ker)
    assert built == [] and corr._spectral is cache
    assert [states for states, _ in out] == [
        c for c in cache.components
        if all(set(corr.successors(s)) <= set(c) for s in c)]


def test_stationary_measures_match_the_whole_relation_gap_check():
    """Each closed class is checked on its own states: the same classes
    and measures, to the bit, as checking each against the whole
    relation, on the identity relation (every state a closed loop) and
    on kernels with several closed classes, transient states and zero
    entries."""
    identity = FiniteCorrespondence(300, [(i, i) for i in range(300)])
    kernels = [TransitionKernel(identity, np.ones(300))]
    rng = np.random.default_rng(38)
    for _ in range(20):
        # closed blocks, each a cycle plus chords, then transient states
        # with edges into the blocks and among themselves
        sizes = rng.integers(1, 5, int(rng.integers(2, 6)))
        edges, base = set(), 0
        for k in sizes:
            block = range(base, base + k)
            edges |= {(i, base + (i - base + 1) % k) for i in block}
            edges |= {(int(i), int(j)) for i in block for j in block
                      if rng.random() < 0.3}
            base += k
        n = base + int(rng.integers(1, 5))
        for i in range(base, n):
            edges |= {(i, int(j)) for j in rng.choice(n, 2, replace=False)}
            edges.add((i, int(rng.integers(base))))
        corr = FiniteCorrespondence(n, sorted(edges))
        src = corr.edge_arrays()[0]
        q = rng.uniform(0.05, 1.0, corr.n_edges)
        # zero out edges at random, keeping each state's first
        drop = rng.random(corr.n_edges) < 0.2
        drop[np.searchsorted(src, np.arange(n))] = False
        q[drop] = 0.0
        kernels.append(TransitionKernel(corr, q / np.bincount(src, weights=q)[src]))
    for ker in kernels:
        out = stationary_measures(ker)
        want = references.stationary_measures(ker)
        assert len(out) >= 2
        assert [s for s, _ in out] == [s for s, _ in want]
        assert all(np.array_equal(mu, nu) for (_, mu), (_, nu) in zip(out, want))


def test_stationary_measures_with_zero_entries_match_the_support_route():
    """With zero entries the support is a smaller relation: the measures
    equal, to the bit, those of the same kernel on that relation."""
    rng = np.random.default_rng(37)
    for _ in range(30):
        corr = random_relation(rng, 3, 10)
        src, dst = corr.edge_arrays()
        # drop about a third of the edges, keeping each state's first
        keep = rng.random(corr.n_edges) < 0.65
        keep[np.searchsorted(src, np.arange(corr.n_states))] = True
        q = np.where(keep, rng.uniform(0.05, 1.0, corr.n_edges), 0.0)
        q /= np.bincount(src, weights=q)[src]
        ker = TransitionKernel(corr, q)
        support = FiniteCorrespondence(corr.n_states,
                                       np.stack((src[keep], dst[keep]), axis=1))
        want = stationary_measures(TransitionKernel(support, q[keep]))
        out = stationary_measures(ker)
        assert [s for s, _ in out] == [s for s, _ in want]
        assert all(np.array_equal(mu, nu) for (_, mu), (_, nu) in zip(out, want))
        # only a kernel that charges every edge reads the relation's index
        assert (corr._spectral is None) == (not keep.all())


def test_pair_kernel_round_trip():
    rng = np.random.default_rng(35)
    corr = golden_mean()
    ker = parry_golden_kernel()
    pair = pair_from_kernel(PARRY_GOLDEN, ker)
    assert pair.sum() == pytest.approx(1.0, abs=1e-12)
    back = kernel_from_pair(corr, pair)
    assert np.allclose(back.matrix, ker.matrix, atol=1e-12)
    # rows without mass fall back to the lowest successor
    dead = kernel_from_pair(corr, np.array([1.0, 0.0, 0.0]))
    assert dead.matrix[1, 0] == 1.0


def test_edge_formulas_match_the_dense_loops():
    rng = np.random.default_rng(36)
    for n in (3, 7, 20):
        edges = {(i, int(j)) for i in range(n)
                 for j in rng.choice(n, size=min(3, n), replace=False)}
        corr = FiniteCorrespondence(n, sorted(edges))
        ker = random_kernel(rng, corr)
        mu = rng.dirichlet(np.ones(n))
        m = ker.matrix
        pair = pair_from_kernel(mu, ker)
        assert np.array_equal(
            pair, np.array([mu[i] * m[i, j] for i, j in corr.edges]))
        dense = -sum(mu[i] * m[i, j] * math.log(m[i, j])
                     for i in range(n) for j in range(n) if m[i, j] > 0.0)
        assert entropy_rate(mu, ker) == pytest.approx(dense, rel=1e-13)
        # a pair measure with an empty row and a negative entry
        pair[[k for k, (i, _) in enumerate(corr.edges) if i == 0]] = 0.0
        pair[-1] = -1e-3
        loop = np.zeros((n, n))
        for (i, j), w in zip(corr.edges, pair):
            loop[i, j] = max(w, 0.0)
        for i in range(n):
            if loop[i].sum() > 0.0:
                loop[i] /= loop[i].sum()
            else:
                loop[i, corr.successors(i)[0]] = 1.0
        assert np.allclose(kernel_from_pair(corr, pair).matrix, loop,
                           rtol=1e-14, atol=0.0)
        # one step, summed over at most n terms of size at most 1
        assert np.allclose(pushforward(mu, ker), mu @ m, rtol=1e-14, atol=0.0)
        theta = rng.permutation(n)
        assert np.array_equal(ker.relabel(theta).matrix[np.ix_(theta, theta)], m)
        rows = [[(j, m[i, j]) for j in corr.successors(i)] for i in range(n)]
        assert np.array_equal(TransitionKernel.from_rows(corr, rows).matrix, m)
        walks = {(a, b, c): mu[a] * m[a, b] * m[b, c]
                 for a in range(n) for b in range(n) for c in range(n)
                 if mu[a] * m[a, b] * m[b, c] > 0.0}
        assert chain_paths(mu, ker, 3) == walks
        part = Partition(n, [range(0, n, 2), range(1, n, 2)])
        by_cells = {}
        for walk, w in walks.items():
            key = tuple(x % 2 for x in walk)
            by_cells[key] = by_cells.get(key, 0.0) + w
        direct = -sum(w * math.log(w) for w in by_cells.values())
        assert cell_entropy(mu, ker, part, 3) == pytest.approx(direct, rel=1e-13)


def test_gibbs_kernel_on_the_4096_cell_grid_holds_no_dense_matrix():
    # a dense 4096 x 4096 kernel alone would take 134 MB
    corr = grid_discretize(example_branches(), 4096).corr
    tracemalloc.start()
    try:
        gibbs_equilibrium(corr, Potential.zero(corr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
