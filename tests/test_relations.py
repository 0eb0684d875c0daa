import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import references
from corrpress import (
    Decomposition,
    DuplicateEdge,
    EmptySuccessor,
    FiniteCorrespondence,
    IndexOutOfRange,
    NotSurjective,
    Potential,
    ShapeMismatch,
    inverse_correspondence,
)
from corrpress.relations import decomposition_validate


def random_relation(rng, n):
    edges = set()
    for i in range(n):
        k = int(rng.integers(1, n + 1))
        for j in rng.choice(n, size=k, replace=False):
            edges.add((i, int(j)))
    return FiniteCorrespondence(n, sorted(edges))


def test_label_count_must_match_the_state_count():
    with pytest.raises(ShapeMismatch, match="1 labels for 2 states"):
        FiniteCorrespondence(2, [(0, 1), (1, 0)], labels=["a"])
    assert FiniteCorrespondence(2, [(0, 1), (1, 0)], labels="ab").labels == ("a", "b")


def test_edges_sorted_and_deduplicated_input_rejected():
    corr = FiniteCorrespondence(3, [(2, 0), (0, 1), (1, 2), (0, 0)])
    assert corr.edges == ((0, 0), (0, 1), (1, 2), (2, 0))
    with pytest.raises(DuplicateEdge):
        FiniteCorrespondence(2, [(0, 1), (0, 1), (1, 0)])


def test_every_state_needs_a_successor():
    with pytest.raises(EmptySuccessor) as err:
        FiniteCorrespondence(3, [(0, 1), (1, 0)])
    assert err.value.states == [2]


def test_edges_must_lie_in_range():
    with pytest.raises(IndexOutOfRange):
        FiniteCorrespondence(2, [(0, 1), (1, 2)])
    with pytest.raises(IndexOutOfRange):
        FiniteCorrespondence(2, [(-1, 0), (0, 1), (1, 0)])


def test_successor_predecessor_tables_agree_with_edges():
    rng = np.random.default_rng(7)
    for _ in range(20):
        corr = random_relation(rng, int(rng.integers(2, 8)))
        for i, j in corr.edges:
            assert j in corr.successors(i)
            assert i in corr.predecessors(j)
            assert (i, j) in corr.edge_index()
        assert sum(len(corr.successors(i)) for i in range(corr.n_states)) \
            == corr.n_edges
        idx = corr.edge_index()
        for k, e in enumerate(corr.edges):
            assert idx[e] == k


def test_inverse_correspondence_is_transpose():
    corr = FiniteCorrespondence(3, [(0, 1), (1, 2), (2, 0), (2, 1)])
    inv = inverse_correspondence(corr)
    assert set(inv.edges) == {(1, 0), (2, 1), (0, 2), (1, 2)}
    # a state with no incoming edge has no inverse image
    with pytest.raises(NotSurjective):
        inverse_correspondence(FiniteCorrespondence(2, [(0, 1), (1, 1)]))


def test_relabel_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        corr = random_relation(rng, n)
        theta = list(rng.permutation(n))
        back = [0] * n
        for i, t in enumerate(theta):
            back[t] = i
        assert corr.relabel(theta).relabel(back) == corr


def test_potential_forms_agree():
    corr = FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 0)])
    by_dict = Potential(corr, {(0, 1): 2.0, (1, 0): -1.0})
    by_array = Potential(corr, np.array([0.0, 2.0, -1.0]))
    assert np.allclose(by_dict.values, by_array.values)
    assert np.max(np.abs(Potential.zero(corr).values)) == 0.0
    assert by_dict.values[corr.edge_index()[(0, 1)]] == 2.0
    with pytest.raises(IndexOutOfRange):
        Potential(corr, {(1, 1): 1.0})


def test_edge_index_is_built_once_and_read_only():
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0), (1, 1)])
    idx = corr.edge_index()
    assert corr.edge_index() is idx
    assert dict(idx) == {(0, 1): 0, (1, 0): 1, (1, 1): 2}
    with pytest.raises(TypeError):
        idx[(0, 0)] = 3
    assert (0, 0) not in corr.edge_index()


def test_potential_weights_are_finite_or_minus_infinity():
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0), (1, 1)])
    absent = Potential(corr, {(1, 1): -np.inf})
    assert absent.values[corr.edge_index()[(1, 1)]] == -np.inf
    for bad in (np.nan, np.inf):
        with pytest.raises(ShapeMismatch, match=r"\(1, 0\)"):
            Potential(corr, {(1, 0): bad})
        with pytest.raises(ShapeMismatch, match=repr(bad)):
            Potential(corr, [0.0, bad, 0.0])
    with pytest.raises(ShapeMismatch):
        Potential(corr, -1.0 * absent.values)    # -inf turns into +inf


def test_potential_algebra():
    corr = FiniteCorrespondence(2, [(0, 1), (1, 0), (1, 1)])
    phi = Potential(corr, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(phi.shift(0.5).values, [1.5, 2.5, 3.5])
    assert np.allclose(Potential(corr, -2.0 * phi.values).values, [-2.0, -4.0, -6.0])
    assert np.allclose((phi + Potential(corr, 2.0 * phi.values)).values, [3.0, 6.0, 9.0])
    assert np.max(np.abs(phi.values)) == 3.0


def test_state_difference_is_a_coboundary():
    corr = FiniteCorrespondence(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
    psi = np.array([0.3, -0.1, 0.4])
    phi = Potential.from_state_difference(corr, psi)
    for (i, j), v in zip(corr.edges, phi.values):
        assert v == pytest.approx(psi[i] - psi[j], abs=1e-15)


def test_decomposition_validation_conditions():
    corr = FiniteCorrespondence(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    good = decomposition_validate(corr, Decomposition([[0], [1], [2]]))
    assert good["valid"]
    # missing state
    rep = decomposition_validate(corr, Decomposition([[0], [1]]))
    assert not rep["valid"] and rep["missing"] == [2]
    # backward edge into an earlier block
    back = FiniteCorrespondence(2, [(0, 0), (1, 0), (1, 1)])
    rep = decomposition_validate(back, Decomposition([[0], [1]]))
    assert not rep["valid"]
    assert rep["forbidden_edges"][0]["edges"] == [(1, 0)]
    # overlapping blocks are allowed
    rep = decomposition_validate(corr, Decomposition([[0, 1], [1, 2]]))
    assert rep["valid"]
    # states outside 0..n-1 are listed; -1 once read as the last state
    rep = decomposition_validate(corr, Decomposition([[0, -1], [1, 2, 5]]))
    assert not rep["valid"] and not rep["covers"]
    assert rep["outside"] == [-1, 5] and rep["missing"] == []
    assert rep["block_rows"] == [] and rep["forbidden_edges"] == []


def test_block_states_past_int64_are_listed_as_outside():
    """A block is read as an int array only between its ends outside
    0..n-1, so indices no int64 holds are listed, not an OverflowError."""
    corr = FiniteCorrespondence(2, [(0, 0), (1, 1)])
    rep = decomposition_validate(
        corr, Decomposition([[-(10 ** 30), 0, 1, 10 ** 30], [1, 2 ** 63]]))
    assert rep["outside"] == [-(10 ** 30), 2 ** 63, 10 ** 30]
    assert rep["missing"] == [] and not rep["valid"]
    assert rep["block_rows"] == [] and rep["forbidden_edges"] == []


def test_state_indices_and_counts_are_whole_numbers():
    # int() once read the edge (0, 1.9) as (0, 1) and n_states True as 1
    for n, edges in ((2, [(0, 1.9), (1, 0), (0, 0)]), (2.7, [(0, 1), (1, 0)]),
                     (True, [(0, 0)]), (2, [(0, math.nan), (1, 0)]),
                     (2, [("0", 1), (1, 0)]), (2, [(0, True), (1, 0)])):
        with pytest.raises(ShapeMismatch, match="whole number"):
            FiniteCorrespondence(n, edges)
    corr = FiniteCorrespondence(2.0, [(0, 1.0), (1.0, 0)])
    assert corr.n_states == 2 and corr.edges == ((0, 1), (1, 0))
    assert all(type(i) is int for e in corr.edges for i in e)
    with pytest.raises(ShapeMismatch):
        Potential(corr, {(0, 1.5): 1.0})


def test_an_index_past_int64_is_out_of_range():
    with pytest.raises(IndexOutOfRange) as err:
        FiniteCorrespondence(2, [(0, 2 ** 70), (1, 0), (0, 0), (-2 ** 64, 1)])
    assert err.value.pairs == [(0, 2 ** 70), (-2 ** 64, 1)]


def test_more_states_than_edges_is_refused_without_per_state_arrays():
    # 10**18 states could not be allocated: the refusal reads the edges only
    with pytest.raises(EmptySuccessor) as err:
        FiniteCorrespondence(10 ** 18, [(0, 1), (1, 0), (3, 3)])
    assert err.value.states == [2] + list(range(4, 23))
    assert err.value.count == 10 ** 18 - 3
    with pytest.raises(DuplicateEdge) as err:
        FiniteCorrespondence(2 ** 70, [(5, 5), (0, 0), (5, 5)])
    assert err.value.pairs == [(5, 5)]


def test_int_arrays_build_the_same_relation_as_pair_lists():
    pairs = [(2, 0), (0, 1), (1, 2), (0, 0)]
    corr = FiniteCorrespondence(3, np.array(pairs))
    assert corr == FiniteCorrespondence(3, pairs)
    assert hash(corr) == hash(FiniteCorrespondence(3, pairs))
    with pytest.raises(ShapeMismatch, match="shape"):
        FiniteCorrespondence(3, np.array(pairs).T)


def test_relation_arrays_are_read_only_copies():
    pairs = np.array([[0, 1], [1, 0]])
    corr = FiniteCorrespondence(2, pairs)
    pairs[0, 1] = 0
    assert corr.edges == ((0, 1), (1, 0))
    offsets, targets = corr.csr()
    assert offsets.tolist() == [0, 1, 2] and targets.tolist() == [1, 0]
    for a in (*corr.edge_arrays(), offsets):
        with pytest.raises(ValueError):
            a[0] = 1


@st.composite
def raw_relations(draw):
    """A state count and an edge list with duplicates, out-of-range
    entries and empty rows, in input order or already sorted."""
    n = draw(st.integers(-1, 7))
    hi = max(n - 1, 0)
    index = st.integers(-2, n + 1) if draw(st.booleans()) else st.integers(0, hi)
    edges = draw(st.lists(st.tuples(index, index), max_size=24))
    if n > 0 and draw(st.booleans()):
        # a successor for every state, so that some inputs are valid
        edges += [(i, draw(st.integers(0, hi))) for i in range(n)]
    order = draw(st.sampled_from(["input", "sorted", "sorted and unique"]))
    if order == "sorted":
        edges.sort()
    elif order == "sorted and unique":
        edges = sorted(set(edges))
    return n, edges


def outcome(build):
    """The views of a built relation, or the type and listed items of
    the exception its checks raise."""
    try:
        edges, succ, pred = build()
    except (IndexOutOfRange, DuplicateEdge, EmptySuccessor) as exc:
        return (type(exc), getattr(exc, "pairs", None),
                getattr(exc, "states", None), getattr(exc, "count", None))
    return edges, succ, pred


def views(n, edges):
    corr = FiniteCorrespondence(n, edges)
    return (corr.edges, tuple(corr.successors(i) for i in range(n)),
            tuple(corr.predecessors(j) for j in range(n)))


@settings(deadline=None, max_examples=300)
@given(raw_relations())
def test_constructor_matches_the_set_based_reference(case):
    n, edges = case
    expected = outcome(lambda: references.relation(n, edges))
    assert outcome(lambda: views(n, edges)) == expected
    array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    assert outcome(lambda: views(n, array)) == expected
