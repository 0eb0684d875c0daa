"""Property tests of the pressure, the closed-form abstract entropy,
the cycle description of the invariant polytope, the command line's
exit-code contract, and its report writer against json.dumps.

The abstract entropy of a pair measure nu is inf over psi of
[P(psi) - <nu, psi>], with P the spectral pressure.  The pair polytope
(balanced, mass-one edge vectors) has the uniform simple-cycle
measures as its vertices.  Hypothesis draws seeds; the instances come
from the seeded generators in corrpress.verify, so a failing seed
reproduces with those alone.  The document fuzz draws the documents
themselves.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrpress import (
    FiniteCorrespondence,
    InputError,
    Potential,
    TransitionKernel,
    abstract_kernel_entropy,
    invariant_polytope_extremes,
    pair_from_kernel,
    spectral_pressure,
    stationary_measures,
)
from corrpress.cli import _json_text, main
from corrpress.pressure import DENSE_MAX, SpectralCache
import references
from references import INFEASIBLE, OPTIMAL, simplex
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
        ker = TransitionKernel(corr, m[corr.edge_arrays()])
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


def test_unbalanced_pair_refuses_self_loops_before_any_draw():
    """Every pair measure on self-loops is balanced, so no draw could end."""
    rng = np.random.default_rng(5)
    with pytest.raises(InputError, match="self-loop"):
        random_unbalanced_pair(rng, FiniteCorrespondence(2, [(0, 0), (1, 1)]))
    assert rng.random() == np.random.default_rng(5).random()


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


def lp_extremes(corr):
    """Distinct cycle marginals that no exact LP writes as a mixture of
    the other distinct ones, sorted."""
    distinct = sorted(set(references.polytope_tables(corr)[1]))
    keep = []
    for p in distinct:
        others = [q for q in distinct if q != p]
        if not others:
            keep.append(p)
            continue
        rows = [[q[i] for q in others] for i in range(len(p))]
        status, _, _ = simplex(rows + [[1] * len(others)], list(p) + [1],
                               [0] * len(others), exact=True)
        if status == INFEASIBLE:
            keep.append(p)
    return keep


@PROPERTY
@given(seed=SEEDS)
def test_extremes_are_the_projections_no_lp_can_mix(seed):
    rng = np.random.default_rng(seed)
    corr = random_relation(rng, 2, 7)
    ext = invariant_polytope_extremes(corr)
    assert list(ext.extremes_exact) == lp_extremes(corr)
    for exact, approx in zip(ext.extremes_exact, ext.extremes):
        assert approx.tolist() == [float(v) for v in exact]


@PROPERTY
@given(seed=SEEDS)
def test_pressure_shifts_by_constants_and_ignores_coboundaries(seed):
    rng = np.random.default_rng(seed)
    corr = random_relation(rng, 2, 10)
    phi = rng.uniform(-2.0, 2.0, corr.n_edges)
    base = spectral_pressure(corr, Potential(corr, phi)).pressure
    c = float(rng.uniform(-3.0, 3.0))
    shifted = spectral_pressure(corr, Potential(corr, phi + c)).pressure
    assert abs(shifted - (base + c)) <= 1e-9
    cob = Potential.from_state_difference(
        corr, rng.uniform(-2.0, 2.0, corr.n_states)).values
    moved = spectral_pressure(corr, Potential(corr, phi + cob)).pressure
    assert abs(moved - base) <= 1e-9


@PROPERTY
@given(seed=SEEDS)
def test_relabeling_leaves_the_pressure_fixed(seed):
    rng = np.random.default_rng(seed)
    corr = random_relation(rng, 2, 10)
    phi = Potential(corr, rng.uniform(-2.0, 2.0, corr.n_edges))
    theta = [int(t) for t in rng.permutation(corr.n_states)]
    moved = phi.relabel(theta)
    a = spectral_pressure(corr, phi).pressure
    b = spectral_pressure(moved.corr, moved).pressure
    assert abs(a - b) <= 1e-12


def large_class(rng, period):
    """One strong class above DENSE_MAX states with the given period:
    every edge steps from residue r to r + 1 mod period, a ring through
    all states included, two more successors each; a loop when the
    period is one."""
    n = period * int(rng.integers(DENSE_MAX // period + 1, 120 // period + 1))
    edges = {(k, (k + 1) % n) for k in range(n)}
    for i in range(n):
        targets = np.arange((i + 1) % period, n, period)
        for j in rng.choice(targets, size=2, replace=False):
            edges.add((i, int(j)))
    if period == 1:
        edges.add((0, 0))
    return FiniteCorrespondence(n, sorted(edges))


@PROPERTY
@given(seed=SEEDS, period=st.integers(min_value=1, max_value=3))
def test_power_bracket_holds_the_dense_log_radius(seed, period):
    rng = np.random.default_rng(seed)
    corr = large_class(rng, period)
    values = rng.uniform(-1.0, 1.0, corr.n_edges)
    cache = SpectralCache(corr.n_states, *corr.edge_arrays())
    assert len(cache.components) == 1 and corr.n_states > DENSE_MAX
    logrho, _, _, (lo, hi) = cache.solve(0, values, vectors=False)
    m = np.zeros((corr.n_states, corr.n_states))
    src, dst = corr.edge_arrays()
    m[src, dst] = np.exp(values)
    dense = math.log(float(np.max(np.abs(np.linalg.eigvals(m)))))
    assert lo <= logrho <= hi
    # the dense eigensolve rounds too: up to 5e-15 past the bracket seen
    assert lo - 1e-13 <= dense <= hi + 1e-13


# Small indices, so that edges often land inside the state range; state
# counts also range up to 10**12, which a correspondence must refuse
# before it allocates anything per state.
SMALL = st.integers(min_value=-1, max_value=3)
COUNT = st.one_of(SMALL, st.integers(min_value=4, max_value=10 ** 12))
ODD = st.one_of(
    st.none(), st.booleans(), st.floats(min_value=-6.0, max_value=6.0),
    st.sampled_from([math.inf, -math.inf, math.nan, "1", "a", ""]),
    st.lists(SMALL, max_size=2))
ENTRY = st.one_of(SMALL, SMALL, SMALL, ODD)
PAIR = st.lists(SMALL, min_size=2, max_size=2)
ANY_JSON = st.recursive(
    ODD, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n_states", "edges", "weights", "labels"]),
                      inner, max_size=3),
    max_leaves=8)
CORR_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"n_states": st.one_of(COUNT, ENTRY),
         "edges": st.one_of(st.lists(PAIR, max_size=8),
                            st.lists(st.one_of(PAIR, st.lists(ENTRY, max_size=3)),
                                     max_size=8))},
        optional={"labels": st.one_of(st.lists(st.text(max_size=2), max_size=4),
                                      ODD)}),
    ANY_JSON)
MU_DOCS = st.one_of(
    st.fixed_dictionaries({"weights": st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), ENTRY), max_size=4)}),
    ANY_JSON)
# Kernel documents for the two-state GOLDEN relation: mostly two rows of
# (successor, probability) pairs, so that the row checks are reached.
PAIR_ENTRY = st.tuples(SMALL, st.one_of(st.sampled_from([0.0, 0.5, 1.0]), ENTRY))
KERNEL_ROW = st.one_of(st.lists(st.one_of(PAIR_ENTRY.map(list), ODD), max_size=3),
                       st.lists(PAIR_ENTRY.map(list), min_size=1, max_size=2))
KERNEL_DOCS = st.one_of(
    st.fixed_dictionaries({"rows": st.one_of(
        st.lists(KERNEL_ROW, min_size=2, max_size=2),
        st.lists(st.one_of(KERNEL_ROW, ODD), max_size=3))}),
    ANY_JSON)
GOLDEN = {"n_states": 2, "edges": [[0, 0], [0, 1], [1, 0]]}


def run_documents(argv, docs, overflow):
    """Run the command line on documents written to a scratch directory;
    returns the exit code, the report on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            text = json.dumps(doc)
            if overflow:        # the literal 1e999 reads as infinity
                text = text.replace("Infinity", "1e999")
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a in docs else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, json.loads(out.getvalue()), err.getvalue()


def assert_contract(code, report, err):
    assert code in (0, 2)
    assert report["status"] == ("ok" if code == 0 else "error")
    assert "Traceback" not in err


@settings(deadline=None, max_examples=150)
@given(doc=CORR_DOCS, overflow=st.booleans(),
       command=st.sampled_from(["pressure", "extremes"]))
def test_malformed_correspondence_documents_exit_cleanly(doc, overflow, command):
    assert_contract(*run_documents([command, "--input", "c.json"],
                                   {"c.json": doc}, overflow))


@settings(deadline=None, max_examples=150)
@given(doc=MU_DOCS, overflow=st.booleans(),
       command=st.sampled_from(["invariant", "extremes"]))
def test_malformed_measure_documents_exit_cleanly(doc, overflow, command):
    assert_contract(*run_documents([command, "--input", "c.json", "--mu", "m.json"],
                                   {"c.json": GOLDEN, "m.json": doc}, overflow))


@settings(deadline=None, max_examples=150)
@given(doc=KERNEL_DOCS, overflow=st.booleans())
def test_malformed_kernel_documents_exit_cleanly(doc, overflow):
    assert_contract(*run_documents(
        ["kentropy", "--input", "c.json", "--kernel", "k.json", "--mu", "m.json"],
        {"c.json": GOLDEN, "k.json": doc, "m.json": {"weights": [0.5, 0.5]}},
        overflow))


# Solver options of every JSON type: whole numbers as ints and floats,
# with small budgets, fractions, non-finite values, booleans, strings.
OPTION = st.one_of(
    st.integers(min_value=-2, max_value=6),
    st.integers(min_value=-2, max_value=6).map(float),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([2.5, 1e-12, 1e-8, math.nan, math.inf, -math.inf,
                     True, False, "3", "1e-8", None]))
CONFIG_DOCS = st.one_of(
    st.fixed_dictionaries({}, optional={"max_iterations": OPTION,
                                        "tolerance": OPTION}),
    ANY_JSON)
THREE = {"n_states": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 2]]}
PAIRS = st.sampled_from([
    {"edges": [[0, 1, 0.5], [1, 0, 0.1], [1, 2, 0.2], [2, 2, 0.2]]},
    {"edges": [[0, 1, 0.25], [1, 0, 0.25], [2, 2, 0.5]]}])
# on GOLDEN: a point mass on the loop, and a measure that is not invariant
MEASURES = st.sampled_from([{"weights": [1.0, 0.0]}, {"weights": [0.11, 0.89]}])
WEIGHT = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
POTENTIAL_DOCS = st.fixed_dictionaries({"edges": st.lists(
    st.tuples(st.sampled_from(THREE["edges"]), WEIGHT).map(
        lambda ew: ew[0] + [ew[1]]), max_size=4)})


@settings(deadline=None, max_examples=150)
@given(doc=CONFIG_DOCS, mu=MEASURES, nu=PAIRS, overflow=st.booleans())
def test_solver_option_documents_exit_cleanly(doc, mu, nu, overflow):
    assert_contract(*run_documents(
        ["mpressure", "--input", "c.json", "--mu", "m.json", "--config", "o.json"],
        {"c.json": GOLDEN, "m.json": mu, "o.json": doc}, overflow))
    assert_contract(*run_documents(
        ["aentropy", "--input", "c.json", "--nu", "n.json", "--config", "o.json"],
        {"c.json": THREE, "n.json": nu, "o.json": doc}, overflow))


@settings(deadline=None, max_examples=150)
@given(phi=POTENTIAL_DOCS, psi=POTENTIAL_DOCS, overflow=st.booleans())
def test_potential_and_direction_documents_exit_cleanly(phi, psi, overflow):
    assert_contract(*run_documents(
        ["pressure", "--input", "c.json", "--phi", "p.json"],
        {"c.json": THREE, "p.json": phi}, overflow))
    assert_contract(*run_documents(
        ["derivative", "--input", "c.json", "--phi", "p.json", "--nu", "d.json"],
        {"c.json": THREE, "p.json": phi, "d.json": psi}, overflow))


# ------------------------------------------------------------ report writer

JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, -0.0, 1e16, 1e-7, -1e300, 5e-324])
                | st.text())
INT_ROWS = (st.lists(st.lists(st.integers(), max_size=4), min_size=1)
            | st.integers(0, 4).flatmap(lambda k: st.lists(
                st.lists(st.integers(), min_size=k, max_size=k), min_size=1))
            | st.lists(st.lists(st.integers() | st.booleans(), min_size=2,
                                max_size=2), min_size=1))
JSON_TREES = st.recursive(
    JSON_SCALARS | INT_ROWS,
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.text(), kids, max_size=5),
    max_leaves=40)


def emitted(results):
    """The writer's text for a report around results: the writer alone,
    without the converter that _emit applies first."""
    doc = {"command": "probe", "inputs": {}, "results": results,
           "status": "ok", "error": None}
    return _json_text(doc) + "\n"


def dumped(results):
    """json.dumps's text for the same report, int arrays as lists."""
    doc = {"command": "probe", "inputs": {}, "results": results,
           "status": "ok", "error": None}
    return json.dumps(doc, indent=2, allow_nan=False,
                      default=lambda a: a.tolist()) + "\n"


@settings(deadline=None, max_examples=300)
@given(results=JSON_TREES)
def test_report_writer_matches_the_stdlib_encoder(results):
    doc = {"command": "probe", "inputs": {}, "results": results,
           "status": "ok", "error": None}
    assert emitted(results) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


@PROPERTY
@given(rows=st.integers(0, 6), width=st.integers(1, 3), seed=SEEDS)
def test_report_writer_writes_int_arrays_as_their_nested_lists(rows, width, seed):
    a = np.random.default_rng(seed).integers(-2 ** 62, 2 ** 62, size=(rows, width))
    assert emitted({"edges": a, "n": 1}) == emitted({"edges": a.tolist(), "n": 1})


I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("a", [
    np.array([[9999, 10000, 10 ** 8 - 1, 10 ** 8]]),          # group bounds
    np.array([[10 ** 12 - 1, 10 ** 12, 10 ** 16, 10 ** 18]]),
    np.array([[-100000005, -10000, 0], [-1, -9999, 100000005]]),  # inner zeros
    np.array([[I64.min, I64.max], [I64.max, I64.min]]),
    np.array([[-128, 127, 0], [5, -5, 10]], dtype=np.int8),
    np.array([[-2 ** 31, 2 ** 31 - 1], [0, -7]], dtype=np.int32),
    np.array([[0, 1, -1, 42, 1000]]),                          # one row
    np.array([[0], [10 ** 9], [-3]]),                           # one column
    np.array([[0]]),
])
def test_report_writer_writes_digit_groups_as_json_does(a):
    assert emitted({"edges": a, "n": [a]}) == dumped({"edges": a, "n": [a]})


@pytest.mark.parametrize("shape", [(2, 0), (1, 0), (0, 3)])
def test_report_writer_writes_empty_rows_as_json_does(shape):
    a = np.zeros(shape, dtype=np.int64)
    assert emitted([a, {"a": a}]) == dumped([a, {"a": a}])


def test_report_writer_refuses_other_arrays():
    for a in (np.zeros((2, 2)), np.arange(3), np.ones((1, 1, 1), dtype=int)):
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            emitted({"a": a})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_writer_refuses_non_finite_floats(bad):
    for results in (bad, [1.0, bad], {"a": [[0, 1], {"b": bad}]}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            emitted(results)
        with pytest.raises(ValueError, match="not JSON compliant"):
            json.dumps(results, indent=2, allow_nan=False)
