import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrpress import (
    ConvergenceFailure,
    FiniteCorrespondence,
    NonUniqueDominantClass,
    NotInvariant,
    Potential,
    ScalingDiverged,
    ShapeMismatch,
    SolverConfig,
    abstract_kernel_entropy,
    abstract_measure_pressure,
    directional_derivative,
    entropy_rate,
    gibbs_equilibrium,
    invariant_polytope_extremes,
    measure_pressure,
    pair_from_kernel,
    spectral_pressure,
    tangent_functionals,
)
from corrpress import pressure, verify
from corrpress.kernels import stationary_gap
from corrpress.verify import random_invariant_measure as cycle_mixture
from references import all_edge_newton, chargeable_edges

LOG2 = math.log(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


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


def random_invariant_measure(rng, corr, ext):
    lam = rng.dirichlet(np.ones(len(ext.extremes)))
    mu = np.zeros(corr.n_states)
    for w, e in zip(lam, ext.extremes):
        mu += w * np.asarray(e)
    return mu


# ----------------------------------------------------------------- type I

def test_full_shift_equilibrium_is_uniform():
    corr = full_shift(2)
    eq = gibbs_equilibrium(corr, Potential.zero(corr))
    assert eq.pressure == pytest.approx(LOG2, abs=1e-12)
    assert eq.entropy == pytest.approx(LOG2, abs=1e-12)
    assert eq.integral == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(eq.kernel.matrix, 0.5)
    assert np.allclose(eq.measure, 0.5)


def test_golden_mean_equilibrium_is_the_parry_chain():
    corr = golden_mean()
    eq = gibbs_equilibrium(corr, Potential.zero(corr))
    assert eq.pressure == pytest.approx(math.log(GOLDEN), abs=1e-12)
    assert np.allclose(eq.kernel.matrix,
                       [[1 / GOLDEN, 1 / GOLDEN ** 2], [1.0, 0.0]], atol=1e-10)
    assert np.allclose(eq.measure,
                       [(5 + math.sqrt(5)) / 10, (5 - math.sqrt(5)) / 10],
                       atol=1e-10)


def test_gibbs_pair_attains_the_pressure():
    rng = np.random.default_rng(61)
    for _ in range(25):
        corr = random_relation(rng, int(rng.integers(2, 9)))
        phi = random_potential(rng, corr)
        try:
            eq = gibbs_equilibrium(corr, phi)
        except NonUniqueDominantClass:
            continue
        assert stationary_gap(eq.measure, eq.kernel) <= 1e-9
        assert eq.entropy + eq.integral \
            == pytest.approx(eq.pressure, abs=1e-9)
        assert eq.pressure \
            == pytest.approx(spectral_pressure(corr, phi).pressure, abs=1e-12)
        # the pair marginals coincide
        left = np.zeros(corr.n_states)
        right = np.zeros(corr.n_states)
        for (i, j), w in zip(corr.edges, eq.pair):
            left[i] += w
            right[j] += w
        assert np.abs(left - right).sum() <= 1e-10


def test_equilibrium_beside_a_class_of_minus_infinity_weights():
    corr = FiniteCorrespondence(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
    phi = Potential(corr, [-np.inf, -np.inf, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq = gibbs_equilibrium(corr, phi)
    assert eq.pressure == 0.0
    assert np.array_equal(eq.measure, [0.0, 0.0, 1.0])
    assert eq.dominant_class == (2,)
    assert eq.integral == 0.0


def test_tied_classes_refuse_a_single_equilibrium():
    corr = FiniteCorrespondence(2, [(0, 0), (1, 1)])
    with pytest.raises(NonUniqueDominantClass):
        gibbs_equilibrium(corr, Potential.zero(corr))


def test_measure_pressure_at_the_gibbs_measure_recovers_pressure():
    rng = np.random.default_rng(62)
    for _ in range(10):
        corr = random_relation(rng, int(rng.integers(2, 7)))
        phi = random_potential(rng, corr)
        try:
            eq = gibbs_equilibrium(corr, phi)
        except NonUniqueDominantClass:
            continue
        res = measure_pressure(corr, phi, eq.measure)
        assert res.value == pytest.approx(eq.pressure, abs=1e-8)
        assert res.marginal_error <= 1e-10


def test_measure_pressure_never_exceeds_pressure():
    rng = np.random.default_rng(63)
    for _ in range(10):
        corr = random_relation(rng, int(rng.integers(2, 6)))
        phi = random_potential(rng, corr)
        p = spectral_pressure(corr, phi).pressure
        ext = invariant_polytope_extremes(corr)
        for _ in range(3):
            mu = random_invariant_measure(rng, corr, ext)
            res = measure_pressure(corr, phi, mu)
            assert res.value <= p + 1e-8


def test_measure_pressure_value_matches_the_edge_loop():
    rng = np.random.default_rng(71)
    for _ in range(8):
        corr = random_relation(rng, int(rng.integers(2, 6)))
        phi = random_potential(rng, corr)
        mu = cycle_mixture(rng, corr)
        res = measure_pressure(corr, phi, mu)
        loop = 0.0
        for (i, j), v, w in zip(corr.edges, res.pair, phi.values):
            if v > 0.0:
                loop += v * (w - math.log(v / mu[i]))
        assert res.value == pytest.approx(loop, abs=1e-13)


def test_measure_pressure_point_mass_on_a_loop():
    corr = FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 0)])
    phi = Potential(corr, {(0, 0): 0.4, (0, 1): 5.0})
    res = measure_pressure(corr, phi, [1.0, 0.0])
    # the only coupling is the loop itself: no entropy, integral 0.4
    assert res.value == pytest.approx(0.4, abs=1e-10)


def test_measure_pressure_rejects_non_invariant_measures():
    corr = FiniteCorrespondence(2, [(0, 1), (1, 1)])
    with pytest.raises(NotInvariant):
        measure_pressure(corr, Potential.zero(corr), [1.0, 0.0])


@pytest.mark.parametrize("edges, witness", [
    ([(0, 0), (1, 0), (2, 2)], (1,)),           # no edge enters state 1
    ([(0, 0), (0, 1), (1, 2), (2, 2)], (0, 1)),  # state 1 leaves the support
])
def test_measure_pressure_rejects_a_tiny_mass_without_an_edge(edges, witness):
    """Mass of 1e-12, below the tolerance of the invariance flow, on a
    state with no edge in or out inside the support: under a finite
    potential that is NotInvariant, never a pressure of -inf."""
    corr = FiniteCorrespondence(3, edges)
    with pytest.raises(NotInvariant) as err:
        measure_pressure(corr, Potential.zero(corr), [1.0 - 1e-12, 1e-12, 0.0])
    assert err.value.witness == witness


def test_measure_pressure_face_restriction_converges():
    """A measure sitting on a face of the coupling polytope.

    No coupling with these marginals charges every edge, so the
    entropic optimum lies on a face.  Over every edge the mass off the
    face decays only geometrically, in 22 Newton steps (alternate
    scaling decays here as 1/k); on the face the invariance flow
    certifies, Newton converges in 11.
    """
    corr = FiniteCorrespondence(5, ((0, 1), (0, 3), (0, 4), (1, 0), (1, 2),
                                    (1, 3), (2, 1), (3, 0), (3, 2), (3, 3),
                                    (3, 4), (4, 2)))
    mu = [0.2769427941389467, 0.2769427941389467, 0.2230572058610533,
          4.35761969429485e-05, 0.22301362966411034]
    phi = Potential(corr, [-0.5678051089075786, -0.6479226759478374,
                           0.2508284680113131, -0.2749279652187353,
                           -0.8749817446944745, -0.7334855243255061,
                           0.718333179496379, 0.14239302063234094,
                           -0.3809737485881921, 0.5067019475305015,
                           -0.031850527301669374, 0.2559871254788322])
    res = measure_pressure(corr, phi, mu)
    assert res.face_restricted
    assert res.iterations <= 12
    assert res.marginal_error <= 1e-10
    assert res.value <= spectral_pressure(corr, phi).pressure + 1e-8


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_measure_pressure_on_the_certified_face_matches_all_edge_newton(seed):
    """The pair charges exactly the edges that some coupling charges,
    which the tight subsets of references.chargeable_edges find, and
    its value matches Newton over every edge between mu-positive
    states, run to 1e-13 so that little mass stays off the face.  Where
    no edge is off the face, the two solves are the same arithmetic."""
    rng = np.random.default_rng(seed)
    corr = verify.random_relation(rng, 2, 8)
    phi = verify.random_potential(rng, corr)
    mu = cycle_mixture(rng, corr)
    res = measure_pressure(corr, phi, mu)
    src, dst = corr.edge_arrays()
    gap = (np.abs(np.bincount(src, weights=res.pair, minlength=corr.n_states) - mu)
           + np.abs(np.bincount(dst, weights=res.pair, minlength=corr.n_states) - mu))
    assert res.marginal_error <= 1e-10 and float(np.sum(gap)) <= 1e-10 + 1e-15
    face = chargeable_edges(corr, mu, 1e-12)
    assert np.all(res.pair[face] > 0.0) and np.all(res.pair[~face] == 0.0)
    inside = (mu[src] > 0.0) & (mu[dst] > 0.0)
    assert res.face_restricted == (not np.all(face[inside]))
    # the all-edge solve can stall a little above 1e-13, at rounding
    value, _, err, _ = all_edge_newton(corr, phi, mu, 1e-13, 200)
    assert err <= 1e-11
    assert res.value == pytest.approx(value, abs=1e-8)
    if not res.face_restricted:
        value, pair, err, steps = all_edge_newton(corr, phi, mu, 1e-10, 100)
        assert (res.value, res.marginal_error, res.iterations) == (value, err, steps)
        assert np.array_equal(res.pair, pair)


def test_measure_pressure_on_a_large_face_takes_the_reach_route(monkeypatch):
    """Two blocks of 200 states, each with the shifts by 1, 2 and 7
    around a ring, and an edge from each state of the first block into
    the second.  The uniform measure is carried by every shift, and no
    coupling charges an edge between the blocks.  The residual graph
    has 800 states and over 2000 edges, so the face pass takes
    reach_roots, not Tarjan alone; the value is that of Newton over
    every edge."""
    k = 200
    edges = [(b + i, b + (i + s) % k) for b in (0, k) for i in range(k)
             for s in (1, 2, 7)]
    edges += [(i, k + 3 * i % k) for i in range(k)]
    corr = FiniteCorrespondence(2 * k, sorted(edges))
    phi = Potential(corr, np.random.default_rng(0).uniform(-1.0, 1.0, corr.n_edges))
    mu = np.full(2 * k, 1.0 / (2 * k))
    sizes = []
    reach_roots = pressure.reach_roots

    def counting(n, src, dst):
        sizes.append(n)
        return reach_roots(n, src, dst)

    monkeypatch.setattr(pressure, "reach_roots", counting)
    res = measure_pressure(corr, phi, mu)
    assert sizes == [2 * corr.n_states]
    assert res.face_restricted and res.marginal_error <= 1e-10
    src, dst = corr.edge_arrays()
    across = (src < k) & (dst >= k)
    assert np.all(res.pair[across] == 0.0) and np.all(res.pair[~across] > 0.0)
    value, _, err, _ = all_edge_newton(corr, phi, mu, 1e-13, 200)
    assert err <= 1e-11
    assert res.value == pytest.approx(value, abs=1e-8)


def test_measure_pressure_singular_newton_system_is_scaling_diverged():
    """At tol 1e-14 the shift 1e-3 * err falls below rounding and the
    Schur complement of this face turns singular; that is a solver
    failure with its marginal error, not numpy's LinAlgError."""
    corr = FiniteCorrespondence(4, [(0, 0), (0, 3), (1, 0), (1, 1), (1, 2),
                                    (2, 1), (3, 0), (3, 1)])
    phi = Potential(corr, [-0.2780460540038887, 0.6214632310186019,
                           0.19305321248451635, 0.10063074793794291,
                           -0.3757489391853086, 0.48282814974099453,
                           -0.7276043361137094, -0.619936502599252])
    mu = [0.7928780542169386, 0.15410752906871972, 0.05301441671434165, 0.0]
    assert measure_pressure(corr, phi, mu, tol=1e-13).marginal_error <= 1e-13
    with pytest.raises(ScalingDiverged, match="marginal error .* singular"):
        measure_pressure(corr, phi, mu, tol=1e-14)


def test_measure_pressure_below_the_flow_resolution_runs_on_every_edge():
    """The loop 0 -> 1 -> 0 with mass 1 - 1e-15 and the 3-cycle
    0 -> 2 -> 3 -> 0 with mass 1e-15: the flow leaves the cycle's mass,
    below SATURATED, behind, so it certifies no face and Newton runs on
    every finite edge, as the all-edge reference does."""
    corr = FiniteCorrespondence(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0),
                                    (1, 1), (2, 2)])
    phi = Potential(corr, np.linspace(-0.5, 0.5, corr.n_edges))
    eps = 1e-15
    mu = np.array([(1 - eps) / 2 + eps / 3, (1 - eps) / 2, eps / 3, eps / 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = measure_pressure(corr, phi, mu)
    value, pair, err, steps = all_edge_newton(corr, phi, mu, 1e-10, 100)
    assert (res.value, res.marginal_error, res.iterations) == (value, err, steps)
    assert np.array_equal(res.pair, pair)
    assert res.face_restricted


def test_measure_pressure_converges_where_the_scaling_diverged():
    """Three states of mass 2.1e-4 among seven; alternate scaling on the
    face this measure needs still had a marginal error of 4e-8 after a
    million steps and gave up with ScalingDiverged."""
    corr = FiniteCorrespondence(8, (
        (0, 3), (0, 4), (1, 1), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
        (2, 7), (3, 1), (3, 2), (3, 6), (4, 6), (4, 7), (5, 0), (5, 2),
        (5, 7), (6, 0), (6, 7), (7, 1), (7, 2), (7, 3), (7, 4)))
    phi = Potential(corr, [
        0.9184185456891518, 0.503926243149831, 0.08171327388990246,
        -0.4309182497763495, 0.7939935975459904, -0.529805766238681,
        -0.3493145389666459, 0.818129628845897, 0.05908411057014473,
        0.48463589883595337, 0.18148958832753226, 0.3068784180189903,
        -0.40123341697034887, -0.5172558767466742, -0.3550153056626695,
        -0.6891168718331551, 0.7486287305816148, -0.43350613349977185,
        0.12297878882876923, 0.5839488502827481, 0.5676482187514271,
        -0.12322748283161422, -0.04748538282654868])
    mu = [0.028081575034278845, 0.45766619281399756, 0.00021144463458421946,
          0.48553632321369217, 0.0, 0.00021144463458421946,
          0.028081575034278845, 0.00021144463458421946]
    res = measure_pressure(corr, phi, mu)
    assert res.value == pytest.approx(0.16237625078, abs=1e-9)
    assert res.marginal_error <= 1e-10


def test_underflowed_perron_vector_is_a_convergence_failure():
    """Under this potential the right Perron vector of the one class
    underflows to an exact zero on state 1, so its Gibbs kernel would
    be 0/0 there."""
    corr = FiniteCorrespondence(5, (
        (0, 0), (0, 1), (0, 3), (0, 4), (1, 0), (1, 4), (2, 1), (2, 2),
        (2, 3), (3, 2), (3, 4), (4, 3)))
    phi = Potential(corr, [
        19.857858260471374, 6.906757237208216, -7.261008909493549,
        -3.656326876361069, -3.7672714077015, -0.5220534466369475,
        4.642174139220039, 32.12247607263693, -38.567606505367834,
        8.890923668990256, -33.9586088661039, -32.94485530215226])
    with pytest.raises(ConvergenceFailure):
        gibbs_equilibrium(corr, phi)
    with pytest.raises(ConvergenceFailure):
        tangent_functionals(corr, phi)


def test_underflowed_parry_measure_is_a_convergence_failure():
    """On the 15th draw the product l * r of the Perron vectors
    underflows to zero on states 1 and 8, so the Parry measure would
    miss part of its class and not be invariant."""
    rng = np.random.default_rng(9)
    for _ in range(15):
        corr = verify.random_primitive(rng)
        phi = Potential(corr, 20 * verify.random_potential(rng, corr).values)
    assert (corr.n_states, corr.n_edges) == (10, 33)
    with pytest.raises(ConvergenceFailure):
        gibbs_equilibrium(corr, phi)


def test_measure_pressure_rejects_a_hall_violation_after_the_budget():
    # every state has a local edge in and out, but {1, 2} sends its mass
    # 2/3 into {0}, which holds 1/3: only the invariance flow can tell,
    # and it does before the first Newton step
    corr = FiniteCorrespondence(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    with pytest.raises(NotInvariant):
        measure_pressure(corr, Potential.zero(corr), [1 / 3, 1 / 3, 1 / 3])


def test_measure_pressure_is_minus_infinity_without_a_finite_coupling():
    """The relation above with loops of weight -inf at 1 and 2: the
    uniform measure is invariant only through them.  Every state has a
    finite edge in and out, so the flow over the finite edges decides,
    before any Newton step."""
    corr = FiniteCorrespondence(3, [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)])
    phi = Potential(corr, {(1, 1): -math.inf, (2, 2): -math.inf})
    mu = [1 / 3, 1 / 3, 1 / 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = measure_pressure(corr, phi, mu)
        amp = abstract_measure_pressure(corr, phi, mu)
    assert res.value == -math.inf and res.iterations == 0
    # the flow's coupling of mu, which carries a -inf loop
    assert np.allclose(np.bincount([0, 0, 1, 1, 2, 2], weights=res.pair), mu)
    assert np.allclose(np.bincount([1, 2, 0, 1, 0, 2], weights=res.pair), mu)
    assert res.pair[3] + res.pair[5] > 0.0
    assert amp.value == -math.inf


def test_minus_infinity_edges_carry_no_mass_and_no_nan():
    corr = FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    phi = Potential(corr, [0.1, -math.inf, 0.3, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = measure_pressure(corr, phi, [0.5, 0.5])
        amp = abstract_measure_pressure(corr, phi, [0.5, 0.5])
    # the only coupling is the two loops
    assert res.pair[1] == 0.0 and res.face_restricted
    assert res.value == pytest.approx(0.15, abs=1e-8)
    assert amp.value == pytest.approx(res.value, abs=1e-8)


def test_extreme_points_attain_the_pressure_for_map_relations():
    # the graph of a map: extreme measures sit on its cycles
    rng = np.random.default_rng(64)
    for _ in range(8):
        n = int(rng.integers(3, 7))
        images = [int(rng.integers(n)) for _ in range(n)]
        corr = FiniteCorrespondence(n, sorted(set((i, images[i]) for i in range(n))))
        phi = random_potential(rng, corr)
        p = spectral_pressure(corr, phi).pressure
        ext = invariant_polytope_extremes(corr)
        best = max(measure_pressure(corr, phi, np.asarray(e)).value
                   for e in ext.extremes)
        assert best == pytest.approx(p, abs=1e-6)


# ----------------------------------------------------------------- type II

def test_abstract_entropy_of_the_uniform_coupling():
    corr = full_shift(2)
    nu = np.full(4, 0.25)
    res = abstract_kernel_entropy(corr, nu)
    assert res.converged
    assert not res.minus_infinity
    assert res.value == pytest.approx(LOG2, abs=1e-6)


def test_abstract_entropy_matches_entropy_at_gibbs_pairs():
    rng = np.random.default_rng(65)
    for _ in range(12):
        corr = random_relation(rng, int(rng.integers(2, 7)))
        phi = random_potential(rng, corr)
        try:
            eq = gibbs_equilibrium(corr, phi)
        except NonUniqueDominantClass:
            continue
        res = abstract_kernel_entropy(corr, eq.pair)
        assert not res.minus_infinity
        # the dual value agrees with the chain entropy of the pair
        assert res.value == pytest.approx(eq.entropy, abs=1e-4)
        # and with pressure minus the energy term
        assert res.value == pytest.approx(eq.pressure - eq.integral, abs=1e-4)


def test_abstract_entropy_dominates_the_kernel_entropy():
    rng = np.random.default_rng(66)
    for _ in range(10):
        corr = random_relation(rng, int(rng.integers(2, 6)))
        ext = invariant_polytope_extremes(corr)
        mu = random_invariant_measure(rng, corr, ext)
        res = measure_pressure(corr, Potential.zero(corr), mu)
        pair = pair_from_kernel(mu, res.kernel)
        h = entropy_rate(mu, res.kernel)
        ab = abstract_kernel_entropy(corr, pair)
        assert not ab.minus_infinity
        assert ab.value >= h - 1e-4
        # the closed form is the entropy rate of the pair itself
        assert ab.value == pytest.approx(h, abs=1e-9)


def test_unbalanced_pair_measures_have_no_entropy():
    corr = full_shift(2)
    # both marginals exist but differ: mass flows from 0 to 1
    nu = np.array([0.2, 0.5, 0.1, 0.2])
    res = abstract_kernel_entropy(corr, nu)
    assert res.minus_infinity
    assert res.value == -np.inf


def test_point_mass_on_a_loop_edge_is_a_boundary_case():
    corr = FiniteCorrespondence(2, [(0, 0), (0, 1), (1, 0)])
    nu = np.array([1.0, 0.0, 0.0])
    res = abstract_kernel_entropy(corr, nu)
    assert not res.minus_infinity
    assert res.value == pytest.approx(0.0, abs=1e-3)
    assert res.converged or res.boundary
    # the certificate is log 1 on the loop and -inf on the missed edges
    assert res.boundary
    assert res.potential[0] == 0.0
    assert np.all(res.potential[1:] == -np.inf)


def test_abstract_entropy_input_validation():
    corr = full_shift(2)
    with pytest.raises(ShapeMismatch):
        abstract_kernel_entropy(corr, np.array([0.5, 0.5]))
    with pytest.raises(ShapeMismatch):
        abstract_kernel_entropy(corr, np.array([0.7, 0.5, -0.1, -0.1]))
    # NaN once passed, as a finite entropy where -inf is due
    with pytest.raises(ShapeMismatch):
        abstract_kernel_entropy(corr, np.array([np.nan, 0.5, 0.25, 0.25]))


def test_golden_mean_gibbs_pair_has_entropy_log_golden():
    corr = golden_mean()
    eq = gibbs_equilibrium(corr, Potential.zero(corr))
    res = abstract_kernel_entropy(corr, eq.pair)
    assert res.value == pytest.approx(math.log(GOLDEN), abs=1e-12)
    assert res.iterations == 0 and res.converged and not res.boundary


def test_dual_certificate_attains_the_infimum():
    corr = golden_mean()
    eq = gibbs_equilibrium(corr, Potential(corr, {(0, 0): 0.3, (0, 1): -0.2}))
    res = abstract_kernel_entropy(corr, eq.pair)
    psi = Potential(corr, res.potential)
    # P(psi*) = 0, so the objective at psi* is -<nu, psi*> = the value
    assert spectral_pressure(corr, psi).pressure == pytest.approx(0.0, abs=1e-12)
    assert -float(np.dot(eq.pair, res.potential)) \
        == pytest.approx(res.value, abs=1e-12)


def test_unbalanced_direction_is_a_coboundary_with_positive_pairing():
    corr = full_shift(2)
    nu = np.array([0.2, 0.5, 0.1, 0.2])
    res = abstract_kernel_entropy(corr, nu)
    # g = row - col = (0.4, -0.4); d(i, j) = g(i) - g(j)
    assert np.allclose(res.potential, [0.0, 0.8, -0.8, 0.0], atol=1e-15)
    assert res.residual == pytest.approx(0.8, abs=1e-15)
    assert float(np.dot(nu, res.potential)) == pytest.approx(0.32, abs=1e-15)
    base = spectral_pressure(corr, Potential.zero(corr)).pressure
    along = spectral_pressure(corr, Potential(corr, 10.0 * res.potential))
    assert along.pressure == pytest.approx(base, abs=1e-12)


def test_balance_tolerance_comes_from_the_config():
    corr = full_shift(2)
    nu = np.array([0.25, 0.25 + 1e-7, 0.25 - 1e-7, 0.25])
    assert abstract_kernel_entropy(corr, nu).minus_infinity
    loose = abstract_kernel_entropy(corr, nu, SolverConfig(tolerance=1e-5))
    assert not loose.minus_infinity
    assert loose.value == pytest.approx(LOG2, abs=1e-6)


@pytest.mark.parametrize("options", [
    {"max_iterations": 2.5}, {"max_iterations": np.nan},
    {"max_iterations": -np.inf}, {"max_iterations": True},
    {"max_iterations": 0}, {"max_iterations": "7"},
    {"tolerance": np.nan}, {"tolerance": np.inf}, {"tolerance": 0.0},
    {"tolerance": -1e-8}, {"tolerance": True}, {"tolerance": None}])
def test_solver_config_refuses_options_no_solver_can_use(options):
    with pytest.raises(ShapeMismatch):
        SolverConfig(**options)


def test_solver_config_reads_whole_floats_as_step_counts():
    cfg = SolverConfig(max_iterations=1e3, tolerance=1)
    assert cfg.max_iterations == 1000 and type(cfg.max_iterations) is int
    assert cfg.tolerance == 1.0 and type(cfg.tolerance) is float


def test_directional_derivative_refuses_a_direction_that_is_not_finite():
    corr = FiniteCorrespondence(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
    phi = Potential(corr, [-np.inf, -np.inf, 0.0, 0.0])
    with pytest.raises(ShapeMismatch, match="-inf"):
        directional_derivative(corr, Potential.zero(corr), phi)
    with pytest.raises(ShapeMismatch, match="-inf"):
        directional_derivative(corr, phi, phi)


def test_abstract_measure_pressure_matches_the_transport_value():
    rng = np.random.default_rng(67)
    for _ in range(6):
        corr = random_relation(rng, int(rng.integers(2, 5)))
        phi = random_potential(rng, corr)
        ext = invariant_polytope_extremes(corr)
        mu = random_invariant_measure(rng, corr, ext)
        direct = measure_pressure(corr, phi, mu)
        dual = abstract_measure_pressure(corr, phi, mu)
        assert dual.value >= direct.value - 1e-6
        assert dual.value == pytest.approx(direct.value, abs=1e-4)
        assert dual.candidates == 1


# ------------------------------------------------------------- derivatives

def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(68)
    for _ in range(15):
        corr = random_relation(rng, int(rng.integers(2, 8)))
        phi = random_potential(rng, corr)
        psi = random_potential(rng, corr)
        der = directional_derivative(corr, phi, psi)
        assert der.plus == pytest.approx(der.plus_fd, abs=1e-4)
        assert der.minus == pytest.approx(der.minus_fd, abs=1e-4)
        assert der.minus <= der.plus + 1e-12


def test_finite_differences_start_from_the_tangent_pressure(monkeypatch):
    """Both sides take the pressure at phi from tangent_functionals, so
    past its one dominant() call, two pressures per side, at the steps
    1e-4 and 1e-5 that the Richardson extrapolation reads, bit for bit
    the differences that compute their own base."""
    rng = np.random.default_rng(69)
    corr = random_relation(rng, 5)
    phi, psi = random_potential(rng, corr), random_potential(rng, corr)
    cache = corr.spectral_cache()
    base = max(cache.log_radii(phi.values))
    expected = []
    t1, t2 = 1e-4, 1e-5
    for sign in (1.0, -1.0):
        fds = [(max(cache.log_radii(phi.values + sign * t * psi.values)) - base)
               / (sign * t) for t in (t1, t2)]
        expected.append((t1 * fds[1] - t2 * fds[0]) / (t1 - t2))
    calls = []
    original = pressure.SpectralCache.dominant

    def counting(self, values):
        calls.append(1)
        return original(self, values)

    monkeypatch.setattr(pressure.SpectralCache, "dominant", counting)
    der = directional_derivative(corr, phi, psi)
    assert [der.plus_fd, der.minus_fd] == expected
    assert len(calls) == 1 + 4


def test_derivative_builds_one_class_index(monkeypatch):
    built = []
    original = pressure._class_edges

    def counting(n, src, dst, root):
        built.append((n, src, dst))
        return original(n, src, dst, root)

    monkeypatch.setattr(pressure, "_class_edges", counting)
    rng = np.random.default_rng(70)
    corr = random_relation(rng, 6)
    directional_derivative(corr, random_potential(rng, corr),
                           random_potential(rng, corr))
    # one index, built over corr's own edge arrays and kept on corr
    src, dst = corr.edge_arrays()
    assert len(built) == 1
    assert built[0][0] == corr.n_states
    assert built[0][1] is src and built[0][2] is dst
    assert corr._spectral is not None


def test_two_loop_fixture_has_one_sided_derivatives():
    corr = FiniteCorrespondence(2, [(0, 0), (1, 1)])
    phi = Potential.zero(corr)
    psi = Potential(corr, {(0, 0): 1.0})
    der = directional_derivative(corr, phi, psi)
    assert der.plus == pytest.approx(1.0, abs=1e-6)
    assert der.minus == pytest.approx(0.0, abs=1e-6)
    assert not der.is_gateaux


def test_tangent_set_structure():
    corr = FiniteCorrespondence(2, [(0, 0), (1, 1)])
    ts = tangent_functionals(corr, Potential.zero(corr))
    assert len(ts.tangents) == 2
    assert not ts.is_unique
    prim = tangent_functionals(full_shift(2), Potential.zero(full_shift(2)))
    assert len(prim.tangents) == 1 and prim.is_unique


def test_unique_tangent_is_the_gibbs_pair():
    rng = np.random.default_rng(72)
    checked = 0
    for _ in range(12):
        corr = random_relation(rng, int(rng.integers(2, 8)))
        phi = random_potential(rng, corr)
        ts = tangent_functionals(corr, phi)
        if not ts.is_unique:
            continue
        # both come from the same Gibbs-pair formula
        assert np.array_equal(ts.tangents[0], gibbs_equilibrium(corr, phi).pair)
        checked += 1
    assert checked >= 6


def test_tangents_support_the_pressure_from_below():
    rng = np.random.default_rng(69)
    for _ in range(10):
        corr = random_relation(rng, int(rng.integers(2, 7)))
        phi = random_potential(rng, corr)
        ts = tangent_functionals(corr, phi)
        for psi in (random_potential(rng, corr) for _ in range(4)):
            p_psi = spectral_pressure(corr, psi).pressure
            for nu in ts.tangents:
                lhs = ts.pressure + float(np.dot(nu, psi.values - phi.values))
                assert lhs <= p_psi + 1e-8
