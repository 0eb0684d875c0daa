"""Seeded verification batteries behind the command line.

Each battery draws its instances from a fixed seed, measures the worst
gap over the batch, and reports one line per claim.  The suites bundle
them: "example" runs the three-route interval check alone, "fast" runs
every battery at reduced counts, "all" runs the full counts plus the
entropy-equality evidence table.
"""

import math
import time

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModeUnsupported
from .intervals import example_report
from .kernels import (entropy_rate, kernel_entropy, kernel_from_pair,
                      pair_from_kernel, stationary_gap, stationary_measures)
from .polytope import FEAS_TOL, invariant_polytope_extremes, is_invariant
from .pressure import (decomposition_pressure, path_pressure_sequence,
                       spectral_pressure)
from .relations import Decomposition, FiniteCorrespondence, Potential
from .variational import (SolverConfig, abstract_kernel_entropy,
                          abstract_measure_pressure, directional_derivative,
                          gibbs_equilibrium, measure_pressure,
                          tangent_functionals)

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    gap: float = None
    detail: str = ""
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# instance generators

def random_primitive(rng, n_min=2, n_max=12, extra=0.25):
    """Cycle through every state, extra edges, one self loop."""
    n = int(rng.integers(n_min, n_max + 1))
    order = [int(s) for s in rng.permutation(n)]
    edges = {(order[k], order[(k + 1) % n]) for k in range(n)}
    for i in range(n):
        for j in range(n):
            if rng.random() < extra:
                edges.add((i, j))
    edges.add((order[0], order[0]))
    return FiniteCorrespondence(n, sorted(edges))


def random_relation(rng, n_min=2, n_max=10):
    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    for i in range(n):
        deg = int(rng.integers(1, min(3, n) + 1))
        for j in rng.choice(n, size=deg, replace=False):
            edges.add((i, int(j)))
    return FiniteCorrespondence(n, sorted(edges))


def random_potential(rng, corr, lo=-1.0, hi=1.0):
    return Potential(corr, rng.uniform(lo, hi, corr.n_edges))


def random_invariant_measure(rng, corr, tries=40):
    """Mixture of uniform measures on simple cycles found by random walks.

    Every finite correspondence has a cycle, and the uniform measure on
    a cycle's states is invariant, so any mixture is too.
    """
    found = []
    seen = set()
    for _ in range(tries):
        walk = [int(rng.integers(corr.n_states))]
        pos = {walk[0]: 0}
        for _ in range(corr.n_states + 1):
            succ = corr.successors(walk[-1])
            nxt = int(succ[int(rng.integers(len(succ)))])
            if nxt in pos:
                cyc = tuple(walk[pos[nxt]:])
                if cyc not in seen:
                    seen.add(cyc)
                    found.append(cyc)
                break
            pos[nxt] = len(walk)
            walk.append(nxt)
        if len(found) >= 3:
            break
    weights = rng.dirichlet(np.ones(len(found)))
    mu = np.zeros(corr.n_states)
    for w, cyc in zip(weights, found):
        for s in cyc:
            mu[s] += w / len(cyc)
    return mu


def random_map_block_relation(rng, max_blocks=3, block_max=3):
    """Blocks that are function graphs or transposed permutation graphs,
    joined by forward cross edges.

    This is the class whose extreme invariant measures attain the
    pressure: cross edges lie on no cycle, so the recurrent part is a
    disjoint union of weighted simple cycles.
    """
    while True:
        n_blocks = int(rng.integers(1, max_blocks + 1))
        blocks, edges = [], set()
        base = 0
        for _ in range(n_blocks):
            size = int(rng.integers(2, block_max + 1))
            states = list(range(base, base + size))
            if rng.random() < 0.5:
                for k in range(size):
                    edges.add((states[k], base + int(rng.integers(size))))
            else:
                # a transposed graph with no sinks forces a bijection
                perm = rng.permutation(size)
                for k in range(size):
                    edges.add((base + int(perm[k]), states[k]))
            blocks.append(states)
            base += size
        for b in range(n_blocks):
            for b2 in range(b + 1, n_blocks):
                for s in blocks[b]:
                    if rng.random() < 0.25:
                        tgt = blocks[b2][int(rng.integers(len(blocks[b2])))]
                        edges.add((s, tgt))
        if len(edges) <= 24:
            return (FiniteCorrespondence(base, sorted(edges)),
                    Decomposition(blocks))


def random_block_relation(rng, max_blocks=4, block_max=4):
    """Ordered blocks with arbitrary inner relations and forward cross
    edges; the block maximum formula applies."""
    n_blocks = int(rng.integers(2, max_blocks + 1))
    blocks, edges = [], set()
    base = 0
    for _ in range(n_blocks):
        size = int(rng.integers(2, block_max + 1))
        states = list(range(base, base + size))
        for s in states:
            deg = int(rng.integers(1, min(3, size) + 1))
            for j in rng.choice(size, size=deg, replace=False):
                edges.add((s, base + int(j)))
        blocks.append(states)
        base += size
    for b in range(n_blocks):
        for b2 in range(b + 1, n_blocks):
            for s in blocks[b]:
                if rng.random() < 0.25:
                    edges.add((s, blocks[b2][int(rng.integers(len(blocks[b2])))]))
    return FiniteCorrespondence(base, sorted(edges)), Decomposition(blocks)


def random_kernel(rng, corr):
    return kernel_from_pair(corr, rng.uniform(0.1, 1.0, corr.n_edges))


def random_unbalanced_pair(rng, corr):
    """Edge probability vector whose marginals provably differ.

    A relation of self-loops only has no such vector, and InputError
    refuses it before any draw.  Otherwise the balanced vectors are a
    proper subspace, which a draw misses almost surely."""
    src, dst = corr.edge_arrays()
    if np.all(src == dst):
        raise InputError("every edge is a self-loop: each pair measure is balanced")
    while True:
        nu = rng.dirichlet(np.ones(corr.n_edges))
        row = np.zeros(corr.n_states)
        col = np.zeros(corr.n_states)
        np.add.at(row, src, nu)
        np.add.at(col, dst, nu)
        if float(np.abs(row - col).sum()) > 1e-3:
            return nu


# ---------------------------------------------------------------------------
# batteries

def battery_example(resolution=1024):
    t0 = time.time()
    rep = example_report(resolution)
    dt = time.time() - t0
    return [
        CheckResult("example-route-a", rep["gap_a"] <= 1e-12, rep["gap_a"],
                    "assembled relation value %.15f" % rep["route_a"]["value"],
                    dt),
        CheckResult("example-route-b", abs(rep["gap_b"]) <= 0.05,
                    abs(rep["gap_b"]),
                    "grid value %.15f at resolution %d"
                    % (rep["route_b"]["value"], resolution)),
        CheckResult("example-route-c", abs(rep["gap_cb"]) <= 1e-9,
                    abs(rep["gap_cb"]),
                    "equilibrium value %.15f" % rep["route_c"]["value"]),
        CheckResult("example-runtime", dt < 30.0, None,
                    "all three routes", dt),
    ]


def battery_basic(seed=20110, count=100, prop_count=25):
    """Path counting against the eigenvalue route, plus the algebraic
    pressure laws."""
    rng = np.random.default_rng(seed)
    t0 = time.time()
    worst = 0.0
    for _ in range(count):
        corr = random_primitive(rng, 2, 12)
        phi = random_potential(rng, corr)
        a_n = path_pressure_sequence(corr, phi, 1000)[-1]
        sp = spectral_pressure(corr, phi).pressure
        worst = max(worst, abs(a_n - sp))
    shift_gap = mono_gap = convex_gap = cobdy_gap = 0.0
    for _ in range(prop_count):
        corr = random_primitive(rng, 2, 10)
        phi = random_potential(rng, corr)
        p = spectral_pressure(corr, phi).pressure
        c = float(rng.uniform(-2.0, 2.0))
        shift_gap = max(shift_gap, abs(
            spectral_pressure(corr, phi.shift(c)).pressure - p - c))
        bump = Potential(corr, rng.uniform(0.0, 1.0, corr.n_edges))
        mono_gap = max(mono_gap, p - spectral_pressure(corr, phi + bump).pressure)
        psi = random_potential(rng, corr)
        q = spectral_pressure(corr, psi).pressure
        for t in np.linspace(0.0, 1.0, 11):
            mix = Potential(corr, t * phi.values + (1.0 - t) * psi.values)
            convex_gap = max(convex_gap,
                             spectral_pressure(corr, mix).pressure
                             - (t * p + (1.0 - t) * q))
        h = rng.uniform(-1.0, 1.0, corr.n_states)
        cob = phi + Potential.from_state_difference(corr, h)
        cobdy_gap = max(cobdy_gap, abs(
            spectral_pressure(corr, cob).pressure - p))
    dt = time.time() - t0
    return [
        CheckResult("pressure-oracle-gap", worst <= 5e-3, worst,
                    "%d instances, 1000-step path counts" % count),
        CheckResult("shift-exact", shift_gap <= 1e-9, shift_gap),
        CheckResult("monotonicity", mono_gap <= 1e-12, mono_gap),
        CheckResult("convexity-grid", convex_gap <= 1e-10, convex_gap),
        CheckResult("coboundary-invariance", cobdy_gap <= 1e-9, cobdy_gap),
        CheckResult("basic-runtime", dt < 60.0, None, "", dt),
    ]


def characterization_pairs(seed=20130, count=200):
    """The seeded (relation, measure) pairs of the invariance battery:
    about half are cycle mixtures, invariant by construction, and the
    rest Dirichlet draws."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        corr = random_relation(rng, 2, 10)
        if rng.random() < 0.5:
            yield corr, random_invariant_measure(rng, corr)
        else:
            yield corr, rng.dirichlet(np.ones(corr.n_states))


def battery_characterizations(seed=20130, count=200):
    """Both certificates of the invariance flow: each witness kernel
    fixes its measure, and each violating subset A carries more than
    FEAS_TOL above the mass of its preimage."""
    positives = failed = 0
    worst = 0.0
    least = math.inf
    for corr, mu in characterization_pairs(seed, count):
        chk = is_invariant(corr, mu)
        if chk.invariant:
            positives += 1
            worst = max(worst, stationary_gap(mu, chk.witness_kernel))
            continue
        subset = chk.violating_subset
        pre = {i for j in subset for i in corr.predecessors(j)}
        excess = float(mu[list(subset)].sum() - mu[sorted(pre)].sum())
        least = min(least, excess)
        failed += excess <= FEAS_TOL
    return [
        CheckResult("subset-exceeds-preimage", failed == 0, float(failed),
                    "%d of %d refusals, least excess %.3e"
                    % (count - positives - failed, count - positives, least)),
        CheckResult("witness-fixes-measure", worst <= 1e-10, worst,
                    "worst l1 gap over %d positive cases" % positives),
    ]


def battery_type_one(seed=20140, gibbs_count=100, mp_count=20, mp_each=5,
                     extreme_count=20):
    rng = np.random.default_rng(seed)
    gibbs_gap = 0.0
    for _ in range(gibbs_count):
        corr = random_primitive(rng, 2, 10)
        phi = random_potential(rng, corr)
        eq = gibbs_equilibrium(corr, phi)
        gibbs_gap = max(gibbs_gap, abs(
            eq.pressure - (eq.entropy + eq.integral)))
    excess = 0.0
    for _ in range(mp_count):
        corr = random_primitive(rng, 2, 8)
        phi = random_potential(rng, corr)
        p = spectral_pressure(corr, phi).pressure
        for _ in range(mp_each):
            mu = random_invariant_measure(rng, corr)
            excess = max(excess, measure_pressure(corr, phi, mu).value - p)
    extreme_gap = 0.0
    for _ in range(extreme_count):
        corr, _ = random_map_block_relation(rng)
        phi = random_potential(rng, corr)
        p = spectral_pressure(corr, phi).pressure
        ext = invariant_polytope_extremes(corr)
        best = max(measure_pressure(corr, phi, np.asarray(e, dtype=float)).value
                   for e in ext.extremes)
        extreme_gap = max(extreme_gap, abs(best - p))
    return [
        CheckResult("gibbs-attains-pressure", gibbs_gap <= 1e-9, gibbs_gap,
                    "%d primitive instances" % gibbs_count),
        CheckResult("measure-pressure-dominated", excess <= 1e-8, excess,
                    "%d instances, %d invariant measures each"
                    % (mp_count, mp_each)),
        CheckResult("extreme-points-attain", extreme_gap <= 1e-6, extreme_gap,
                    "%d map-block instances" % extreme_count),
    ]


def _certificate_gaps(rng, corr, nu, hhat):
    """Both sides of the closed-form entropy against the definition.

    hhat is abstract_kernel_entropy's result for nu.  The objective
    pressure(psi) - <nu, psi> is evaluated by the Perron solver at the
    dual certificate psi* (attainment: it must equal hhat.value) and at
    random potentials, some far from psi* and some close to it (weak
    duality: it must not go below hhat.value).  Returns the attainment
    gap and the largest amount by which hhat.value exceeded the
    objective.
    """
    def objective(values):
        return (spectral_pressure(corr, Potential(corr, values)).pressure
                - float(np.dot(nu, values)))

    attain = abs(objective(hhat.potential) - hhat.value)
    excess = 0.0
    for _ in range(4):
        excess = max(excess, hhat.value - objective(
            rng.uniform(-1.0, 1.0, corr.n_edges)))
        for scale in (1e-1, 1e-2):
            bump = scale * rng.uniform(-1.0, 1.0, corr.n_edges)
            excess = max(excess, hhat.value - objective(hhat.potential + bump))
    return attain, excess


def battery_type_two(seed=20150, count=50, unbalanced_count=20,
                     with_evidence=False):
    """Abstract entropy in closed form against the inverse variational
    principle it solves, on Gibbs pairs and on stationary pairs of
    random kernels (both of full support)."""
    rng = np.random.default_rng(seed)
    # a stream of its own, so the instances drawn from rng do not move
    probe_rng = np.random.default_rng([seed, 1])
    cfg = SolverConfig(tolerance=1e-5)
    gibbs_gap = 0.0
    domination = 0.0
    equality = 0.0
    certificates = []
    rows = []
    for k in range(count):
        corr = random_primitive(rng, 2, 10)
        phi = random_potential(rng, corr)
        eq = gibbs_equilibrium(corr, phi)
        res = abstract_kernel_entropy(corr, eq.pair, cfg)
        target = eq.pressure - eq.integral
        gibbs_gap = max(gibbs_gap, abs(res.value - target))
        # an arbitrary stationary pair on the same relation
        ker = random_kernel(rng, corr)
        _, mu = stationary_measures(ker)[0]
        h = entropy_rate(mu, ker)
        pair = pair_from_kernel(mu, ker)
        hhat = abstract_kernel_entropy(corr, pair, cfg)
        domination = max(domination, h - hhat.value)
        equality = max(equality, abs(hhat.value - h))
        certificates += [_certificate_gaps(probe_rng, corr, nu, ent)
                         for nu, ent in ((eq.pair, res), (pair, hhat))]
        if with_evidence and k < 12:
            rows.append("n=%d h=%.6f hhat=%.6f diff=%.1e"
                        % (corr.n_states, h, hhat.value, hhat.value - h))
    bad = 0
    for _ in range(unbalanced_count):
        corr = random_primitive(rng, 2, 8)
        res = abstract_kernel_entropy(corr, random_unbalanced_pair(rng, corr))
        if not res.minus_infinity:
            bad += 1
    attain, excess = np.max(certificates, axis=0)
    checks = [
        CheckResult("entropy-matches-gibbs", gibbs_gap <= 1e-4, gibbs_gap,
                    "%d primitive instances" % count),
        CheckResult("abstract-dominates-entropy", domination <= 1e-4,
                    domination, "worst h minus abstract entropy"),
        CheckResult("abstract-entropy-certificate",
                    attain <= 1e-9 and excess <= 1e-12, max(attain, excess),
                    "attainment gap %.1e at the dual potential, weak "
                    "duality short by %.1e at most over %d pairs"
                    % (attain, excess, len(certificates))),
        CheckResult("unbalanced-minus-infinity", bad == 0, float(bad),
                    "%d unbalanced pair measures" % unbalanced_count),
    ]
    if with_evidence:
        checks.append(CheckResult(
            "entropy-equality-evidence", equality <= 1e-3, equality,
            "; ".join(rows)))
    return checks


def battery_derivatives(seed=20160, count=100, ineq_count=10, ineq_each=20):
    rng = np.random.default_rng(seed)
    fd_gap = 0.0
    for _ in range(count):
        corr = random_primitive(rng, 2, 10)
        phi = random_potential(rng, corr)
        psi = random_potential(rng, corr)
        dd = directional_derivative(corr, phi, psi)
        fd_gap = max(fd_gap, abs(dd.plus - dd.plus_fd),
                     abs(dd.minus - dd.minus_fd))
    two = FiniteCorrespondence(2, [(0, 0), (1, 1)])
    dd = directional_derivative(two, Potential.zero(two),
                                Potential(two, {(0, 0): 1.0}))
    loop_gap = max(abs(dd.plus - 1.0), abs(dd.minus))
    ineq_gap = 0.0
    for _ in range(ineq_count):
        corr = random_primitive(rng, 2, 8)
        phi = random_potential(rng, corr)
        p = spectral_pressure(corr, phi).pressure
        ts = tangent_functionals(corr, phi)
        for _ in range(ineq_each):
            psi = random_potential(rng, corr)
            lifted = spectral_pressure(corr, phi + psi).pressure
            for nu in ts.tangents:
                ineq_gap = max(ineq_gap,
                               float(np.dot(nu, psi.values)) - (lifted - p))
    return [
        CheckResult("tangent-matches-fd", fd_gap <= 1e-4, fd_gap,
                    "%d primitive instances" % count),
        CheckResult("two-loop-one-sided", loop_gap <= 1e-6, loop_gap,
                    "d+ = %.9f, d- = %.9f" % (dd.plus, dd.minus)),
        CheckResult("tangent-inequality", ineq_gap <= 1e-8, ineq_gap,
                    "%d instances, %d directions each"
                    % (ineq_count, ineq_each)),
    ]


def battery_decomposition(seed=20170, count=50):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        corr, decomp = random_block_relation(rng)
        phi = random_potential(rng, corr)
        dp = decomposition_pressure(corr, phi, decomp)
        sp = spectral_pressure(corr, phi).pressure
        worst = max(worst, abs(sp - dp.value))
    return [
        CheckResult("block-maximum-formula", worst <= 1e-9, worst,
                    "%d generated block relations" % count),
    ]


def battery_conjugacy(seed=20180, count=100):
    rng = np.random.default_rng(seed)
    p_gap = ke_gap = mp_gap = amp_gap = 0.0
    for _ in range(count):
        corr = random_primitive(rng, 3, 5)
        phi = random_potential(rng, corr)
        theta = [int(t) for t in rng.permutation(corr.n_states)]
        corr2 = corr.relabel(theta)
        phi2 = phi.relabel(theta)
        p_gap = max(p_gap, abs(spectral_pressure(corr, phi).pressure
                               - spectral_pressure(corr2, phi2).pressure))
        ker = random_kernel(rng, corr)
        _, mu = stationary_measures(ker)[0]
        _, h = kernel_entropy(mu, ker, 5)
        mu2 = np.zeros_like(mu)
        for i in range(corr.n_states):
            mu2[theta[i]] = mu[i]
        _, h2 = kernel_entropy(mu2, ker.relabel(theta), 5)
        ke_gap = max(ke_gap, abs(h - h2))
        eq = gibbs_equilibrium(corr, phi)
        inv = eq.measure
        inv2 = np.zeros_like(inv)
        for i in range(corr.n_states):
            inv2[theta[i]] = inv[i]
        mp_gap = max(mp_gap, abs(measure_pressure(corr, phi, inv).value
                                 - measure_pressure(corr2, phi2, inv2).value))
        amp_gap = max(amp_gap,
                      abs(abstract_measure_pressure(corr, phi, inv).value
                          - abstract_measure_pressure(corr2, phi2, inv2).value))
    return [
        CheckResult("pressure-relabel", p_gap <= 1e-8, p_gap,
                    "%d triples" % count),
        CheckResult("kernel-entropy-relabel", ke_gap <= 1e-8, ke_gap),
        CheckResult("measure-pressure-relabel", mp_gap <= 1e-8, mp_gap),
        CheckResult("abstract-pressure-relabel", amp_gap <= 1e-8, amp_gap),
    ]


# ---------------------------------------------------------------------------
# suites

def _suite_all():
    checks = []
    checks.extend(battery_example())
    checks.extend(battery_basic())
    checks.extend(battery_characterizations())
    checks.extend(battery_type_one())
    checks.extend(battery_type_two(with_evidence=True))
    checks.extend(battery_derivatives())
    checks.extend(battery_decomposition())
    checks.extend(battery_conjugacy())
    return checks


def _suite_fast():
    checks = []
    checks.extend(battery_example(resolution=256))
    checks.extend(battery_basic(count=30, prop_count=8))
    checks.extend(battery_characterizations(count=60))
    checks.extend(battery_type_one(gibbs_count=30, mp_count=6, mp_each=3,
                                   extreme_count=6))
    checks.extend(battery_type_two(count=15, unbalanced_count=8))
    checks.extend(battery_derivatives(count=30, ineq_count=4))
    checks.extend(battery_decomposition(count=15))
    checks.extend(battery_conjugacy(count=12))
    return checks


SUITES = {
    "all": _suite_all,
    "fast": _suite_fast,
    "example": battery_example,
}


def run_suite(name):
    if name not in SUITES:
        raise ModeUnsupported(f"unknown suite {name!r}")
    return SUITES[name]()
