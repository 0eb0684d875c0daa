"""Equilibrium states and the two variational principles.

Type one works with the kernel entropy rate: the pressure dominates
h + integral of phi over every invariant pair, with equality at the
Gibbs pair of the dominant spectral class.  Type two replaces h by
the abstract entropy, the value of an inverse variational problem
inf over potentials of [pressure - pairing]; that infimum is solved
here by subgradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    NonUniqueDominantClass,
    NotInvariant,
    NotStationary,
    ScalingDiverged,
    ShapeMismatch,
)
from .kernels import (
    TransitionKernel,
    entropy_rate,
    kernel_from_pair,
    pair_from_kernel,
    stationary_gap,
    validate_measure,
)
from .pressure import TIE_TOL, SpectralCache, spectral_pressure
from .relations import Potential
from .simplex import OPTIMAL, simplex


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 10000
    tolerance: float = 1e-8
    step_rule: str = "backtracking"
    step_size: float = 1.0
    divergence_floor: float = -50.0

    def __post_init__(self):
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise ShapeMismatch("bad solver configuration")
        if self.step_rule not in ("backtracking", "fixed"):
            raise ShapeMismatch(f"unknown step rule {self.step_rule!r}")


def _pair_from_perron(cache, c, values, logrho, right, left):
    corr = cache.corr
    comp = cache.components[c]
    pos = {s: k for k, s in enumerate(comp)}
    mu_loc = left * right
    mu_loc = mu_loc / float(np.sum(mu_loc))
    pair = np.zeros(corr.n_edges)
    for k, (i, j) in enumerate(corr.edges):
        if i in pos and j in pos:
            # entries whose eigenvector weight underflowed carry no mass
            if mu_loc[pos[i]] <= 0.0 or right[pos[i]] <= 0.0:
                continue
            pair[k] = (mu_loc[pos[i]]
                       * math.exp(values[k] - logrho)
                       * right[pos[j]] / right[pos[i]])
    # the rows of a Gibbs kernel are stochastic up to eigenvector error
    row_mass = np.zeros(corr.n_states)
    src, _ = corr.edge_arrays()
    np.add.at(row_mass, src, pair)
    for k, (i, j) in enumerate(corr.edges):
        if pair[k] > 0.0:
            pair[k] *= mu_loc[pos[i]] / row_mass[i]
    return pair


def _gibbs_on_component(cache, c, values):
    """Pair measure of the Gibbs state on one class.

    The pair weights l_i M_ij r_j / (rho l.r) give the exact gradient
    of log rho with respect to the potential entries.
    """
    logrho, right, left, _ = cache.solve(c, values)
    pair = _pair_from_perron(cache, c, values, logrho, right, left)
    return logrho, pair, cache.components[c]


@dataclass(frozen=True, eq=False)
class EquilibriumPair:
    pressure: float
    kernel: TransitionKernel
    measure: np.ndarray
    pair: np.ndarray
    entropy: float
    integral: float
    dominant_class: tuple


def gibbs_equilibrium(corr, phi, tie_tol=TIE_TOL):
    """Equilibrium state from the dominant spectral class.

    Requires a unique dominant class.  With Perron data (rho, r, l) of
    that class the kernel is Q_ij = M_ij r_j / (rho r_i) and the
    measure is the Parry measure l_i r_i / <l, r>.  Rows outside the
    class get the point mass at their lowest successor; the measure
    vanishes there, so those rows are a convention only.
    """
    cache = SpectralCache(corr)
    _, dom, _ = cache.dominant(phi.values, tie_tol)
    if len(dom) != 1:
        raise NonUniqueDominantClass([cache.components[c] for c in dom])
    c = dom[0]
    comp = cache.components[c]
    logrho, right, left, _ = cache.solve(c, phi.values)
    rows, cols, eidx = cache.class_edges[c]
    src, dst = corr.edge_arrays()
    q_in = np.exp(phi.values[eidx] - logrho) * right[cols] / right[rows]
    q_in /= np.bincount(rows, weights=q_in, minlength=len(comp))[rows]
    n = corr.n_states
    q = np.zeros((n, n))
    q[src[eidx], dst[eidx]] = q_in
    # edges are sorted, so a state's first edge goes to its lowest successor
    outside = np.flatnonzero(cache.class_of != c)
    q[outside, dst[np.searchsorted(src, outside)]] = 1.0
    kernel = TransitionKernel(corr, q)
    mu = np.zeros(n)
    parry = left * right
    mu[list(comp)] = parry / float(np.sum(parry))
    pair = pair_from_kernel(mu, kernel)
    h = entropy_rate(mu, kernel)
    integral = float(np.dot(pair, phi.values))
    return EquilibriumPair(float(logrho), kernel, mu, pair, h, integral, comp)


@dataclass(frozen=True, eq=False)
class MeasurePressureResult:
    value: float
    pair: np.ndarray
    kernel: TransitionKernel
    marginal_error: float
    iterations: int
    face_restricted: bool


def _scaling_loop(mu_s, edges, n_loc, max_iter, tol, detect_stall=True):
    """Log-domain alternate scaling on the restricted support.

    edges is (src, dst, weight) local arrays.  Returns (f, g, err,
    iterations) or None when the error stalls or the budget runs out.
    Stall detection exists to trigger face identification; once the
    support is the right face the error decays geometrically, so the
    re-run grinds to the budget instead.
    """
    src, dst, w = edges
    log_mu = np.log(mu_s)
    f = np.zeros(n_loc)
    g = np.zeros(n_loc)
    err = np.inf
    check = 200
    history = []
    it = 0
    while it < max_iter:
        for _ in range(check):
            f = log_mu - _row_lse(w + g[dst], src, n_loc)
            g = log_mu - _row_lse(w + f[src], dst, n_loc)
            it += 2
        nu = np.exp(f[src] + w + g[dst])
        row = np.zeros(n_loc)
        col = np.zeros(n_loc)
        np.add.at(row, src, nu)
        np.add.at(col, dst, nu)
        err = float(np.sum(np.abs(row - mu_s)) + np.sum(np.abs(col - mu_s)))
        if err <= tol:
            return f, g, err, it
        if detect_stall:
            history.append(err)
            if len(history) >= 10 and history[-1] > 0.5 * history[-10]:
                return None
    return None


def _row_lse(vals, idx, size):
    hi = np.full(size, -np.inf)
    np.maximum.at(hi, idx, vals)
    acc = np.zeros(size)
    np.add.at(acc, idx, np.exp(vals - hi[idx]))
    with np.errstate(divide="ignore"):
        return hi + np.log(acc)


def measure_pressure(corr, phi, mu, tol=1e-10, max_iter=400000):
    """Pressure of a fixed invariant measure, P_mu = sup over K_mu of
    h + integral of phi.

    Solved as an entropic transport problem by alternate matrix
    scaling of exp(phi) restricted to the edges between mu-positive
    states.  When the optimal coupling lives on a face of the
    transport polytope the scalings diverge while the value still
    converges; in that case the face is identified by per-edge mass
    maximization and the scaling is re-run on it.
    """
    mu = validate_measure(corr.n_states, mu)
    support = [i for i in range(corr.n_states) if mu[i] > 0.0]
    loc = {s: k for k, s in enumerate(support)}
    local_edges = [(loc[i], loc[j], k) for k, (i, j) in enumerate(corr.edges)
                   if i in loc and j in loc]
    if not local_edges:
        raise NotInvariant()
    mu_s = np.array([mu[s] for s in support])
    n_loc = len(support)

    def run(edge_subset, detect_stall):
        src = np.array([e[0] for e in edge_subset], dtype=np.int64)
        dst = np.array([e[1] for e in edge_subset], dtype=np.int64)
        w = np.array([phi.values[e[2]] for e in edge_subset])
        out_deg = np.zeros(n_loc)
        in_deg = np.zeros(n_loc)
        np.add.at(out_deg, src, 1.0)
        np.add.at(in_deg, dst, 1.0)
        if np.any(out_deg == 0.0) or np.any(in_deg == 0.0):
            return None
        return _scaling_loop(mu_s, (src, dst, w), n_loc, max_iter, tol,
                             detect_stall=detect_stall)

    face_restricted = False
    result = run(local_edges, detect_stall=True)
    if result is None:
        face = _positive_face(local_edges, mu_s, n_loc)
        if face is None:
            raise NotInvariant()
        face_restricted = True
        local_edges = face
        result = run(local_edges, detect_stall=False)
        if result is None:
            raise ScalingDiverged("marginal error above tolerance after the "
                                  "face re-run budget")
    f, g, err, iterations = result
    src = np.array([e[0] for e in local_edges], dtype=np.int64)
    dst = np.array([e[1] for e in local_edges], dtype=np.int64)
    w = np.array([phi.values[e[2]] for e in local_edges])
    nu_loc = np.exp(f[src] + w + g[dst])
    pair = np.zeros(corr.n_edges)
    for (i, j, k), v in zip(local_edges, nu_loc):
        pair[k] = v
    value = 0.0
    for (i, j, k), v in zip(local_edges, nu_loc):
        if v > 0.0:
            value += v * (phi.values[k] - math.log(v / mu_s[i]))
    kernel = kernel_from_pair(corr, pair)
    return MeasurePressureResult(float(value), pair, kernel, err,
                                 iterations, face_restricted)


def _positive_face(local_edges, mu_s, n_loc, eps=1e-12):
    """Edges able to carry mass in the transport polytope, via small LPs."""
    m = len(local_edges)
    rows = []
    for i in range(n_loc):
        rows.append([1.0 if e[0] == i else 0.0 for e in local_edges])
    for j in range(n_loc - 1):
        rows.append([1.0 if e[1] == j else 0.0 for e in local_edges])
    b = list(mu_s) + list(mu_s[:-1])
    keep = []
    for k in range(m):
        c = [0.0] * m
        c[k] = -1.0
        status, x, value = simplex(rows, b, c, exact=False, feas_tol=1e-9)
        if status != OPTIMAL:
            return None
        if -value > eps:
            keep.append(local_edges[k])
    return keep or None


@dataclass(frozen=True, eq=False)
class AbstractEntropyResult:
    value: float
    minus_infinity: bool
    potential: np.ndarray
    iterations: int
    residual: float
    converged: bool
    boundary: bool


def _entropy_descent(corr, nu, cfg, normalize_each_step=False):
    """Descent core behind abstract_kernel_entropy; never raises on a
    spent budget, so internal callers can score rough candidates."""
    cache = SpectralCache(corr)
    boundary = bool(np.any(nu <= 0.0))
    psi = np.zeros(corr.n_edges)

    def objective(v):
        return cache.pressure(v) - float(np.dot(nu, v))

    def gradient(v):
        # fused pass: value and Gibbs pair from one eigensolve per side
        _, dom, (logrho, right, left) = cache.radii_and_perron(v)
        pair = _pair_from_perron(cache, dom[0], v, logrho, right, left)
        return pair - nu

    fval = objective(psi)
    it = 0
    gnorm = np.inf
    step0 = cfg.step_size
    prev_psi = None
    prev_grad = None
    while it < cfg.max_iterations:
        it += 1
        grad = gradient(psi)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.tolerance:
            return AbstractEntropyResult(float(fval), False, psi, it,
                                         gnorm, True, boundary)
        if cfg.step_rule == "fixed":
            step = cfg.step_size
            nxt = psi - step * grad
            fnxt = objective(nxt)
        else:
            # spectral initial step: unit steps crawl on flat curvature
            if prev_grad is not None:
                s = psi - prev_psi
                y = grad - prev_grad
                sy = float(np.dot(s, y))
                if sy > 1e-300:
                    step0 = min(max(float(np.dot(s, s)) / sy, 1e-3), 1e3)
                else:
                    step0 = min(2.0 * step0, 1e3)
            prev_psi, prev_grad = psi, grad
            step = step0
            fnxt = None
            for _ in range(60):
                nxt = psi - step * grad
                fnxt = objective(nxt)
                if fnxt <= fval - 1e-4 * step * gnorm * gnorm:
                    break
                step *= 0.5
            else:
                # no Armijo progress: the iterate sits at a kink
                return AbstractEntropyResult(float(fval), False, psi, it,
                                             gnorm, gnorm <= cfg.tolerance,
                                             boundary)
        psi = nxt
        fval = fnxt
        if normalize_each_step:
            psi = psi - cache.pressure(psi)
            fval = objective(psi)
        if fval < cfg.divergence_floor:
            return AbstractEntropyResult(float("-inf"), True, psi, it,
                                         gnorm, True, boundary)
    return AbstractEntropyResult(float(fval), False, psi, it,
                                 gnorm, False, boundary)


def abstract_kernel_entropy(corr, nu, config=None, normalize_each_step=False):
    """Abstract entropy of a pair measure by the inverse variational
    principle: inf over psi of [pressure(psi) - <nu, psi>].

    Subgradient descent from psi = 0 with Armijo backtracking (factor
    one half, spectral initial step).  The objective is invariant under
    constants and, for balanced nu, under differences psi(i)-psi(j);
    unbalanced nu drives it below any floor, reported as minus
    infinity.  When nu misses some edges the infimum may be attained
    only in the limit; the boundary flag records that, and the value
    at the last iterate is reported rather than an error.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (corr.n_edges,):
        raise ShapeMismatch("pair measure must be an edge vector")
    if abs(float(np.sum(nu)) - 1.0) > 1e-9 or np.any(nu < -1e-12):
        raise ShapeMismatch("pair measure must be a probability on edges")
    cfg = config or SolverConfig()
    res = _entropy_descent(corr, nu, cfg, normalize_each_step)
    if not res.converged and not res.boundary and not res.minus_infinity \
            and res.iterations >= cfg.max_iterations:
        raise ConvergenceFailure(res.iterations, residual=res.residual)
    return res


@dataclass(frozen=True, eq=False)
class AbstractMeasurePressure:
    value: float
    pair: np.ndarray
    candidates: int


def _coupling_vertices(corr, mu, support, local_edges, cap=20000):
    """Vertices of the transport polytope over the mu-positive states."""
    import itertools

    n_loc = len(support)
    m = len(local_edges)
    rows = []
    for i in range(n_loc):
        rows.append([1.0 if e[0] == i else 0.0 for e in local_edges])
    for j in range(n_loc - 1):
        rows.append([1.0 if e[1] == j else 0.0 for e in local_edges])
    b = [float(mu[s]) for s in support] + [float(mu[s]) for s in support[:-1]]
    rank = np.linalg.matrix_rank(np.array(rows)) if rows else 0
    if rank == 0 or math.comb(m, rank) > cap:
        return []
    from .simplex import gauss_solve
    found = []
    seen = set()
    for cols in itertools.combinations(range(m), rank):
        sub = [[row[c] for c in cols] for row in rows]
        kind, x = gauss_solve(sub, b, exact=False)
        if kind != "unique" or any(v < -1e-10 for v in x):
            continue
        full = np.zeros(corr.n_edges)
        for c, v in zip(cols, x):
            full[local_edges[c][2]] = max(float(v), 0.0)
        key = tuple(np.round(full / max(float(np.sum(full)), 1e-30), 9))
        if key in seen:
            continue
        seen.add(key)
        found.append(full / float(np.sum(full)))
    return found


def abstract_measure_pressure(corr, phi, mu, config=None):
    """sup of [abstract entropy + <nu, phi>] over couplings of mu.

    A documented heuristic: the entropic-transport optimizer seeds a
    candidate set together with the vertices of the coupling polytope
    (when few enough to enumerate), and two rounds of midpoint
    refinement around the best candidate follow.  The result is always
    at least the kernel-entropy value at the optimizer, hence at least
    the measure pressure up to solver error.
    """
    cfg = config or SolverConfig(tolerance=1e-6)
    mp = measure_pressure(corr, phi, mu)
    mu = validate_measure(corr.n_states, mu)
    support = [i for i in range(corr.n_states) if mu[i] > 0.0]
    loc = {s: k for k, s in enumerate(support)}
    local_edges = [(loc[i], loc[j], k) for k, (i, j) in enumerate(corr.edges)
                   if i in loc and j in loc]
    candidates = [mp.pair / float(np.sum(mp.pair))]
    candidates.extend(_coupling_vertices(corr, mu, support, local_edges))

    # cheap scoring pass first; only the winner gets the full budget
    coarse = SolverConfig(max_iterations=min(250, cfg.max_iterations),
                          tolerance=max(1e-5, cfg.tolerance),
                          divergence_floor=cfg.divergence_floor)

    def score(nu, conf):
        res = _entropy_descent(corr, np.asarray(nu, dtype=float), conf)
        if res.minus_infinity:
            return float("-inf")
        return res.value + float(np.dot(nu, phi.values))

    scored = [(score(nu, coarse), k) for k, nu in enumerate(candidates)]
    best_val, best_k = max(scored)
    best = candidates[best_k]
    for _ in range(2):
        improved = False
        for k, nu in enumerate(candidates):
            if k == best_k:
                continue
            mid = 0.5 * (best + nu)
            v = score(mid, coarse)
            if v > best_val:
                best_val, best = v, mid
                improved = True
        if not improved:
            break
    return AbstractMeasurePressure(score(best, cfg), best, len(candidates))


@dataclass(frozen=True, eq=False)
class TangentSet:
    pressure: float
    tangents: tuple
    classes: tuple
    is_unique: bool


def tangent_functionals(corr, phi, tie_tol=TIE_TOL):
    """Extreme tangent functionals of the pressure at phi.

    One Gibbs pair measure per dominant spectral class; the pressure
    is differentiable at phi exactly when the tangent is unique.
    """
    cache = SpectralCache(corr)
    top, dom, _ = cache.dominant(phi.values, tie_tol)
    tangents = []
    classes = []
    for c in dom:
        _, pair, comp = _gibbs_on_component(cache, c, phi.values)
        tangents.append(pair)
        classes.append(comp)
    return TangentSet(float(top), tuple(tangents), tuple(classes),
                      len(tangents) == 1)


@dataclass(frozen=True, eq=False)
class DirectionalDerivative:
    plus: float | None
    minus: float | None
    plus_fd: float | None
    minus_fd: float | None
    is_gateaux: bool


FD_STEPS = (1e-3, 1e-4, 1e-5)


def _one_sided_fd(cache, values, direction, sign):
    base = cache.pressure(values)
    fds = []
    for t in FD_STEPS:
        fds.append((cache.pressure(values + sign * t * direction) - base) / (sign * t))
    t1, t2 = FD_STEPS[1], FD_STEPS[2]
    return (t1 * fds[2] - t2 * fds[1]) / (t1 - t2)


def directional_derivative(corr, phi, psi, side="both", tie_tol=TIE_TOL):
    """One-sided derivatives of the pressure along psi.

    The tangent route takes max (plus side) or min (minus side) of
    <nu, psi> over the extreme tangents; a Richardson-extrapolated
    one-sided difference is reported alongside for cross-checking.
    """
    if side not in ("plus", "minus", "both"):
        raise ShapeMismatch(f"unknown side {side!r}")
    tset = tangent_functionals(corr, phi, tie_tol)
    pairings = [float(np.dot(t, psi.values)) for t in tset.tangents]
    cache = SpectralCache(corr)
    plus = minus = plus_fd = minus_fd = None
    if side in ("plus", "both"):
        plus = max(pairings)
        plus_fd = _one_sided_fd(cache, phi.values, psi.values, +1.0)
    if side in ("minus", "both"):
        minus = min(pairings)
        minus_fd = _one_sided_fd(cache, phi.values, psi.values, -1.0)
    gateaux = tset.is_unique or (
        plus is not None and minus is not None and abs(plus - minus) <= 1e-8)
    return DirectionalDerivative(plus, minus, plus_fd, minus_fd, gateaux)


@dataclass(frozen=True, eq=False)
class EquilibriumVerdict:
    kind: str
    pressure: float
    entropy: float
    integral: float
    gap: float
    is_equilibrium: bool


EQUILIBRIUM_TOL = 1e-6


def equilibrium_check(corr, phi, kernel, mu, kind="one", config=None):
    """Gap of a candidate (kernel, measure) pair against the pressure.

    Kind "one" uses the entropy rate and requires mu stationary; kind
    "two" uses the abstract entropy of the pair measure, which is
    minus infinity for non-stationary input, so the gap is infinite
    there.
    """
    mu = validate_measure(corr.n_states, mu)
    pres = spectral_pressure(corr, phi).pressure
    pair = pair_from_kernel(mu, kernel)
    integral = float(np.dot(pair, phi.values))
    if kind == "one":
        gap_st = stationary_gap(mu, kernel)
        if gap_st > 1e-9:
            raise NotStationary(gap_st)
        h = entropy_rate(mu, kernel)
    elif kind == "two":
        res = abstract_kernel_entropy(corr, pair, config)
        h = res.value
    else:
        raise ShapeMismatch(f"unknown kind {kind!r}")
    gap = pres - (h + integral)
    return EquilibriumVerdict(kind, pres, h, integral, float(gap),
                              bool(gap <= EQUILIBRIUM_TOL))
