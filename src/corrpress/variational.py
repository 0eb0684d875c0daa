"""Equilibrium states and the two variational principles.

Type one works with the kernel entropy rate: the pressure dominates
h + integral of phi over every invariant pair, with equality at the
Gibbs pair of the dominant spectral class.  Type two replaces h by
the abstract entropy, the value of an inverse variational problem
inf over potentials of [pressure - pairing].  The pressure is the
Legendre-Fenchel conjugate of the Markov entropy rate, so that
infimum has a closed form: the entropy rate -sum nu log(nu / row) of
a balanced pair, certified by the dual potential log(nu / row), and
minus infinity for an unbalanced one, certified by a coboundary
direction along which the objective has no lower bound.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    MinusInfinitePressure,
    NonUniqueDominantClass,
    NotInvariant,
    ScalingDiverged,
    ShapeMismatch,
)
from .kernels import (
    TransitionKernel,
    entropy_rate,
    kernel_from_pair,
    pair_from_kernel,
    validate_measure,
)
from .polytope import SATURATED, _hall_flow, is_invariant
from .pressure import class_roots
from .relations import whole_number


@dataclass(frozen=True)
class SolverConfig:
    """Solver options read from a --config document.

    The mpressure command passes max_iterations as measure_pressure's
    Newton step budget and tolerance, at most 1e-10, as its marginal
    tolerance.  abstract_kernel_entropy reads tolerance only, as the
    largest marginal imbalance it counts as balanced.  max_iterations
    is an integer of at least 1 (a whole float such as 1e3 counts) and
    tolerance a finite number above 0; booleans are neither.
    """

    max_iterations: int = 100
    tolerance: float = 1e-8

    def __post_init__(self):
        steps, tol = whole_number(self.max_iterations, "max_iterations"), self.tolerance
        if steps < 1:
            raise ShapeMismatch(f"max_iterations must be at least 1, not {steps!r}")
        if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                or not 0 < tol < math.inf):    # NaN fails here too
            raise ShapeMismatch(f"tolerance must be finite and > 0, not {tol!r}")
        object.__setattr__(self, "max_iterations", steps)
        object.__setattr__(self, "tolerance", float(tol))


def _gibbs_on_class(corr, c, values):
    """Gibbs kernel and Parry measure of one spectral class.

    With Perron data (rho, r, l) of class c the kernel is
    Q_ij = M_ij r_j / (rho r_i) over the class edges, and the measure
    is l_i r_i / <l, r> on the class states and zero elsewhere.  Rows
    outside the class get the point mass at their lowest successor;
    the measure vanishes there, so those rows are a convention only.
    The pair weights mu_i Q_ij are the gradient of log rho with respect
    to the potential entries.  A class that is one cycle takes these in
    closed form at any weight span: Q is 1 on its edges and the measure
    uniform on its states, where l r can underflow and exp(values -
    log rho) overflow.  The Perron vectors of any other class are
    positive, so l_i r_i = 0 on a class state is an underflow: where
    r_i = 0 the kernel Q is undefined on row i, and in any case the
    measure misses part of its class, where it is not invariant.
    Either is a ConvergenceFailure.
    """
    cache = corr.spectral_cache()
    rows, cols, eidx = cache.class_edges(c)
    states = list(cache.components[c])
    weights = np.zeros(corr.n_edges)
    mu = np.zeros(corr.n_states)
    if eidx.size == len(states):
        # one internal edge per state: one cycle, a loop on one state
        logrho = cache.solve(c, values, vectors=False)[0]
        weights[eidx] = 1.0
        mu[states] = 1.0 / len(states)
    else:
        logrho, right, left, _ = cache.solve(c, values)
        parry = left * right
        if not np.all(parry > 0.0):
            raise ConvergenceFailure(0)
        weights[eidx] = np.exp(values[eidx] - logrho) * right[cols] / right[rows]
        mu[states] = parry / float(np.sum(parry))
    return logrho, kernel_from_pair(corr, weights), mu


@dataclass(frozen=True, eq=False)
class EquilibriumPair:
    pressure: float
    kernel: TransitionKernel
    measure: np.ndarray
    pair: np.ndarray
    entropy: float
    integral: float
    dominant_class: tuple


def _dominant(corr, phi):
    """The pressure and the dominant classes of phi.  A pressure of -inf
    (every cycle has an edge of weight -inf) has neither an equilibrium
    state nor a tangent: MinusInfinitePressure."""
    top, dom, _ = corr.spectral_cache().dominant(phi.values)
    if top == -np.inf:
        raise MinusInfinitePressure()
    return top, dom


def gibbs_equilibrium(corr, phi):
    """Equilibrium state from the dominant spectral class.

    Requires a unique dominant class.  With Perron data (rho, r, l) of
    that class the kernel is Q_ij = M_ij r_j / (rho r_i) and the
    measure is the Parry measure l_i r_i / <l, r>; see _gibbs_on_class.
    """
    _, dom = _dominant(corr, phi)
    cache = corr.spectral_cache()
    if len(dom) != 1:
        raise NonUniqueDominantClass([cache.components[c] for c in dom])
    logrho, kernel, mu = _gibbs_on_class(corr, dom[0], phi.values)
    pair = pair_from_kernel(mu, kernel)
    h = entropy_rate(mu, kernel)
    # an edge the pair does not carry adds nothing, even where phi = -inf
    integral = float(np.dot(pair, np.where(pair > 0.0, phi.values, 0.0)))
    return EquilibriumPair(float(logrho), kernel, mu, pair, h, integral,
                           cache.components[dom[0]])


@dataclass(frozen=True, eq=False)
class MeasurePressureResult:
    value: float
    pair: np.ndarray
    kernel: TransitionKernel
    marginal_error: float
    iterations: int
    face_restricted: bool


def measure_pressure(corr, phi, mu, tol=1e-10, max_iter=SolverConfig.max_iterations):
    """Pressure of a fixed invariant measure, P_mu = sup over K_mu of
    h + integral of phi.

    An entropic transport problem over the edges between mu-positive
    states, solved by damped Newton on its dual
    D(f, g) = sum_e exp(f_i + phi_e + g_j) - <mu, f> - <mu, g>, whose
    gradient is the marginal error of the coupling exp(f_i + phi_e + g_j)
    (Brauer, Clason, Lorenz & Wirth 2017, arXiv:1710.06635).  Every step
    first sets f so that the row sums are mu, then solves the Schur
    complement of the Hessian [[diag mu, N], [N^T, diag col]], shifted
    by 1e-3 times the l1 marginal error (Levenberg-Marquardt) so that
    no direction of small curvature is lost.  The step is taken in full
    when it halves that error, else backtracked by Armijo on D.
    iterations counts the steps.

    A coupling of mu lives on the edges between mu-positive states.
    Before Newton, a state of positive mass with no such edge in or out
    makes mu NotInvariant, with its violating subset, however little
    mass it has.  Then one invariance flow over the finite edges among
    them decides.  When it falls short, mu is NotInvariant if the flow
    over all edges finds it so, and else P_mu = -inf, reported with
    that flow's coupling and its kernel; so a finite potential never
    gives -inf.  When it carries mu, its flow certifies the face of the
    coupling polytope: an edge with no flow is charged by some coupling
    exactly when its two ends share a strong component of the residual
    graph, the arcs i -> j' of every edge and j' -> i of every edge
    with flow (Ahuja, Magnanti & Orlin, Network Flows, 1993).  Newton
    runs on those face edges only, where the optimum is interior, and
    the pair is exactly 0 off them; but where the flow leaves a state's
    mass at or below SATURATED, it certifies nothing and Newton runs on
    every finite edge.  face_restricted says the face misses some edge
    between mu-positive states: one of weight -inf, or one that no
    coupling charges.  The flow has decided invariance, so a spent
    budget is ScalingDiverged, and so is a Newton system that turns
    singular, as it can near rounding when tol is far below 1e-13.
    """
    mu = validate_measure(corr.n_states, mu)
    support = np.flatnonzero(mu > 0.0)
    n = len(support)
    loc = np.full(corr.n_states, -1)
    loc[support] = np.arange(n)
    src, dst = corr.edge_arrays()
    inside = np.flatnonzero((loc[src] >= 0) & (loc[dst] >= 0))
    rows, cols = loc[src[inside]], loc[dst[inside]]
    # a state of positive mass must send and receive it inside the
    # support.  {i} outgrows its empty preimage when no edge enters i;
    # the support outgrows its preimage, which misses i, when none
    # leaves i.
    fed = np.bincount(cols, minlength=n) > 0
    if not fed.all():
        raise NotInvariant(tuple(support[~fed].tolist()))
    if not np.all(np.bincount(rows, minlength=n)):
        raise NotInvariant(tuple(support.tolist()))
    finite = np.isfinite(phi.values[inside])
    keep = inside[finite]
    rows, cols = rows[finite], cols[finite]
    mu_s = mu[support]
    # -inf edges inside the support carry no mass, and only the flow
    # tells whether the finite ones carry mu
    carried = (np.all(np.bincount(rows, minlength=n))
               and np.all(np.bincount(cols, minlength=n)))
    if carried:
        carried, flow, _ = _hall_flow(n, list(zip(rows.tolist(), cols.tolist())),
                                      mu_s.tolist(), False)
    if not carried:
        chk = is_invariant(corr, mu)
        if not chk.invariant:
            raise NotInvariant(chk.violating_subset)
        pair = chk.witness_pair
        gap = (np.abs(np.bincount(src, weights=pair, minlength=corr.n_states) - mu)
               + np.abs(np.bincount(dst, weights=pair, minlength=corr.n_states) - mu))
        return MeasurePressureResult(-np.inf, pair, chk.witness_kernel,
                                     float(np.sum(gap)), 0,
                                     bool(np.any(pair[inside] < tol)))
    # the residual graph on i and j' = n + j; every coupling of mu has
    # the flow's marginals, so no residual cycle passes s or t
    charged = np.array(flow) > SATURATED
    root, _ = class_roots(2 * n, np.concatenate([rows, n + cols[charged]]),
                          np.concatenate([n + cols, rows[charged]]))
    face = root[rows] == root[n + cols]
    face_restricted = not (finite.all() and face.all())
    if not (np.all(np.bincount(rows[face], minlength=n))
            and np.all(np.bincount(cols[face], minlength=n))):
        # a mass at or below SATURATED that the flow left behind: no
        # certificate, so Newton runs on every finite edge
        face[:] = True
    keep, rows, cols = keep[face], rows[face], cols[face]
    w = phi.values[keep]
    log_mu = np.log(mu_s)

    def dual(f, g):
        nu = np.exp(f[rows] + w + g[cols])
        return nu, float(np.sum(nu) - np.dot(mu_s, f + g))

    def residuals(nu):
        """Column marginal minus mu, and the l1 error of both marginals."""
        a = np.bincount(rows, weights=nu, minlength=n) - mu_s
        b = np.bincount(cols, weights=nu, minlength=n) - mu_s
        return b, float(np.sum(np.abs(a)) + np.sum(np.abs(b)))

    def row_half_step(g):
        """The f that makes the row sums of the coupling mu."""
        vals = w + g[cols]
        top = np.full(n, -np.inf)
        np.maximum.at(top, rows, vals)
        return log_mu - top - np.log(
            np.bincount(rows, weights=np.exp(vals - top[rows]), minlength=n))

    g, steps = np.zeros(n), 0
    # a trial step may overflow; its inf or nan value fails the line search
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            f = row_half_step(g)
            nu, d = dual(f, g)
            b, err = residuals(nu)
            if err <= tol:
                break
            if steps >= max_iter:
                raise ScalingDiverged(f"marginal error {err:.3e} after {steps} steps")
            steps += 1
            coupling = np.zeros((n, n))
            coupling[rows, cols] = nu
            scaled = coupling / mu_s[:, None]
            try:
                dg = np.linalg.solve(
                    np.diag(b + mu_s + 1e-3 * err) - coupling.T @ scaled, -b)
            except np.linalg.LinAlgError:
                # near rounding the shift no longer keeps the Schur
                # complement regular
                raise ScalingDiverged(
                    f"marginal error {err:.3e}: singular Newton system "
                    f"at step {steps}") from None
            df = -(scaled @ dg)
            slope = float(np.dot(b, dg))
            for t in 0.5 ** np.arange(40):
                nu_t, d_t = dual(f + t * df, g + t * dg)
                if (t == 1.0 and residuals(nu_t)[1] <= 0.5 * err
                        or d_t <= d + 1e-4 * t * slope):
                    g = g + t * dg
                    break
    pair = np.zeros(corr.n_edges)
    pair[keep] = nu
    pos = nu > 0.0
    value = np.sum(nu[pos] * (w[pos] - np.log(nu[pos] / mu_s[rows[pos]])))
    kernel = kernel_from_pair(corr, pair)
    return MeasurePressureResult(float(value), pair, kernel, err, steps,
                                 face_restricted)


@dataclass(frozen=True, eq=False)
class AbstractEntropyResult:
    value: float
    minus_infinity: bool
    potential: np.ndarray
    iterations: int
    residual: float
    converged: bool
    boundary: bool


def abstract_kernel_entropy(corr, nu, config=None):
    """Abstract entropy of a pair measure by the inverse variational
    principle: inf over psi of [pressure(psi) - <nu, psi>].

    The pressure is the Legendre-Fenchel conjugate of the Markov
    entropy rate, so the infimum has a closed form.  With g the row
    marginal minus the column marginal of nu:

    - if |g|_1 exceeds config.tolerance, the objective decreases without
      bound along the coboundary d(i, j) = g(i) - g(j): the pressure
      does not see d while <nu, d> = |g|_2^2 > 0.  The value is minus
      infinity and d is returned as the potential;
    - otherwise the value is the entropy rate -sum nu log(nu / row),
      and the potential is the dual certificate psi* = log(nu / row),
      with pressure(psi*) = 0 and <nu, psi*> = -value.  psi* is minus
      infinity on edges nu misses, where the infimum is reached only
      in the limit; the boundary flag records them.

    residual is |g|_1.  Nothing is iterated: iterations is 0 and
    converged is always true.
    """
    nu = validate_measure(corr.n_edges, nu)
    cfg = config or SolverConfig()
    src, dst = corr.edge_arrays()
    row = np.bincount(src, weights=nu, minlength=corr.n_states)
    g = row - np.bincount(dst, weights=nu, minlength=corr.n_states)
    residual = float(np.sum(np.abs(g)))
    carried = nu > 0.0
    boundary = not bool(np.all(carried))
    if residual > cfg.tolerance:
        return AbstractEntropyResult(float("-inf"), True, g[src] - g[dst], 0,
                                     residual, True, boundary)
    psi = np.full(corr.n_edges, -np.inf)
    psi[carried] = np.log(nu[carried] / row[src[carried]])
    value = -float(np.dot(nu[carried], psi[carried]))
    return AbstractEntropyResult(value, False, psi, 0, residual, True, boundary)


@dataclass(frozen=True, eq=False)
class AbstractMeasurePressure:
    value: float
    pair: np.ndarray
    candidates: int


def abstract_measure_pressure(corr, phi, mu):
    """sup of [abstract entropy + <nu, phi>] over couplings of mu.

    A coupling of an invariant measure is balanced, so its abstract
    entropy is its entropy rate, and the supremum is the entropic
    transport value of measure_pressure.  The value is reported at
    that optimal coupling, the single candidate.
    """
    mp = measure_pressure(corr, phi, mu)
    nu = mp.pair / float(np.sum(mp.pair))
    res = abstract_kernel_entropy(corr, nu)
    # an edge nu does not carry adds nothing, even where phi = -inf
    integral = float(np.dot(nu, np.where(nu > 0.0, phi.values, 0.0)))
    return AbstractMeasurePressure(res.value + integral, nu, 1)


@dataclass(frozen=True, eq=False)
class TangentSet:
    pressure: float
    tangents: tuple
    classes: tuple
    is_unique: bool


def tangent_functionals(corr, phi):
    """Extreme tangent functionals of the pressure at phi.

    One Gibbs pair measure per dominant spectral class; the pressure
    is differentiable at phi exactly when the tangent is unique.
    """
    top, dom = _dominant(corr, phi)
    cache = corr.spectral_cache()
    tangents = []
    for c in dom:
        _, kernel, mu = _gibbs_on_class(corr, c, phi.values)
        tangents.append(pair_from_kernel(mu, kernel))
    return TangentSet(float(top), tuple(tangents),
                      tuple(cache.components[c] for c in dom),
                      len(tangents) == 1)


@dataclass(frozen=True, eq=False)
class DirectionalDerivative:
    plus: float | None
    minus: float | None
    plus_fd: float | None
    minus_fd: float | None
    is_gateaux: bool
    tangent_set: TangentSet


FD_STEPS = (1e-4, 1e-5)


def _one_sided_fd(cache, values, direction, sign, base):
    """Richardson-extrapolated one-sided difference of the pressure
    along direction, from base, the pressure at values."""
    t1, t2 = FD_STEPS
    fd1, fd2 = ((cache.dominant(values + sign * t * direction)[0] - base)
                / (sign * t) for t in FD_STEPS)
    return (t1 * fd2 - t2 * fd1) / (t1 - t2)


def directional_derivative(corr, phi, psi, side="both"):
    """One-sided derivatives of the pressure along psi.

    The tangent route takes max (plus side) or min (minus side) of
    <nu, psi> over the extreme tangents; a Richardson-extrapolated
    one-sided difference is reported alongside for cross-checking.
    """
    if side not in ("plus", "minus", "both"):
        raise ShapeMismatch(f"unknown side {side!r}")
    if np.any(psi.values == -np.inf):    # Potential refuses NaN and +inf
        raise ShapeMismatch("direction weight -inf on edge "
                            f"{corr.edges[int(np.argmin(psi.values))]}")
    tset = tangent_functionals(corr, phi)
    pairings = [float(np.dot(t, psi.values)) for t in tset.tangents]
    cache = corr.spectral_cache()
    plus = minus = plus_fd = minus_fd = None
    if side in ("plus", "both"):
        plus = max(pairings)
        plus_fd = _one_sided_fd(cache, phi.values, psi.values, +1.0, tset.pressure)
    if side in ("minus", "both"):
        minus = min(pairings)
        minus_fd = _one_sided_fd(cache, phi.values, psi.values, -1.0, tset.pressure)
    gateaux = tset.is_unique or (
        plus is not None and minus is not None and abs(plus - minus) <= 1e-8)
    return DirectionalDerivative(plus, minus, plus_fd, minus_fd, gateaux, tset)
