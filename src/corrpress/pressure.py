"""Topological pressure of a finite correspondence.

Two independent routes are implemented.  The orbit route accumulates
weighted path sums in log domain and reports the sequence
a_n = (1/n) log sum over length-(n+1) walks of exp(S_n phi); with the
discrete metric every set of walks is separated, so no net is needed.
The spectral route computes log of the spectral radius of the edge
weight matrix M_ij = exp(phi(i, j)), class by class, with one Perron
solver: dense eig on small classes, power iteration on large ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidDecomposition, SolverError
from .relations import Decomposition, decomposition_validate

# Spectral classes whose log radius lies within this distance of the
# maximum count as dominant (SpectralCache.dominant).
TIE_TOL = 1e-9

# Classes of up to DENSE_MAX states take the dense eigensolver, larger
# ones the sparse power iteration (see SpectralCache.solve).  Timed on
# random sparse primitive classes, the two routes break even at about
# 50-100 states.  POWER_CAP bounds the power steps on any class.
DENSE_MAX = 64
POWER_CAP = 100000
BRACKET_TOL = 1e-13


def strongly_connected_components(n_states, successors):
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index = [-1] * n_states
    low = [0] * n_states
    on_stack = [False] * n_states
    stack = []
    components = []
    counter = 0
    for root in range(n_states):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(successors[v])):
                w = successors[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


def component_period(comp, successors):
    """gcd of cycle lengths inside one strongly connected component."""
    comp_set = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = [root]
    while queue:
        nxt = []
        for u in queue:
            for w in successors[u]:
                if w in comp_set and w not in level:
                    level[w] = level[u] + 1
                    nxt.append(w)
        queue = nxt
    g = 0
    for u in comp:
        for w in successors[u]:
            if w in comp_set:
                g = math.gcd(g, level[u] + 1 - level[w])
    return abs(g)


def _log_matvec(v, src, dst, weights, size):
    out = np.full(size, -np.inf)
    np.logaddexp.at(out, dst, v[src] + weights)
    return out


def _power_vector(src, dst, w, k, period, cap):
    """Log radius, log Perron vector and bracket of v -> v M on a class.

    Power iteration from the all-ones vector in log domain, normalized
    by the maximum.  The growth over one period is bracketed by the
    Collatz-Wielandt bounds, min and max over i of (v M^p)_i / v_i, so
    the stopping rule bounds the error of the midpoint by half the
    bracket width.  v M^p settles on each cyclic subclass separately;
    the sum of rho^-t v M^t over one period is the Perron vector of M
    itself.  Swapping src and dst gives the right vector.  Returns None
    when the bracket is still too wide after cap steps.
    """
    v = np.zeros(k)
    steps = 0
    while steps < cap:
        sweep = [v]
        for _ in range(period):
            sweep.append(_log_matvec(sweep[-1], src, dst, w, k))
        steps += period
        diffs = sweep[-1] - v
        lo = float(np.min(diffs))
        hi = float(np.max(diffs))
        if (hi - lo) / period < BRACKET_TOL:
            logrho = (lo + hi) / (2.0 * period)
            vec = np.logaddexp.reduce(
                [u - t * logrho for t, u in enumerate(sweep[:-1])], axis=0)
            return logrho, vec, (lo / period, hi / period)
        v = sweep[-1] - np.max(sweep[-1])
    return None


def _unit(log_vec):
    x = np.exp(log_vec - np.max(log_vec))
    return x / float(np.sum(x))


def _perron_from(w, vecs, rho):
    """Perron vector of an eigendecomposition, positive and summing to one.

    After scaling by the largest entry, entries down to -1e-10 are
    rounding and become zero; a more negative entry means the
    eigensolve did not produce a Perron vector.
    """
    idx = int(np.argmin(np.abs(w - rho)))
    v = vecs[:, idx]
    # rotate the phase away, then insist on a positive real vector
    pivot = v[int(np.argmax(np.abs(v)))]
    v = np.real(v / pivot)
    worst = float(np.min(v))
    if worst < -1e-10:
        raise ConvergenceFailure(0, residual=-worst)
    v = np.maximum(v, 0.0)
    return v / float(np.sum(v))


def _class_edges(corr, components):
    """Index the edges inside each class in one vectorized pass.

    Returns the state -> class label array, the local source and target
    indices of the internal edges with their global edge indices, each
    as one array grouped by class and in edge order within a class, and
    the offsets of the classes' groups: class c owns the entries
    offsets[c]:offsets[c + 1].
    """
    sizes = np.fromiter(map(len, components), dtype=np.int64,
                        count=len(components))
    members = np.fromiter(itertools.chain.from_iterable(components),
                          dtype=np.int64, count=corr.n_states)
    label = np.empty(corr.n_states, dtype=np.int64)
    local = np.empty(corr.n_states, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    label[members] = np.repeat(np.arange(len(components)), sizes)
    local[members] = np.arange(corr.n_states) - np.repeat(starts, sizes)
    src, dst = corr.edge_arrays()
    inside = np.flatnonzero(label[src] == label[dst])
    inside = inside[np.argsort(label[src[inside]], kind="stable")]
    counts = np.bincount(label[src[inside]], minlength=len(components))
    offsets = [0] + np.cumsum(counts).tolist()
    return label, local[src[inside]], local[dst[inside]], inside, offsets


class SpectralCache:
    """Perron data of the spectral classes of a fixed edge graph.

    The classes (strongly connected components) and the edges inside
    them depend only on the support, so they are indexed once per
    relation (FiniteCorrespondence.spectral_cache); every quantity for
    a given potential then comes from solve(), the one Perron routine.
    Classes of up to DENSE_MAX states take a dense eigensolve, larger
    ones a sparse power iteration.  The cache keeps no reference to the
    relation, so the relation it is memoised on is freed by reference
    counting alone.
    """

    def __init__(self, corr):
        self.components = strongly_connected_components(corr.n_states, corr._succ)
        (self.class_of, self._rows, self._cols, self._eidx,
         self._offsets) = _class_edges(corr, self.components)
        self.periods = {c: component_period(comp, corr._succ)
                        for c, comp in enumerate(self.components)
                        if len(comp) > DENSE_MAX}
        # classes whose power iteration once ran out of budget; the
        # dense route is exact, so keeping them on it costs speed only
        self.slow = set()

    def class_edges(self, c):
        """(local sources, local targets, edge indices) inside class c."""
        lo, hi = self._offsets[c], self._offsets[c + 1]
        return self._rows[lo:hi], self._cols[lo:hi], self._eidx[lo:hi]

    def solve(self, c, values, vectors=True):
        """(log rho, right, left, bracket) of the weight matrix on class c.

        right and left are Perron vectors normalized to sum one, None
        when vectors is false.  bracket is the Collatz-Wielandt interval
        holding log rho that stopped the power iteration; it is exact on
        one-state classes and None on the dense route, which also takes
        large classes the power iteration cannot settle within its step
        budget; such a class skips the power iteration in every later
        call on this cache.  A class with no internal edge, or whose
        internal weights are all -inf, has log rho = -inf and no Perron
        vectors.
        """
        lo, hi = self._offsets[c], self._offsets[c + 1]
        w = values[self._eidx[lo:hi]]
        # most classes of a grid model are one loop: skip the reduction
        shift = float(w[0]) if hi - lo == 1 else float(w.max(initial=-np.inf))
        if shift == -np.inf:
            # -inf weights are absent edges: the class matrix is zero
            if vectors:
                raise ConvergenceFailure(0)
            return -np.inf, None, None, (-np.inf, -np.inf)
        k = len(self.components[c])
        if k == 1:
            one = np.ones(1) if vectors else None
            return shift, one, one, (shift, shift)
        rows, cols, eidx = self.class_edges(c)
        if k > DENSE_MAX and c not in self.slow:
            # past about k^3 / edges steps a dense eigensolve is cheaper,
            # so a class that mixes too slowly falls through to it
            cap = min(POWER_CAP, k ** 3 // eidx.size)
            left = _power_vector(rows, cols, w, k, self.periods[c], cap)
            if left is not None:
                logrho, left_vec, bracket = left
                if not vectors:
                    return logrho, None, None, bracket
                right = _power_vector(cols, rows, w, k, self.periods[c], cap)
                if right is not None:
                    return logrho, _unit(right[1]), _unit(left_vec), bracket
            self.slow.add(c)
        scaled = np.exp(w - shift)
        # a finite weight that underflows would drop an edge from the
        # class; -inf weights are absent edges and stay so
        lost = np.isfinite(w) & (scaled == 0.0)
        if np.any(lost):
            span = shift - float(np.min(w[lost]))
            raise SolverError(
                f"weights on a {k}-state class span {span:.4g}, "
                "past the range of the dense eigensolve")
        m = np.zeros((k, k))
        m[rows, cols] = scaled
        if not vectors:
            # absent (-inf) edges can leave the class matrix nilpotent
            rho = float(np.max(np.abs(np.linalg.eigvals(m))))
            logrho = shift + math.log(rho) if rho > 0.0 else -np.inf
            return logrho, None, None, None
        lam, vecs = np.linalg.eig(m)
        rho = float(np.max(np.abs(lam)))
        if rho <= 0.0:
            raise ConvergenceFailure(0)
        right = _perron_from(lam, vecs, rho)
        left = _perron_from(*np.linalg.eig(m.T), rho)
        return shift + math.log(rho), right, left, None

    def log_radii(self, values):
        return [self.solve(c, values, vectors=False)[0]
                for c in range(len(self.components))]

    def pressure(self, values):
        return max(self.log_radii(values))

    def dominant(self, values):
        radii = self.log_radii(values)
        top = max(radii)
        dom = [c for c, r in enumerate(radii) if top - r <= TIE_TOL]
        dom.sort(key=lambda c: min(self.components[c]))
        return top, dom, radii


@dataclass(frozen=True)
class SpectralResult:
    pressure: float
    components: tuple
    log_radii: tuple
    dominant: tuple

    @property
    def dominant_classes(self):
        return tuple(self.components[k] for k in self.dominant)


def spectral_pressure(corr, phi):
    """Pressure as log spectral radius, with the list of dominant classes.

    Classes are strongly connected components of the edge graph; a
    single state with no self-loop has radius zero and never
    dominates.  Every state has a successor, so some cycle exists, and
    the pressure is finite unless every cycle has an edge of weight
    -inf: then it is -inf and no class dominates.
    """
    cache = corr.spectral_cache()
    top, dom, radii = cache.dominant(phi.values)
    return SpectralResult(float(top), tuple(cache.components), tuple(radii),
                          tuple(dom))


def path_pressure_sequence(corr, phi, n_max):
    """The sequence a_n for n = 1..n_max via the log-domain recursion.

    a_n converges to the pressure; for a primitive relation the gap
    |a_n - P| is of order 1/n.  It is -inf from the first n at which
    every walk has an edge of weight -inf, as it is from n = n_states on
    when the pressure is -inf.
    """
    src, dst = corr.edge_arrays()
    w = phi.values
    v = np.zeros(corr.n_states)
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        v = _log_matvec(v, src, dst, w, corr.n_states)
        m = float(np.max(v))
        if m == -np.inf:
            # every walk of n steps weighs -inf, and so does every longer one
            out[n - 1:] = -np.inf
            break
        out[n - 1] = (m + math.log(float(np.sum(np.exp(v - m))))) / n
    return out


@dataclass(frozen=True)
class DecompositionPressure:
    value: float
    block_values: tuple


def decomposition_pressure(corr, phi, decomp):
    """Max of the block pressures of a valid generating cover."""
    if not isinstance(decomp, Decomposition):
        decomp = Decomposition(decomp)
    report = decomposition_validate(corr, decomp)
    if not report["valid"]:
        raise InvalidDecomposition(report)
    vals = []
    for block in decomp.blocks:
        sub, order = corr.restrict(block)
        vals.append(spectral_pressure(sub, phi.restrict(sub, order)).pressure)
    return DecompositionPressure(float(max(vals)), tuple(vals))
