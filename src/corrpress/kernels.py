"""Transition kernels supported by a correspondence, and their chains.

A kernel row Q(x, .) is a probability vector carried by the successor
set of x.  Chains are built inductively: the length-0 chain from x is
the point mass at x, and each step extends a path by one kernel draw.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IndexOutOfRange, NotStationary, ShapeMismatch, TooLarge
from .pressure import SpectralCache
from .relations import Potential, whole_number

DENSE_PATH_LIMIT = 10 ** 7


def validate_measure(n_states, weights):
    """The one probability-vector check, for state, block and pair
    measures (a pair measure's n_states is the edge count)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_states,):
        raise ShapeMismatch(f"measure has shape {w.shape}, expected ({n_states},)")
    if np.any(w < -1e-12):
        raise ShapeMismatch("negative weight in measure")
    if not abs(float(np.sum(w)) - 1.0) <= 1e-9:    # NaN fails here too
        raise ShapeMismatch(f"measure mass {float(np.sum(w))!r} is not 1")
    return np.where(w < 0.0, 0.0, w)


class TransitionKernel:
    """Probabilities on the edges of a correspondence, one vector aligned
    with corr.edges, summing to one over the edges out of each state."""

    def __init__(self, corr, probs, tol=1e-12):
        p = np.asarray(probs, dtype=float)
        if p.shape != (corr.n_edges,):
            raise ShapeMismatch(f"kernel has shape {p.shape}, expected "
                                f"({corr.n_edges},)")
        if not np.all(p >= -tol):    # NaN fails here too
            raise ShapeMismatch("negative or NaN kernel entry")
        p = np.where(p < 0.0, 0.0, p)
        rows = np.bincount(corr.edge_arrays()[0], weights=p,
                           minlength=corr.n_states)
        if not np.all(np.abs(rows - 1.0) <= tol):    # inf fails here too
            worst = int(np.argmax(np.abs(rows - 1.0)))
            raise ShapeMismatch(f"row {worst} sums to {rows[worst]!r}")
        p.flags.writeable = False
        self.corr = corr
        self.probs = p
        self.tol = tol

    @classmethod
    def from_rows(cls, corr, rows, tol=1e-12):
        """Build from per-state lists of (successor, probability)."""
        n, index = corr.n_states, corr.edge_index()
        if len(rows) != n:
            raise ShapeMismatch("kernel rows do not match the state count")
        p = np.zeros(corr.n_edges)
        for i, row in enumerate(rows):
            for j, q in row:
                e, q = (i, whole_number(j)), float(q)
                if not 0 <= e[1] < n:
                    raise IndexOutOfRange([e], n)
                if e in index:
                    p[index[e]] += q
                elif not -tol <= q <= 0.0:    # NaN fails here too
                    raise ShapeMismatch(f"kernel mass outside the edge set: {[e]}")
        return cls(corr, p, tol)

    @property
    def matrix(self):
        """Dense n x n copy, built on each call, for tests and perfbench."""
        m = np.zeros((self.corr.n_states, self.corr.n_states))
        m[self.corr.edge_arrays()] = self.probs
        return m

    def relabel(self, theta):
        # the same rows, so the tolerance they passed still applies
        moved = Potential(self.corr, self.probs).relabel(theta)
        return TransitionKernel(moved.corr, moved.values, self.tol)


def pushforward(mu, kernel):
    """Distribution after one step: (mu Q)(j) = sum_i mu(i) Q(i, j)."""
    src, dst = kernel.corr.edge_arrays()
    return np.bincount(dst, weights=np.asarray(mu, dtype=float)[src] * kernel.probs,
                       minlength=kernel.corr.n_states)


class Partition:
    """Partition of the state set into nonempty cells."""

    def __init__(self, n_states, cells):
        cells = tuple(tuple(sorted(whole_number(s) for s in c)) for c in cells)
        seen = []
        for c in cells:
            if not c:
                raise ShapeMismatch("empty partition cell")
            seen.extend(c)
        if sorted(seen) != list(range(n_states)):
            raise ShapeMismatch("cells do not partition the state set")
        self.n_states = n_states
        self.cells = cells

    def indicator(self, k):
        v = np.zeros(self.n_states)
        v[list(self.cells[k])] = 1.0
        return v


def measure_entropy(mu):
    mu = np.asarray(mu, dtype=float)
    pos = mu[mu > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def entropy_rate(mu, kernel):
    """h = -sum_i mu(i) sum_j Q(i,j) log Q(i,j), summed over the edges."""
    q = kernel.probs
    pos = q > 0.0
    return float(-np.sum(pair_from_kernel(mu, kernel)[pos] * np.log(q[pos])))


def stationary_gap(mu, kernel):
    return float(np.sum(np.abs(pushforward(mu, kernel) - np.asarray(mu, dtype=float))))


def stationary_measures(kernel):
    """Ergodic stationary measures, one per recurrent class of the support.

    A recurrent class is closed: no support edge leaves it, so the
    kernel is stochastic on it, with Perron root 1 and the stationary
    law as left Perron vector.  Returns a list of (class_states,
    measure) with full-length measure vectors, ordered by the smallest
    state of the class.
    """
    corr = kernel.corr
    src, dst = corr.edge_arrays()
    q = kernel.probs
    on = q > 0.0
    if on.all():
        # the support is the relation, whose class index other solvers share
        cache = corr.spectral_cache()
    else:
        src, dst = src[on], dst[on]
        cache = SpectralCache(corr.n_states, src, dst)
    logq = np.log(q[on])
    label = cache.class_of
    leaving = set(label[src][label[src] != label[dst]].tolist())
    out, closed, total = [], [], np.zeros(corr.n_states)
    for c, states in enumerate(cache.components):
        if c in leaving:
            continue
        _, _, left, _ = cache.solve(c, logq)
        mu = np.zeros(corr.n_states)
        mu[list(states)] = total[list(states)] = left
        out.append((states, mu))
        closed.append(c)
    # a closed class pushes no mass out, so one step of the sum of the
    # measures gives each class's stationary gap on its own states
    gaps = np.bincount(label, weights=np.abs(pushforward(total, kernel) - total),
                       minlength=len(cache.components))[closed]
    if np.any(gaps > 1e-10):
        raise NotStationary(float(gaps[np.argmax(gaps > 1e-10)]))
    return out


def _cell_entropies(mu, kernel, partition, n_max):
    """H(xi^1), ..., H(xi^n_max) of the coarsened chain law, by one walk.

    A depth-first walk over the tree of cell sequences carries the
    vector of state probabilities compatible with each prefix, prunes
    zero branches, and adds -m log m of every node's mass m to the
    total of its depth.  The nodes of each depth come in the order a
    walk cut at that depth visits its leaves, so each total is the sum
    such a walk would take, term for term.
    """
    masks = [partition.indicator(c) for c in range(len(partition.cells))]
    totals = [0.0] * n_max
    stack = [(0, mu * m) for m in masks]
    while stack:
        depth, vec = stack.pop()
        mass = float(np.sum(vec))
        if mass <= 0.0:
            continue
        totals[depth] -= mass * math.log(mass)
        if depth + 1 == n_max:
            continue
        nxt = pushforward(vec, kernel)
        for m in masks:
            stack.append((depth + 1, nxt * m))
    return totals


def kernel_entropy(mu, kernel, n_max, partition=None):
    """Entropy sequence (1/n) H of the n-coordinate chain law, and its limit.

    For the discrete partition the closed form
    (H(mu) + (n-1) h) / n is used, where h is the entropy rate; the
    limit is h, and the discrete partition attains the supremum over
    partitions.  For a coarser partition the sequence comes from one
    walk over the cells^n_max cell sequences (refused as TooLarge past
    DENSE_PATH_LIMIT before any walking), and the last term is reported
    as the limit estimate.  The measure must be stationary for the
    kernel.
    """
    states = kernel.corr.n_states
    mu = validate_measure(states, mu)
    if partition is not None and partition.n_states != states:
        raise ShapeMismatch(f"partition of {partition.n_states} states "
                            f"for a kernel on {states}")
    if n_max < 1:
        raise ShapeMismatch("n_max must be at least 1")
    cells = states if partition is None else len(partition.cells)
    # k^b > DENSE_PATH_LIMIT for b its bit length and any k >= 2, so the
    # exponent never needs to exceed b
    if (cells < states and cells ** min(n_max, DENSE_PATH_LIMIT.bit_length())
            > DENSE_PATH_LIMIT):
        raise TooLarge(f"{cells}^{n_max} cell sequences exceed the dense limit")
    gap = stationary_gap(mu, kernel)
    if gap > 1e-9:
        raise NotStationary(gap)
    if cells == states:
        h = entropy_rate(mu, kernel)
        h0 = measure_entropy(mu)
        seq = np.array([(h0 + (n - 1) * h) / n for n in range(1, n_max + 1)])
        return seq, h
    totals = _cell_entropies(mu, kernel, partition, n_max)
    seq = [t / n for n, t in enumerate(totals, 1)]
    return np.array(seq), float(seq[-1])


def pair_from_kernel(mu, kernel):
    """Edge vector of the pair law mu(i) Q(i, j), aligned with corr.edges."""
    src, _ = kernel.corr.edge_arrays()
    return np.asarray(mu, dtype=float)[src] * kernel.probs


def kernel_from_pair(corr, pair_values):
    """Row-normalize a pair measure into a kernel.

    Negative entries count as zero.  Rows with no mass get the point
    mass at their lowest-index successor, so the result is always a
    valid kernel.
    """
    src, _ = corr.edge_arrays()
    w = np.maximum(np.asarray(pair_values, dtype=float), 0.0)
    rows = np.bincount(src, weights=w, minlength=corr.n_states)
    q = w / np.where(rows > 0.0, rows, 1.0)[src]
    # edges are sorted, so a state's first edge goes to its lowest successor
    q[np.searchsorted(src, np.flatnonzero(rows <= 0.0))] = 1.0
    return TransitionKernel(corr, q)
