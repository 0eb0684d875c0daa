"""Test-side references for the relation constructor, the invariance
flow, the cycle polytope, the log-domain path sums and the entropy of a
coarsened chain.

The relation is checked and indexed with Python sets, tuples and
per-state lists, as corrpress.relations.FiniteCorrespondence once was,
as the reference for its array checks and views.

A dense two-phase simplex on Python lists (Bland's rule, exact with
Fraction entries), the coupling LP built on it, and the bitmask Hall
program over all 2^n target subsets.  They are slow and capped by
nothing but patience, so they serve the tests only, as independent
references for corrpress.polytope.  The path sums and the power
iteration step by an np.logaddexp.at scatter onto -inf, one edge at a
time in edge order, and the period of a class comes from a
breadth-first search, as references for corrpress.pressure.  The chain
law is enumerated path by path, and the entropy of its coarsening is
walked afresh for each length, as references for corrpress.kernels.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from corrpress.errors import (DuplicateEdge, EmptySuccessor,
                              IndexOutOfRange)
from corrpress.kernels import pushforward
from corrpress.polytope import FEAS_TOL
from corrpress.pressure import BRACKET_TOL

def relation(n_states, edges):
    """(edges, successor tuples, predecessor tuples) of a relation, or
    the exception its checks raise: IndexOutOfRange listing the edges
    outside 0..n_states-1 in input order, then DuplicateEdge listing
    the repeated edges sorted, then EmptySuccessor listing the first
    LISTED states with no successor."""
    if n_states <= 0:
        raise IndexOutOfRange(list(edges), n_states)
    edges = [(int(i), int(j)) for i, j in edges]
    bad = [e for e in edges if not (0 <= e[0] < n_states and 0 <= e[1] < n_states)]
    if bad:
        raise IndexOutOfRange(bad, n_states)
    seen, dups = set(), []
    for e in edges:
        if e in seen:
            dups.append(e)
        seen.add(e)
    if dups:
        raise DuplicateEdge(sorted(set(dups)))
    sources = {i for i, _ in seen}
    if len(sources) < n_states:
        first = itertools.islice((i for i in range(n_states) if i not in sources),
                                 EmptySuccessor.LISTED)
        raise EmptySuccessor(list(first), n_states - len(sources))
    edges = tuple(sorted(seen))
    succ = [[] for _ in range(n_states)]
    pred = [[] for _ in range(n_states)]
    for i, j in edges:
        succ[i].append(j)
        pred[j].append(i)
    return edges, tuple(map(tuple, succ)), tuple(map(tuple, pred))


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(rows, cost, basis, r, j):
    piv = rows[r][j]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[j]:
            f = row[j]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]
    if cost[j]:
        f = cost[j]
        cost[:] = [a - f * b for a, b in zip(cost, rows[r])]
    basis[r] = j


def _bland_loop(rows, cost, basis, n_real, tol):
    while True:
        enter = -1
        for j in range(len(cost) - 1):
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(rows):
            if row[enter] > tol:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(rows, cost, basis, leave, enter)


def simplex(A, b, c, exact=False, feas_tol=None):
    """Minimize c.x subject to A x = b, x >= 0.

    Returns (status, x, value).  With exact=True all input entries are
    converted to Fraction and comparisons are exact; otherwise floats
    with a small pivot tolerance are used.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    if exact:
        conv = Fraction
        tol = Fraction(0)
    else:
        conv = float
        tol = 1e-11
    if feas_tol is None:
        feas_tol = tol if exact else 1e-9
    rows = []
    for i in range(m):
        row = [conv(v) for v in A[i]] + [conv(b[i])]
        if row[-1] < 0:
            row = [-v for v in row]
        rows.append(row)
    # phase one: artificial identity basis
    for i in range(m):
        ext = [conv(0)] * m
        ext[i] = conv(1)
        rows[i] = rows[i][:-1] + ext + [rows[i][-1]]
    cost = [conv(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= rows[i][j]
    for i in range(m):
        cost[n + i] += conv(1)
    basis = [n + i for i in range(m)]
    status = _bland_loop(rows, cost, basis, n, tol)
    infeas = -cost[-1]
    if status != OPTIMAL or infeas > feas_tol:
        return INFEASIBLE, None, None
    # remove artificials still basic (possible with redundant rows)
    drop = []
    for i in range(m):
        if basis[i] >= n:
            piv = -1
            for j in range(n):
                if abs(rows[i][j]) > tol:
                    piv = j
                    break
            if piv >= 0:
                _pivot(rows, cost, basis, i, piv)
            else:
                drop.append(i)
    for i in sorted(drop, reverse=True):
        del rows[i], basis[i]
    rows = [row[:n] + [row[-1]] for row in rows]
    # phase two
    cost = [conv(v) for v in c] + [conv(0)]
    for i, bi in enumerate(basis):
        if cost[bi]:
            f = cost[bi]
            cost = [a - f * bv for a, bv in zip(cost, rows[i])]
    status = _bland_loop(rows, cost, basis, n, tol)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [conv(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    return OPTIMAL, x, -cost[-1]


def lp_pair(corr, mu, exact=False):
    """A pair measure with both marginals mu, or None when the LP has none.

    Rows: sums over the edges out of each state, then into each state
    but the last (that one follows from the total mass)."""
    a = [[1 if e[0] == i else 0 for e in corr.edges] for i in range(corr.n_states)]
    a += [[1 if e[1] == j else 0 for e in corr.edges]
          for j in range(corr.n_states - 1)]
    b = list(mu) + list(mu[:-1])
    status, x, _ = simplex(a, b, [0] * corr.n_edges, exact=exact,
                           feas_tol=None if exact else FEAS_TOL)
    return x if status == OPTIMAL else None


def hall_subset(corr, mu, tol=FEAS_TOL):
    """The first target subset A, in bitmask order, with
    mu(A) > mu(pre A) + tol, or None; exact on Fraction weights."""
    n = corr.n_states
    pred_mask = [0] * n
    for i, j in corr.edges:
        pred_mask[j] |= 1 << i
    size = 1 << n
    mass = [0] * size
    pre = [0] * size
    for m in range(1, size):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        mass[m] = mass[rest] + mu[low]
        pre[m] = pre[rest] | pred_mask[low]
    for m in range(1, size):
        if mass[m] > mass[pre[m]] + tol:
            return tuple(i for i in range(n) if m >> i & 1)
    return None


def log_matvec(v, src, dst, weights, size):
    """(log sum over the edges into each target of exp(v_src + w)), by
    scattering the edges onto -inf in edge order."""
    out = np.full(size, -np.inf)
    np.logaddexp.at(out, dst, v[src] + weights)
    return out


def path_pressure_sequence(corr, phi, n_max):
    """a_n = (1/n) log of the total weight of the walks of n steps, for
    n = 1..n_max, with the total taken by max, exp, sum and log."""
    src, dst = corr.edge_arrays()
    v = np.zeros(corr.n_states)
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        v = log_matvec(v, src, dst, phi.values, corr.n_states)
        m = float(np.max(v))
        if m == -np.inf:
            out[n - 1:] = -np.inf
            break
        out[n - 1] = (m + math.log(float(np.sum(np.exp(v - m))))) / n
    return out


def component_period(k, rows, cols):
    """gcd of the cycle lengths of a strongly connected class of k
    states, from the local sources and targets of its internal edges,
    sources in increasing order (SpectralCache.class_edges): the gcd of
    level(i) + 1 - level(j) over the edges, levels from one breadth-first
    search on the class's CSR lists."""
    offsets = np.searchsorted(rows, np.arange(k + 1)).tolist()
    targets = cols.tolist()
    level = [-1] * k
    level[0] = 0
    queue = [0]
    for u in queue:                 # the queue grows while it is read
        for w in targets[offsets[u]:offsets[u + 1]]:
            if level[w] < 0:
                level[w] = level[u] + 1
                queue.append(w)
    level = np.array(level)
    return int(np.gcd.reduce(level[rows] + 1 - level[cols]))


def power_vector(src, dst, w, k, period, cap):
    """corrpress.pressure._power_vector, stepping by log_matvec."""
    v = np.zeros(k)
    steps = 0
    while steps < cap:
        sweep = [v]
        for _ in range(period):
            sweep.append(log_matvec(sweep[-1], src, dst, w, k))
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


def chain_paths(start, kernel, length):
    """The law of (X_1, ..., X_length) as a dict from each path of
    positive weight to its weight, extending paths one draw at a time."""
    corr = kernel.corr
    n = corr.n_states
    q = kernel.probs
    starts = np.searchsorted(corr.edge_arrays()[0], np.arange(n + 1))
    frontier = [((x,), float(start[x])) for x in range(n) if start[x] > 0.0]
    for _ in range(length - 1):
        nxt = []
        for path, w in frontier:
            x = path[-1]
            for y, p in zip(corr.successors(x), q[starts[x]:starts[x + 1]]):
                if p > 0.0:
                    nxt.append((path + (y,), w * p))
        frontier = nxt
    return dict(frontier)


def cell_entropy(start, kernel, partition, length):
    """H of the law of the cells of (X_1, ..., X_length), by a
    depth-first walk over the cell sequences of that length alone,
    adding -m log m at its leaves."""
    masks = [partition.indicator(c) for c in range(len(partition.cells))]
    total = 0.0
    stack = [(1, np.asarray(start, dtype=float) * m) for m in masks]
    while stack:
        depth, vec = stack.pop()
        mass = float(np.sum(vec))
        if mass <= 0.0:
            continue
        if depth == length:
            total -= mass * math.log(mass)
            continue
        nxt = pushforward(vec, kernel)
        for m in masks:
            stack.append((depth + 1, nxt * m))
    return total
