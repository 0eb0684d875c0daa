"""Test-side references for the relation constructor, the invariance
flow, the cycle polytope, the log-domain path sums, the entropy of a
coarsened chain and the measure pressure.

The relation is checked and indexed with Python sets, tuples and
per-state lists, as corrpress.relations.FiniteCorrespondence once was,
as the reference for its array checks and views.

A dense two-phase simplex on Python lists (Bland's rule, exact with
Fraction entries), the coupling LP built on it, and the bitmask Hall
program over all 2^n target subsets, which also finds the edges a
coupling can charge by their tight subsets.  They are slow and capped by
nothing but patience, so they serve the tests only, as independent
references for corrpress.polytope.  Dinic's algorithm on the whole
network, with its source, its sink and an arc list per node, is the
reference for corrpress.polytope._hall_flow, which must push the same
flow bit for bit; the reference decomposition search calls it.  The
path sums and the power iteration step by an np.logaddexp.at scatter
onto -inf, one edge at a time in edge order, and the period of a class
comes from a breadth-first search, as references for corrpress.pressure.  The chain
law is enumerated path by path, and the entropy of its coarsening is
walked afresh for each length, and each closed class's stationary
measure is checked against the whole relation by its own pushforward,
as references for corrpress.kernels.  The extremal decomposition tries
every subset of the face extremes, smallest first, with one solve per
subset and the flow first, as the reference for
corrpress.polytope.extremal_decomposition, and the polytope's tables are
built eagerly in Fractions and sorted as such, as the reference for
corrpress.polytope.PolytopeExtremes.
The measure pressure runs its Newton solve on every finite edge
between mu-positive states, without the face the flow certifies, as
the reference for corrpress.variational.measure_pressure.  Each block
pressure is the spectral pressure of the relation induced on the
block, as the reference for corrpress.pressure.decomposition_pressure.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from corrpress.errors import (DuplicateEdge, EmptySuccessor,
                              IndexOutOfRange, NotInvariant, NotStationary,
                              TooLarge)
from corrpress.kernels import pushforward, stationary_gap
from corrpress.polytope import (FEAS_TOL, SATURATED, _simple_cycles,
                                _sole_cycle_cover, gauss_solve)
from corrpress.pressure import BRACKET_TOL, SpectralCache, spectral_pressure
from corrpress.relations import FiniteCorrespondence, Potential

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


def dinic_flow(n, edges, mu, exact):
    """Invariance of mu by one maximum flow, with a certificate either way.

    The states are 0..n-1 and edges any list of pairs of them; they
    need not form a correspondence.  The network is s -> i (capacity
    mu_i) -> j' (one unbounded arc per edge (i, j)) -> t (capacity
    mu_j).  By Gale's supply-demand theorem (Gale 1957, Pacific J.
    Math. 7) and max-flow/min-cut (Ford & Fulkerson 1956), its value
    falls short of the mass of mu by max over A of mu(A) - mu(pre A),
    the deficiency; mu is invariant
    when that is at most FEAS_TOL, or exactly 0 when exact (mu is then
    ints and Fractions, and so is all the arithmetic).

    Dinic's algorithm (Dinic 1970), without recursion: each phase
    levels the residual graph by a breadth-first search from s, then
    saturates every shortest path by a depth-first search that keeps
    one current arc per node.  A float residual at or below SATURATED
    counts as saturated, so every phase ends.

    Returns (invariant, the flow on each edge, a subset A).  The flow
    on the edges is a pair measure with both marginals mu up to the
    deficiency.  With X the states whose left copy the last search
    reaches, the minimum cut gives mu(succ X) = mu(X) - deficiency; A is
    the states of positive mass outside succ X, so pre A misses X, and
    mu(A) - mu(pre A) is at least the deficiency.
    """
    s, t = 2 * n, 2 * n + 1
    eps = 0 if exact else SATURATED
    zero = Fraction(0) if exact else 0.0
    head, cap, out = [], [], [[] for _ in range(2 * n + 2)]

    def arc(u, v, c):
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(zero)

    for i in range(n):
        if mu[i] > 0:
            arc(s, i, mu[i])
            arc(n + i, t, mu[i])
    first = len(head)
    for i, j in edges:
        arc(i, n + j, math.inf)
    flow = zero
    while True:
        level = [-1] * (2 * n + 2)
        level[s] = 0
        queue = [s]
        for u in queue:
            for a in out[u]:
                if cap[a] > eps and level[head[a]] < 0:
                    level[head[a]] = level[u] + 1
                    queue.append(head[a])
        if level[t] < 0:
            break
        ptr = [0] * (2 * n + 2)
        path, u = [], s
        while True:
            if u == t:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                flow += push
                # back to the tail of the first saturated arc
                del path[next(k for k, a in enumerate(path) if cap[a] <= eps):]
                u = head[path[-1]] if path else s
                continue
            arcs, k = out[u], ptr[u]
            while k < len(arcs) and not (cap[arcs[k]] > eps
                                         and level[head[arcs[k]]] == level[u] + 1):
                k += 1
            ptr[u] = k
            if k < len(arcs):
                path.append(arcs[k])
                u = head[arcs[k]]
            elif u == s:
                break
            else:    # a dead end: retreat, and skip the arc that led here
                u = head[path.pop() ^ 1]
                ptr[u] += 1
    deficiency = sum(v for v in mu if v > 0) - flow
    reached = {i for i in queue if i < n}
    image = {j for i, j in edges if i in reached}
    subset = tuple(j for j in range(n) if mu[j] > 0 and j not in image)
    return deficiency <= (0 if exact else FEAS_TOL), cap[first + 1::2], subset


def _subset_tables(corr, mu):
    """mu(A) and the bitmask of pre A for every bitmask A of states."""
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
    return mass, pre


def hall_subset(corr, mu, tol=FEAS_TOL):
    """The first target subset A, in bitmask order, with
    mu(A) > mu(pre A) + tol, or None; exact on Fraction weights."""
    mass, pre = _subset_tables(corr, mu)
    for m in range(1, len(mass)):
        if mass[m] > mass[pre[m]] + tol:
            return tuple(i for i in range(corr.n_states) if m >> i & 1)
    return None


def chargeable_edges(corr, mu, tol):
    """Mask over corr.edges of the edges between mu-positive states
    that some coupling of mu charges.  A target subset A with
    mu(pre A) <= mu(A) + tol is tight: all the mass of pre A enters A,
    so no coupling charges an edge from pre A to a state outside A.  By
    max-flow/min-cut every uncharged edge has such an A; this tries all
    2^n of them."""
    mass, pre = _subset_tables(corr, mu)
    tight = [(pre[m], m) for m in range(1, len(mass))
             if mass[pre[m]] <= mass[m] + tol]
    return np.array([mu[i] > 0 and mu[j] > 0
                     and not any(p >> i & 1 and not m >> j & 1 for p, m in tight)
                     for i, j in corr.edges])


def polytope_tables(corr):
    """(pair_vertices, projections, extremes_exact, extremes): one
    Fraction edge vector and marginal per simple cycle, sorted together
    as Fraction tuples, and the sorted marginals of the sole-cover
    cycles, exact and as float arrays."""
    index = corr.edge_index()
    found = []
    for cycle in _simple_cycles(corr):
        vertex, marg = [Fraction(0)] * corr.n_edges, [Fraction(0)] * corr.n_states
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            vertex[index[(i, j)]] = marg[i] = Fraction(1, len(cycle))
        found.append((tuple(vertex), tuple(marg), cycle))
    found.sort()
    keep = sorted(p for _, p, c in found if _sole_cycle_cover(corr, c))
    return (tuple(f[0] for f in found), tuple(f[1] for f in found), tuple(keep),
            tuple(np.array([float(v) for v in p]) for p in keep))


def extremal_decomposition(corr, mu, extremes, cap=None):
    """The fewest-atom convex combination of the face extremes equal to
    mu, ties broken by the lexicographic order of the index set: every
    subset is solved, by size and then lexicographically, until one has
    a unique solution with weights at least -tol.  With a cap, TooLarge
    once (states + 1) x subset size, summed over the subsets, passes it."""
    exact = all(isinstance(v, (int, Fraction)) for v in mu)
    pool = extremes.extremes_exact if exact else [tuple(map(float, p))
                                                 for p in extremes.extremes_exact]
    n = corr.n_states
    face = [k for k, p in enumerate(pool)
            if all(mu[i] > 0 for i in range(n) if p[i] != 0)]
    invariant, _, subset = dinic_flow(
        n, corr.edges, list(mu) if exact else [float(v) for v in mu], exact)
    if not invariant:
        raise NotInvariant(subset)
    target = list(mu) + [1 if exact else 1.0]
    rows_full = [[pool[k][i] for k in face] for i in range(n)]
    rows_full.append([1] * len(face) if exact else [1.0] * len(face))
    tol = 0 if exact else 1e-9
    work = 0
    for s in range(1, len(face) + 1):
        for combo in itertools.combinations(range(len(face)), s):
            work += (n + 1) * s
            if cap is not None and work > cap:
                raise TooLarge(f"atom-minimal search: {work} (states + 1) x "
                               f"subset size > {cap}")
            sub = [[rows_full[r][c] for c in combo] for r in range(n + 1)]
            kind, lam = gauss_solve(sub, target, exact=exact)
            if kind == "unique" and all(v >= -tol for v in lam):
                return [face[c] for c in combo], [max(v, 0) for v in lam], pool
    raise NotInvariant()


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


def block_pressures(corr, phi, decomp):
    """spectral_pressure on the relation induced on each block: the
    edges with both ends in it, by index masks, renumbered in state
    order (which keeps their order), with phi read at the same edges."""
    src, dst = corr.edge_arrays()
    out = []
    for block in decomp.blocks:
        states = sorted(set(block))
        pos = np.full(corr.n_states, -1)
        pos[states] = np.arange(len(states))
        keep = (pos[src] >= 0) & (pos[dst] >= 0)
        sub = FiniteCorrespondence(
            len(states), np.stack((pos[src][keep], pos[dst][keep]), axis=1))
        out.append(spectral_pressure(sub, Potential(sub, phi.values[keep])).pressure)
    return tuple(out)


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


def stationary_measures(kernel):
    """(class states, stationary measure) for each closed class of the
    kernel's support, each measure checked by stationary_gap over the
    whole relation."""
    corr = kernel.corr
    on = kernel.probs > 0.0
    src, dst = (a[on] for a in corr.edge_arrays())
    cache = SpectralCache(corr.n_states, src, dst)
    label = cache.class_of
    leaving = set(label[src][label[src] != label[dst]].tolist())
    out = []
    for c, states in enumerate(cache.components):
        if c in leaving:
            continue
        mu = np.zeros(corr.n_states)
        mu[list(states)] = cache.solve(c, np.log(kernel.probs[on]))[2]
        if stationary_gap(mu, kernel) > 1e-10:
            raise NotStationary(stationary_gap(mu, kernel))
        out.append((states, mu))
    return out


def all_edge_newton(corr, phi, mu, tol, max_iter):
    """(value, pair, marginal error, steps) of measure pressure by the
    damped Newton solve of corrpress.variational over every finite edge
    between mu-positive states, with no face identified: on a face the
    mass off it decays geometrically.  mu must be carried by those
    edges.  A spent budget, or a Hessian singular in floating point,
    returns the last iterate."""
    mu = np.asarray(mu, dtype=float)
    support = np.flatnonzero(mu > 0.0)
    n = len(support)
    loc = np.full(corr.n_states, -1)
    loc[support] = np.arange(n)
    src, dst = corr.edge_arrays()
    keep = np.flatnonzero((loc[src] >= 0) & (loc[dst] >= 0)
                          & np.isfinite(phi.values))
    rows, cols, w = loc[src[keep]], loc[dst[keep]], phi.values[keep]
    mu_s = mu[support]
    log_mu = np.log(mu_s)

    def dual(f, g):
        nu = np.exp(f[rows] + w + g[cols])
        return nu, float(np.sum(nu) - np.dot(mu_s, f + g))

    def residuals(nu):
        a = np.bincount(rows, weights=nu, minlength=n) - mu_s
        b = np.bincount(cols, weights=nu, minlength=n) - mu_s
        return b, float(np.sum(np.abs(a)) + np.sum(np.abs(b)))

    def row_half_step(g):
        vals = w + g[cols]
        top = np.full(n, -np.inf)
        np.maximum.at(top, rows, vals)
        return log_mu - top - np.log(
            np.bincount(rows, weights=np.exp(vals - top[rows]), minlength=n))

    g, steps = np.zeros(n), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            f = row_half_step(g)
            nu, d = dual(f, g)
            b, err = residuals(nu)
            if err <= tol or steps >= max_iter:
                break
            steps += 1
            coupling = np.zeros((n, n))
            coupling[rows, cols] = nu
            scaled = coupling / mu_s[:, None]
            try:
                dg = np.linalg.solve(
                    np.diag(b + mu_s + 1e-3 * err) - coupling.T @ scaled, -b)
            except np.linalg.LinAlgError:
                # the shift 1e-3 err has fallen below rounding, and the
                # near-null direction of a face block is lost
                break
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
    return float(value), pair, err, steps
