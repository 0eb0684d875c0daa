"""Topological pressure of a finite correspondence.

Two independent routes are implemented.  The orbit route accumulates
weighted path sums in log domain and reports the sequence
a_n = (1/n) log sum over length-(n+1) walks of exp(S_n phi); with the
discrete metric every set of walks is separated, so no net is needed.
The spectral route computes log of the spectral radius of the edge
weight matrix M_ij = exp(phi(i, j)), class by class, with one Perron
solver: the mean weight on a class that is one cycle, dense eig on
other small classes, power iteration on large ones.

Both the orbit route and the power iteration step with one log-domain
edge operator (_edge_operator): the edges are sorted stably by target
once, and each step is one np.logaddexp.reduceat over the target
segments.  On a relation with k states and |E| edges the orbit route
costs one reduction over at most |E| + 2k entries per step.  Each
step's vector is bit for bit the one a scatter of the same edges by
logaddexp's ufunc.at, in edge order, onto -inf would give.

The orbit route stops stepping once a Collatz-Wielandt bracket on the
growth over a sweep of SWEEP steps is narrower than BRACKET_TOL per
step, and fills the rest of the horizon from it: each a_n of that tail
is within BRACKET_TOL / 2 of the exact recursion, not bit for bit the
stepped value.  A relation whose growth never settles (a period that
does not divide SWEEP, tied dominant classes, a state at -inf, a state
no dominant class reaches) takes every step.  The period of a class,
which the power iteration steps by, comes from the depths of the search
that found the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, IndexOutOfRange, InvalidDecomposition,
                     ShapeMismatch, SolverError, TooLarge)
from .relations import csr_offsets, decomposition_validate

# Spectral classes whose log radius lies within this distance of the
# maximum count as dominant (SpectralCache.dominant).
TIE_TOL = 1e-9

# Classes of up to DENSE_MAX states that are not one cycle take the dense
# eigensolver, larger ones the power iteration (SpectralCache.solve).
# Timed on random sparse primitive classes, the two routes break even at
# about 50-100 states.  POWER_CAP bounds the power steps on any class.
DENSE_MAX = 64
POWER_CAP = 100000
BRACKET_TOL = 1e-13

# The orbit route checks its bracket once every SWEEP steps, a multiple
# of every period that divides it; a check every few steps would cost a
# relation that never settles a measurable share.  PATH_MAX caps its
# horizon: a 3-cycle, which never settles, takes about 3 s there on
# one core.
SWEEP = 64
PATH_MAX = 1_000_000

# class_roots takes the classes from Tarjan alone on graphs of fewer
# than CLASS_MIN states and edges, and from reach_roots on larger ones:
# timed on grid models and on random relations with 3 successors
# per state, the two break even at 1000-2000.  The reach may take
# (n_states + n_edges) // ROUND_SIZE levels; a level costs about as much
# as Tarjan on 30 states and edges, so a reach that runs out of levels
# adds at most about a quarter to Tarjan's time.
CLASS_MIN = 2000
ROUND_SIZE = 128


def strongly_connected_components(offsets, targets):
    """Tarjan's algorithm, iterative, on a relation in CSR form: the
    successors of v are targets[offsets[v]:offsets[v + 1]]
    (FiniteCorrespondence.csr; Python lists walk fastest).  Returns the
    components in reverse topological order, each a sorted tuple, and
    each state's depth in the depth-first forest.  No caller depends on
    that order.  The numpy callers reach it through class_roots, which
    labels each state by its class's least state.  Johnson's component
    splits and the sole-cover test in polytope call it directly on
    Python lists: on the polytope benchmark they make about 3 calls a
    request, four in ten on graphs of at most 3 states, where this
    costs 3-6 us a call against 13-20 us through class_roots.

    A state whose component is complete gets the index n, above every
    low-link, so it never lowers one and no on-stack flag is kept; the
    stack holds v and the states above it from where[v] on.
    """
    n = len(offsets) - 1
    index = [-1] * n
    low = [0] * n
    where = [0] * n
    depth = [0] * n
    nxt = list(offsets[:-1])        # each state's next edge to scan
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        where[root] = len(stack)
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            k, end, lv = nxt[v], offsets[v + 1], low[v]
            child = -1
            while k < end:
                w = targets[k]
                k += 1
                if index[w] < 0:
                    child = w
                    break
                if index[w] < lv:
                    lv = index[w]
            nxt[v], low[v] = k, lv
            if child >= 0:
                index[child] = low[child] = counter
                counter += 1
                depth[child] = len(path)
                where[child] = len(stack)
                stack.append(child)
                path.append(child)
                continue
            path.pop()
            if lv == index[v]:
                comp = stack[where[v]:]
                del stack[where[v]:]
                for w in comp:
                    index[w] = n
                components.append(tuple(sorted(comp)) if len(comp) > 1 else (v,))
            if path and lv < low[path[-1]]:
                low[path[-1]] = lv
    return components, depth


def _target_segments(dst):
    """The stable order of the edges by target, and the head of each
    target's segment in that order."""
    counts = np.bincount(dst)
    return np.argsort(dst, kind="stable"), np.cumsum(counts) - counts


def _edge_operator(src, dst, weights, segments=None):
    """The map v -> (log of the sum over the edges (i, j) into each
    target j of exp(v_i + weight)), for targets 0..max(dst).

    The edges are sorted stably by target once (segments, from
    _target_segments(dst) unless given); a step is then one
    np.logaddexp.reduceat over the target segments.  reduceat folds
    each segment left to right, in edge order, which is the order in
    which logaddexp's ufunc.at applies the same updates to -inf, and
    logaddexp(-inf, x) is x, so a step is bit for bit that scatter.
    Every target must have an edge: an empty segment would read its
    neighbour's first entry.
    """
    order, heads = _target_segments(dst) if segments is None else segments
    src, weights = src[order], weights[order]
    return lambda v: np.logaddexp.reduceat(v[src] + weights, heads)


def _power_vector(src, dst, w, k, period, cap, segments):
    """Log radius, log Perron vector and bracket of v -> v M on a class.

    Power iteration from the all-ones vector in log domain, normalized
    by the maximum.  The growth over one period is bracketed by the
    Collatz-Wielandt bounds, min and max over i of (v M^p)_i / v_i, so
    the stopping rule bounds the error of the midpoint by half the
    bracket width.  v M^p settles on each cyclic subclass separately;
    the sum of rho^-t v M^t over one period is the Perron vector of M
    itself.  Swapping src and dst gives the right vector.  segments is
    _target_segments(dst), which SpectralCache keeps per class.  Returns
    None when the bracket is still too wide after cap steps.  The class
    is strongly connected with k > 1 states, so every state is a target.
    The bracket is computed in floating point, with no allowance for
    rounding, so it is an estimate, not an enclosure of log rho.
    """
    step = _edge_operator(src, dst, w, segments)
    v = np.zeros(k)
    steps = 0
    while steps < cap:
        sweep = [v]
        for _ in range(period):
            sweep.append(step(sweep[-1]))
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


def _cycle_perron(succ, w, vectors):
    """(log rho, right, left, bracket) of a class that is one cycle (a
    loop if k = 1): local state i's one internal edge goes to succ[i]
    with weight w[i].  rho^k is the product of the k edge weights
    (Seneta 1981, 1.3), so log rho is their mean.  It sums the quotients
    w / k, which cannot overflow, in one reduceat segment as
    SpectralCache.log_radii does, bit for bit, so a loop keeps its
    weight, -0.0 included.  The bracket encloses the exact mean: log rho
    widened by its rounding error (_mean_gap), so it has width 0 exactly
    when the rounded mean is exact, as on every loop.  right and left
    are the Perron vectors when vectors, else None: M r = rho r steps
    along the cycle as log r(succ i) = log r(i) + log rho - w[i], summed
    from state 0 in the order of a cumulative sum, and l is 1 / r.  The
    steps are taken as mean(d) - d[i] with d = w - w[0], not from the
    rounded log rho, whose error at the weights' scale (about 1e84 at
    1e100) would dwarf them, so equal weights give r = 1 exactly."""
    k = w.size
    x = w / k
    logrho = float(np.add.reduceat(x, [0])[0])
    # a loop's mean is its one weight
    gap = _mean_gap(w, x, logrho) if k > 1 and math.isfinite(logrho) else 0.0
    bracket = ((math.nextafter(logrho - gap, -math.inf),
                math.nextafter(logrho + gap, math.inf)) if gap
               else (logrho, logrho))
    if not vectors:
        return logrho, None, None, bracket
    if logrho == -np.inf:
        raise ConvergenceFailure(0)
    # halved, so that no difference overflows where no step does
    d = w / 2 - w[0] / 2
    nxt, steps = succ.tolist(), (2 * (np.sum(d / k) - d)).tolist()
    log_r, i = [0.0] * k, 0
    for _ in range(k - 1):
        log_r[nxt[i]] = log_r[i] + steps[i]
        i = nxt[i]
    log_r = np.array(log_r)
    right = np.exp(log_r - log_r.max())
    left = np.exp(log_r.min() - log_r)
    return logrho, right / right.sum(), left / left.sum(), bracket


def _mean_gap(w, x, mean):
    """A bound on |sum(w) / k - mean| for the k finite floats w and
    their quotients x = w / k, 0 only when mean is the exact mean.

    The gap is (sum(x) - mean) + sum(w - k x) / k.  Each remainder
    w - k x is a float, and the split of x into x_hi, its top 26 bits,
    and x - x_hi makes it exactly (w - k x_hi) - k (x - x_hi) for
    k < 2**26 (Dekker 1971, Numer. Math. 18; Higham 2002, ch. 4).
    math.fsum rounds each sum once, so the two divisions and sums add
    at most 4 units of roundoff, which the factor 1 + 2**-50 and one
    subnormal cover.
    """
    k = w.size
    x_hi = (x.view(np.int64) & np.int64(-(1 << 27))).view(np.float64)
    rem = (w - k * x_hi) - k * (x - x_hi)
    a, b = math.fsum([*x.tolist(), -mean]), math.fsum(rem.tolist())
    if a == 0.0 and b == 0.0:
        return 0.0
    return (abs(a) + abs(b) / k) * (1.0 + 2.0 ** -50) + 5e-324


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


class _Reach:
    """A breadth-first reach from pivot over a CSR relation, one numpy
    pass per level, entering no state marked in seen (which it marks as
    it goes).  level is each state's level, -1 while unreached."""

    def __init__(self, offsets, targets, pivot, seen):
        self.offsets, self.targets, self.seen = offsets, targets, seen
        self.level = np.full(seen.size, -1, dtype=np.int64)
        self.slot = np.empty(seen.size, dtype=np.int64)
        self.level[pivot] = 0
        seen[pivot] = True
        self.frontier = np.array([pivot])
        self.depth = 0

    def step(self):
        """Reach the next level."""
        heads = self.offsets[self.frontier]
        counts = self.offsets[self.frontier + 1] - heads
        ends = np.cumsum(counts)
        succ = self.targets[np.arange(ends[-1])
                            + np.repeat(heads - ends + counts, counts)]
        succ = succ[~self.seen[succ]]
        # one copy of each: the last write to slot[s] names one position
        self.slot[succ] = np.arange(succ.size)
        succ = succ[self.slot[succ] == np.arange(succ.size)]
        self.depth += 1
        self.seen[succ] = True
        self.level[succ] = self.depth
        self.frontier = succ

    def confine(self, within):
        """Enter no more states outside the mask within."""
        self.seen |= ~within
        self.frontier = self.frontier[within[self.frontier]]


def _tarjan_roots(offsets, targets):
    """Each state's class root and Tarjan's depths, on a CSR relation."""
    comps, depth = strongly_connected_components(offsets.tolist(),
                                                 targets.tolist())
    root = np.arange(len(depth))
    multi = [c for c in comps if len(c) > 1]
    # each class is sorted, so its least state comes first
    root[[v for c in multi for v in c]] = [c[0] for c in multi for _ in c]
    return root, np.array(depth)


def reach_roots(n, src, dst):
    """Each state's class root, its class's least state, and depths
    that give the class periods (see SpectralCache), by numpy passes
    and Tarjan on what they leave, for the edges src -> dst over n
    states sorted by source.

    One trim pass: a state with no in-edge or no out-edge besides its
    loop is its own class.  The least state left is the pivot.  Two
    breadth-first reaches from it, over the edges forwards and
    backwards, step level by level in turn; once one ends, the other
    keeps to the states the first reached.  The states both reach are
    the pivot's class (McLendon, Hendrickson, Plimpton & Rauchwerger,
    J. Parallel Distrib. Comput. 65, 2005), and the forward levels are
    its depths.  Tarjan takes the states left after that, or every
    state the trim left once the reaches have spent their budget of
    (n + m) // ROUND_SIZE levels: a long cycle needs a level per state,
    and a numpy pass costs about as much as Tarjan on a few dozen states
    and edges.  The trim is not repeated: on a chain of loops each pass
    would peel one state.
    """
    rounds = (n + src.size) // ROUND_SIZE
    root = np.arange(n)
    depth = np.zeros(n, dtype=np.int64)
    other = src != dst
    src, dst = src[other], dst[other]
    left = ((np.bincount(src, minlength=n) > 0)
            & (np.bincount(dst, minlength=n) > 0))
    inside = left[src] & left[dst]
    src, dst = src[inside], dst[inside]
    if not left.any():
        return root, depth
    pivot = int(np.argmax(left))
    order = np.argsort(dst, kind="stable")
    ahead = _Reach(csr_offsets(src, n), dst, pivot, ~left)
    back = _Reach(csr_offsets(dst[order], n), src[order], pivot, ~left)
    steps = 0
    while ahead.frontier.size and back.frontier.size and steps < rounds:
        ahead.step()
        back.step()
        steps += 2
    # the class lies within whichever reach ended first
    if not ahead.frontier.size:
        back.confine(ahead.level >= 0)
    elif not back.frontier.size:
        ahead.confine(back.level >= 0)
    rest = ahead if ahead.frontier.size else back
    while rest.frontier.size and steps < rounds:
        rest.step()
        steps += 1
    if not rest.frontier.size:
        members = np.flatnonzero((ahead.level >= 0) & (back.level >= 0))
        root[members] = pivot
        depth[members] = ahead.level[members]
        left[members] = False
        inside = left[src] & left[dst]
        src, dst = src[inside], dst[inside]
    states = np.flatnonzero(left)
    if states.size:
        local = np.cumsum(left) - 1
        rest, depth[states] = _tarjan_roots(
            csr_offsets(local[src], states.size), local[dst])
        root[states] = states[rest]
    return root, depth


def class_roots(n, src, dst):
    """Each state's class root, the least state of its class, and the
    depths SpectralCache takes class periods from, for the edges
    src -> dst over n states, in any order; a state may have no edge
    out.  The edges are sorted by source once, unless they already are
    (as a relation's are), then go to Tarjan when there are fewer than
    CLASS_MIN states and edges, and to reach_roots otherwise."""
    if np.any(src[1:] < src[:-1]):
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
    if n + src.size >= CLASS_MIN:
        return reach_roots(n, src, dst)
    return _tarjan_roots(csr_offsets(src, n), dst)


def _class_edges(n, src, dst, root):
    """Index the classes and the edges inside each in one vectorized
    pass, from each state's class root, for the edges src -> dst over n
    states.

    The classes are numbered by their least state.  Returns them as
    sorted tuples, the state -> class label array, the class sizes,
    the local source and target indices of the internal edges with
    their indices in src and dst, each as one array grouped by class and
    in edge order within a class, and the offsets of the classes'
    groups as an array: class c owns the entries offsets[c]:offsets[c + 1].
    """
    roots = np.flatnonzero(root == np.arange(n))
    label = np.searchsorted(roots, root)
    sizes = np.bincount(label)
    members = np.argsort(label, kind="stable")
    starts = np.cumsum(sizes) - sizes
    local = np.empty(n, dtype=np.int64)
    local[members] = np.arange(n) - np.repeat(starts, sizes)
    components = list(zip(roots.tolist()))
    for c in np.flatnonzero(sizes > 1).tolist():
        components[c] = tuple(members[starts[c]:starts[c] + sizes[c]].tolist())
    inside = np.flatnonzero(label[src] == label[dst])
    inside = inside[np.argsort(label[src[inside]], kind="stable")]
    offsets = csr_offsets(label[src[inside]], roots.size)
    return (components, label, sizes, local[src[inside]], local[dst[inside]],
            inside, offsets)


class SpectralCache:
    """Perron data of the spectral classes of a fixed edge graph, the
    edges src -> dst over n states (in any order; a state may have no
    edge out).  A weight vector is aligned with src and dst.

    The classes (strongly connected components), the edges inside
    them and the target order of a power class's edges depend only on
    the support, so they are indexed once per relation
    (FiniteCorrespondence.spectral_cache); every quantity for a given
    potential then comes from solve(), the one Perron routine.  The
    classes are numbered by their least state.  class_roots finds them
    by Tarjan (strongly_connected_components) on a relation of fewer
    than CLASS_MIN states and edges; on a larger one reach_roots peels
    off the states a trim pass and one forward-backward reach settle
    and leaves the rest to Tarjan.
    A class that is one cycle takes a closed form, other classes of up
    to DENSE_MAX states a dense eigensolve, larger ones a sparse power
    iteration.  The cache keeps no reference to the relation, so the
    relation it is memoised on is freed by reference counting alone.
    """

    def __init__(self, n, src, dst):
        root, depth = class_roots(n, src, dst)
        (self.components, self.class_of, self.sizes, self._rows, self._cols,
         self._eidx, bounds) = _class_edges(n, src, dst, root)
        self._offsets = bounds.tolist()
        # a class with as many internal edges as states is one cycle, a
        # loop if it has one state: its edges, the cycle lengths and the
        # heads of their groups give log_radii every cycle's mean at once
        counts = bounds[1:] - bounds[:-1]
        cycle = counts == self.sizes
        lengths = self.sizes[cycle]
        self._cycles = (np.flatnonzero(cycle),
                        self._eidx[np.repeat(cycle, counts)],
                        np.repeat(lengths, lengths),
                        np.cumsum(lengths) - lengths)
        self._others = np.flatnonzero(~cycle & (self.sizes > 1)).tolist()
        # The depths within a class are the lengths of paths inside it
        # from one state r, shifted alike: Tarjan's class is a subtree
        # of its depth-first forest, and the reach's levels count from
        # the pivot.  So for an edge (i, j) inside the class
        # depth(i) + 1 - depth(j) is the length of the closed walk
        # r -> i -> j -> r less that of r -> j -> r: the period divides
        # it.  A cycle's length is the sum of its edges' gaps, so their
        # gcd is the period.
        gaps = depth[src] + 1 - depth[dst]
        self.periods = {c: int(np.gcd.reduce(gaps[self.class_edges(c)[2]]))
                        for c in np.flatnonzero(self.sizes > 1).tolist()}
        # the target order of each power class, left and right
        self.segments = {}
        for c in self._others:
            if self.sizes[c] > DENSE_MAX:
                rows, cols, _ = self.class_edges(c)
                self.segments[c] = (_target_segments(cols),
                                    _target_segments(rows))
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
        when vectors is false.  A class that is one cycle, a loop
        included, takes _cycle_perron at any size and weight span, with
        a bracket that encloses its exact mean weight.  Other classes of
        up to DENSE_MAX states take a dense eigensolve, with bracket None;
        larger ones a power iteration, whose bracket is the
        Collatz-Wielandt interval that stopped it, computed in floating
        point and so an estimate, not an enclosure as a cycle's is; or
        the dense route if it cannot settle within its step budget, in
        this and every later call on this cache.  A class with no
        internal edge, or whose internal weights are all -inf, has
        log rho = -inf and no Perron vectors.
        """
        rows, cols, eidx = self.class_edges(c)
        w = values[eidx]
        k = len(self.components[c])
        if eidx.size == k:
            # one internal edge per state: one cycle, a loop when k == 1
            return _cycle_perron(cols, w, vectors)
        shift = float(w.max(initial=-np.inf))
        if shift == -np.inf:
            # -inf weights are absent edges: the class matrix is zero
            if vectors:
                raise ConvergenceFailure(0)
            return -np.inf, None, None, (-np.inf, -np.inf)
        if k > DENSE_MAX and c not in self.slow:
            # past about k^3 / edges steps a dense eigensolve is cheaper,
            # so a class that mixes too slowly falls through to it
            cap = min(POWER_CAP, k ** 3 // eidx.size)
            to_cols, to_rows = self.segments[c]
            left = _power_vector(rows, cols, w, k, self.periods[c], cap, to_cols)
            if left is not None:
                logrho, left_vec, bracket = left
                if not vectors:
                    return logrho, None, None, bracket
                right = _power_vector(cols, rows, w, k, self.periods[c], cap,
                                      to_rows)
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
        """log rho of every class, as a float array: the cycle classes in
        one segment sum of their weights over their lengths, bit for bit
        solve()'s, -inf on one-state classes with no loop, and solve()
        on the others."""
        radii = np.full(len(self.components), -np.inf)
        cycles, edges, lengths, heads = self._cycles
        radii[cycles] = np.add.reduceat(values[edges] / lengths, heads)
        for c in self._others:
            radii[c] = self.solve(c, values, vectors=False)[0]
        return radii

    def dominant(self, values):
        """(pressure, dominant classes, log radii).  The pressure is the
        first maximal radius, as Python's max picks it, which fixes the
        sign of a zero."""
        radii = self.log_radii(values)
        top = float(radii[np.argmax(radii)])
        if top == -np.inf:
            return top, [], radii
        dom = np.flatnonzero(top - radii <= TIE_TOL).tolist()
        return top, dom, radii


@dataclass(frozen=True)
class SpectralResult:
    pressure: float
    components: tuple
    log_radii: tuple
    dominant: tuple


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
    return SpectralResult(top, tuple(cache.components), tuple(radii.tolist()),
                          tuple(dom))


def path_pressure_sequence(corr, phi, n_max):
    """The sequence a_n for n = 1..n_max via the log-domain recursion.

    a_n converges to the pressure; for a primitive relation the gap
    |a_n - P| is of order 1/n.  It is -inf from the first n at which
    every walk has an edge of weight -inf, as it is from n = n_states on
    when the pressure is -inf.  n_max < 1 is ShapeMismatch, n_max above
    PATH_MAX is TooLarge.

    The recursion runs on the relation plus one sink state k.  Every
    state feeds the sink at weight 0, so after step n + 1 the sink holds
    the log of the total weight T(n) of the walks of n steps; the sink
    feeds each state that no edge enters at weight -inf, which gives it
    a segment and changes no value.  A step is then one reduction over
    at most |E| + 2k entries (see _edge_operator), with no warning at
    -inf, and every step taken is bit for bit the scatter.

    The steps go in sweeps of SWEEP.  After a sweep from x to x M^SWEEP
    with every entry finite, lo and hi, the minimum and maximum over
    the states of the log growth, bound the growth T(m + SWEEP) - T(m)
    at every later m (Collatz-Wielandt).  Once hi - lo is at most
    BRACKET_TOL * SWEEP, stepping stops: each later T(m) is the total at
    the same offset in the last sweep plus whole sweeps at the midpoint
    (lo + hi) / 2, so each a_m of the tail lies within BRACKET_TOL / 2
    of the exact recursion, not bit for bit.  A relation whose growth
    never settles takes every step: a period that does not divide
    SWEEP, dominant classes that tie, a state stuck at -inf, or a state
    that no dominant class reaches.  On {(0, 0), (1, 0), (1, 1)} with
    weights (1, 0, 0), state 1 feeds only the dominant loop at 0: its
    own walks grow by 0 a step against 1 at state 0, so the bracket
    stays SWEEP wide.
    """
    if n_max < 1:
        raise ShapeMismatch("n_max must be at least 1")
    if n_max > PATH_MAX:
        raise TooLarge(f"path horizon {n_max} exceeds {PATH_MAX}")
    k = corr.n_states
    src, dst = corr.edge_arrays()
    states = np.arange(k)
    unfed = np.flatnonzero(np.bincount(dst, minlength=k) == 0)
    step = _edge_operator(
        np.concatenate([src, states, np.full(unfed.size, k)]),
        np.concatenate([dst, np.full(k, k), unfed]),
        np.concatenate([phi.values, np.zeros(k), np.full(unfed.size, -np.inf)]))
    v = np.zeros(k + 1)
    totals = np.empty(n_max + 1)
    start = v[:k]                   # finite, or None: no bracket from it
    for head in range(0, n_max + 1, SWEEP):
        end = min(head + SWEEP, n_max + 1)
        for n in range(head, end):
            v = step(v)
            totals[n] = v[k]
        if end > n_max:
            break
        here = v[:k]
        if start is None:
            start = here if np.isfinite(here).all() else None
            continue
        # start is finite, so a state at -inf gives -inf, not a warning,
        # and a bracket that is not finite never closes
        growth = here - start
        lo, hi = float(growth.min()), float(growth.max())
        if hi - lo <= BRACKET_TOL * SWEEP:
            ahead = np.arange(end, n_max + 1) - head
            totals[end:] = (totals[head + ahead % SWEEP]
                            + ahead // SWEEP * ((lo + hi) / 2.0))
            break
        start = here if math.isfinite(lo) and math.isfinite(hi) else None
    return totals[1:] / np.arange(1, n_max + 1)


@dataclass(frozen=True)
class DecompositionPressure:
    value: float
    block_values: tuple


def decomposition_pressure(corr, phi, decomp):
    """Max of the block pressures of a valid generating cover, a
    Decomposition.

    A block's pressure is the largest log radius over the classes of
    the relation induced on it, read off the relation's own class index:
    no restricted relation is built.  The classes of an induced relation
    refine those of the whole one.  A class wholly inside the block is a
    class of the block's relation with the same class matrix, local
    order, edge order and period, so its radius is bit for bit the one a
    restricted solve gives.  A class can straddle a block only when
    blocks overlap; the block's states in such classes get one class
    index of their own over the edges among them.  In a valid cover the
    last block holding a state never decreases along an edge, so every
    class lies wholly inside some block and log_radii solves none for
    nothing.  The bit-for-bit parity holds while the shared index has
    no class marked slow: a class an earlier call sent to the dense
    eigensolve gives its radius within the solver's tolerance.  An
    empty block is IndexOutOfRange, as the relation on no states is.
    """
    report = decomposition_validate(corr, decomp)
    if not report["valid"]:
        raise InvalidDecomposition(report)
    cache = corr.spectral_cache()
    radii = cache.log_radii(phi.values)
    src, dst = corr.edge_arrays()
    vals = []
    for block in decomp.blocks:
        if not block:
            raise IndexOutOfRange([], 0)
        states = np.array(block, dtype=np.int64)
        label = cache.class_of[states]
        # each state carries its class's radius; in state order the
        # first maximal entry lies in the maximal class of least first
        # state, the one max over a restricted index returns (which
        # fixes the sign of a zero)
        r = radii[label]
        held = np.bincount(label, minlength=cache.sizes.size)
        split = held[label] < cache.sizes[label]
        if split.any():
            part = states[split]
            pos = np.full(corr.n_states, -1, dtype=np.int64)
            pos[part] = np.arange(part.size)
            a, b = pos[src], pos[dst]
            keep = (a >= 0) & (b >= 0)
            sub = SpectralCache(part.size, a[keep], b[keep])
            r[split] = sub.log_radii(phi.values[keep])[sub.class_of]
        vals.append(float(r[np.argmax(r)]))
    return DecompositionPressure(float(max(vals)), tuple(vals))
