"""Invariant measures of a correspondence and their polytope.

A state measure mu is invariant when some pair measure on the edges
has both marginals equal to mu; equivalently some kernel supported by
the edges fixes mu, and equivalently mu(A) <= mu(preimage of A) for
every subset A.  The set of such mu is a polytope whose extreme points
are the marginals of the simple cycles that are the only cycle cover
of the relation on their states.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ModeUnsupported, NotInvariant, TooLarge
from .kernels import TransitionKernel, kernel_from_pair, validate_measure
from .pressure import strongly_connected_components

# the mass a coupling may miss, and a subset may exceed its preimage by
FEAS_TOL = 1e-9
# a float residual at or below this counts as saturated in the flow
SATURATED = 1e-14
# bound on cycles x (states + edges): Johnson's time and the vertex table
CYCLE_WORK_CAP = 10 ** 6


@dataclass(frozen=True, eq=False)
class InvarianceCheck:
    invariant: bool
    by_mode: dict
    witness_pair: np.ndarray | None
    witness_kernel: TransitionKernel | None
    violating_subset: tuple | None


def _hall_flow(n, edges, mu, exact):
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


def is_invariant(corr, mu, mode="both"):
    """Decide invariance of a state measure, with a certificate either way.

    One maximum flow decides (see _hall_flow), for any number of
    states.  mu is invariant when the flow carries all of its mass but
    FEAS_TOL; when every weight is an int or a Fraction the arithmetic
    is exact and the flow must carry all of it.  The flow on the edges
    is then witness_pair, with both marginals mu (a Fraction vector in
    the exact case), and witness_kernel its row normalization.
    Otherwise violating_subset is a set A with mu(A) > mu(pre A) +
    FEAS_TOL (or > mu(pre A), exactly).

    mode picks only the keys of by_mode: "lp" (a coupling exists),
    "subsets" (no subset outgrows its preimage), or both.  Every mode
    runs the one flow once, and the two keys always agree.  The modes
    stay for the benchmark scripts that call them by name, until the
    benchmark reads the solver trace (ROADMAP item 1).
    """
    exact = all(isinstance(v, (int, Fraction)) for v in mu)
    checked = validate_measure(corr.n_states, mu)
    if mode not in ("lp", "subsets", "both"):
        raise ModeUnsupported(f"unknown mode {mode!r}")
    verdict, pair, subset = _hall_flow(
        corr.n_states, corr.edges, list(mu) if exact else checked.tolist(),
        exact)
    by_mode = {k: verdict for k in ("lp", "subsets") if mode in (k, "both")}
    if not verdict:
        return InvarianceCheck(False, by_mode, None, None, subset)
    pair = np.array(pair, dtype=object if exact else float)
    return InvarianceCheck(True, by_mode, pair, kernel_from_pair(corr, pair), None)


def _csr(rows):
    """CSR offsets and targets of successor lists."""
    return [0, *itertools.accumulate(map(len, rows))], list(itertools.chain(*rows))


def _simple_cycles(corr):
    """Simple cycles, as state tuples from their least state.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975) without recursion:
    a search lists the cycles through the least state s of a strong
    component, keeping a state blocked until a cycle closes below it;
    then the component without s is split again.  A component that a
    split produced is searched with no second split.  Time O((states +
    edges)(cycles + 1)); TooLarge as soon as cycles x (states + edges)
    passes CYCLE_WORK_CAP.
    """
    size = corr.n_states + corr.n_edges
    # state lists, each flagged when it is known to be one strong component
    cycles, work = [], [(list(range(corr.n_states)), False)]

    def add(cycle):
        cycles.append(cycle)
        if len(cycles) * size > CYCLE_WORK_CAP:
            raise TooLarge(f"{len(cycles)} cycles x {size} > {CYCLE_WORK_CAP}")

    while work:
        states, strong = work.pop()
        if len(states) <= 1:
            # a lone state is a cycle exactly when it has a loop
            if states and states[0] in corr.successors(states[0]):
                add((states[0],))
            continue
        local = {v: k for k, v in enumerate(states)}
        succ = [[local[w] for w in corr.successors(v) if w in local]
                for v in states]
        if not strong:
            comps = strongly_connected_components(*_csr(succ))[0]
            if len(comps) != 1:
                work.extend(([states[k] for k in c], True) for c in comps)
                continue
        work.append((states[1:], False))   # one strong component; s = states[0]
        blocked, waiting = {0}, [set() for _ in states]
        stack = [(0, iter(succ[0]), len(cycles))]  # state, successors, count
        while stack:
            v, todo, before = stack[-1]
            w = next(todo, None)
            if w is None:
                stack.pop()
                if len(cycles) == before:
                    for x in succ[v]:
                        waiting[x].add(v)
                    continue
                release = {v}
                while release:
                    u = release.pop()
                    blocked.discard(u)
                    release |= waiting[u] & blocked
                    waiting[u].clear()
            elif w == 0:
                add(tuple(states[f[0]] for f in stack))
            elif w not in blocked:
                blocked.add(w)
                stack.append((w, iter(succ[w]), len(cycles)))
    return cycles


def _sole_cycle_cover(corr, cycle):
    """Whether the cycle is the only cycle cover of the relation on its states.

    That is, the perfect matching i -> next(i) has no alternating cycle:
    the arcs i -> pred(j), one per edge (i, j) inside the states and off
    the cycle, close none.  pred(j) = i makes (i, j) a cycle edge, so no
    arc is a self-arc and acyclic means all strong components are single;
    with no arc at all, as on a loop or a chordless cycle, it is so.
    """
    pos = {v: k for k, v in enumerate(cycle)}
    m = len(cycle)
    arcs = [[(pos[j] - 1) % m for j in corr.successors(v)
             if j in pos and pos[j] != (k + 1) % m]
            for k, v in enumerate(cycle)]
    return not any(arcs) or len(strongly_connected_components(*_csr(arcs))[0]) == m


def _share_rows(size, rows, zero, share):
    """One tuple of size entries per list of cells: share(len(cells)) at
    the cells, zero elsewhere."""
    table = []
    for cells in rows:
        value = share(len(cells))
        row = [zero] * size
        for i in cells:
            row[i] = value
        table.append(tuple(row))
    return table


def _float_rows(size, rows):
    return _share_rows(size, rows, 0.0, lambda k: 1.0 / k)


def _fraction_rows(size, rows):
    # one Fraction per cycle length, and one shared zero, which keeps
    # tuple comparisons cheap
    return tuple(_share_rows(size, rows, Fraction(0),
                             functools.cache(lambda k: Fraction(1, k))))


@dataclass(frozen=True, eq=False)
class PolytopeExtremes:
    """The simple cycles of a relation and its extreme invariant measures.

    Built up front: cycles, the simple cycles as state tuples in the
    order Johnson's search finds them (one pair vertex each), and
    extremes, the marginals of the cycles that are the only cycle cover
    of their states, as float arrays in ascending order.  Built on first
    access and then kept, as tuples of Fraction: pair_vertices, the
    uniform measure on each cycle's edges, ascending, and extremes_exact,
    the extremes.  Every entry is 0 or 1/len(cycle), and 1/k falls as k
    grows in floats as in fractions, so the float tables give both
    orders.
    """
    corr: object = field(repr=False)
    cycles: tuple
    extreme_cycles: tuple      # the cycles of the extremes, in their order
    extremes: tuple

    @functools.cached_property
    def pair_vertices(self):
        index = self.corr.edge_index()
        cells = [[index[e] for e in zip(c, c[1:] + c[:1])] for c in self.cycles]
        keys = _float_rows(self.corr.n_edges, cells)
        order = sorted(range(len(cells)), key=keys.__getitem__)
        return _fraction_rows(self.corr.n_edges, [cells[k] for k in order])

    @functools.cached_property
    def extremes_exact(self):
        return _fraction_rows(self.corr.n_states, self.extreme_cycles)


def invariant_polytope_extremes(corr):
    """Extreme points of the invariant-measure polytope, exactly.

    The vertices of the pair polytope (balanced mass-one edge vectors)
    are the uniform measures on simple cycles.  The marginal of a cycle
    C on states S is extreme exactly when C is the only cycle cover of
    the relation on S: the pair measures with that marginal mix those
    covers (Birkhoff-von Neumann), and a second cover has an edge off C
    closing a shorter cycle inside S.  So a state set carried by two
    cycles is dropped for both.  Raises TooLarge when cycles x (states
    + edges) passes CYCLE_WORK_CAP.  Only the float extremes are built
    here; the exact tables wait for their first reader (see
    PolytopeExtremes).
    """
    cycles = tuple(_simple_cycles(corr))
    sole = [c for c in cycles if _sole_cycle_cover(corr, c)]
    rows = _float_rows(corr.n_states, sole)
    order = sorted(range(len(sole)), key=rows.__getitem__)
    return PolytopeExtremes(corr, cycles, tuple(sole[k] for k in order),
                            tuple(np.array([rows[k] for k in order])))


# bound on (states + 1) x subset size, summed over the subsets the
# search solves: about 3 s of float solves, more with Fraction weights
DECOMP_WORK_CAP = 1_500_000
# a float weight of the face solve above the zero test (1e-11) but at
# most this is too close to zero to rule out a smaller subset that fits
# within rounding
DECOMP_CLEAR = 1e-8


def extremal_decomposition(corr, mu, extremes=None):
    """Write an invariant measure as a convex combination of extremes.

    Among all feasible combinations the one with the fewest atoms is
    returned, ties resolved by lexicographic order of the index set.
    Only extremes supported inside supp mu can carry weight, since
    {nu : supp nu in supp mu} is a face, so only those are tried; the
    returned indices refer to the full returned pool.  Exact arithmetic
    is used when mu is given in rationals.

    One solve of the face system decides most inputs: when the face
    extremes are affinely independent its solution is unique, so mu has
    one decomposition, and its support is the fewest atoms.  Its weights
    are those of the support's own system, which the search below would
    solve for that subset: the same numbers when they are exact or the
    support is the whole face, else that system is solved.  Accepted
    weights, all above DECOMP_CLEAR, certify invariance with no flow:
    they mix invariant extremes, and their mix is mu exactly, or within
    FEAS_TOL / 2 in l1 norm in floats.  Past that distance the flow
    decides before the weights are returned.  Otherwise, or when a float
    weight is nonzero but at most DECOMP_CLEAR, the invariance flow runs
    (NotInvariant with its subset), then the subsets are searched by
    size, then lexicographically.  A subset whose extremes miss a state
    where mu passes the solves' zero test leaves that row of its system
    all zero, so it is not solved.  TooLarge once (states + 1) x subset
    size, summed over the subsets searched, solved or not, passes
    DECOMP_WORK_CAP.
    """
    exact = all(isinstance(v, (int, Fraction)) for v in mu)
    if extremes is None:
        extremes = invariant_polytope_extremes(corr)
    pool = (extremes.extremes_exact if exact
            else [tuple(e.tolist()) for e in extremes.extremes])
    n = corr.n_states
    face = [k for k, p in enumerate(pool)
            if all(mu[i] > 0 for i in range(n) if p[i] != 0)]
    target = list(mu) + [1 if exact else 1.0]
    rows_full = [[pool[k][i] for k in face] for i in range(n)]
    rows_full.append([1] * len(face) if exact else [1.0] * len(face))
    tol = 0 if exact else 1e-9

    def accept(combo, kind, lam):
        if kind == "unique" and all(v >= -tol for v in lam):
            return [face[c] for c in combo], [max(v, 0) for v in lam], pool
        return None

    def solve(combo):
        return accept(combo, *gauss_solve(
            [[row[c] for c in combo] for row in rows_full], target, exact=exact))

    kind, lam = gauss_solve(rows_full, target, exact=exact)
    found = None
    if kind == "unique":
        support = [c for c, v in enumerate(lam) if abs(v) > (0 if exact else 1e-11)]
        if exact or all(abs(lam[c]) > DECOMP_CLEAR for c in support):
            # independent columns: the support's system has the unique
            # solution lam on the support, bit for bit when exact, and
            # in floats when it is the whole system
            if exact or len(support) == len(face):
                found = accept(support, kind, [lam[c] for c in support])
            else:
                found = solve(support)
        # a nonnegative mix of invariant extremes is invariant, and the
        # deficiency of mu exceeds its own by at most their l1 distance
        if found is not None and (exact or _l1_gap(mu, *found) <= FEAS_TOL / 2):
            return found
    # mu mixes extremes exactly when it is invariant: the polytope is
    # their hull, and only the face extremes can carry weight
    invariant, _, subset = _hall_flow(
        n, corr.edges, list(mu) if exact else [float(v) for v in mu], exact)
    if not invariant:
        raise NotInvariant(subset)
    if found is not None:
        return found
    need = sum(1 << i for i in range(n)
               if (mu[i] != 0 if exact else abs(mu[i]) > 1e-11))
    masks = [sum(1 << i for i in range(n) if pool[k][i] != 0) for k in face]
    work = 0
    for s in range(1, len(face) + 1):
        for combo in itertools.combinations(range(len(face)), s):
            work += (n + 1) * s
            if work > DECOMP_WORK_CAP:
                raise TooLarge(f"atom-minimal search: {work} (states + 1) x "
                               f"subset size > {DECOMP_WORK_CAP}")
            if need & ~functools.reduce(operator.or_, map(masks.__getitem__, combo)):
                continue
            # a feasible dependent subset has a basic solution on a
            # smaller independent one (Caratheodory), tried before it
            found = solve(combo)
            if found is not None:
                return found
    raise NotInvariant()


def _l1_gap(mu, indices, weights, pool):
    """sum_i |mu_i - sum_k weights_k pool[indices_k]_i|, in floats."""
    mix = np.asarray(weights, dtype=float) @ np.array([pool[k] for k in indices])
    return float(np.abs(np.asarray(mu, dtype=float) - mix).sum())


def gauss_solve(A, b, exact=True):
    """Solve A x = b by Gaussian elimination.

    Returns (kind, x) with kind one of "none", "unique", "many"; for
    "many" x is one particular solution with free variables at zero.
    With exact=True the entries are converted to Fraction and the
    arithmetic is exact; otherwise floats with partial pivoting are
    used and entries up to 1e-11 count as zero.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    conv = Fraction if exact else float
    rows = [[conv(v) for v in A[i]] + [conv(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for col in range(n):
        sel = -1
        if exact:
            for i in range(r, m):
                if rows[i][col] != 0:
                    sel = i
                    break
        else:
            best = 1e-11
            for i in range(r, m):
                if abs(rows[i][col]) > best:
                    best = abs(rows[i][col])
                    sel = i
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][col]
        pivot = rows[r] = [v / piv for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and (f != 0 if exact else abs(f) > 1e-11):
                rows[i] = [a - f * bv for a, bv in zip(row, pivot)]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        v = rows[i][-1]
        if v != 0 if exact else abs(v) > 1e-11:
            return "none", None
    x = [conv(0)] * n
    for i, col in enumerate(pivots):
        x[col] = rows[i][-1]
    return ("unique" if r == n else "many"), x
