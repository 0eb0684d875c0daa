"""Invariant measures of a correspondence and their polytope.

A state measure mu is invariant when some pair measure on the edges
has both marginals equal to mu; equivalently some kernel supported by
the edges fixes mu, and equivalently mu(A) <= mu(preimage of A) for
every subset A.  The set of such mu is a polytope whose extreme points
are the marginals of the simple cycles that are the only cycle cover
of the relation on their states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ModeUnsupported,
    NotAFunctionOnBlock,
    NotInvariant,
    NotInvariantOnBlock,
    NotSurjective,
    TooLarge,
)
from .kernels import TransitionKernel, kernel_from_pair, validate_measure
from .pressure import strongly_connected_components

WITNESS_TOL = 1e-10
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


def _hall_flow(corr, mu, exact):
    """Invariance of mu by one maximum flow, with a certificate either way.

    The network is s -> i (capacity mu_i) -> j' (one unbounded arc per
    edge (i, j)) -> t (capacity mu_j).  By Gale's supply-demand theorem
    (Gale 1957, Pacific J. Math. 7) and max-flow/min-cut (Ford &
    Fulkerson 1956), its value falls short of the mass of mu by
    max over A of mu(A) - mu(pre A), the deficiency; mu is invariant
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
    n = corr.n_states
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
    for i, j in corr.edges:
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
    image = {j for i in queue if i < n for j in corr.successors(i)}
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
        corr, list(mu) if exact else checked.tolist(), exact)
    by_mode = {k: verdict for k in ("lp", "subsets") if mode in (k, "both")}
    if not verdict:
        return InvarianceCheck(False, by_mode, None, None, subset)
    pair = np.array(pair, dtype=object if exact else float)
    return InvarianceCheck(True, by_mode, pair, kernel_from_pair(corr, pair), None)


def _simple_cycles(corr):
    """Simple cycles, as state tuples from their least state.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975) without recursion:
    a search lists the cycles through the least state s of a strong
    component, keeping a state blocked until a cycle closes below it;
    then the component without s is split again.  Time O((states +
    edges)(cycles + 1)); TooLarge as soon as cycles x (states + edges)
    passes CYCLE_WORK_CAP.
    """
    size = corr.n_states + corr.n_edges
    cycles, work = [], [list(range(corr.n_states))]
    while work:
        states = work.pop()
        local = {v: k for k, v in enumerate(states)}
        succ = [[local[w] for w in corr.successors(v) if w in local]
                for v in states]
        comps = strongly_connected_components(len(states), succ)
        if len(comps) != 1:
            work.extend([states[k] for k in c] for c in comps)
            continue
        work.append(states[1:])    # one strong component; s = states[0]
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
                cycles.append(tuple(states[f[0]] for f in stack))
                if len(cycles) * size > CYCLE_WORK_CAP:
                    raise TooLarge(f"{len(cycles)} cycles x {size} > {CYCLE_WORK_CAP}")
            elif w not in blocked:
                blocked.add(w)
                stack.append((w, iter(succ[w]), len(cycles)))
    return cycles


def _sole_cycle_cover(corr, cycle):
    """Whether the cycle is the only cycle cover of the relation on its states.

    That is, the perfect matching i -> next(i) has no alternating cycle:
    the arcs i -> pred(j), one per edge (i, j) inside the states and off
    the cycle, close none.  pred(j) = i makes (i, j) a cycle edge, so no
    arc is a self-arc and acyclic means all strong components are single.
    """
    pos = {v: k for k, v in enumerate(cycle)}
    m = len(cycle)
    arcs = [[(pos[j] - 1) % m for j in corr.successors(v)
             if j in pos and pos[j] != (k + 1) % m]
            for k, v in enumerate(cycle)]
    return len(strongly_connected_components(m, arcs)) == m


@dataclass(frozen=True, eq=False)
class PolytopeExtremes:
    pair_vertices: tuple       # exact edge vectors (tuples of Fraction)
    projections: tuple         # exact state marginals of the vertices
    extremes_exact: tuple      # surviving extreme marginals, exact
    extremes: tuple            # same, as float arrays


def invariant_polytope_extremes(corr):
    """Extreme points of the invariant-measure polytope, exactly.

    The vertices of the pair polytope (balanced mass-one edge vectors)
    are the uniform measures on simple cycles.  The marginal of a cycle
    C on states S is extreme exactly when C is the only cycle cover of
    the relation on S: the pair measures with that marginal mix those
    covers (Birkhoff-von Neumann), and a second cover has an edge off C
    closing a shorter cycle inside S.  So a state set carried by two
    cycles is dropped for both.  Raises TooLarge when cycles x (states
    + edges) passes CYCLE_WORK_CAP.
    """
    index = corr.edge_index()
    zero = Fraction(0)   # one shared zero keeps tuple comparisons cheap
    found = []
    for cycle in _simple_cycles(corr):
        vertex, marg = [zero] * corr.n_edges, [zero] * corr.n_states
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            vertex[index[(i, j)]] = marg[i] = Fraction(1, len(cycle))
        found.append((tuple(vertex), tuple(marg), cycle))
    found.sort()
    keep = sorted(p for _, p, c in found if _sole_cycle_cover(corr, c))
    return PolytopeExtremes(
        tuple(f[0] for f in found),
        tuple(f[1] for f in found),
        tuple(keep),
        tuple(np.array([float(v) for v in p]) for p in keep),
    )


DECOMP_SUBSET_CAP = 200000


def extremal_decomposition(corr, mu, extremes=None):
    """Write an invariant measure as a convex combination of extremes.

    Among all feasible combinations the one with the fewest atoms is
    returned, ties resolved by lexicographic order of the index set.
    Only extremes supported inside supp mu can carry weight, since
    {nu : supp nu in supp mu} is a face, so the search runs on those;
    the returned indices refer to the full returned pool.  Exact
    arithmetic is used when mu is given in rationals.
    """
    exact = all(isinstance(v, (int, Fraction)) for v in mu)
    if extremes is None:
        extremes = invariant_polytope_extremes(corr)
    pool = extremes.extremes_exact if exact else [tuple(map(float, p))
                                                 for p in extremes.extremes_exact]
    n = corr.n_states
    face = [k for k, p in enumerate(pool)
            if all(mu[i] > 0 for i in range(n) if p[i] != 0)]
    # mu mixes extremes exactly when it is invariant: the polytope is
    # their hull, and only the face extremes can carry weight
    invariant, _, subset = _hall_flow(
        corr, list(mu) if exact else [float(v) for v in mu], exact)
    if not invariant:
        raise NotInvariant(subset)
    target = list(mu) + [1 if exact else 1.0]
    rows_full = [[pool[k][i] for k in face] for i in range(n)]
    rows_full.append([1] * len(face) if exact else [1.0] * len(face))
    tol = 0 if exact else 1e-9
    tried = 0
    for s in range(1, len(face) + 1):
        for combo in itertools.combinations(range(len(face)), s):
            tried += 1
            if tried > DECOMP_SUBSET_CAP:
                raise TooLarge("atom-minimal search budget exhausted")
            sub = [[rows_full[r][c] for c in combo] for r in range(n + 1)]
            kind, lam = gauss_solve(sub, target, exact=exact)
            # a feasible dependent subset has a basic solution on a
            # smaller independent one (Caratheodory), tried before it
            if kind != "unique":
                continue
            if all(v >= -tol for v in lam):
                weights = [max(v, 0) for v in lam]
                return [face[c] for c in combo], weights, pool
    raise NotInvariant()


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
    if exact:
        conv = Fraction
        def nonzero(v):
            return v != 0
    else:
        conv = float
        def nonzero(v):
            return abs(v) > 1e-11
    rows = [[conv(v) for v in A[i]] + [conv(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for col in range(n):
        sel = -1
        if exact:
            for i in range(r, m):
                if nonzero(rows[i][col]):
                    sel = i
                    break
        else:
            best = 0.0
            for i in range(r, m):
                if abs(rows[i][col]) > max(best, 1e-11):
                    best = abs(rows[i][col])
                    sel = i
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and nonzero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [a - f * bv for a, bv in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if nonzero(rows[i][-1]):
            return "none", None
    x = [conv(0)] * n
    for i, col in enumerate(pivots):
        x[col] = rows[i][-1]
    return ("unique" if r == n else "many"), x


@dataclass(frozen=True, eq=False)
class HatLift:
    measure: np.ndarray
    kernel: TransitionKernel
    block_map: dict


def hat_lift(corr, block, mu_block, variant="forward"):
    """Extend a measure invariant on a block to the whole space.

    Forward variant: the correspondence restricted to the block is the
    graph of a map f, and mu_block must be f-invariant.  Inverse
    variant: the restriction is the inverse graph of a map g (each
    block state has exactly one block predecessor) and the whole
    correspondence must be surjective; mu_block must be g-invariant.
    The extension by zero is invariant, witnessed by the returned
    kernel.
    """
    block = sorted(set(block))
    bset = set(block)
    mu_block = validate_measure(len(block), mu_block)
    local = {s: k for k, s in enumerate(block)}
    n = corr.n_states
    if variant not in ("forward", "inverse"):
        raise ModeUnsupported(f"unknown variant {variant!r}")
    missing = [j for j in range(n) if not corr.predecessors(j)]
    if variant == "inverse" and missing:
        raise NotSurjective(missing)
    step = corr.successors if variant == "forward" else corr.predecessors
    fmap = {}
    for y in block:
        inside = [x for x in step(y) if x in bset]
        if len(inside) != 1:
            raise NotAFunctionOnBlock(y, inside)
        fmap[y] = inside[0]
    push = np.zeros(len(block))
    for y in block:
        push[local[fmap[y]]] += mu_block[local[y]]
    gap = float(np.max(np.abs(push - mu_block)))
    if gap > WITNESS_TOL:
        raise NotInvariantOnBlock(f"block map does not fix the measure (gap {gap:.3e})")
    mu_hat = np.zeros(n)
    for y in block:
        mu_hat[y] = mu_block[local[y]]
    index = corr.edge_index()
    q = np.zeros(corr.n_edges)
    for x in range(n):
        if variant == "forward" and x in bset:
            q[index[(x, fmap[x])]] = 1.0
        elif variant == "inverse" and x in bset and mu_hat[x] > 0.0:
            ys = [y for y in block if fmap[y] == x]
            row = [index[(x, y)] for y in ys]
            q[row] = mu_hat[ys] / mu_hat[x]
            # rounding headroom: renormalize the row exactly
            q[row] /= np.sum(q[row])
        else:
            q[index[(x, corr.successors(x)[0])]] = 1.0
    return HatLift(mu_hat, TransitionKernel(corr, q), fmap)
