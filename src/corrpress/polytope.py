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
from .simplex import OPTIMAL, gauss_solve, simplex

SUBSET_STATE_CAP = 16
WITNESS_TOL = 1e-10
# the mass a coupling may miss, and a subset may exceed its preimage by
FEAS_TOL = 1e-9
# bound on cycles x (states + edges): Johnson's time and the vertex table
CYCLE_WORK_CAP = 10 ** 6


@dataclass(frozen=True, eq=False)
class InvarianceCheck:
    invariant: bool
    by_mode: dict
    witness_pair: np.ndarray | None
    witness_kernel: TransitionKernel | None
    violating_subset: tuple | None


def _invariant_lp(corr, mu):
    """A pair measure with both marginals mu, or None when there is none.

    Rows: sums over the edges out of each state, then into each state
    but the last (that one follows from the total mass)."""
    a = [[1 if e[0] == i else 0 for e in corr.edges] for i in range(corr.n_states)]
    a += [[1 if e[1] == j else 0 for e in corr.edges] for j in range(corr.n_states - 1)]
    b = [float(v) for v in mu] + [float(v) for v in mu[:-1]]
    status, x, _ = simplex(a, b, [0.0] * corr.n_edges, exact=False, feas_tol=FEAS_TOL)
    if status != OPTIMAL:
        return None
    return np.array([float(v) for v in x])


def _invariant_subsets(corr, mu):
    """Hall-type check over all target subsets, bitmask dynamic programs."""
    n = corr.n_states
    if n > SUBSET_STATE_CAP:
        raise TooLarge(f"subset mode limited to {SUBSET_STATE_CAP} states")
    pred_mask = [0] * n
    for i, j in corr.edges:
        pred_mask[j] |= 1 << i
    size = 1 << n
    mass = [0.0] * size
    pre = [0] * size
    for m in range(1, size):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        mass[m] = mass[rest] + float(mu[low])
        pre[m] = pre[rest] | pred_mask[low]
    for m in range(1, size):
        if mass[m] > mass[pre[m]] + FEAS_TOL:
            return tuple(i for i in range(n) if m >> i & 1)
    return None


def is_invariant(corr, mu, mode="both"):
    """Decide invariance of a state measure, with a witness either way.

    mode "lp" solves the coupling feasibility problem and returns a
    pair-measure witness plus the kernel obtained by row-normalizing
    it; mode "subsets" searches for a violating subset; "both" runs
    the two and reports them side by side.
    """
    mu = validate_measure(corr.n_states, mu)
    if mode not in ("lp", "subsets", "both"):
        raise ModeUnsupported(f"unknown mode {mode!r}")
    by_mode = {}
    pair = None
    violating = None
    if mode in ("lp", "both"):
        pair = _invariant_lp(corr, mu)
        by_mode["lp"] = pair is not None
    if mode in ("subsets", "both"):
        violating = _invariant_subsets(corr, mu)
        by_mode["subsets"] = violating is None
    verdict = by_mode.get("lp", by_mode.get("subsets"))
    kernel = None
    if pair is not None:
        kernel = kernel_from_pair(corr, pair)
    return InvarianceCheck(bool(verdict), by_mode, pair, kernel, violating)


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
    target = list(mu) + [1 if exact else 1.0]
    rows_full = [[pool[k][i] for k in face] for i in range(n)]
    rows_full.append([1] * len(face) if exact else [1.0] * len(face))
    status, _, _ = simplex(rows_full, target, [0] * len(face), exact=exact)
    if status != OPTIMAL:
        raise NotInvariant()
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
