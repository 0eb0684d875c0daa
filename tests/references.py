"""Test-side references for the invariance flow and the cycle polytope.

A dense two-phase simplex on Python lists (Bland's rule, exact with
Fraction entries), the coupling LP built on it, and the bitmask Hall
program over all 2^n target subsets.  They are slow and capped by
nothing but patience, so they serve the tests only, as independent
references for corrpress.polytope.
"""

from fractions import Fraction

from corrpress.polytope import FEAS_TOL

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
