"""Interval systems discretized onto dyadic grids.

All geometry here is exact: breakpoints, slopes and intercepts are
Fractions, and the grid build works per affine piece in integers over
one common denominator, so two runs of a discretization agree bit for
bit.  The built-in example is a two-branch system on [0, 1] whose
entropy, log 2, is recovered three independent ways.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateCell,
    MisalignedBreakpoints,
    NotMarkov,
    OutOfDomain,
    ShapeMismatch,
)
from .pressure import decomposition_pressure, spectral_pressure
from .relations import (
    Decomposition,
    FiniteCorrespondence,
    Potential,
    inverse_correspondence,
    sorted_unique,
)

# Resolutions are powers of two in [GRID_MIN, GRID_MAX].  At GRID_MAX
# = 2^18, discretize --method grid takes about 0.55-0.6 s end to end and
# peaks near 225 MB of RSS, 178 MB by tracemalloc; the example route
# takes about 0.5 s and 146 MB, 95 MB traced (one core, one BLAS thread,
# numpy 2.4).  2^19 takes about 1.7 s and 450 MB by the grid route, so
# the cap now bounds memory more than time.
GRID_MIN = 4
GRID_MAX = 2 ** 18
# a piece's cell ranges go through int64 below this bound (_piece_cells)
INT64_SAFE = 2 ** 62


def _frac(x):
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(x)


class PiecewiseLinearMap:
    """Continuous piecewise-affine self-map of an interval.

    pieces[k] = (slope, intercept) applies on
    [breakpoints[k], breakpoints[k+1]]; values are exact rationals.
    """

    def __init__(self, breakpoints, pieces):
        bp = tuple(_frac(b) for b in breakpoints)
        pc = tuple((_frac(s), _frac(t)) for s, t in pieces)
        if len(bp) < 2 or len(pc) != len(bp) - 1:
            raise ShapeMismatch("need one piece per breakpoint gap")
        if any(bp[k] >= bp[k + 1] for k in range(len(bp) - 1)):
            raise ShapeMismatch("breakpoints must increase strictly")
        for k in range(1, len(pc)):
            left = pc[k - 1][0] * bp[k] + pc[k - 1][1]
            right = pc[k][0] * bp[k] + pc[k][1]
            if left != right:
                raise ShapeMismatch(f"discontinuity at {bp[k]}")
        lo, hi = bp[0], bp[-1]
        for k, (s, t) in enumerate(pc):
            for x in (bp[k], bp[k + 1]):
                v = s * x + t
                if v < lo or v > hi:
                    raise OutOfDomain(v, lo, hi)
        self.breakpoints = bp
        self.pieces = pc

    @property
    def domain(self):
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_at(self, x):
        k = bisect_right(self.breakpoints, x) - 1
        return min(max(k, 0), len(self.pieces) - 1)

    def __call__(self, x):
        return pl_eval(self, x)


def pl_eval(pmap, x):
    """Exact value of the map at a rational point."""
    x = _frac(x)
    lo, hi = pmap.domain
    if x < lo or x > hi:
        raise OutOfDomain(x, lo, hi)
    s, t = pmap.pieces[pmap.piece_at(x)]
    return s * x + t


@dataclass(frozen=True)
class IntervalCorrespondence:
    """Finitely many piecewise-linear branches over [0, 1]."""

    branches: tuple

    def __init__(self, branches):
        branches = tuple(branches)
        if not branches:
            raise ShapeMismatch("need at least one branch")
        for b in branches:
            if b.domain != (Fraction(0), Fraction(1)):
                raise OutOfDomain(b.domain[0], 0, 1)
        object.__setattr__(self, "branches", branches)


@dataclass(frozen=True, eq=False)
class GridRelation:
    resolution: int
    corr: FiniteCorrespondence


def grid_discretize(system, resolution):
    """Transition relation of the branches at a dyadic resolution.

    Cell i points to cell j when some branch image of cell i meets
    cell j with nonempty interior; a branch whose image of the cell is
    a single point (flat piece) contributes the cell containing that
    point.  Half-open cells keep the identity map's relation equal to
    the identity.

    Breakpoints are grid-aligned, so each affine piece (s, t) on
    [x0, x1) covers the cells k in [n x0, n x1).  In cell units the
    image of cell k is [s k + n t, s (k + 1) + n t]; over the common
    denominator D of s and n t its ends are integers lo <= hi, and it
    meets the interiors of the cells floor(lo / D) <= j < ceil(hi / D),
    all inside 0..n-1 because the branch maps [0, 1] into itself.
    """
    n = resolution
    if n < GRID_MIN or n > GRID_MAX or n & (n - 1):
        raise ShapeMismatch(
            f"resolution must be a power of two in [{GRID_MIN}, {GRID_MAX}]")
    if not isinstance(system, IntervalCorrespondence):
        system = IntervalCorrespondence(system)
    bad = []
    for b in system.branches:
        for p in b.breakpoints:
            if (p * n).denominator != 1:
                bad.append(p)
    if bad:
        raise MisalignedBreakpoints(bad, n)
    pieces = []
    for b in system.branches:
        bp = b.breakpoints
        for (x0, x1), (s, t) in zip(zip(bp, bp[1:]), b.pieces):
            d = math.lcm(s.denominator, (n * t).denominator)
            pieces.append(_piece_cells(int(s * d), int(n * t * d), d,
                                       int(x0 * n), int(x1 * n), n))
    src, dst = (np.concatenate(cells) for cells in zip(*pieces))
    # branches may share an edge: keep each once, sorted
    keys = sorted_unique(src * n + dst)
    edges = np.stack(np.divmod(keys, n), axis=1)
    return GridRelation(n, FiniteCorrespondence(n, edges))


def _piece_cells(a, c, d, k0, k1, n):
    """Source and target cells of the edges of the cells k0..k1-1 of one
    affine piece, whose image of cell k is [a k + c, a (k + 1) + c] / d
    in cell units (see grid_discretize).

    The ends go through int64 while |a| (n + 1) + |c| and d stay below
    INT64_SAFE, and through Python ints otherwise; the cell ranges are
    then laid out by one repeat.
    """
    k = np.arange(k0, k1, dtype=np.int64)
    if a == 0:
        # a flat piece: its one point lies in one cell
        return k, np.full(k.size, min(c // d, n - 1), dtype=np.int64)
    if abs(a) * (n + 1) + abs(c) < INT64_SAFE and d < INT64_SAFE:
        lo = a * k + c
        lo, hi = np.minimum(lo, lo + a), np.maximum(lo, lo + a)
        first, last = lo // d, -(-hi // d)
    else:
        ends = [sorted((a * j + c, a * (j + 1) + c)) for j in range(k0, k1)]
        first = np.array([lo // d for lo, _ in ends], dtype=np.int64)
        last = np.array([-(-hi // d) for _, hi in ends], dtype=np.int64)
    count = last - first
    heads = np.cumsum(count) - count
    return (np.repeat(k, count),
            np.arange(heads[-1] + count[-1]) + np.repeat(first - heads, count))


def markov_model(pmap, cells):
    """Transition relation of a map over a partition it maps cell-onto-cells.

    Every cell must sit inside one affine piece and its exact image
    must be a union of cells; cell i then points to every cell its
    image covers, in the order of the sorted cells.  Checked entirely in
    rational arithmetic.
    """
    cells = tuple((_frac(a), _frac(b)) for a, b in cells)
    for a, b in cells:
        if a >= b:
            raise DegenerateCell(f"cell [{a}, {b}]")
    lo, hi = pmap.domain
    order = sorted(cells)
    cuts = [lo]
    for a, b in order:
        if a != cuts[-1]:
            raise NotMarkov(f"cells leave a gap or overlap at {a}")
        cuts.append(b)
    if cuts[-1] != hi:
        raise NotMarkov("cells do not cover the domain")
    pos = {cut: j for j, cut in enumerate(cuts)}
    edges = []
    for i, (a, b) in enumerate(order):
        if any(a < p < b for p in pmap.breakpoints):
            raise NotMarkov(f"cell [{a}, {b}] straddles a breakpoint")
        s, t = pmap.pieces[pmap.piece_at(a)]
        va, vb = s * a + t, s * b + t
        ilo, ihi = min(va, vb), max(va, vb)
        if ilo not in pos or ihi not in pos:
            raise NotMarkov(
                f"image [{ilo}, {ihi}] of cell [{a}, {b}] is not a union of cells")
        edges += [(i, j) for j in range(pos[ilo], pos[ihi])]
    return FiniteCorrespondence(len(order), edges)


def example_branches():
    """The built-in two-branch system: a half-identity branch and a
    folded branch that exchanges the halves of [0, 1]."""
    f = PiecewiseLinearMap(
        [0, Fraction(1, 2), 1],
        [(1, 0), (Fraction(1, 2), Fraction(1, 4))])
    g = PiecewiseLinearMap(
        [0, Fraction(1, 4), Fraction(1, 2), 1],
        [(-2, 1), (2, 0), (Fraction(-1, 2), Fraction(5, 4))])
    return IntervalCorrespondence((f, g))


def example_inner_maps():
    """The two one-dimensional factors: identity on the lower half and
    a full tent on the upper half."""
    h1 = PiecewiseLinearMap([0, Fraction(1, 2)], [(1, 0)])
    h2 = PiecewiseLinearMap(
        [Fraction(1, 2), Fraction(3, 4), 1],
        [(2, Fraction(-1, 2)), (-2, Fraction(5, 2))])
    return h1, h2


def example_blocks(resolution):
    half = resolution // 2
    return Decomposition([tuple(range(half)), tuple(range(half, resolution))])


def example_report(resolution=1024):
    """Three routes to the entropy of the built-in system.

    (a) one-cell and tent Markov models assembled along the block
    structure, exactly log 2; (b) spectral pressure of the grid
    relation; (c) the Gibbs equilibrium pressure on the same grid.
    decomposition_pressure validates each block cover and raises on an
    invalid one, so both covers in a report are valid.
    """
    h1, h2 = example_inner_maps()
    m1 = markov_model(h1, [(0, Fraction(1, 2))])
    m2 = markov_model(h2, [(Fraction(1, 2), Fraction(3, 4)), (Fraction(3, 4), 1)])
    inv2 = inverse_correspondence(m2)
    offset = m1.n_states
    edges = list(m1.edges)
    edges += [(i + offset, j + offset) for i, j in inv2.edges]
    # the folded branch carries the lower half onto the upper block
    for j in range(inv2.n_states):
        edges.append((0, offset + j))
    assembled = FiniteCorrespondence(offset + inv2.n_states, sorted(set(edges)))
    blocks_a = Decomposition([tuple(range(offset)),
                              tuple(range(offset, assembled.n_states))])
    dp_a = decomposition_pressure(assembled, Potential.zero(assembled), blocks_a)

    grid = grid_discretize(example_branches(), resolution)
    value_b = spectral_pressure(grid.corr, Potential.zero(grid.corr)).pressure

    from .variational import gibbs_equilibrium
    eq = gibbs_equilibrium(grid.corr, Potential.zero(grid.corr))

    blocks_g = example_blocks(resolution)
    dp_g = decomposition_pressure(grid.corr, Potential.zero(grid.corr), blocks_g)

    log2 = math.log(2.0)
    return {
        "resolution": resolution,
        "route_a": {
            "block_values": list(dp_a.block_values),
            "value": dp_a.value,
            "decomposition_valid": True,
        },
        "route_b": {"value": value_b},
        "route_c": {"value": eq.pressure, "entropy": eq.entropy,
                    "integral": eq.integral},
        "grid_decomposition": {
            "valid": True,
            "block_values": list(dp_g.block_values),
            "value": dp_g.value,
        },
        "target": log2,
        "gap_a": abs(dp_a.value - log2),
        "gap_b": abs(value_b - log2),
        "gap_cb": abs(eq.pressure - value_b),
    }
