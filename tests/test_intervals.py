import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corrpress import (
    DegenerateCell,
    IntervalCorrespondence,
    MisalignedBreakpoints,
    NotMarkov,
    OutOfDomain,
    PiecewiseLinearMap,
    Potential,
    ShapeMismatch,
    example_branches,
    example_report,
    grid_discretize,
    markov_model,
    pl_eval,
    spectral_pressure,
)
from corrpress.intervals import GRID_MAX, example_blocks, example_inner_maps

LOG2 = math.log(2.0)

F = Fraction


def tent():
    return PiecewiseLinearMap(["0", "1/2", "1"], [("2", "0"), ("-2", "2")])


def identity_map():
    return PiecewiseLinearMap(["0", "1"], [("1", "0")])


def test_map_validation():
    with pytest.raises(ShapeMismatch):
        # discontinuous at the interior breakpoint
        PiecewiseLinearMap(["0", "1/2", "1"], [("2", "0"), ("2", "-1")])
    with pytest.raises(ShapeMismatch):
        PiecewiseLinearMap(["0", "1/2", "1/2", "1"],
                           [("1", "0"), ("1", "0"), ("1", "0")])
    with pytest.raises(ShapeMismatch):
        PiecewiseLinearMap(["0", "1"], [])
    with pytest.raises(OutOfDomain):
        # image escapes the domain interval
        PiecewiseLinearMap(["0", "1"], [("3", "0")])


def test_pl_eval_paper_branches():
    f, g = example_branches().branches
    assert pl_eval(f, F(3, 4)) == F(5, 8)
    assert pl_eval(g, F(1, 4)) == F(1, 2)
    # the two pieces of g meet at 1/2
    assert pl_eval(g, F(1, 2)) == F(1)
    assert pl_eval(identity_map(), F(3, 7)) == F(3, 7)
    with pytest.raises(OutOfDomain):
        pl_eval(tent(), F(3, 2))


def test_identity_discretizes_to_the_identity_relation():
    system = IntervalCorrespondence([identity_map()])
    grid = grid_discretize(system, 4)
    assert grid.corr.edges == ((0, 0), (1, 1), (2, 2), (3, 3))


def test_tent_cells_split_under_expansion():
    grid = grid_discretize(IntervalCorrespondence([tent()]), 4)
    # cell 0 = [0,1/4) maps onto [0,1/2), which covers two cells
    assert grid.corr.successors(0) == (0, 1)
    assert grid.corr.successors(1) == (2, 3)
    assert spectral_pressure(grid.corr, Potential.zero(grid.corr)).pressure \
        == pytest.approx(LOG2, abs=1e-12)


def test_resolution_is_a_power_of_two_up_to_the_cap():
    for n in (2, 12, GRID_MAX * 2):
        with pytest.raises(ShapeMismatch, match="power of two"):
            grid_discretize(example_branches(), n)


def test_misaligned_breakpoints_are_rejected():
    skew = PiecewiseLinearMap(["0", "1/3", "1"], [("1/2", "0"), ("1/4", "1/12")])
    with pytest.raises(MisalignedBreakpoints):
        grid_discretize(IntervalCorrespondence([skew]), 4)


def test_float_breakpoints_read_as_their_nearest_small_fraction():
    halves = PiecewiseLinearMap([0, 0.5, 1], [(2, 0), (-2, 2)])
    assert halves.breakpoints == tent().breakpoints
    assert grid_discretize(IntervalCorrespondence([halves]), 4).corr \
        == grid_discretize(IntervalCorrespondence([tent()]), 4).corr
    # 0.3 is 3/10, not the binary fraction nearest it
    tenths = PiecewiseLinearMap([0, 0.3, 1], [(1, 0), (1, 0)])
    with pytest.raises(MisalignedBreakpoints, match=r"\[Fraction\(3, 10\)\]"):
        grid_discretize(IntervalCorrespondence([tenths]), 4)


def test_worked_example_grid_at_resolution_eight():
    grid = grid_discretize(example_branches(), 8)
    expected = {0: (0, 6, 7), 1: (1, 4, 5), 2: (2, 4, 5), 3: (3, 6, 7),
                4: (4, 7), 5: (4, 7), 6: (5, 6), 7: (5, 6)}
    for cell, succ in expected.items():
        assert grid.corr.successors(cell) == succ
    # cells in the right half keep two successors inside the right half
    for cell in (4, 5, 6, 7):
        inside = [j for j in grid.corr.successors(cell) if j >= 4]
        assert len(inside) == 2


def test_grid_cells_are_half_open():
    # the tent maps cell 1 = [1/8, 1/4) onto [1/4, 1/2), the cells 2 and
    # 3; cell 4 = [1/2, 5/8) meets only the image's closure
    grid = grid_discretize(IntervalCorrespondence([tent()]), 8)
    assert grid.corr.successors(1) == (2, 3)
    # cell 7 = [7/8, 1) maps onto (0, 1/4], the cells 0 and 1, not 2
    assert grid.corr.successors(7) == (0, 1)


def test_markov_model_of_the_inner_maps():
    h1, h2 = example_inner_maps()
    # identity on the left half, one cell, entropy zero
    model1 = markov_model(h1, [("0", "1/2")])
    assert model1.edges == ((0, 0),)
    # tent-like on the right half, two cells, full transition matrix
    model2 = markov_model(h2, [("1/2", "3/4"), ("3/4", "1")])
    assert model2.edges == ((0, 0), (0, 1), (1, 0), (1, 1))
    p = spectral_pressure(model2, Potential.zero(model2)).pressure
    assert p == pytest.approx(LOG2, abs=1e-12)
    # the tent on four quarter cells: each cell covers one half
    model4 = markov_model(tent(), [("0", "1/4"), ("1/4", "1/2"),
                                   ("1/2", "3/4"), ("3/4", "1")])
    assert model4.edges == ((0, 0), (0, 1), (1, 2), (1, 3),
                            (2, 2), (2, 3), (3, 0), (3, 1))
    p = spectral_pressure(model4, Potential.zero(model4)).pressure
    assert p == pytest.approx(LOG2, abs=1e-12)


@pytest.mark.parametrize("cell", [("1/2", "1/2"), ("3/4", "1/2")])
def test_markov_cell_without_interior_is_degenerate(cell):
    with pytest.raises(DegenerateCell, match=r"cell \["):
        markov_model(tent(), [("0", "1/2"), cell])


def test_markov_model_rejects_non_markov_partitions():
    with pytest.raises(NotMarkov):
        markov_model(tent(), [("0", "1/3"), ("1/3", "1")])
    with pytest.raises(NotMarkov):
        # cells leave a gap
        markov_model(tent(), [("0", "1/4"), ("1/2", "1")])


def test_doubling_type_full_branch_map():
    # both branches map their cell onto the whole interval
    m = PiecewiseLinearMap(["0", "1/2", "1"], [("2", "0"), ("-2", "2")])
    model = markov_model(m, [("0", "1/2"), ("1/2", "1")])
    assert spectral_pressure(model, Potential.zero(model)).pressure \
        == pytest.approx(LOG2, abs=1e-12)


def test_example_report_routes_agree():
    rep = example_report(8)
    assert rep["route_a"]["value"] == pytest.approx(LOG2, abs=1e-12)
    assert rep["route_a"]["decomposition_valid"]
    assert rep["gap_a"] <= 1e-12
    assert abs(rep["gap_b"]) <= 0.05
    assert abs(rep["gap_cb"]) <= 1e-9
    assert rep["grid_decomposition"]["valid"]
    assert rep["route_c"]["entropy"] + rep["route_c"]["integral"] \
        == pytest.approx(rep["route_c"]["value"], abs=1e-9)


def test_example_report_is_reproducible_bit_for_bit():
    a = example_report(64)
    b = example_report(64)
    assert a == b


def test_example_blocks_split_the_interval():
    grid = grid_discretize(example_branches(), 16)
    left, right = example_blocks(16).blocks
    assert left == tuple(range(8)) and right == tuple(range(8, 16))
    # no edge returns from the right half to the left half
    for i, j in grid.corr.edges:
        assert not (i in right and j in left)


def _cell_image(pmap, lo, hi):
    s, t = pmap.pieces[pmap.piece_at(lo)]
    va = s * lo + t
    vb = s * hi + t
    return (va, vb) if s >= 0 else (vb, va), s


def reference_grid_edges(branches, n):
    """The grid relation by one Fraction overlap test per candidate cell."""
    edges = set()
    for b in branches:
        for k in range(n):
            lo = Fraction(k, n)
            hi = Fraction(k + 1, n)
            (ilo, ihi), slope = _cell_image(b, lo, hi)
            if slope == 0:
                j = min(int(ilo * n), n - 1)
                edges.add((k, j))
                continue
            j_lo = max(int(math.floor(ilo * n)), 0)
            j_hi = min(int(math.floor(ihi * n)) + 1, n - 1)
            for j in range(j_lo, j_hi + 1):
                c_lo = Fraction(j, n)
                c_hi = Fraction(j + 1, n)
                if max(ilo, c_lo) < min(ihi, c_hi):
                    edges.add((k, j))
    return tuple(sorted(edges))


VALUES = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 12)


@st.composite
def pl_systems(draw):
    """A grid and 1-3 continuous piecewise-linear self-maps of [0, 1]
    with 2-8 pieces aligned to it; a piece is flat when its end value
    repeats its start value."""
    n = 2 ** draw(st.integers(2, 8))
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(2, min(8, n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1),
                                   min_size=p - 1, max_size=p - 1)))
        xs = [F(0)] + [F(c, n) for c in cuts] + [F(1)]
        ys = [draw(VALUES)]
        for _ in range(p):
            ys.append(draw(st.one_of(st.just(ys[-1]), VALUES)))
        pieces = []
        for k in range(p):
            s = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
            pieces.append((s, ys[k] - s * xs[k]))
        branches.append(PiecewiseLinearMap(xs, pieces))
    return IntervalCorrespondence(branches), n


@settings(deadline=None, max_examples=100)
@given(pl_systems())
def test_grid_build_matches_the_fraction_reference(case):
    system, n = case
    assert grid_discretize(system, n).corr.edges \
        == reference_grid_edges(system.branches, n)


def test_example_grid_matches_the_fraction_reference():
    system = example_branches()
    for n in (256, 1024, 4096):
        assert grid_discretize(system, n).corr.edges \
            == reference_grid_edges(system.branches, n)


def test_grid_build_takes_python_ints_past_int64():
    """Two pieces whose cell ranges leave int64; _piece_cells works
    them in Python ints."""
    # the common denominator 2^64 + 1 itself is past int64
    q = 2 ** 64 + 1
    wide = PiecewiseLinearMap([0, F(1, 2), 1],
                              [(F(1, q), 0), (2 - F(1, q), F(1, q) - 1)])
    # a k + c reaches 3 (2^62 - 57) at the last cell, past 2^63, with
    # a, c and the denominator inside int64; the flat branch keeps every
    # cell's successor set nonempty, so wrapped ends would build a
    # valid relation with the wrong edges
    q = 2 ** 62 - 57
    steep = PiecewiseLinearMap([0, F(1, 2), 1],
                               [(F(q + 1, q), 0), (F(q - 1, q), F(1, q))])
    flat = PiecewiseLinearMap([0, 1], [(0, 0)])
    for system in (IntervalCorrespondence([wide]),
                   IntervalCorrespondence([steep, flat])):
        assert grid_discretize(system, 4).corr.edges \
            == reference_grid_edges(system.branches, 4)
