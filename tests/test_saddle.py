"""Saddle-point oracles: grid min-max, the centralized recursion, and
candidate certification."""

from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
import canonical_reference as reference
from canonical_reference import (centralized_saddle, many_agents_doc, neg, per_term_value,
                                 scale, subnet1_objectives, subnet2_objectives,
                                 table_extremes, verify_saddle, whole_table)

from nashnet import saddle
from nashnet.errors import NumericError, ResourceError
from nashnet.exprs import (Abs, BoxSet, Const, Pow, Prod, Sum, Var, compile_objective,
                           parse_expr)
from nashnet.saddle import GRID_BUDGET, WeightedObjective, grid_minimax, unit_weighted
from nashnet.scenario_io import bundled_scenario, loads_scenario
from nashnet.stepsizes import GammaSchedule

BOX5 = BoxSet((-5.0,), (5.0,))


def bilinear_toy():
    # x^2 - y^2, saddle exactly at the origin
    return unit_weighted([(Sum((Pow(Var("x", 0), 2), neg(Pow(Var("y", 0), 2)))), {})])


def test_weighted_objective_validation():
    e = Pow(Var("x", 0), 2)
    with pytest.raises(ValueError):
        WeightedObjective(((0.0, e),))
    WeightedObjective(((2.0, e), (1.0, e)))


def test_grid_minimax_toy():
    report = grid_minimax(bilinear_toy(), BOX5, BOX5, resolution=201)
    assert report.x_star[0] == pytest.approx(0.0, abs=1e-9)
    assert report.y_star[0] == pytest.approx(0.0, abs=1e-9)
    assert report.value == pytest.approx(0.0, abs=1e-12)
    assert report.minimax_gap == pytest.approx(0.0, abs=1e-12)


def test_grid_minimax_catalog_sum():
    report = grid_minimax(unit_weighted(subnet1_objectives()), BOX5, BOX5,
                          resolution=2001)
    assert report.x_star[0] == pytest.approx(0.61025310, abs=1e-6)
    assert report.y_star[0] == pytest.approx(0.88440690, abs=1e-6)
    assert report.minimax_gap < 1e-4


def test_grid_minimax_shifted_quadratic():
    # 2 (x - 1.3)^2 - (y + 0.4)^2: refinement must beat the coarse spacing
    e = Sum((
        Pow(Sum((Var("x", 0), neg(1.3))), 2),
        Pow(Sum((Var("x", 0), neg(1.3))), 2),
        neg(Pow(Sum((Var("y", 0), 0.4)), 2)),
    ))
    report = grid_minimax(unit_weighted([(e, {})]), BOX5, BOX5, resolution=501)
    assert report.x_star[0] == pytest.approx(1.3, abs=1e-6)
    assert report.y_star[0] == pytest.approx(-0.4, abs=1e-6)


def test_grid_budget_enforced():
    assert 2024 ** 2 <= GRID_BUDGET < 2025 ** 2
    with pytest.raises(ResourceError, match="reduce resolution to at most 2024$"):
        grid_minimax(bilinear_toy(), BOX5, BOX5, resolution=2025)


def test_grid_rejects_high_dimensions():
    box3 = BoxSet((-1.0,) * 3, (1.0,) * 3)
    e = Sum(tuple(Pow(Var("x", d), 2) for d in range(3)) + (neg(Pow(Var("y", 0), 2)),))
    with pytest.raises(ResourceError, match=r"store a reference under run\.oracle "
                                            r"\(x_star, y_star\) in the scenario document"):
        grid_minimax(unit_weighted([(e, {})]), box3, BOX5, resolution=11)


@pytest.mark.parametrize("bx, by", [(BoxSet((-np.inf,), (5.0,)), BOX5),
                                     (BOX5, BoxSet((-5.0,), (np.inf,)))])
def test_grid_rejects_unbounded_boxes(bx, by):
    with pytest.raises(ResourceError, match=r"finite box bounds.*store a reference under "
                                            r"run\.oracle"):
        grid_minimax(bilinear_toy(), bx, by, resolution=11)


def test_grid_two_dimensional_blocks():
    # x1^2 + (x2-1)^2 - y1^2 - (y2+1)^2 on [-2,2]^2 blocks
    e = Sum((Pow(Var("x", 0), 2), Pow(Sum((Var("x", 1), neg(1))), 2),
             neg(Pow(Var("y", 0), 2)), neg(Pow(Sum((Var("y", 1), 1)), 2))))
    box = BoxSet((-2.0, -2.0), (2.0, 2.0))
    report = grid_minimax(unit_weighted([(e, {})]), box, box, resolution=41)
    np.testing.assert_allclose(report.x_star, [0.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(report.y_star, [0.0, -1.0], atol=1e-6)


def test_centralized_saddle_agrees_with_grid():
    sched = GammaSchedule(c=1.0, b=1.0, eps=0.5)
    objectives = subnet1_objectives()
    report = centralized_saddle(objectives, [1.0] * len(objectives), BOX5, BOX5,
                                sched, iters=20000)
    assert report.x_star[0] == pytest.approx(0.61025310, abs=5e-3)
    assert report.y_star[0] == pytest.approx(0.88440690, abs=5e-3)


def test_verify_saddle():
    w = bilinear_toy()
    assert verify_saddle(w, ((0.0,), (0.0,)), BOX5, BOX5) <= 1e-12
    # a wrong candidate shows a large violation
    assert verify_saddle(w, ((1.0,), (0.0,)), BOX5, BOX5) > 0.5
    with pytest.raises(ValueError):
        verify_saddle(w, ((9.0,), (0.0,)), BOX5, BOX5)


def test_verify_saddle_catalog_reference():
    w = unit_weighted(subnet1_objectives())
    violation = verify_saddle(w, ((0.61025310,), (0.88440690,)), BOX5, BOX5)
    assert violation <= 1e-6


# The weighted sum against its per-term oracle: bit for bit on the grid
# table, and the whole report of grid_minimax

BOX2 = BoxSet((-2.0, -2.0), (2.0, 2.0))


def _bytes(report):
    """A report's numbers as bytes, so -0.0 and 0.0 differ and NaN matches."""
    return tuple(np.array(v, dtype=float).tobytes() for v in
                 (report.x_star, report.y_star, report.value, report.minimax_gap))


def _per_term_report(w, bx, by, resolution):
    """The whole-table scan with one closure per term."""
    return reference.grid_minimax(w, bx, by, resolution, per_term=True)


def _batched_table(fn, xpts, ypts):
    """The table as the search evaluates it, in windows of TABLE_CHUNK //
    Ny rows."""
    table = np.full((len(xpts), len(ypts)), np.nan)
    for b in saddle._batches(np.arange(len(xpts)), len(ypts)):
        table[b] = saddle._cells(fn, xpts[b], ypts)
    return table


def _closures(monkeypatch, w, m1, m2):
    """How many closures ``w.compiled`` compiles."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return compile_objective(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(saddle, "compile_objective", counted)
        w.compiled(m1, m2)
    return len(calls)


def _assert_matches_per_term(w, bx, by, resolution):
    oracle = per_term_value(w, bx.dim, by.dim)
    fn = w.compiled(bx.dim, by.dim)
    xpts = saddle._mesh(saddle._axis_grids(bx, resolution))
    ypts = saddle._mesh(saddle._axis_grids(by, resolution))
    table = _batched_table(fn, xpts, ypts)
    assert table.tobytes() == whole_table(oracle, xpts, ypts).tobytes()
    report = grid_minimax(w, bx, by, resolution=resolution)
    want = _per_term_report(w, bx, by, resolution)
    assert report == want and _bytes(report) == _bytes(want)
    return table


def test_weighted_sum_matches_per_term_on_many_agents(monkeypatch):
    text = yaml.dump(many_agents_doc(1), sort_keys=False,
                     Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    s = loads_scenario(text)
    w = unit_weighted(s.objectives1)
    assert len(w.terms) == 100 and _closures(monkeypatch, w, 1, 1) == 3
    _assert_matches_per_term(w, s.box_x, s.box_y, 2001)


def test_weighted_sum_matches_per_term_with_oracle_weights():
    # as `oracle --weights` builds it, plus repeated expressions under
    # different weights
    objectives = bundled_scenario("example1").objectives1
    weights = (0.1, 2.5, 1.0 / 3.0, 1.0, 7.25, 0.3)
    w = WeightedObjective(tuple((v, e) for v, (e, _)
                                in zip(weights, objectives + objectives)))
    _assert_matches_per_term(w, BOX5, BOX5, 401)


def test_weighted_sum_negative_zero_term(monkeypatch):
    # -(x0^2) is -0.0 on the x = 0 row; the per-term sum starts at integer 0,
    # and 0 + -0.0 is +0.0
    e = parse_expr("(neg (pow x0 2))")
    w = WeightedObjective(((1.0, e), (2.0, e)))
    table = _assert_matches_per_term(w, BOX5, BOX5, 11)
    assert not np.signbit(table[5]).any() and _closures(monkeypatch, w, 1, 1) == 1
    # constants that print alike but differ in sign stay distinct closures
    zeros = WeightedObjective(((1.0, Prod((Var("x", 0), Const(-0.0)))),
                               (1.0, Prod((Var("x", 0), Const(0.0))))))
    _assert_matches_per_term(zeros, BOX5, BOX5, 11)
    assert _closures(monkeypatch, zeros, 1, 1) == 2


def test_weighted_sum_broadcast_shapes(monkeypatch):
    # x-only, y-only and constant-only terms come back as (Nx, 1), (1, Ny)
    # and a float; the kink term repeats under another weight
    e_x = Pow(Sum((Var("x", 0), neg(1.3))), 2)
    e_y = neg(Pow(Sum((Var("y", 0), 0.4)), 2))
    e_xy = Sum((Abs(Sum((Var("x", 0), neg(Var("y", 0))))), scale(0.5, Var("x", 0))))
    terms = ((1.0, e_x), (1.5, e_y), (2.0, Const(3.5)),
             (1.0, e_xy), (0.75, e_xy), (1.0, Const(-1.0)))
    for k in range(1, len(terms) + 1):
        _assert_matches_per_term(WeightedObjective(terms[:k]), BOX5, BOX5, 101)
    assert _closures(monkeypatch, WeightedObjective(terms), 1, 1) == 5
    # the constant alone still fills the whole table
    table = _assert_matches_per_term(WeightedObjective(terms[2:3]), BOX5, BOX5, 11)
    assert table.shape == (11, 11) and (table == 7.0).all()


def test_weighted_sum_two_dimensional_blocks():
    terms = [Pow(Var("x", 0), 2), Pow(Sum((Var("x", 1), neg(1))), 2),
             neg(Pow(Var("y", 0), 2)), neg(Pow(Sum((Var("y", 1), 1)), 2)),
             Prod((Var("x", 0), Var("y", 1)))]
    w = WeightedObjective(tuple((1.0 + 0.5 * i, e) for i, e in enumerate(terms + terms)))
    _assert_matches_per_term(w, BOX2, BOX2, 21)


@pytest.mark.parametrize("chunk", [7 * 41, 40])
def test_eval_table_blocks_with_short_last_block(monkeypatch, chunk):
    # 41 rows of 41 cells: 7-row windows end on a whole window that
    # overlaps the one before, and chunks below one row still take two rows
    monkeypatch.setattr(saddle, "TABLE_CHUNK", chunk)
    w = unit_weighted(subnet1_objectives())
    oracle = per_term_value(w, 1, 1)
    fn = w.compiled(1, 1)
    xpts = saddle._mesh(saddle._axis_grids(BOX5, 41))
    calls = []

    def counted(x, y):
        calls.append(len(x[0]))
        return fn(x, y)
    table = _batched_table(counted, xpts, xpts)
    assert table.tobytes() == whole_table(oracle, xpts, xpts).tobytes()
    assert set(calls) == {max(2, chunk // 41)} and len(calls) == -(-41 // calls[0])
    report, want = grid_minimax(w, BOX5, BOX5, resolution=41), _per_term_report(w, BOX5, BOX5, 41)
    assert report == want and _bytes(report) == _bytes(want)


def test_weighted_sum_series_calls():
    # the metrics' series calls
    objectives = bundled_scenario("example1").objectives1
    w = WeightedObjective(tuple((v, e) for v, (e, _) in zip((0.2, 1.0, 3.0), objectives)))
    series = np.linspace(-3.0, 4.0, 1001)
    fn, oracle = w.compiled(1, 1), per_term_value(w, 1, 1)
    for x, y in (([series], [np.array([0.88])]), ([np.array([0.61])], [series])):
        assert fn(x, y).tobytes() == np.asarray(oracle(x, y), dtype=float).tobytes()


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "perron_weighted",
                                  "shared_saddle"])
def test_grid_minimax_equals_the_whole_table_reference(name):
    """The pruned search gives the report the whole-table scan gives, byte
    for byte, on every bundled scenario."""
    s = bundled_scenario(name)
    w = unit_weighted(s.objectives1)
    report, want = grid_minimax(w, s.box_x, s.box_y), reference.grid_minimax(w, s.box_x, s.box_y)
    assert report == want and _bytes(report) == _bytes(want)


def _signed_zeros(x, y):
    """Each column's minimum is zero, signed by row, in many rows."""
    base = np.maximum(np.abs(x[0] - y[0]) - 2.0, 0.0)
    return np.where(base == 0, np.where(x[0] * 4 % 2 == 0, -0.0, 0.0), base)


def _negated(x, y):
    """Each row's maximum is zero, signed by column, in many columns."""
    return -_signed_zeros(x, y)


@pytest.mark.parametrize("chunk", [1, 7 * 41, 40 * 41, 100 * 41])
def test_column_minima_fold_like_the_whole_table(monkeypatch, chunk):
    """Windows of 2 (the least), 7, 40 and all 41 lines, in index order and
    reversed, leave each column's minimum and each row's maximum as the
    whole table has them, signed zeros included, and so do the winners the
    search picks."""
    monkeypatch.setattr(saddle, "TABLE_CHUNK", chunk)
    xpts = saddle._mesh(saddle._axis_grids(BOX5, 41))
    for value in (_signed_zeros, _negated):
        want = table_extremes(value, xpts, xpts)
        for side in (0, 1):
            for order in (np.arange(41), np.arange(41)[::-1]):
                got = np.empty(41)
                for b in saddle._batches(order, 41):
                    got[b] = saddle._extremes(value, xpts[b], xpts, side)
                assert got.tobytes() == want[side].tobytes()
        ix, sup_y = saddle._best_line(value, xpts, xpts, 0)
        iy, inf_x = saddle._best_line(value, xpts, xpts, 1)
        assert (ix, iy) == (int(want[0].argmin()), int(want[1].argmax()))
        assert [sup_y.tobytes(), inf_x.tobytes()] == [want[0][ix].tobytes(),
                                                      want[1][iy].tobytes()]


def test_grid_minimax_never_holds_the_table():
    """The 2001 x 2001 coarse table (32 MB) is reduced block by block: the
    traced peak of the example1 oracle stays under 8 MB."""
    import tracemalloc
    s = bundled_scenario("example1")
    w = unit_weighted(s.objectives1)
    tracemalloc.start()
    try:
        grid_minimax(w, s.box_x, s.box_y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# The pruned search against the whole-table scan

_X, _Y, _X1, _Y1 = Var("x", 0), Var("y", 0), Var("x", 1), Var("y", 1)
# catalog sums plus tie makers: constants, x-only and y-only terms, a kink
# on the diagonal, -x^2, a bilinear term, and rows of signed zeros
_POOL = ([e for e, _ in subnet1_objectives() + subnet2_objectives()]
         + [Const(3.5), Const(0.0), Const(-0.0), Pow(Sum((_X, neg(1.5))), 2),
            neg(Pow(Sum((_Y, 0.5)), 2)), Abs(Sum((_X, neg(_Y)))), neg(Pow(_X, 2)),
            Prod((_X, _Y)), Prod((_X, Const(-0.0))), Prod((_Y, Const(-0.0)))])
_POOL_2D = [(Pow(_X1, 2), (2, 1)), (neg(Pow(Sum((_Y1, 1)), 2)), (1, 2)),
            (Prod((_X1, _Y)), (2, 1)), (Abs(Sum((_X1, neg(_Y1)))), (2, 2)),
            (Prod((_X, _Y1)), (1, 2))]


@st.composite
def _grid_cases(draw):
    m1, m2 = draw(st.sampled_from([(1, 1), (1, 1), (2, 1), (1, 2), (2, 2)]))
    pool = _POOL + [e for e, (a, b) in _POOL_2D if a <= m1 and b <= m2]
    terms = draw(st.lists(st.tuples(st.sampled_from([1.0, 0.5, 2.5, 1.0 / 3.0]),
                                    st.sampled_from(pool)), min_size=1, max_size=5))

    def box(m):  # half-integer bounds, so grids often pass through 0
        lower = draw(st.lists(st.integers(-12, 4), min_size=m, max_size=m))
        width = draw(st.lists(st.integers(1, 16), min_size=m, max_size=m))
        return BoxSet(tuple(v / 2 for v in lower), tuple((v + d) / 2 for v, d in zip(lower, width)))
    top = {2: 401, 3: 41, 4: 21}[m1 + m2]
    return WeightedObjective(tuple(terms)), box(m1), box(m2), draw(st.integers(3, top))


_CHUNKS = st.sampled_from([saddle.TABLE_CHUNK, 4096, 1])  # 1: windows of two lines


@settings(max_examples=60, deadline=None)
@given(_grid_cases(), _CHUNKS)
@example((WeightedObjective(((1.0, Const(2.0)),)), BOX5, BOX5, 3), 1)
@example((WeightedObjective(((1.0, Prod((_X, Const(-0.0)))),)), BOX5, BOX5, 11), 1)
@example((WeightedObjective(((1.0, Pow(_X, 2)), (2.0, neg(Pow(_Y, 2))))), BOX5, BOX5, 401),
         saddle.TABLE_CHUNK)
@example((WeightedObjective(((1.0, Abs(Sum((_X, neg(_Y))))),)), BOX5, BOX5, 101), 1)
def test_pruned_search_equals_the_whole_table_scan(case, chunk):
    """Byte for byte, on x*, y*, the value and the minimax gap, whatever the
    ties, signed zeros, boxes, resolutions, block dimensions and windows."""
    w, bx, by, resolution = case
    with mock.patch.object(saddle, "TABLE_CHUNK", chunk):
        report = grid_minimax(w, bx, by, resolution)
    assert _bytes(report) == _bytes(reference.grid_minimax(w, bx, by, resolution))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 17), _CHUNKS)
def test_best_line_on_tie_heavy_tables(nx, ny, seed, stride, chunk):
    """On tables of a few values, signed zeros among them, the search picks
    the row and column ``max(axis=1).argmin()`` and ``min(axis=0).argmax()``
    pick, with their extremes' bytes, for any sample stride and window."""
    table = np.random.default_rng(seed).choice([-1.0, -0.0, 0.0, 1.0, 2.0], (nx, ny))

    def lookup(x, y):  # points are the table's indices
        return table[x[0].astype(int), y[0].astype(int)]
    xpts, ypts = np.arange(nx, dtype=float)[:, None], np.arange(ny, dtype=float)[:, None]
    with mock.patch.object(saddle, "TABLE_CHUNK", chunk), \
            mock.patch.object(saddle, "SAMPLE_STRIDE", stride):
        got = [saddle._best_line(lookup, xpts, ypts, side) for side in (0, 1)]
    sup_y, inf_x = table.max(axis=1), table.min(axis=0)
    ix, iy = int(sup_y.argmin()), int(inf_x.argmax())
    assert [(i, ext.tobytes()) for i, ext in got] == [(ix, sup_y[ix].tobytes()),
                                                     (iy, inf_x[iy].tobytes())]


def test_pruned_search_evaluates_a_quarter_of_the_cells(monkeypatch):
    """On the 100-term many-agents sum the search evaluates at most a
    quarter of the cells of the whole-table scan: 2001^2 coarse cells and
    201 x 2202 cells per sweep, two sweeps per refinement level."""
    text = yaml.dump(many_agents_doc(1), sort_keys=False,
                     Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    s = loads_scenario(text)
    full = 2001 ** 2 + 2 * saddle.REFINE_LEVELS * 201 * 2202
    assert full == 6_659_613
    compiled, cells = WeightedObjective.compiled, []

    def counting(self, m1, m2):
        fn = compiled(self, m1, m2)

        def value(x, y):
            cells.append(np.broadcast(*x, *y).size)
            return fn(x, y)
        return value
    monkeypatch.setattr(WeightedObjective, "compiled", counting)
    grid_minimax(unit_weighted(s.objectives1), s.box_x, s.box_y)
    assert sum(cells) <= 0.25 * full


def test_nan_cell_is_a_numeric_error():
    """x^400 - y^400 is inf - inf at the corners of [-6, 6]^2: the search
    reaches a NaN cell and stops, where the whole-table scan returned the
    first NaN row as x*."""
    w = unit_weighted([(parse_expr("(sub (pow x0 400) (pow y0 400))"), {})])
    box = BoxSet((-6.0,), (6.0,))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(reference.grid_minimax(w, box, box, 101).value)
        with pytest.raises(NumericError, match=r"NaN.*run\.oracle"):
            grid_minimax(w, box, box, resolution=101)
