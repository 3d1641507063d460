"""Saddle-point oracles: grid min-max, the centralized recursion, and
candidate certification."""

import numpy as np
import pytest
import yaml
from canonical_reference import (centralized_saddle, per_term_value, subnet1_objectives,
                                 table_extremes, verify_saddle, whole_table)
from test_scenario_io import _many_agents_doc

from nashnet import saddle
from nashnet.errors import ResourceError
from nashnet.exprs import (Abs, BoxSet, Const, Neg, Pow, Prod, Scale, Sum, Var,
                           compile_objective, parse_expr, x_var, y_var)
from nashnet.saddle import (BUDGET_ENV, DEFAULT_BUDGET, WeightedObjective,
                            grid_budget, grid_minimax, unit_weighted)
from nashnet.scenario_io import bundled_scenario, loads_scenario
from nashnet.stepsizes import GammaSchedule

BOX5 = BoxSet((-5.0,), (5.0,))


def bilinear_toy():
    # x^2 - y^2, saddle exactly at the origin
    return unit_weighted([(Sum((Pow(x_var(0), 2), Neg(Pow(y_var(0), 2)))), {})])


def test_weighted_objective_validation():
    e = Pow(x_var(0), 2)
    with pytest.raises(ValueError):
        WeightedObjective(((0.0, e, {}),))
    WeightedObjective(((2.0, e, {}), (1.0, e, {})))


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
        Pow(Sum((x_var(0), Neg(1.3))), 2),
        Pow(Sum((x_var(0), Neg(1.3))), 2),
        Neg(Pow(Sum((y_var(0), 0.4)), 2)),
    ))
    report = grid_minimax(unit_weighted([(e, {})]), BOX5, BOX5, resolution=501)
    assert report.x_star[0] == pytest.approx(1.3, abs=1e-6)
    assert report.y_star[0] == pytest.approx(-0.4, abs=1e-6)


def test_grid_budget_enforced(monkeypatch):
    with pytest.raises(ResourceError):
        grid_minimax(bilinear_toy(), BOX5, BOX5, resolution=101, budget=100)
    monkeypatch.setenv(BUDGET_ENV, "100")
    assert grid_budget() == 100
    with pytest.raises(ResourceError):
        grid_minimax(bilinear_toy(), BOX5, BOX5, resolution=101)
    monkeypatch.setenv(BUDGET_ENV, "junk")
    with pytest.raises(ResourceError):
        grid_budget()
    monkeypatch.delenv(BUDGET_ENV)
    assert grid_budget() == DEFAULT_BUDGET


def test_grid_rejects_high_dimensions():
    box3 = BoxSet((-1.0,) * 3, (1.0,) * 3)
    e = Sum(tuple(Pow(Var("x", d), 2) for d in range(3)) + (Neg(Pow(y_var(0), 2)),))
    with pytest.raises(ResourceError, match=r"store a reference under run\.oracle "
                                            r"\(x_star, y_star\) in the scenario document"):
        grid_minimax(unit_weighted([(e, {})]), box3, BOX5, resolution=11)


def test_grid_two_dimensional_blocks():
    # x1^2 + (x2-1)^2 - y1^2 - (y2+1)^2 on [-2,2]^2 blocks
    e = Sum((Pow(Var("x", 0), 2), Pow(Sum((Var("x", 1), Neg(1))), 2),
             Neg(Pow(Var("y", 0), 2)), Neg(Pow(Sum((Var("y", 1), 1)), 2))))
    box = BoxSet((-2.0, -2.0), (2.0, 2.0))
    report = grid_minimax(unit_weighted([(e, {})]), box, box, resolution=41)
    np.testing.assert_allclose(report.x_star, [0.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(report.y_star, [0.0, -1.0], atol=1e-6)


def test_centralized_saddle_agrees_with_grid():
    sched = GammaSchedule(c=1.0, b=1.0, eps=0.5)
    report = centralized_saddle(unit_weighted(subnet1_objectives()), BOX5, BOX5,
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


def _per_term_report(monkeypatch, w, bx, by, **kwargs):
    """grid_minimax with one closure per term and the table in one call."""
    with monkeypatch.context() as m:
        m.setattr(WeightedObjective, "compiled", per_term_value)
        m.setattr(saddle, "_row_blocks", lambda fn, x, y: iter([whole_table(fn, x, y)]))
        return grid_minimax(w, bx, by, **kwargs)


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


def _assert_matches_per_term(monkeypatch, w, bx, by, resolution):
    oracle = per_term_value(w, bx.dim, by.dim)
    fn = w.compiled(bx.dim, by.dim)
    xpts = saddle._mesh(saddle._axis_grids(bx, resolution))
    ypts = saddle._mesh(saddle._axis_grids(by, resolution))
    table = np.concatenate(list(saddle._row_blocks(fn, xpts, ypts)))
    assert table.tobytes() == whole_table(oracle, xpts, ypts).tobytes()
    assert (grid_minimax(w, bx, by, resolution=resolution)
            == _per_term_report(monkeypatch, w, bx, by, resolution=resolution))
    return table


def test_weighted_sum_matches_per_term_on_many_agents(monkeypatch):
    text = yaml.dump(_many_agents_doc(1, 100), sort_keys=False,
                     Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    s = loads_scenario(text)
    w = unit_weighted(s.objectives1)
    assert len(w.terms) == 100 and _closures(monkeypatch, w, 1, 1) == 3
    _assert_matches_per_term(monkeypatch, w, s.box_x, s.box_y, 2001)


def test_weighted_sum_matches_per_term_with_oracle_weights(monkeypatch):
    # as `oracle --weights` builds it, plus repeated expressions under
    # different weights
    objectives = bundled_scenario("example1").objectives1
    weights = (0.1, 2.5, 1.0 / 3.0, 1.0, 7.25, 0.3)
    w = WeightedObjective(tuple((v, e, sel) for v, (e, sel)
                                in zip(weights, objectives + objectives)))
    _assert_matches_per_term(monkeypatch, w, BOX5, BOX5, 401)


def test_weighted_sum_negative_zero_term(monkeypatch):
    # -(x0^2) is -0.0 on the x = 0 row; the per-term sum starts at integer 0,
    # and 0 + -0.0 is +0.0
    e = parse_expr("(neg (pow x0 2))")
    w = WeightedObjective(((1.0, e, {}), (2.0, e, {})))
    table = _assert_matches_per_term(monkeypatch, w, BOX5, BOX5, 11)
    assert not np.signbit(table[5]).any() and _closures(monkeypatch, w, 1, 1) == 1
    # constants that print alike but differ in sign stay distinct closures
    zeros = WeightedObjective(((1.0, Prod((x_var(0), Const(-0.0))), {}),
                               (1.0, Prod((x_var(0), Const(0.0))), {})))
    _assert_matches_per_term(monkeypatch, zeros, BOX5, BOX5, 11)
    assert _closures(monkeypatch, zeros, 1, 1) == 2


def test_weighted_sum_broadcast_shapes(monkeypatch):
    # x-only, y-only and constant-only terms come back as (Nx, 1), (1, Ny)
    # and a float; the kink term repeats under another selection, which its
    # value ignores
    e_x = Pow(Sum((x_var(0), Neg(1.3))), 2)
    e_y = Neg(Pow(Sum((y_var(0), 0.4)), 2))
    e_xy = Sum((Abs(Sum((x_var(0), Neg(y_var(0))))), Scale(0.5, x_var(0))))
    terms = ((1.0, e_x, {}), (1.5, e_y, {}), (2.0, Const(3.5), {}),
             (1.0, e_xy, {0: 1.0}), (0.75, e_xy, {0: -1.0}), (1.0, Const(-1.0), {}))
    for k in range(1, len(terms) + 1):
        _assert_matches_per_term(monkeypatch, WeightedObjective(terms[:k]), BOX5, BOX5, 101)
    assert _closures(monkeypatch, WeightedObjective(terms), 1, 1) == 5
    # the constant alone still fills the whole table
    table = _assert_matches_per_term(monkeypatch, WeightedObjective(terms[2:3]), BOX5, BOX5, 11)
    assert table.shape == (11, 11) and (table == 7.0).all()


def test_weighted_sum_two_dimensional_blocks(monkeypatch):
    terms = [Pow(Var("x", 0), 2), Pow(Sum((Var("x", 1), Neg(1))), 2),
             Neg(Pow(Var("y", 0), 2)), Neg(Pow(Sum((Var("y", 1), 1)), 2)),
             Prod((Var("x", 0), Var("y", 1)))]
    w = WeightedObjective(tuple((1.0 + 0.5 * i, e, {}) for i, e in enumerate(terms + terms)))
    _assert_matches_per_term(monkeypatch, w, BOX2, BOX2, 21)


@pytest.mark.parametrize("chunk", [7 * 41, 40])
def test_eval_table_blocks_with_short_last_block(monkeypatch, chunk):
    # 41 rows of 41 cells: 7-row blocks end on a 6-row block, and chunks
    # below one row still take a whole row
    monkeypatch.setattr(saddle, "TABLE_CHUNK", chunk)
    w = unit_weighted(subnet1_objectives())
    oracle = per_term_value(w, 1, 1)
    fn = w.compiled(1, 1)
    xpts = saddle._mesh(saddle._axis_grids(BOX5, 41))
    calls = []

    def counted(x, y):
        calls.append(len(x[0]))
        return fn(x, y)
    table = np.concatenate(list(saddle._row_blocks(counted, xpts, xpts)))
    assert table.tobytes() == whole_table(oracle, xpts, xpts).tobytes()
    assert sum(calls) == 41 and calls[-1] == 41 - (len(calls) - 1) * calls[0]
    assert (grid_minimax(w, BOX5, BOX5, resolution=41)
            == _per_term_report(monkeypatch, w, BOX5, BOX5, resolution=41))


def test_weighted_sum_series_calls():
    # the metrics' series calls
    objectives = bundled_scenario("example1").objectives1
    w = WeightedObjective(tuple((v, e, sel) for v, (e, sel)
                                in zip((0.2, 1.0, 3.0), objectives)))
    series = np.linspace(-3.0, 4.0, 1001)
    fn, oracle = w.compiled(1, 1), per_term_value(w, 1, 1)
    for x, y in (([series], [np.array([0.88])]), ([np.array([0.61])], [series])):
        assert fn(x, y).tobytes() == np.asarray(oracle(x, y), dtype=float).tobytes()


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "perron_weighted",
                                  "shared_saddle"])
def test_grid_minimax_equals_the_whole_table_reference(monkeypatch, name):
    """Row maxima and running column minima from row blocks give the report
    the whole held table gives, on every bundled scenario."""
    s = bundled_scenario(name)
    w = unit_weighted(s.objectives1)
    report = grid_minimax(w, s.box_x, s.box_y)
    with monkeypatch.context() as m:
        m.setattr(saddle, "_row_max_col_min", table_extremes)
        assert report == grid_minimax(w, s.box_x, s.box_y)


@pytest.mark.parametrize("chunk", [1, 7 * 41, 40 * 41, 100 * 41])
def test_column_minima_fold_like_the_whole_table(monkeypatch, chunk):
    """Blocks of 1, 7, 40 and all 41 rows leave the row maxima and column
    minima as the whole table has them, signed zeros included."""
    monkeypatch.setattr(saddle, "TABLE_CHUNK", chunk)
    xpts = saddle._mesh(saddle._axis_grids(BOX5, 41))

    def value(x, y):  # each column's minimum is zero, signed by row, in many rows
        base = np.maximum(np.abs(x[0] - y[0]) - 2.0, 0.0)
        return np.where(base == 0, np.where(x[0] * 4 % 2 == 0, -0.0, 0.0), base)
    got, want = saddle._row_max_col_min(value, xpts, xpts), table_extremes(value, xpts, xpts)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


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
