"""Expression trees: interpretation, code generation, subgradients,
serialization, and boxes."""

import itertools
import math
import warnings

import canonical_reference as ref
from canonical_reference import (evaluate, lipschitz_bound, project,
                                 subgradient_x, subgradient_y)
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashnet.catalog import CATALOG
from nashnet.errors import ValidationError
from nashnet.exprs import (Abs, Affine, BoxSet, Const, Neg, Pow, Prod, Scale,
                           Sum, Var, check_selection, compile_objective,
                           convexity_points, dimensions, format_expr,
                           objective_code, parse_expr, sample_convexity,
                           worst_violations, x_var, y_var)
from nashnet.scenario_io import BUNDLED, bundled_scenario


def test_evaluate_basic_nodes():
    x, y = x_var(0), y_var(0)
    assert evaluate(Const(3.0), [0], [0]) == 3.0
    assert evaluate(x + y, [2], [5]) == 7.0
    assert evaluate(x - 1, [2], [0]) == 1.0
    assert evaluate(Scale(2.5, x), [4], [0]) == 10.0
    assert evaluate(Prod((x, y)), [3], [4]) == 12.0
    assert evaluate(Pow(x, 3), [2], [0]) == 8.0
    assert evaluate(Abs(y), [0], [-6]) == 6.0
    assert evaluate(Affine((2.0,), (-1.0,), 0.5), [3], [4]) == 2.5


def test_operator_overloads_coerce_numbers():
    x = x_var(0)
    e = 2 * x + 1 - x ** 2
    assert evaluate(e, [3.0], [0.0]) == pytest.approx(2 * 3 + 1 - 9)
    assert evaluate(-x, [4.0], [0.0]) == -4.0


def test_constructors_coerce_numbers():
    e = Sum((20, Neg(Pow(x_var(0), 2))))
    assert evaluate(e, [2.0], [0.0]) == 16.0


def test_dimensions():
    e = Prod((Var("x", 2), Var("y", 0)))
    assert dimensions(e) == (3, 1)
    assert dimensions(Const(1.0)) == (0, 0)


def test_selection_validation():
    e = Abs(x_var(0))
    assert check_selection(e, {0: 0.5}) == {0: 0.5}
    assert check_selection(e, None) == {0: 0.0}
    with pytest.raises(ValidationError):
        check_selection(e, {1: 0.0})
    with pytest.raises(ValidationError):
        check_selection(e, {0: 1.5})


def test_kink_selection_used_at_zero():
    e = Abs(Sum((x_var(0), Neg(1))))  # |x - 1|
    assert subgradient_x(e, [1.0], [0.0], {0: 1.0})[0] == 1.0
    assert subgradient_x(e, [1.0], [0.0], {0: -0.25})[0] == -0.25
    assert subgradient_x(e, [2.0], [0.0], {0: -1.0})[0] == 1.0
    assert subgradient_x(e, [0.0], [0.0], {0: 1.0})[0] == -1.0


def test_known_gradient():
    # f3 = (x-1)^4 - 2 y^2: df/dx = 4 (x-1)^3, df/dy = -4 y
    ent = CATALOG["f3"]
    gx = subgradient_x(ent.expr, [3.0], [2.0])
    gy = subgradient_y(ent.expr, [3.0], [2.0])
    assert gx[0] == pytest.approx(4 * 2 ** 3)
    assert gy[0] == pytest.approx(-8.0)


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("which", ["value", "x", "y", "both"])
def test_codegen_matches_interpreter(name, which):
    ent = CATALOG[name]
    fn = compile_objective(ent.expr, ent.selection, 1, 1, which=which)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = [float(rng.uniform(-5, 5))]
        y = [float(rng.uniform(-5, 5))]
        out = fn(x, y)
        v = evaluate(ent.expr, x, y)
        if which == "value":
            assert out == pytest.approx(v, abs=1e-12)
            continue
        assert out[0] == pytest.approx(v, abs=1e-12)
        if which in ("x", "both"):
            assert out[1][0] == pytest.approx(
                subgradient_x(ent.expr, x, y, ent.selection)[0], abs=1e-12)
        if which in ("y", "both"):
            assert out[-1][0] == pytest.approx(
                subgradient_y(ent.expr, x, y, ent.selection)[0], abs=1e-12)


def test_codegen_at_kinks():
    ent = CATALOG["g1"]
    fn = compile_objective(ent.expr, ent.selection, 1, 1, which="y")
    # y subgradient of g1 at y = 0 with the +1 kink choice: -1 + (20 - x^2)
    for xv in (0.0, 1.0, -2.0):
        _, gy = fn([xv], [0.0])
        assert gy[0] == pytest.approx(-1.0 + (20 - xv ** 2), abs=1e-12)


def test_codegen_vector_mode():
    ent = CATALOG["g2"]
    fn = compile_objective(ent.expr, ent.selection, 1, 1, which="value", vector=True)
    xs = np.linspace(-5, 5, 9)
    ys = np.linspace(-5, 5, 11)
    table = fn([xs[:, None]], [ys[None, :]])
    ref = np.array([[evaluate(ent.expr, [a], [b]) for b in ys] for a in xs])
    np.testing.assert_allclose(table, ref, atol=1e-12)


def test_codegen_multidimensional():
    e = Sum((Pow(Var("x", 0), 2), Pow(Var("x", 1), 2), Neg(Pow(Var("y", 0), 2))))
    fn = compile_objective(e, None, 2, 1, which="both")
    v, gx, gy = fn([1.0, 2.0], [3.0])
    assert v == pytest.approx(1 + 4 - 9)
    assert gx == pytest.approx((2.0, 4.0))
    assert gy == pytest.approx((-6.0,))
    assert fn([1.0, 2.0], [3.0])[1:] == compile_objective(e, None, 2, 1, which=("x", "y"))(
        [1.0, 2.0], [3.0])


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def _emitted_gradient(e, sel, m1, m2, side):
    """The derivative code `objective_code` emits for `side`, on scalar
    arguments named like the engine's locals, as a function of x..., y..."""
    xs, ys = [f"u{d}" for d in range(m1)], [f"c{d}" for d in range(m2)]
    lines, (grad,) = objective_code(e, sel, m1, m2, (side,), x=xs, y=ys)
    src = "\n".join([f"def _grad({', '.join(xs + ys)}):"] + ["    " + ln for ln in lines]
                    + ["    return (" + "".join(f"({q}), " for q in grad) + ")"])
    env = {}
    exec(src, env)  # noqa: S102 - source generated by the code under test
    return env["_grad"]


def _assert_emitted_equals_closure(e, sel, m1, m2, points):
    """At every (x, y), each block's emitted derivative equals the closure's
    bit for bit."""
    for side in ("x", "y"):
        emitted = _emitted_gradient(e, sel, m1, m2, side)
        closure = compile_objective(e, sel, m1, m2, which=side)
        for x, y in points:
            try:
                want = closure(x, y)[1]
            except OverflowError:  # in the value, which the emitted code leaves out
                continue
            assert _bits(emitted(*x, *y)) == _bits(want), (format_expr(e), sel, side, x, y)


# coordinates and constants drawn from one small set put many abs arguments
# exactly at their kink (x0 + -1.0 at x0 = 1.0, |y0| at +-0.0)
KINKY = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5)


@pytest.mark.parametrize("name", BUNDLED)
def test_emitted_gradient_equals_closure_on_bundled_objectives(name):
    s = bundled_scenario(name)
    rng = np.random.default_rng(11)
    grid = [list(p) for p in itertools.product(KINKY, repeat=s.m1 + s.m2)]
    grid += rng.uniform(-5, 5, (200, s.m1 + s.m2)).tolist()
    points = [(p[:s.m1], p[s.m1:]) for p in grid]
    for e, sel in tuple(s.objectives1) + tuple(s.objectives2):
        _assert_emitted_equals_closure(e, sel, s.m1, s.m2, points)


def _kinky_exprs(m1, m2):
    num = st.sampled_from(KINKY)
    var = st.one_of(st.builds(Var, st.just("x"), st.integers(0, m1 - 1)),
                    st.builds(Var, st.just("y"), st.integers(0, m2 - 1)))
    leaves = st.one_of(
        var, st.builds(Const, num),
        st.builds(lambda v, c: Sum((v, Const(c))), var, num),
        st.builds(Affine, st.lists(num, min_size=1, max_size=m1).map(tuple),
                  st.lists(num, min_size=1, max_size=m2).map(tuple), num))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Pow, kids, st.integers(1, 6)),
        st.builds(Abs, kids), st.builds(Neg, kids),
        st.builds(Scale, num, kids),
        st.lists(kids, min_size=2, max_size=3).map(lambda c: Sum(tuple(c))),
        st.lists(kids, min_size=2, max_size=3).map(lambda c: Prod(tuple(c)))),
        max_leaves=8)


@st.composite
def _kinky_problems(draw):
    m1, m2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    e = draw(_kinky_exprs(m1, m2))
    n_abs = len(check_selection(e, None))
    sel = {k: draw(st.sampled_from((-1.0, -0.5, -0.0, 0.25, 1.0))) for k in range(n_abs)
           if draw(st.booleans())}
    coords = st.lists(st.one_of(st.sampled_from(KINKY), st.floats(-3, 3)),
                      min_size=m1 + m2, max_size=m1 + m2)
    points = [(p[:m1], p[m1:]) for p in draw(st.lists(coords, min_size=1, max_size=8))]
    return e, sel, m1, m2, points


@settings(max_examples=200, deadline=None)
@given(_kinky_problems())
def test_emitted_gradient_equals_closure_on_random_expressions(problem):
    _assert_emitted_equals_closure(*problem)


@st.composite
def _scaled_products(draw):
    """Products of two to four factors under Scale and Neg, nested, with
    points to evaluate them at."""
    m1, m2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    num = st.floats(-3, 3)
    var = st.one_of(st.builds(Var, st.just("x"), st.integers(0, m1 - 1)),
                    st.builds(Var, st.just("y"), st.integers(0, m2 - 1)))
    leaf = st.one_of(var, st.builds(lambda v, c: Sum((v, Const(c))), var, num))
    e = draw(st.recursive(
        st.lists(leaf, min_size=2, max_size=4).map(lambda c: Prod(tuple(c))),
        lambda kids: st.one_of(
            st.builds(Scale, num, kids), st.builds(Neg, kids),
            st.lists(st.one_of(kids, leaf), min_size=2, max_size=3).map(
                lambda c: Prod(tuple(c)))),
        max_leaves=10))
    coords = st.lists(num, min_size=m1 + m2, max_size=m1 + m2)
    points = [(p[:m1], p[m1:]) for p in draw(st.lists(coords, min_size=1, max_size=8))]
    return e, m1, m2, points


@settings(max_examples=200, deadline=None)
@given(_scaled_products())
def test_emitted_derivative_of_scaled_products_equals_interpreter(problem):
    """A Scale or Neg over a product multiplies the whole derivative term,
    as the interpreter's `_grad` does: equal values, +0.0 and -0.0 alike."""
    e, m1, m2, points = problem
    for side, reference in (("x", subgradient_x), ("y", subgradient_y)):
        emitted = _emitted_gradient(e, None, m1, m2, side)
        for x, y in points:
            assert list(emitted(*x, *y)) == reference(e, x, y).tolist(), \
                (format_expr(e), side, x, y)


def test_objective_code_drops_unread_temporaries():
    """Only the temporaries an output reads survive: a derivative alone
    computes no value of a power or absolute value, and a value alone no
    derivative factor or kink sign."""
    f3 = CATALOG["f3"].expr  # (x - 1)^4 - 2 y^2
    lines, (gx,) = objective_code(f3, None, 1, 1, ("x",), x=["u"], y=["c"])
    assert lines == ["t1 = u + (-1.0)", "t3 = 4.0 * t1 ** 3"] and gx == ["(t3 * 1.0)"]
    lines, (gy,) = objective_code(f3, None, 1, 1, ("y",), x=["u"], y=["c"])
    assert lines == ["t5 = 2.0 * c"] and gy == ["(-(2.0 * (t5 * 1.0)))"]
    f2 = CATALOG["f2"]  # |x - 1| - |y|
    lines, (gx,) = objective_code(f2.expr, f2.selection, 1, 1, ("x",), x=["u"], y=["c"])
    assert lines == ["t1 = u + (-1.0)", "t3 = 1.0 if t1 > 0.0 else (-1.0 if t1 < 0.0 else 1.0)"]
    lines, (v,) = objective_code(f2.expr, f2.selection, 1, 1, "value", x=["u"], y=["c"])
    assert lines == ["t1 = u + (-1.0)", "t2 = abs(t1)", "t4 = abs(c)", "t6 = t2 + (-t4)"]
    assert v == "t6"
    for bad in ("gradient", ("gradient",), (), "xy"):
        with pytest.raises(ValueError):
            objective_code(f3, None, 1, 1, bad)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_prefix_roundtrip_catalog(name):
    ent = CATALOG[name]
    text = format_expr(ent.expr)
    assert parse_expr(text) == ent.expr
    assert format_expr(parse_expr(text)) == text


def test_parse_affine_and_errors():
    e = parse_expr("(affine (2 0.5) (-1) 3)")
    assert e == Affine((2.0, 0.5), (-1.0,), 3.0)
    for bad in ("", "(pow x0 1.5)", "(frob x0)", "(abs x0", "x0 y0", "z3"):
        with pytest.raises(ValidationError):
            parse_expr(bad)


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
@example(-0.0, 0.0, -0.0)
@example(0.0, -0.0, -3.0)
def test_parse_format_numbers(a, b, c):
    """Every number survives format/parse as the same double, -0.0 included."""
    e = Sum((Scale(a, x_var(0)), Scale(b, y_var(0)), Const(c), Affine((a, c), (b,), c)))
    again = parse_expr(format_expr(e))
    sa, sb, cc, aff = again.children
    assert _bits([sa.factor, sb.factor, cc.value, *aff.coeff_x, *aff.coeff_y, aff.offset]) == \
        _bits([a, b, c, a, c, b, c])


def test_box_validation_and_projection():
    box = BoxSet((-1.0, 0.0), (1.0, 2.0))
    assert box.dim == 2
    np.testing.assert_allclose(ref.center(box), [0.0, 1.0])
    np.testing.assert_allclose(project([5.0, -3.0], box), [1.0, 0.0])
    np.testing.assert_allclose(project([0.5, 1.5], box), [0.5, 1.5])
    assert ref.contains(box, [1.0, 2.0])
    assert not ref.contains(box, [1.1, 2.0])
    with pytest.raises(ValidationError):
        BoxSet((1.0,), (0.0,))
    with pytest.raises(ValueError):
        project([0.0], box)


def test_lipschitz_bound_quadratic():
    # |d/dx x^2| on [-5, 5] peaks at 10
    e = Pow(x_var(0), 2)
    box = BoxSet((-5.0,), (5.0,))
    assert lipschitz_bound(e, box, box) == pytest.approx(10.0)


def test_sample_convexity_flags_the_bad_region():
    box5 = BoxSet((-5.0,), (5.0,))
    # x^2 - y^2 is fine everywhere
    assert sample_convexity(Sum((Pow(x_var(0), 2), Neg(Pow(y_var(0), 2)))),
                            box5, box5) == []
    # f1 loses concavity in y for |x| > sqrt(20)
    flagged = sample_convexity(CATALOG["f1"].expr, box5, box5)
    assert any("concavity" in w for w in flagged)
    bound = CATALOG["f1"].y_concavity_x_bound
    inner = BoxSet((-bound,), (bound,))
    assert sample_convexity(CATALOG["f1"].expr, inner, box5) == []


INF = float("inf")


@pytest.mark.parametrize("m1", [1, 2, 3])
@pytest.mark.parametrize("m2", [1, 2, 3])
def test_convexity_points_equal_the_sequential_stream(m1, m2):
    """One rng.random block reproduces per-trial rng.uniform calls byte for
    byte, an unbounded side (sampled on [-1e6, 1e6]) included."""
    bx = BoxSet((-INF,) + (-1.5,) * (m1 - 1), (2.0,) * (m1 - 1) + (INF,))
    by = BoxSet(tuple(-0.5 * d for d in range(m2)), tuple(1.0 + d for d in range(m2)))
    for trials, seed in ((1, 0), (37, 0), (200, 9)):
        batched = convexity_points(bx, by, trials, seed)
        sequential = ref.convexity_points(bx, by, trials, seed)
        assert [p.shape for p in batched] == [(trials, m) for m in (m1, m1, m2, m2, m2, m1)]
        assert [p.tobytes() for p in batched] == [p.tobytes() for p in sequential]


def _assert_worst_match(e, bx, by, trials, seed=0):
    """Batched worst violations equal the per-trial interpreter loop within
    1e-12 relative to the sample's magnitude: numpy and Python float `**`
    may differ by an ulp, and the vector code may sum an affine node in
    another order."""
    wx, wy, finite = worst_violations(e, bx, by, trials, seed)
    rx, ry, scale = ref.worst_violations(e, bx, by, trials, seed)
    assert finite
    assert wx == pytest.approx(rx, rel=1e-12, abs=1e-12 * scale)
    assert wy == pytest.approx(ry, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("name", BUNDLED)
def test_worst_violations_match_reference_on_bundled_objectives(name):
    s = bundled_scenario(name)
    for e, _ in tuple(s.objectives1) + tuple(s.objectives2):
        _assert_worst_match(e, s.box_x, s.box_y, 200)


def _exprs(m1, m2):
    leaves = st.one_of(
        st.builds(Var, st.just("x"), st.integers(0, m1 - 1)),
        st.builds(Var, st.just("y"), st.integers(0, m2 - 1)),
        st.builds(Const, st.floats(-3, 3)),
        st.builds(Affine, st.lists(st.floats(-2, 2), min_size=1, max_size=m1).map(tuple),
                  st.lists(st.floats(-2, 2), min_size=1, max_size=m2).map(tuple),
                  st.floats(-1, 1)))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Pow, kids, st.integers(2, 6)),
        st.builds(Neg, kids), st.builds(Abs, kids),
        st.builds(Scale, st.floats(-2, 2), kids),
        st.lists(kids, min_size=2, max_size=3).map(lambda c: Sum(tuple(c))),
        st.lists(kids, min_size=2, max_size=2).map(lambda c: Prod(tuple(c)))),
        max_leaves=6)


@st.composite
def _sampled_problems(draw):
    m1, m2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    lo = draw(st.lists(st.floats(-1.5, 0.0), min_size=m1 + m2, max_size=m1 + m2))
    hi = draw(st.lists(st.floats(0.0, 1.5), min_size=m1 + m2, max_size=m1 + m2))
    return (draw(_exprs(m1, m2)), BoxSet(lo[:m1], hi[:m1]), BoxSet(lo[m1:], hi[m1:]),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=100, deadline=None)
@given(_sampled_problems())
def test_worst_violations_match_reference_on_random_expressions(problem):
    e, bx, by, seed = problem
    _assert_worst_match(e, bx, by, 40, seed)


def test_sample_convexity_without_trials_or_variables_finds_nothing():
    box = BoxSet((-5.0,), (5.0,))
    assert sample_convexity(CATALOG["f1"].expr, box, box, trials=0) == []
    assert worst_violations(CATALOG["f1"].expr, box, box, 0, 0) == (0.0, 0.0, True)
    for const in (Const(3.0), Sum((Const(1.0), Scale(2.0, Const(-4.0))))):
        assert sample_convexity(const, box, box) == []


def test_sample_convexity_warns_on_non_finite_values():
    """x0^60 overflows on a +-1e6 box: the sample reports it, and no numpy
    RuntimeWarning escapes."""
    wide, box5 = BoxSet((-1e6,), (1e6,)), BoxSet((-5.0,), (5.0,))
    concave = parse_expr("(sub (pow x0 60) (pow y0 2))")
    # y^2 where x0^60 is finite, NaN (inf - inf) where it overflows
    convex = parse_expr("(add (sub (pow x0 60) (pow x0 60)) (pow y0 2))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample_convexity(concave, wide, box5, trials=200) == ["objective not finite on sample"]
        # a chord sum that overflows while the midpoint value does not is an
        # excess of inf, as it is for Python floats
        assert sample_convexity(concave, wide, box5, trials=1000) == [
            "concavity in y violated on sample by inf", "objective not finite on sample"]
        # NaN excesses are skipped: the finite trials still show y^2 convex
        _, worst_y, finite = worst_violations(convex, wide, box5, 200, 0)
        flagged = sample_convexity(convex, wide, box5, trials=200)
    assert 0.0 < worst_y <= 25.0 and not finite
    assert flagged == [f"concavity in y violated on sample by {worst_y:.3e}",
                       "objective not finite on sample"]


def test_sample_convexity_rejects_missing_dimensions():
    box = BoxSet((-1.0,), (1.0,))
    with pytest.raises(ValueError, match="needs dims"):
        sample_convexity(Var("x", 1), box, box)


def test_zero_sum_identity():
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = [float(rng.uniform(-5, 5))]
        y = [float(rng.uniform(-5, 5))]
        sf = sum(evaluate(CATALOG[n].expr, x, y) for n in ("f1", "f2", "f3"))
        sg = sum(evaluate(CATALOG[n].expr, x, y) for n in ("g1", "g2"))
        assert sf == pytest.approx(sg, abs=1e-9)
