"""Expression trees: interpretation, code generation, subgradients,
serialization, and boxes."""

import itertools
import math
import warnings
from importlib import resources

import canonical_reference as ref
from canonical_reference import (evaluate, lipschitz_bound, neg, project, scale,
                                 subgradient_x, subgradient_y)
import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashnet.catalog import CATALOG
from nashnet.errors import ValidationError
from nashnet.exprs import (Abs, BoxSet, Const, Pow, Prod, Sum,
                           Var, check_selection, compile_objective,
                           convexity_points, dimensions, format_expr,
                           objective_code, parse_expr, sample_convexity,
                           worst_violations)
from nashnet.scenario_io import BUNDLED, bundled_scenario


def test_evaluate_basic_nodes():
    x, y = Var("x", 0), Var("y", 0)
    assert evaluate(Const(3.0), [0], [0]) == 3.0
    assert evaluate(Sum((x, y)), [2], [5]) == 7.0
    assert evaluate(Sum((x, neg(1))), [2], [0]) == 1.0
    assert evaluate(scale(2.5, x), [4], [0]) == 10.0
    assert evaluate(Prod((x, y)), [3], [4]) == 12.0
    assert evaluate(Pow(x, 3), [2], [0]) == 8.0
    assert evaluate(Abs(y), [0], [-6]) == 6.0
    assert evaluate(ref.affine((2.0,), (-1.0,), 0.5), [3], [4]) == 2.5


def test_constructors_coerce_numbers():
    e = Sum((20, neg(Pow(Var("x", 0), 2))))
    assert evaluate(e, [2.0], [0.0]) == 16.0


def test_dimensions():
    e = Prod((Var("x", 2), Var("y", 0)))
    assert dimensions(e) == (3, 1)
    assert dimensions(Const(1.0)) == (0, 0)


def test_selection_validation():
    e = Abs(Var("x", 0))
    assert check_selection(e, {0: 0.5}) == {0: 0.5}
    assert check_selection(e, None) == {0: 0.0}
    with pytest.raises(ValidationError):
        check_selection(e, {1: 0.0})
    with pytest.raises(ValidationError):
        check_selection(e, {0: 1.5})


def test_kink_selection_used_at_zero():
    e = Abs(Sum((Var("x", 0), neg(1))))  # |x - 1|
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
@pytest.mark.parametrize("which", ["value", "x", "y"])
def test_codegen_matches_interpreter(name, which):
    e, sel = CATALOG[name].expr, CATALOG[name].selection
    if which == "value":
        fn, want = compile_objective(e, 1, 1), (lambda x, y: evaluate(e, x, y))
    else:
        derivative = ref.emitted_derivative(e, sel, 1, 1, which)
        reference = subgradient_x if which == "x" else subgradient_y
        fn, want = (lambda x, y: derivative(x, y)[0]), (lambda x, y: reference(e, x, y, sel)[0])
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = [float(rng.uniform(-5, 5))]
        y = [float(rng.uniform(-5, 5))]
        assert fn(x, y) == pytest.approx(want(x, y), abs=1e-12)


def test_codegen_at_kinks():
    ent = CATALOG["g1"]
    fn = ref.emitted_derivative(ent.expr, ent.selection, 1, 1, "y")
    # y subgradient of g1 at y = 0 with the +1 kink choice: -1 + (20 - x^2)
    for xv in (0.0, 1.0, -2.0):
        gy = fn([xv], [0.0])
        assert gy[0] == pytest.approx(-1.0 + (20 - xv ** 2), abs=1e-12)


def test_codegen_vector_mode():
    ent = CATALOG["g2"]
    fn = compile_objective(ent.expr, 1, 1, vector=True)
    xs = np.linspace(-5, 5, 9)
    ys = np.linspace(-5, 5, 11)
    table = fn([xs[:, None]], [ys[None, :]])
    ref = np.array([[evaluate(ent.expr, [a], [b]) for b in ys] for a in xs])
    np.testing.assert_allclose(table, ref, atol=1e-12)


def test_codegen_multidimensional():
    e = Sum((Pow(Var("x", 0), 2), Pow(Var("x", 1), 2), neg(Pow(Var("y", 0), 2))))
    assert compile_objective(e, 2, 1)([1.0, 2.0], [3.0]) == pytest.approx(1 + 4 - 9)
    assert ref.emitted_derivative(e, None, 2, 1, "x")([1.0, 2.0], [3.0]) == pytest.approx((2.0, 4.0))
    assert ref.emitted_derivative(e, None, 2, 1, "y")([1.0, 2.0], [3.0]) == pytest.approx((-6.0,))


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def _assert_emitted_equals_interpreter(e, sel, m1, m2, points):
    """At every (x, y) where the interpreter's derivative is finite, each
    block's emitted derivative equals it, +0.0 and -0.0 alike. The emitted
    code skips structurally zero terms, which the interpreter adds as
    ``inf * 0.0`` = NaN once a factor overflows."""
    for side, reference in (("x", subgradient_x), ("y", subgradient_y)):
        emitted = ref.emitted_derivative(e, sel, m1, m2, side)
        for x, y in points:
            try:
                with np.errstate(all="ignore"):
                    want = reference(e, x, y, sel)
            except OverflowError:  # a power the emitted code may not compute
                continue
            if np.isfinite(want).all():
                assert list(emitted(x, y)) == want.tolist(), (format_expr(e), sel, side, x, y)


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
        _assert_emitted_equals_interpreter(e, sel, s.m1, s.m2, points)


def _kinky_exprs(m1, m2):
    num = st.sampled_from(KINKY)
    var = st.one_of(st.builds(Var, st.just("x"), st.integers(0, m1 - 1)),
                    st.builds(Var, st.just("y"), st.integers(0, m2 - 1)))
    leaves = st.one_of(
        var, st.builds(Const, num),
        st.builds(lambda v, c: Sum((v, Const(c))), var, num),
        st.builds(ref.affine, st.lists(num, min_size=1, max_size=m1),
                  st.lists(num, min_size=1, max_size=m2), num))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Pow, kids, st.integers(1, 6)),
        st.builds(Abs, kids), st.builds(neg, kids),
        st.builds(scale, num, kids),
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
# (-2.0 + 1.0) opens with "(-" but is no negation as a whole: its negation is 1.0
@example((neg(Sum((ref.affine((-2.0,), (-2.0,), -2.0), Var("x", 0)))), {}, 1, 1, [([-2.0], [-2.0])]))
def test_emitted_gradient_equals_closure_on_random_expressions(problem):
    _assert_emitted_equals_interpreter(*problem)


@st.composite
def _scaled_products(draw):
    """Products of two to four factors under scalings, -1.0 among them,
    nested, with points to evaluate them at."""
    m1, m2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    num = st.floats(-3, 3)
    var = st.one_of(st.builds(Var, st.just("x"), st.integers(0, m1 - 1)),
                    st.builds(Var, st.just("y"), st.integers(0, m2 - 1)))
    leaf = st.one_of(var, st.builds(lambda v, c: Sum((v, Const(c))), var, num))
    e = draw(st.recursive(
        st.lists(leaf, min_size=2, max_size=4).map(lambda c: Prod(tuple(c))),
        lambda kids: st.one_of(
            st.builds(scale, num, kids), st.builds(neg, kids),
            st.lists(st.one_of(kids, leaf), min_size=2, max_size=3).map(
                lambda c: Prod(tuple(c)))),
        max_leaves=10))
    coords = st.lists(num, min_size=m1 + m2, max_size=m1 + m2)
    points = [(p[:m1], p[m1:]) for p in draw(st.lists(coords, min_size=1, max_size=8))]
    return e, m1, m2, points


@settings(max_examples=200, deadline=None)
@given(_scaled_products())
def test_emitted_derivative_of_scaled_products_equals_interpreter(problem):
    """A scaling over a product multiplies the whole derivative term,
    as the interpreter's `_grad` does: equal values, +0.0 and -0.0 alike."""
    e, m1, m2, points = problem
    for side, reference in (("x", subgradient_x), ("y", subgradient_y)):
        emitted = ref.emitted_derivative(e, None, m1, m2, side)
        for x, y in points:
            assert list(emitted(x, y)) == reference(e, x, y).tolist(), \
                (format_expr(e), side, x, y)


def test_objective_code_drops_unread_temporaries():
    """Only the temporaries an output reads survive: a derivative alone
    computes no value of a power or absolute value, and a value alone no
    derivative factor or kink sign."""
    f3 = CATALOG["f3"].expr  # (x - 1)^4 - 2 y^2
    lines, gx = objective_code(f3, None, 1, 1, "x", x=["u"], y=["c"])
    assert lines == ["t1 = u - 1.0", "t3 = 4.0 * t1 ** 3"] and gx == [(False, "t3")]
    lines, gy = objective_code(f3, None, 1, 1, "y", x=["u"], y=["c"])
    assert lines == ["t5 = 2.0 * c"] and gy == [(True, "(2.0 * t5)")]
    f2 = CATALOG["f2"]  # |x - 1| - |y|
    lines, gx = objective_code(f2.expr, f2.selection, 1, 1, "x", x=["u"], y=["c"])
    assert lines == ["t1 = u - 1.0", "t3 = -1.0 if t1 < 0.0 else 1.0"]
    lines, v = objective_code(f2.expr, f2.selection, 1, 1, "value", x=["u"], y=["c"])
    assert lines == ["t1 = u - 1.0", "t2 = abs(t1)", "t4 = abs(c)", "t6 = t2 - t4"]
    assert v == "t6"
    for bad in ("gradient", "both", ("x",), "xy"):
        with pytest.raises(ValueError):
            objective_code(f3, None, 1, 1, bad)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_prefix_roundtrip_catalog(name):
    ent = CATALOG[name]
    text = format_expr(ent.expr)
    assert parse_expr(text) == ent.expr
    assert format_expr(parse_expr(text)) == text
    # the catalog prints with neg, sub and scale, sugar for a two-factor
    # product with a constant first factor that prints back as written; so
    # does a written product of that shape, and other products print as mul
    x0, y1 = Var("x", 0), Abs(Var("y", 1))
    assert parse_expr("(neg x0)") == Prod((Const(-1.0), x0))
    assert parse_expr("(sub x0 (abs y1))") == Sum((x0, Prod((Const(-1.0), y1))))
    assert parse_expr("(scale 2 x0)") == parse_expr("(mul 2 x0)") == Prod((Const(2.0), x0))
    for written, printed in (("(neg x0)", "(neg x0)"),
                             ("(sub x0 (abs y1))", "(sub x0 (abs y1))"),
                             ("(scale -1 x0)", "(neg x0)"),
                             ("(mul 2 x0)", "(scale 2 x0)"),
                             ("(mul -1 x0)", "(neg x0)"),
                             ("(mul x0 2)", "(mul x0 2)"),
                             ("(mul 2 x0 y0)", "(mul 2 x0 y0)"),
                             ("(scale 2 (scale 3 x0))", "(scale 2 (scale 3 x0))")):
        assert format_expr(parse_expr(written)) == printed
        assert parse_expr(printed) == parse_expr(written)


def test_catalog_is_example1s_agents():
    """The catalog holds example1's five agents in order, subnet 1 first:
    the same prefix texts and kink selections."""
    doc = yaml.safe_load(resources.files("nashnet.scenarios").joinpath("example1.yaml")
                         .read_text(encoding="utf-8"))
    agents = doc["agents"]["subnet1"] + doc["agents"]["subnet2"]
    assert [(format_expr(ent.expr), ent.selection) for ent in CATALOG.values()] == \
        [(a["expr"], a["selections"]) for a in agents]


def test_parse_affine_and_errors():
    # each kept term is a product, so a scaled one is a temporary, and the
    # terms sum left to right into one more; a derivative is the
    # coefficient itself, 0.0 where the coefficient is zero
    e = parse_expr("(affine (2.5 0 -1) (-0.0 1) -3)")
    assert objective_code(e, None, 3, 2, "value") == (
        ["t1 = 2.5 * x[0]", "t2 = t1 - x[2] + y[1] - 3.0"], "t2")
    assert objective_code(e, None, 3, 2, "x") == (
        [], [(False, "2.5"), (False, "0.0"), (True, "1.0")])
    assert objective_code(e, None, 3, 2, "y") == ([], [(False, "0.0"), (False, "1.0")])
    for bad in ("", "(pow x0 1.5)", "(frob x0)", "(abs x0", "x0 y0", "z3", "(affine (1 2",
                "(affine (1 2) (3) 4", "(affine (1) (2))", "(affine (1) (2) (3))"):
        with pytest.raises(ValidationError):
            parse_expr(bad)
    with pytest.raises(ValidationError, match="unterminated"):
        parse_expr("(affine (1 2")
    for bad in ("(pow x0 0)", "(pow x0 -2)"):  # not the ValueError of Pow itself
        with pytest.raises(ValidationError, match="pow exponent must be an integer >= 1"):
            parse_expr(bad)


AFFINE_COEFFS = (0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(AFFINE_COEFFS), max_size=3),
       st.lists(st.sampled_from(AFFINE_COEFFS), max_size=3),
       st.sampled_from(AFFINE_COEFFS),
       st.sampled_from(("{}", "(add x0 {} y0)", "(scale -2.5 {})")))
def test_affine_emits_the_code_of_its_sum(cx, cy, offset, place):
    """``(affine (cx ...) (cy ...) c)`` emits, for the value and both
    derivative blocks, the code of the spelled-out ``(add (scale cx0 x0)
    ... (scale cy0 y0) ... c)`` without the terms of zero coefficients,
    -0.0 included: bare, in a sum and under a scale."""
    def nums(values):
        return " ".join(map(repr, values))

    terms = [f"(scale {c!r} {side}{d})" for side, coeffs in (("x", cx), ("y", cy))
             for d, c in enumerate(coeffs) if c != 0.0]
    short = parse_expr(place.format(f"(affine ({nums(cx)}) ({nums(cy)}) {offset!r})"))
    spelled = parse_expr(place.format("(add " + " ".join(terms + [repr(offset)]) + ")"))
    m1, m2 = max(1, len(cx)), max(1, len(cy))
    for output in ("value", "x", "y"):
        assert objective_code(short, None, m1, m2, output) == \
            objective_code(spelled, None, m1, m2, output)


def test_parse_rejects_empty_sum_and_product():
    """`add` and `mul` need an argument: the parser refuses an empty one as
    it refuses a bad arity, so a scenario holding one is a validation
    error, not a traceback from the code generator."""
    for op in ("add", "mul"):
        with pytest.raises(ValidationError, match=f"{op} takes at least 1 argument"):
            parse_expr(f"({op})")
        with pytest.raises(ValidationError, match=f"{op} takes at least 1 argument"):
            parse_expr(f"(sub x0 ({op}))")
        assert parse_expr(f"({op} x0)") == (Sum if op == "add" else Prod)((Var("x", 0),))


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
@example(-0.0, 0.0, -0.0)
@example(0.0, -0.0, -3.0)
def test_parse_format_numbers(a, b, c):
    """Every number survives format/parse as the same double, -0.0 included."""
    e = Sum((scale(a, Var("x", 0)), scale(b, Var("y", 0)), Const(c), ref.affine((a, c), (b,), c)))
    again = parse_expr(format_expr(e))
    assert again == e
    sa, sb, cc, aff = again.children
    *terms, offset = aff.children
    def factor(t):
        return t.children[0].value

    assert _bits([factor(sa), factor(sb), cc.value, offset.value]) == _bits([a, b, c, c])
    assert _bits([factor(t) for t in terms]) == _bits([v for v in (a, c, b) if v != 0.0])


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
    for lo, hi in ((np.inf, np.inf), (-np.inf, -np.inf)):  # no finite point
        with pytest.raises(ValidationError, match="finite point"):
            BoxSet((0.0, lo), (1.0, hi))
    assert BoxSet((-np.inf,), (np.inf,)).dim == 1
    with pytest.raises(ValueError):
        project([0.0], box)


def test_lipschitz_bound_quadratic():
    # |d/dx x^2| on [-5, 5] peaks at 10
    e = Pow(Var("x", 0), 2)
    box = BoxSet((-5.0,), (5.0,))
    assert lipschitz_bound(e, box, box) == pytest.approx(10.0)


def test_sample_convexity_flags_the_bad_region():
    box5 = BoxSet((-5.0,), (5.0,))
    # x^2 - y^2 is fine everywhere
    assert sample_convexity(Sum((Pow(Var("x", 0), 2), neg(Pow(Var("y", 0), 2)))),
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
    may differ by an ulp."""
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
        st.builds(ref.affine, st.lists(st.floats(-2, 2), min_size=1, max_size=m1),
                  st.lists(st.floats(-2, 2), min_size=1, max_size=m2), st.floats(-1, 1)))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Pow, kids, st.integers(2, 6)),
        st.builds(neg, kids), st.builds(Abs, kids),
        st.builds(scale, st.floats(-2, 2), kids),
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
    for const in (Const(3.0), Sum((Const(1.0), scale(2.0, Const(-4.0))))):
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
