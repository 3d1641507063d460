"""Convex-concave objectives as expression trees with explicit kink choices.

Objectives are built from six node types: constants, variables, sums,
products, integer powers and absolute values; a scaling is a two-factor
product whose first factor is a constant. Subgradients
are obtained by formal forward-mode differentiation; at a kink of an
absolute-value node the derivative is taken from an explicit per-node
selection constant in [-1, 1] instead of sign(0). The formal rules produce a
valid subgradient whenever the expression is convex (resp. concave) in the
differentiated block, which the library checks by sampling, not by proof.

One code generator evaluates them: :func:`objective_code` emits
straight-line code for the value or one block derivative on caller-named
inputs, free of arithmetic that cannot change a bit. The engine inlines
its derivative code into the generated run loop, and
:func:`compile_objective` wraps its value code in a closure for the grid
oracle, the metrics and the convexity sampler. The tests build derivative
closures from the same text and hold it to a recursive reference
interpreter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


# ---------------------------------------------------------------------------
# node types
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes. Immutable after construction."""


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    side: str  # "x" or "y"
    index: int

    def __post_init__(self):
        if self.side not in ("x", "y"):
            raise ValueError(f"variable side must be 'x' or 'y', got {self.side!r}")
        if self.index < 0:
            raise ValueError("variable index must be nonnegative")


@dataclass(frozen=True)
class Sum(Expr):
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(_as_expr(c) for c in self.children))


@dataclass(frozen=True)
class Prod(Expr):
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(_as_expr(c) for c in self.children))


@dataclass(frozen=True)
class Pow(Expr):
    child: Expr
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "child", _as_expr(self.child))
        if self.exponent < 1:
            raise ValueError("integer power exponent must be >= 1")


@dataclass(frozen=True)
class Abs(Expr):
    child: Expr

    def __post_init__(self):
        object.__setattr__(self, "child", _as_expr(self.child))


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


def _preorder(node):
    """The nodes of a tree, each before its children, children left to right."""
    yield node
    if isinstance(node, (Pow, Abs)):
        yield from _preorder(node.child)
    elif isinstance(node, (Sum, Prod)):
        for c in node.children:
            yield from _preorder(c)


def abs_nodes(e: Expr) -> list:
    """Absolute-value nodes of `e` in preorder. Selection keys refer to
    positions in this list."""
    return [node for node in _preorder(e) if isinstance(node, Abs)]


def expr_keys(exprs) -> list:
    """``repr(e)`` of each expression of `exprs`, made once per distinct
    object: the key under which equal objectives share their work. Unlike
    ``format_expr`` and ``==`` it tells the constants -0.0 and 0.0 apart."""
    exprs = list(exprs)
    made = {}
    for e in exprs:
        if id(e) not in made:
            made[id(e)] = repr(e)
    return [made[id(e)] for e in exprs]


def dimensions(e: Expr) -> tuple:
    """(m1, m2) implied by the highest variable indices appearing in `e`."""
    found = [node for node in _preorder(e) if isinstance(node, Var)]
    return tuple(max((v.index + 1 for v in found if v.side == side), default=0)
                 for side in "xy")


# ---------------------------------------------------------------------------
# kink selections
# ---------------------------------------------------------------------------

def check_selection(e: Expr, sel: dict) -> dict:
    """Validate a kink-selection map for `e` and fill defaults (0.0).

    Keys index the preorder list of absolute-value nodes; values are the
    derivative chosen when the node argument is exactly zero.
    """
    n_abs = len(abs_nodes(e))
    out = {i: 0.0 for i in range(n_abs)}
    for k, v in (sel or {}).items():
        k = int(k)
        if not 0 <= k < n_abs:
            raise ValidationError(f"selection key {k} out of range (expression has {n_abs} abs nodes)")
        v = float(v)
        if not -1.0 <= v <= 1.0:
            raise ValidationError(f"selection constant {v} outside [-1, 1]")
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

def compile_objective(e: Expr, m1: int, m2: int, vector: bool = False):
    """A closure ``f(x, y)`` computing the value of `e`, where x and y are
    indexable sequences of components (see :func:`objective_code`). With
    ``vector=True`` the code calls numpy's ``abs``, so the components may be
    arrays that broadcast.
    """
    lines, value = objective_code(e, None, m1, m2, "value")
    src = "\n".join(["def _compiled(x, y):"] + ["    " + ln for ln in lines]
                    + ["    return " + value])
    env = {"abs": np.abs} if vector else {}
    exec(src, env)  # noqa: S102 - source is generated locally from the tree
    return env["_compiled"]


def objective_code(e: Expr, sel, m1: int, m2: int, output: str, *,
                   x=None, y=None) -> tuple:
    """Straight-line Python code for `e` or one of its formal block
    derivatives.

    `output` is "value", "x" or "y". Returns ``(lines, code)``: for "value"
    `code` is the code of the value; for "x" and "y" it is a list with one
    signed code ``(neg, body)`` per component of that block's derivative,
    whose value is `body`, negated when `neg` (``(False, "0.0")`` where the
    component is structurally zero). A body is an operand: a name, a
    literal without sign or a parenthesized expression. `lines` are the
    assignments the code reads, to temporaries t1, t2, ...; temporaries it
    does not read are left out, so a derivative never computes the value.
    Component d of the x block is read as ``x[d]``, or as ``x[d]`` of the
    given sequence of names (likewise y), so the code can run on a
    caller's locals.

    The code holds only arithmetic that can move a bit; each rewrite below
    gives the same double as the plain formal rule under round-to-nearest:
    a factor 1.0 is left out (``1.0 * v`` is v, -0.0 included); signs
    leave products (``a * (-b)`` is ``-(a * b)``, as rounding is symmetric
    in sign), cancel in pairs and flip the operator of a sum (``a + (-b)``
    is ``a - b`` by definition; a negative first term trades places with a
    positive second, as addition commutes; no sign leaves a sum, as ``-a +
    b`` and ``-(a - b)`` differ in the sign of a zero); ``b ** 1`` is b; and
    each distinct right-hand side is assigned once. The value calls
    ``abs``; a derivative takes the
    kink sign of an absolute value as ``1.0 if b > 0.0 else (-1.0 if b <
    0.0 else c)``, or as one comparison when the selection c is 1.0 or -1.0.
    """
    if output not in ("value", "x", "y"):
        raise ValueError(f"bad output={output!r}")
    x = [f"x[{d}]" for d in range(m1)] if x is None else list(x)
    y = [f"y[{d}]" for d in range(m2)] if y is None else list(y)
    if (len(x), len(y)) != (m1, m2):
        raise ValueError(f"need {m1} x names and {m2} y names")
    gen = _CodeGen(check_selection(e, sel), x, y)
    val, gx, gy = gen.emit(e)
    if output == "value":
        return gen.live([val[1]]), _text(val)
    code = [(False, "0.0") if g is None else g for g in (gx if output == "x" else gy)]
    return gen.live([body for _, body in code]), code


# A signed code (neg, body) stands for body, negated when neg; body is an
# operand: a name, a literal without sign or an expression wrapped whole in
# parentheses. Derivative components that are structurally zero are None.
_ONE = (False, "1.0")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _literal(v: float) -> tuple:
    """The signed code of the number v: its sign bit and the repr of |v|."""
    return math.copysign(1.0, v) < 0.0, repr(abs(v))


def _text(code) -> str:
    """A signed code as an operand."""
    neg, body = code
    return f"(-{body})" if neg else body


def _sum_text(terms) -> str:
    """Text of the left-to-right sum of two or more signed codes."""
    if terms[0][0] and not terms[1][0]:
        terms = [terms[1], terms[0], *terms[2:]]
    (neg, body), rest = terms[0], terms[1:]
    return ("-" if neg else "") + body + "".join(f" {'-+'[not n]} {b}" for n, b in rest)


class _CodeGen:
    def __init__(self, sel, x, y):
        self.sel = sel
        self.x, self.y = x, y
        self.m1, self.m2 = len(x), len(y)
        self.names = {}  # right-hand side -> temporary name, in emission order
        self.abs_idx = 0

    def tmp(self, code):
        """The temporary assigned `code`, a new one for code not seen yet."""
        if code not in self.names:
            self.names[code] = f"t{len(self.names) + 1}"
        return self.names[code]

    def atom(self, body):
        """`body` itself if it is a name or literal, else a temporary holding it."""
        if " " not in body:
            return body
        return self.tmp(body[1:-1] if body.startswith("(") else body)

    def operand(self, code):
        """A name or literal holding the signed code's value, sign included."""
        neg, body = code
        return self.tmp(f"-{body}") if neg else self.atom(body)

    @staticmethod
    def mul(factors):
        """Signed code of the left-to-right product of the signed codes
        `factors`, as one operand: the signs leave it, factors 1.0 drop out."""
        neg = sum(n for n, _ in factors) % 2 == 1
        ops = [b for _, b in factors if b != "1.0"]
        if len(ops) > 1:
            return neg, "(" + " * ".join(ops) + ")"
        return neg, ops[0] if ops else "1.0"

    def live(self, codes):
        """Assignments of the temporaries the code strings `codes` read,
        directly or through other temporaries, in emission order."""
        need = {n for c in codes for n in _NAME.findall(c)}
        kept = []
        for code, name in reversed(self.names.items()):
            if name in need:
                kept.append(f"{name} = {code}")
                need.update(_NAME.findall(code))
        return kept[::-1]

    def emit(self, e):
        """Return (value, gx, gy): the signed code of the value and lists of
        the signed codes of the derivative components, None where
        structurally zero."""
        zx, zy = [None] * self.m1, [None] * self.m2
        if isinstance(e, Const):
            return _literal(e.value), zx, zy
        if isinstance(e, Var):
            if e.side == "x":
                g = list(zx)
                g[e.index] = _ONE
                return (False, self.x[e.index]), g, zy
            g = list(zy)
            g[e.index] = _ONE
            return (False, self.y[e.index]), zx, g
        if isinstance(e, Sum):
            parts = [self.emit(c) for c in e.children]
            values = [p[0] for p in parts]
            v = values[0] if len(values) == 1 else (False, self.tmp(_sum_text(values)))
            gx = [self._add([p[1][d] for p in parts]) for d in range(self.m1)]
            gy = [self._add([p[2][d] for p in parts]) for d in range(self.m2)]
            return v, gx, gy
        if isinstance(e, Prod):
            parts = []
            for c in e.children:
                (neg, body), cgx, cgy = self.emit(c)
                parts.append(((neg, self.atom(body)), cgx, cgy))
            neg, body = self.mul([p[0] for p in parts])
            v = neg, self.atom(body)

            def grad(block, d):
                # each term is one operand, so a parent product (a scaling
                # included) or Pow multiplies the whole product, as the
                # tests' reference interpreter does
                terms = [self.mul([q[0] for j, q in enumerate(parts) if j != i] + [p[block][d]])
                         for i, p in enumerate(parts) if p[block][d] is not None]
                return self._add(terms)

            return (v, [grad(1, d) for d in range(self.m1)],
                    [grad(2, d) for d in range(self.m2)])
        if isinstance(e, Pow):
            cv, cgx, cgy = self.emit(e.child)
            n = e.exponent
            if n == 1:  # b ** 1 is b, and its derivative factor 1.0 drops out
                return cv, cgx, cgy
            base = self.operand(cv)
            v = (False, self.tmp(f"{base} ** {n}"))
            d = (False, self.tmp(f"2.0 * {base}" if n == 2 else f"{n}.0 * {base} ** {n - 1}"))
            return v, [g and self.mul([d, g]) for g in cgx], [g and self.mul([d, g]) for g in cgy]
        if isinstance(e, Abs):
            idx = self.abs_idx
            self.abs_idx += 1
            cv, cgx, cgy = self.emit(e.child)
            base = self.operand(cv)
            v = (False, self.tmp(f"abs({base})"))
            c = self.sel[idx]
            if c == 1.0:
                sign = f"-1.0 if {base} < 0.0 else 1.0"
            elif c == -1.0:
                sign = f"1.0 if {base} > 0.0 else -1.0"
            else:
                sign = f"1.0 if {base} > 0.0 else (-1.0 if {base} < 0.0 else {c!r})"
            s = (False, self.tmp(sign))
            return v, [g and self.mul([s, g]) for g in cgx], [g and self.mul([s, g]) for g in cgy]
        raise TypeError(f"unknown node {type(e).__name__}")

    @staticmethod
    def _add(terms):
        """Signed code of the sum of the derivative terms that are not None."""
        terms = [t for t in terms if t is not None]
        if len(terms) < 2:
            return terms[0] if terms else None
        return False, "(" + _sum_text(terms) + ")"


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box [lower, upper] per dimension."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValidationError("box lower/upper dimension mismatch")
        if not lo:
            raise ValidationError("a box needs at least one dimension")
        if not all(l <= u for l, u in zip(lo, hi)):  # also false for NaN
            raise ValidationError("box has lower > upper or a NaN bound in some dimension")
        if not all(l < math.inf and u > -math.inf for l, u in zip(lo, hi)):
            raise ValidationError("box holds no finite point: a lower bound is +inf "
                                  "or an upper bound -inf")

    @property
    def dim(self):
        return len(self.lower)


# ---------------------------------------------------------------------------
# convexity diagnostics
# ---------------------------------------------------------------------------

def convexity_points(bx: BoxSet, by: BoxSet, trials: int, seed: int) -> tuple:
    """The points of :func:`sample_convexity`: six (trials, m) arrays x0,
    x1, yv, y0, y1, xv, uniform on the boxes.

    One trial's draws are one row of a single ``rng.random`` block, in that
    order, and each point is ``lo + (hi - lo) * u``: the same numbers, bit
    for bit, as per-trial ``rng.uniform(lo, hi)`` calls on the same stream.
    Unbounded box sides are sampled on a wide finite window.
    """
    x = (np.clip(bx.lower, -1e6, 1e6), np.clip(bx.upper, -1e6, 1e6))
    y = (np.clip(by.lower, -1e6, 1e6), np.clip(by.upper, -1e6, 1e6))
    sides = (x, x, y, y, y, x)
    edges = np.cumsum([0] + [len(lo) for lo, _ in sides])
    u = np.random.default_rng(seed).random((trials, int(edges[-1])))
    return tuple(lo + (hi - lo) * u[:, a:b] for (lo, hi), a, b in zip(sides, edges, edges[1:]))


def worst_violations(e: Expr, bx: BoxSet, by: BoxSet, trials: int, seed: int) -> tuple:
    """(worst_x, worst_y, finite) over the sample of :func:`convexity_points`.

    worst_x is the largest midpoint excess f((x0 + x1)/2, yv) - (f(x0, yv)
    + f(x1, yv))/2 and worst_y the largest chord excess in y, both at least
    0.0 and ignoring NaN; `finite` tells whether every sampled value of `e`
    was finite. All trials go through one vector closure of `e`.
    """
    mx, my = dimensions(e)
    if mx > bx.dim or my > by.dim:
        raise ValueError(f"expression needs dims >= ({mx},{my}), got ({bx.dim},{by.dim})")
    x0, x1, yv, y0, y1, xv = convexity_points(bx, by, trials, seed)
    f = compile_objective(e, bx.dim, by.dim, vector=True)
    with np.errstate(all="ignore"):
        values = (f(((x0 + x1) / 2).T, yv.T), f(x0.T, yv.T), f(x1.T, yv.T),
                  f(xv.T, ((y0 + y1) / 2).T), f(xv.T, y0.T), f(xv.T, y1.T))
        mid, a, b, midv, c, d = values
        worst_x = float(np.nanmax(mid - 0.5 * (a + b), initial=0.0))
        worst_y = float(np.nanmax(0.5 * (c + d) - midv, initial=0.0))
    return worst_x, worst_y, all(np.isfinite(v).all() for v in values)


def sample_convexity(e: Expr, bx: BoxSet, by: BoxSet, trials: int = 1000) -> list:
    """Midpoint-inequality sampling of convexity in x and concavity in y,
    on the points of seed 0.

    Returns a list of warning strings (empty means no excess above 1e-9 on
    the sample). A warning is evidence against the declared convex-concave
    flag, never a proof either way; a non-finite sampled value is a warning
    too.
    """
    worst_x, worst_y, finite = worst_violations(e, bx, by, trials, 0)
    tol = 1e-9
    warnings = []
    if worst_x > tol:
        warnings.append(f"convexity in x violated on sample by {worst_x:.3e}")
    if worst_y > tol:
        warnings.append(f"concavity in y violated on sample by {worst_y:.3e}")
    if not finite:
        warnings.append("objective not finite on sample")
    return warnings


# ---------------------------------------------------------------------------
# prefix-notation serialization
# ---------------------------------------------------------------------------

def format_expr(e: Expr) -> str:
    """Render `e` in the prefix notation used by scenario files."""
    if isinstance(e, Const):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return f"{e.side}{e.index}"
    if isinstance(e, Sum):
        # (sub a b) round-trips as written; general sums use add
        if len(e.children) == 2 and _scaling(e.children[1]) == -1.0:
            return f"(sub {format_expr(e.children[0])} {format_expr(e.children[1].children[1])})"
        return "(add " + " ".join(format_expr(c) for c in e.children) + ")"
    if isinstance(e, Prod):
        c = _scaling(e)
        if c is None:
            return "(mul " + " ".join(format_expr(f) for f in e.children) + ")"
        child = format_expr(e.children[1])
        return f"(neg {child})" if c == -1.0 else f"(scale {_fmt_num(c)} {child})"
    if isinstance(e, Pow):
        return f"(pow {format_expr(e.child)} {e.exponent})"
    if isinstance(e, Abs):
        return f"(abs {format_expr(e.child)})"
    raise TypeError(f"unknown node {type(e).__name__}")


def _scaling(e):
    """The constant c of a scaling, the two-factor product (c, a) that
    (scale c a) parses to, else None."""
    if isinstance(e, Prod) and len(e.children) == 2 and isinstance(e.children[0], Const):
        return e.children[0].value
    return None


def _fmt_num(v):
    """Text that parses back to the same double: integral values without a
    fraction, except -0.0, which keeps its sign."""
    v = float(v)
    if v == int(v) and abs(v) < 1e15 and repr(v) != "-0.0":
        return str(int(v))
    return repr(v)


MAX_DEPTH = 100  # operators nested in one objective
MAX_OPERANDS = 1000  # operands of all the operators of one objective


def parse_expr(text: str) -> Expr:
    """Parse prefix notation, e.g. ``(sub (pow (sub x0 1) 4) (mul 2 (pow y0 2)))``.

    Operators nest at most MAX_DEPTH deep and take at most MAX_OPERANDS
    operands in all, each `affine` coefficient one: the code generated for
    a deeper or larger objective may not compile.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()[::-1]  # next token last
    if not tokens:
        raise ValidationError("empty expression")
    room = [MAX_OPERANDS]
    expr = _parse(tokens, 0, room)
    if tokens:
        raise ValidationError(f"trailing tokens in expression: {' '.join(tokens[::-1])}")
    return expr


def _parse(tokens, depth, room):
    """Pop the expression off the end of `tokens`: it sits in `depth`
    operators, and room[0] more operands may follow."""
    tok = tokens.pop()
    if tok == ")":
        raise ValidationError("unexpected ')'")
    if tok != "(":
        return _parse_atom(tok)
    if depth == MAX_DEPTH:
        raise ValidationError(f"expression nests operators more than {MAX_DEPTH} deep")
    if not tokens:
        raise ValidationError("unterminated '('")
    op = tokens.pop()
    args = []
    while True:
        if not tokens:
            raise ValidationError("unterminated '('")
        if tokens[-1] == ")":
            tokens.pop()
            break
        if op == "affine" and tokens[-1] == "(":
            # coefficient list literal
            tokens.pop()
            coeffs = []
            while tokens and tokens[-1] != ")":
                coeffs.append(tokens.pop())
            if not tokens:
                raise ValidationError("unterminated '('")
            tokens.pop()
            args.append([_number(t) for t in coeffs])
            room[0] -= len(coeffs)
        else:
            args.append(_parse(tokens, depth + 1, room))
            room[0] -= 1
        if room[0] < 0:
            raise ValidationError(f"expression takes more than {MAX_OPERANDS} operands")
    return _build(op, args)


def _parse_atom(tok):
    if tok and tok[0] in "xy" and tok[1:].isdigit():
        return Var(tok[0], int(tok[1:]))
    return Const(_number(tok))


def _number(tok):
    """A finite number token as a float: inf and nan have no literal in the
    generated code and no place in an objective."""
    try:
        v = float(tok)
    except ValueError:
        raise ValidationError(f"bad token {tok!r} in expression") from None
    if not math.isfinite(v):
        raise ValidationError(f"non-finite number {tok!r} in expression")
    return v


def _build(op, args):
    def num(a):
        if isinstance(a, Const):
            return a.value
        raise ValidationError(f"expected a number argument for {op}")

    if op in ("add", "mul") and not args:
        raise ValidationError(f"{op} takes at least 1 argument")
    if op == "add":
        return Sum(tuple(args))
    if op == "sub":
        if len(args) != 2:
            raise ValidationError("sub takes exactly 2 arguments")
        return Sum((args[0], Prod((Const(-1.0), args[1]))))
    if op == "neg":
        if len(args) != 1:
            raise ValidationError("neg takes exactly 1 argument")
        return Prod((Const(-1.0), args[0]))
    if op == "mul":
        return Prod(tuple(args))
    if op == "scale":
        if len(args) != 2:
            raise ValidationError("scale takes a constant and a child")
        return Prod((Const(num(args[0])), args[1]))
    if op == "pow":
        if len(args) != 2:
            raise ValidationError("pow takes a child and an integer exponent")
        n = num(args[1])
        if n != int(n) or n < 1:
            raise ValidationError(f"pow exponent must be an integer >= 1, got {_fmt_num(n)}")
        return Pow(args[0], int(n))
    if op == "abs":
        if len(args) != 1:
            raise ValidationError("abs takes exactly 1 argument")
        return Abs(args[0])
    if op == "affine":
        # (add (scale cx0 x0) ... (scale cy0 y0) ... offset), zero terms left out
        if len(args) != 3 or not isinstance(args[0], list) or not isinstance(args[1], list):
            raise ValidationError("affine takes (cx...) (cy...) offset")
        terms = [Prod((Const(c), Var(side, d))) for side, coeffs in (("x", args[0]), ("y", args[1]))
                 for d, c in enumerate(coeffs) if c != 0.0]
        return Sum((*terms, Const(num(args[2]))))
    raise ValidationError(f"unknown operator {op!r}")
