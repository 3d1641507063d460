"""Convex-concave objectives as expression trees with explicit kink choices.

Objectives are built from a small set of node types (constants, variables,
sums, products, integer powers, absolute values, affine forms). Subgradients
are obtained by formal forward-mode differentiation; at a kink of an
absolute-value node the derivative is taken from an explicit per-node
selection constant in [-1, 1] instead of sign(0). The formal rules produce a
valid subgradient whenever the expression is convex (resp. concave) in the
differentiated block, which the library checks by sampling, not by proof.

One code generator evaluates them: :func:`objective_code` emits
straight-line code for the value and the block derivatives on caller-named
inputs; the engine inlines its derivative code into the generated run
loop, and :func:`compile_objective` wraps the same code in a plain-Python
closure for the grid oracle, the metrics and the convexity sampler. The
tests hold the generated code to a recursive reference interpreter.
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

    def __add__(self, other):
        return Sum((self, _as_expr(other)))

    def __radd__(self, other):
        return Sum((_as_expr(other), self))

    def __sub__(self, other):
        return Sum((self, Neg(_as_expr(other))))

    def __rsub__(self, other):
        return Sum((_as_expr(other), Neg(self)))

    def __neg__(self):
        return Neg(self)

    def __mul__(self, other):
        return Prod((self, _as_expr(other)))

    def __rmul__(self, other):
        return Prod((_as_expr(other), self))

    def __pow__(self, n):
        return Pow(self, int(n))


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
class Neg(Expr):
    child: Expr

    def __post_init__(self):
        object.__setattr__(self, "child", _as_expr(self.child))


@dataclass(frozen=True)
class Sum(Expr):
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(_as_expr(c) for c in self.children))


@dataclass(frozen=True)
class Scale(Expr):
    factor: float
    child: Expr

    def __post_init__(self):
        object.__setattr__(self, "factor", float(self.factor))
        object.__setattr__(self, "child", _as_expr(self.child))


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


@dataclass(frozen=True)
class Affine(Expr):
    coeff_x: tuple
    coeff_y: tuple
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "coeff_x", tuple(float(c) for c in self.coeff_x))
        object.__setattr__(self, "coeff_y", tuple(float(c) for c in self.coeff_y))
        object.__setattr__(self, "offset", float(self.offset))


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


def x_var(index: int = 0) -> Var:
    return Var("x", index)


def y_var(index: int = 0) -> Var:
    return Var("y", index)


def abs_nodes(e: Expr) -> list:
    """Absolute-value nodes of `e` in preorder. Selection keys refer to
    positions in this list."""
    found = []

    def walk(node):
        if isinstance(node, Abs):
            found.append(node)
        for c in _children(node):
            walk(c)

    walk(e)
    return found


def _children(node):
    if isinstance(node, (Neg, Scale, Pow, Abs)):
        return (node.child,)
    if isinstance(node, (Sum, Prod)):
        return node.children
    return ()


def dimensions(e: Expr) -> tuple:
    """(m1, m2) implied by the highest variable indices appearing in `e`."""
    mx, my = 0, 0
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node.side == "x":
                mx = max(mx, node.index + 1)
            else:
                my = max(my, node.index + 1)
        elif isinstance(node, Affine):
            mx = max(mx, len(node.coeff_x))
            my = max(my, len(node.coeff_y))
        stack.extend(_children(node))
    return mx, my


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

def _sgn_vector(u, c):
    return np.where(u > 0.0, 1.0, np.where(u < 0.0, -1.0, c))


_WHICH = {"value": ("value",), "x": ("value", "x"), "y": ("value", "y"),
          "both": ("value", "x", "y")}


def compile_objective(e: Expr, sel=None, m1: int = 1, m2: int = 1,
                      which="both", vector: bool = False):
    """Generate a closure computing `e` and its formal block derivatives.

    Returns ``f(x, y)`` where x, y are indexable sequences of components.
    Depending on `which` ("value", "x", "y", "both") the result is the value,
    ``(value, gx)``, ``(value, gy)`` or ``(value, gx, gy)`` with gradients as
    tuples; a tuple `which` such as ``("x",)`` returns just the outputs it
    names (see :func:`objective_code`). With ``vector=True`` the emitted code
    is numpy-broadcast safe and components may be arrays.
    """
    lines, codes = objective_code(e, sel, m1, m2, which, vector=vector)
    ret = [c if isinstance(c, str) else "(" + ", ".join(c) + ("," if len(c) == 1 else "") + ")"
           for c in codes]
    src = "\n".join(["def _compiled(x, y):"] + ["    " + ln for ln in lines]
                    + ["    return " + ", ".join(ret)])
    env = {"_sgn": _sgn_vector, "abs": np.abs} if vector else {}
    exec(src, env)  # noqa: S102 - source is generated locally from the tree
    return env["_compiled"]


def objective_code(e: Expr, sel=None, m1: int = 1, m2: int = 1, which="both", *,
                   x=None, y=None, vector: bool = False) -> tuple:
    """Straight-line Python code for `e` and its formal block derivatives.

    `which` names the outputs: "value", "x", "y" or "both" as in
    :func:`compile_objective`, or a tuple drawn from "value", "x" and "y",
    e.g. ``("x",)`` for the x-block derivative alone. Returns ``(lines,
    codes)``. `codes` holds one entry per output, in that order: for
    "value" the code of the value, for "x" and "y" a list with the code of
    each component of that block's derivative ("0.0" where it is
    structurally zero). `lines` are the assignments those codes read, to
    temporaries t1, t2, ...; temporaries no output reads are left out, so a
    derivative alone never computes the value. Component d of the x block
    is read as ``x[d]``, or as ``x[d]`` of the given sequence of names
    (likewise y), so the code can run on a caller's locals. Output codes may
    be compound expressions: parenthesize them when they become operands.

    Scalar code takes the kink sign of an absolute value as ``1.0 if b >
    0.0 else (-1.0 if b < 0.0 else c)`` and calls the builtin ``abs``.
    Vector code (``vector=True``) calls ``_sgn`` and ``abs``, which the
    caller binds to numpy-broadcast versions.
    """
    outputs = _WHICH.get(which) if isinstance(which, str) else tuple(which)
    if not outputs or not set(outputs) <= {"value", "x", "y"}:
        raise ValueError(f"bad which={which!r}")
    x = [f"x[{d}]" for d in range(m1)] if x is None else list(x)
    y = [f"y[{d}]" for d in range(m2)] if y is None else list(y)
    if (len(x), len(y)) != (m1, m2):
        raise ValueError(f"need {m1} x names and {m2} y names")
    gen = _CodeGen(check_selection(e, sel), x, y, vector)
    val, gx, gy = gen.emit(e)
    codes = [{"value": val, "x": gx, "y": gy}[k] for k in outputs]
    read = [val] * ("value" in outputs) + gx * ("x" in outputs) + gy * ("y" in outputs)
    return gen.live(read), codes


_NAME = re.compile(r"[A-Za-z_]\w*")


class _CodeGen:
    def __init__(self, sel, x, y, vector):
        self.sel = sel
        self.x, self.y = x, y
        self.m1, self.m2 = len(x), len(y)
        self.vector = vector
        self.assigns = {}  # temporary name -> code, in emission order
        self.abs_idx = 0

    def tmp(self, code):
        name = f"t{len(self.assigns) + 1}"
        self.assigns[name] = code
        return name

    def atom(self, code):
        """`code` itself if it is a name, else a new temporary holding it."""
        return code if code.isidentifier() else self.tmp(code)

    def live(self, codes):
        """Assignments of the temporaries the code strings `codes` read,
        directly or through other temporaries, in emission order."""
        need = {n for c in codes for n in _NAME.findall(c)}
        kept = []
        for name, code in reversed(self.assigns.items()):
            if name in need:
                kept.append(f"{name} = {code}")
                need.update(_NAME.findall(code))
        return kept[::-1]

    def emit(self, e):
        """Return (value_code, gx_codes, gy_codes); gradient entries are code
        strings, "0.0" when structurally zero."""
        zx = ["0.0"] * self.m1
        zy = ["0.0"] * self.m2
        if isinstance(e, Const):
            return repr(e.value), zx, zy
        if isinstance(e, Var):
            if e.side == "x":
                g = list(zx)
                g[e.index] = "1.0"
                return self.x[e.index], g, zy
            g = list(zy)
            g[e.index] = "1.0"
            return self.y[e.index], zx, g
        if isinstance(e, Neg):
            v, gx, gy = self.emit(e.child)
            return (f"(-{v})",
                    [g if g == "0.0" else f"(-{g})" for g in gx],
                    [g if g == "0.0" else f"(-{g})" for g in gy])
        if isinstance(e, Scale):
            v, gx, gy = self.emit(e.child)
            c = repr(e.factor)
            return (f"({c} * {v})",
                    [g if g == "0.0" else f"({c} * {g})" for g in gx],
                    [g if g == "0.0" else f"({c} * {g})" for g in gy])
        if isinstance(e, Sum):
            parts = [self.emit(c) for c in e.children]
            v = self.tmp(" + ".join(p[0] for p in parts))
            gx = [self._add([p[1][d] for p in parts]) for d in range(self.m1)]
            gy = [self._add([p[2][d] for p in parts]) for d in range(self.m2)]
            return v, gx, gy
        if isinstance(e, Prod):
            parts = []
            for c in e.children:
                cv, cgx, cgy = self.emit(c)
                parts.append((self.atom(cv), cgx, cgy))
            v = self.tmp(" * ".join(p[0] for p in parts))

            def grad(block, d):
                # each term is parenthesized, so a parent Scale, Neg or Pow
                # multiplies the whole product, as the tests' reference interpreter does
                terms = []
                for i, p in enumerate(parts):
                    if p[block][d] != "0.0":
                        rest = [q[0] for j, q in enumerate(parts) if j != i]
                        terms.append("(" + " * ".join(rest + [p[block][d]]) + ")"
                                     if rest else p[block][d])
                return self._add(terms)

            return (v, [grad(1, d) for d in range(self.m1)],
                    [grad(2, d) for d in range(self.m2)])
        if isinstance(e, Pow):
            cv, cgx, cgy = self.emit(e.child)
            base = self.atom(cv)
            n = e.exponent
            v = self.tmp(f"{base} ** {n}")
            if n == 1:
                d = "1.0"
            elif n == 2:
                d = self.tmp(f"2.0 * {base}")
            else:
                d = self.tmp(f"{n}.0 * {base} ** {n - 1}")
            gx = [g if g == "0.0" else f"({d} * {g})" for g in cgx]
            gy = [g if g == "0.0" else f"({d} * {g})" for g in cgy]
            return v, gx, gy
        if isinstance(e, Abs):
            idx = self.abs_idx
            self.abs_idx += 1
            cv, cgx, cgy = self.emit(e.child)
            base = self.atom(cv)
            v = self.tmp(f"abs({base})")
            c = repr(self.sel[idx])
            s = self.tmp(f"_sgn({base}, {c})" if self.vector
                         else f"1.0 if {base} > 0.0 else (-1.0 if {base} < 0.0 else {c})")
            gx = [g if g == "0.0" else f"({s} * {g})" for g in cgx]
            gy = [g if g == "0.0" else f"({s} * {g})" for g in cgy]
            return v, gx, gy
        if isinstance(e, Affine):
            terms = [f"{c!r} * {self.x[d]}" for d, c in enumerate(e.coeff_x) if c != 0.0]
            terms += [f"{c!r} * {self.y[d]}" for d, c in enumerate(e.coeff_y) if c != 0.0]
            terms.append(repr(e.offset))
            v = self.tmp(" + ".join(terms))
            gx = [repr(float(c)) if d < len(e.coeff_x) and (c := e.coeff_x[d]) != 0.0 else "0.0"
                  for d in range(self.m1)]
            gy = [repr(float(c)) if d < len(e.coeff_y) and (c := e.coeff_y[d]) != 0.0 else "0.0"
                  for d in range(self.m2)]
            return v, gx, gy
        raise TypeError(f"unknown node {type(e).__name__}")

    def _add(self, terms):
        terms = [t for t in terms if t != "0.0"]
        if not terms:
            return "0.0"
        if len(terms) == 1:
            return terms[0]
        return "(" + " + ".join(terms) + ")"


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
        if not all(l <= u for l, u in zip(lo, hi)):  # also false for NaN
            raise ValidationError("box has lower > upper or a NaN bound in some dimension")

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
    f = compile_objective(e, None, bx.dim, by.dim, which="value", vector=True)
    with np.errstate(all="ignore"):
        values = (f(((x0 + x1) / 2).T, yv.T), f(x0.T, yv.T), f(x1.T, yv.T),
                  f(xv.T, ((y0 + y1) / 2).T), f(xv.T, y0.T), f(xv.T, y1.T))
        mid, a, b, midv, c, d = values
        worst_x = float(np.nanmax(mid - 0.5 * (a + b), initial=0.0))
        worst_y = float(np.nanmax(0.5 * (c + d) - midv, initial=0.0))
    return worst_x, worst_y, all(np.isfinite(v).all() for v in values)


def sample_convexity(e: Expr, bx: BoxSet, by: BoxSet, trials: int = 1000,
                     seed: int = 0, tol: float = 1e-9) -> list:
    """Midpoint-inequality sampling of convexity in x and concavity in y.

    Returns a list of warning strings (empty means no violation found on the
    sample). A warning is evidence against the declared convex-concave flag,
    never a proof either way; a non-finite sampled value is a warning too.
    """
    worst_x, worst_y, finite = worst_violations(e, bx, by, trials, seed)
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
    if isinstance(e, Neg):
        return f"(neg {format_expr(e.child)})"
    if isinstance(e, Sum):
        # (sub a b) round-trips as written; general sums use add
        if len(e.children) == 2 and isinstance(e.children[1], Neg):
            return f"(sub {format_expr(e.children[0])} {format_expr(e.children[1].child)})"
        return "(add " + " ".join(format_expr(c) for c in e.children) + ")"
    if isinstance(e, Scale):
        return f"(scale {_fmt_num(e.factor)} {format_expr(e.child)})"
    if isinstance(e, Prod):
        return "(mul " + " ".join(format_expr(c) for c in e.children) + ")"
    if isinstance(e, Pow):
        return f"(pow {format_expr(e.child)} {e.exponent})"
    if isinstance(e, Abs):
        return f"(abs {format_expr(e.child)})"
    if isinstance(e, Affine):
        return ("(affine (" + " ".join(_fmt_num(c) for c in e.coeff_x) + ") ("
                + " ".join(_fmt_num(c) for c in e.coeff_y) + ") "
                + _fmt_num(e.offset) + ")")
    raise TypeError(f"unknown node {type(e).__name__}")


def _fmt_num(v):
    """Text that parses back to the same double: integral values without a
    fraction, except -0.0, which keeps its sign."""
    v = float(v)
    if v == int(v) and abs(v) < 1e15 and repr(v) != "-0.0":
        return str(int(v))
    return repr(v)


def parse_expr(text: str) -> Expr:
    """Parse prefix notation, e.g. ``(sub (pow (sub x0 1) 4) (mul 2 (pow y0 2)))``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValidationError("empty expression")
    expr, rest = _parse(tokens)
    if rest:
        raise ValidationError(f"trailing tokens in expression: {' '.join(rest)}")
    return expr


def _parse(tokens):
    tok, rest = tokens[0], tokens[1:]
    if tok == ")":
        raise ValidationError("unexpected ')'")
    if tok != "(":
        return _parse_atom(tok), rest
    if not rest:
        raise ValidationError("unterminated '('")
    op, rest = rest[0], rest[1:]
    args = []
    while True:
        if not rest:
            raise ValidationError("unterminated '('")
        if rest[0] == ")":
            rest = rest[1:]
            break
        if op == "affine" and rest[0] == "(":
            # coefficient list literal
            close = rest.index(")")
            args.append([_number(t) for t in rest[1:close]])
            rest = rest[close + 1:]
            continue
        a, rest = _parse(rest)
        args.append(a)
    return _build(op, args), rest


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

    if op == "add":
        return Sum(tuple(args))
    if op == "sub":
        if len(args) != 2:
            raise ValidationError("sub takes exactly 2 arguments")
        return Sum((args[0], Neg(args[1])))
    if op == "neg":
        if len(args) != 1:
            raise ValidationError("neg takes exactly 1 argument")
        return Neg(args[0])
    if op == "mul":
        return Prod(tuple(args))
    if op == "scale":
        if len(args) != 2:
            raise ValidationError("scale takes a constant and a child")
        return Scale(num(args[0]), args[1])
    if op == "pow":
        if len(args) != 2:
            raise ValidationError("pow takes a child and an integer exponent")
        n = num(args[1])
        if n != int(n):
            raise ValidationError("pow exponent must be an integer")
        return Pow(args[0], int(n))
    if op == "abs":
        if len(args) != 1:
            raise ValidationError("abs takes exactly 1 argument")
        return Abs(args[0])
    if op == "affine":
        if len(args) != 3 or not isinstance(args[0], list) or not isinstance(args[1], list):
            raise ValidationError("affine takes (cx...) (cy...) offset")
        return Affine(tuple(args[0]), tuple(args[1]), num(args[2]))
    raise ValidationError(f"unknown operator {op!r}")
