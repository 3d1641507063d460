"""Built-in objective functions used by the bundled experiment scenarios.

The five entries form a two-subnetwork zero-sum game on [-5, 5] x [-5, 5]
whose sum objective has the unique saddle point near (0.6102, 0.8844):

    f1 = x^2 - (20 - x^2) (y - 1)^2
    f2 = |x - 1| - |y|
    f3 = (x - 1)^4 - 2 y^2
    g1 = (x - 1)^4 - |y| - 5/4 y^2 - 1/2 (20 - x^2) (y - 1)^2
    g2 = x^2 + |x - 1| - 3/4 y^2 - 1/2 (20 - x^2) (y - 1)^2

with f1 + f2 + f3 == g1 + g2 identically. Kink choices: the |x - 1| kink of
f2 takes derivative +1, the |y| kink of g1 takes derivative +1 (so the y
subgradient of g1 at y = 0 is -1 + (20 - x^2) - nothing else contributes).

Each entry also records the largest |x| for which the entry is concave in y;
outside that range the y-curvature of the coupling term flips sign, so
concave-subgradient properties are only meaningful inside it.
"""

from dataclasses import dataclass
from math import sqrt

from .exprs import Abs, Expr, Neg, Pow, Prod, Scale, Sum, x_var, y_var


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    expr: Expr
    selection: dict
    # |x| bound inside which the entry is concave in y (inf if global)
    y_concavity_x_bound: float


def _build():
    x, y = x_var(0), y_var(0)
    coupling = Prod((Sum((20, Neg(Pow(x, 2)))), Pow(Sum((y, Neg(1))), 2)))  # (20-x^2)(y-1)^2

    f1 = Sum((Pow(x, 2), Neg(coupling)))
    f2 = Sum((Abs(Sum((x, Neg(1)))), Neg(Abs(y))))
    f3 = Sum((Pow(Sum((x, Neg(1))), 4), Neg(Scale(2.0, Pow(y, 2)))))
    g1 = Sum((Pow(Sum((x, Neg(1))), 4), Neg(Abs(y)),
              Neg(Scale(1.25, Pow(y, 2))), Neg(Scale(0.5, coupling))))
    g2 = Sum((Pow(x, 2), Abs(Sum((x, Neg(1)))),
              Neg(Scale(0.75, Pow(y, 2))), Neg(Scale(0.5, coupling))))

    return {
        # f1_yy = -2(20 - x^2): concave in y iff x^2 <= 20
        "f1": CatalogEntry("f1", f1, {}, sqrt(20.0)),
        "f2": CatalogEntry("f2", f2, {0: 1.0}, float("inf")),
        "f3": CatalogEntry("f3", f3, {}, float("inf")),
        # g1_yy = -5/2 - (20 - x^2): concave in y iff x^2 <= 22.5
        "g1": CatalogEntry("g1", g1, {0: 1.0}, sqrt(22.5)),
        # g2_yy = -3/2 - (20 - x^2): concave in y iff x^2 <= 21.5
        "g2": CatalogEntry("g2", g2, {}, sqrt(21.5)),
    }


CATALOG = _build()
