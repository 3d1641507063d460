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

from .exprs import parse_expr


@dataclass(frozen=True)
class CatalogEntry:
    expr: object  # the tree parse_expr builds from the entry's prefix text
    selection: dict
    # |x| bound inside which the entry is concave in y (inf if global)
    y_concavity_x_bound: float


# (name, prefix text, kink selection, y-concavity bound): the texts and
# selections of example1's agents, subnet 1 first
_ENTRIES = (
    # f1_yy = -2(20 - x^2): concave in y iff x^2 <= 20
    ("f1", "(sub (pow x0 2) (mul (sub 20 (pow x0 2)) (pow (sub y0 1) 2)))", {}, sqrt(20.0)),
    ("f2", "(sub (abs (sub x0 1)) (abs y0))", {0: 1.0}, float("inf")),
    ("f3", "(sub (pow (sub x0 1) 4) (scale 2 (pow y0 2)))", {}, float("inf")),
    # g1_yy = -5/2 - (20 - x^2): concave in y iff x^2 <= 22.5
    ("g1", "(add (pow (sub x0 1) 4) (neg (abs y0)) (neg (scale 1.25 (pow y0 2))) "
           "(neg (scale 0.5 (mul (sub 20 (pow x0 2)) (pow (sub y0 1) 2)))))", {0: 1.0}, sqrt(22.5)),
    # g2_yy = -3/2 - (20 - x^2): concave in y iff x^2 <= 21.5
    ("g2", "(add (pow x0 2) (abs (sub x0 1)) (neg (scale 0.75 (pow y0 2))) "
           "(neg (scale 0.5 (mul (sub 20 (pow x0 2)) (pow (sub y0 1) 2)))))", {}, sqrt(21.5)),
)

CATALOG = {name: CatalogEntry(parse_expr(text), selection, bound)
           for name, text, selection, bound in _ENTRIES}
