"""Why unbalanced graphs need heterogeneous stepsizes.

Backward products of row-stochastic mixing matrices converge to a rank-one
matrix: every row approaches the same stochastic vector phi. On a
weight-balanced graph phi is uniform and a common diminishing stepsize
recovers the saddle of the plain sum objective. On an unbalanced graph phi
is lopsided and the network silently optimizes the phi-weighted sum
instead - unless each agent divides its stepsize by its own phi component.

This script prints the products, their limits, and the Perron weighting of
a fixed unbalanced graph.
"""

import numpy as np

from nashnet import (is_weight_balanced, limiting_stochastic_vector,
                     perron_vector, transition_product)
from nashnet.scenario_io import bundled_scenario

np.set_printoptions(precision=4, suppress=True)

g = bundled_scenario("example2").graph
print("unbalanced switching pair, period", g.period)
for phase in range(g.period):
    print(f"phase {phase}: subnet 1 balanced = {is_weight_balanced(g.a1[phase])}, "
          f"subnet 2 balanced = {is_weight_balanced(g.a2[phase])}")

# Watch the rows of the backward product collapse onto one vector.
print("\nsubnet-1 product rows collapsing (start phase 0):")
for k in (1, 3, 7, 15):
    P = transition_product(g.a1, k, 0)
    spread = (P.max(axis=0) - P.min(axis=0)).max()
    print(f"  k={k:>2}: row spread {spread:.2e}")

for start in range(g.period):
    phi = limiting_stochastic_vector(g.a1, start)
    print(f"subnet-1 limit vector, start phase {start}: {phi}")
print(f"subnet-2 limit vector: {limiting_stochastic_vector(g.a2, 0)}")

# A static graph's limit vector is its Perron left eigenvector.
A = bundled_scenario("perron_weighted").graph.a1[0]
mu = perron_vector(A)
print(f"\nstatic unbalanced graph Perron vector: {mu}  "
      f"(residual {np.abs(mu @ A - mu).max():.1e})")
print("with homogeneous stepsizes this graph converges to the saddle of the")
print("mu-weighted sum, not of the unit-weight sum - see the perron_weighted scenario.")
