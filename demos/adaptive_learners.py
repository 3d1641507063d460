"""Learning stepsize denominators online.

Agents on an unbalanced graph cannot be handed their limit-vector
components in advance without central knowledge. Instead each agent runs
auxiliary consensus recursions - one bank per switching phase, started from
the standard basis - and reads off its own diagonal entry. The readout
converges geometrically to the correct denominator, so adaptive stepsizes
catch up with the oracle rule after a short burn-in.
"""

import numpy as np

from nashnet import learner_readouts, oracle_heterogeneous_build
from nashnet.scenario_io import bundled_scenario

scenario = bundled_scenario("example3")
g = scenario.graph
phi1, _ = oracle_heterogeneous_build(g)

# bank nu starts from the basis at time nu + 1, one bank per phase
readouts = learner_readouts(g.a1, tuple(range(1, g.period + 1)), 400)
print("subnet-1 readout error vs the oracle limit vectors:")
for k in (1, 5, 10, 25, 50, 100, 200, 399):
    target = phi1[(k + 1) % g.period]
    err = np.abs(readouts[k] - target).max()
    print(f"  k={k:>3}: max error {err:.3e}")

print("\ngeometric convergence means the adaptive run (example3) matches the")
print("oracle run (example2) after a few dozen iterations; run")
print("  python demos/reproduce_experiments.py 2000")
print("to see both land on the same equilibrium.")
