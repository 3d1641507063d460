"""Run the three bundled experiments and watch every agent reach the same
Nash equilibrium.

The three scenarios share one zero-sum game (three minimizers, two
maximizers, equilibrium near (0.6102, 0.8844)) but differ in the network
and stepsize rule:

  example1  weight-balanced switching graphs, one common stepsize schedule
  example2  unbalanced graphs, stepsizes divided by precomputed limit vectors
  example3  unbalanced graphs, stepsize denominators learned online

Usage: python demos/reproduce_experiments.py [iterations]
"""

import dataclasses
import sys

import numpy as np

from nashnet import grid_minimax, run, unit_weighted
from nashnet.scenario_io import bundled_scenario

iters = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000

# Ground truth from the brute-force grid oracle on the sum objective.
probe = bundled_scenario("example1")
report = grid_minimax(unit_weighted(probe.objectives1), probe.box_x, probe.box_y)
x_star, y_star = report.x_star[0], report.y_star[0]
print(f"grid oracle saddle: ({x_star:.6f}, {y_star:.6f}), "
      f"value {report.value:.6f}\n")

for name in ("example1", "example2", "example3"):
    trace = run(dataclasses.replace(bundled_scenario(name), iterations=iters))
    fx = trace.x[-1].ravel()
    fy = trace.y[-1].ravel()
    print(f"{name}: after {iters} iterations")
    print(f"  minimizers x = {np.array2string(fx, precision=5)}  "
          f"(max error {np.abs(fx - x_star).max():.2e})")
    print(f"  maximizers y = {np.array2string(fy, precision=5)}  "
          f"(max error {np.abs(fy - y_star).max():.2e})")
