"""Write the many-agents scenario drawn from a seed.

Usage: python gen_scenario.py --seed N --out FILE [--agents 100] [--iterations 2000]
                                  [--box 5.0]

Run with the package's ``src`` directory on PYTHONPATH. Each subnetwork has
`--agents` agents whose objectives are the catalog's f1, f2, f3 assigned
cyclically, so both subnetworks hold the same sum objective. The graph has
period 2: a directed cycle with self-loops built by ``build_cycle_matrix``
from a seeded positive vector, then the identity, so each subnetwork is
jointly strongly connected within a window of 2. Cross arcs pair agent i
of one subnetwork with agent i of the other in every phase. There is no
stored oracle, so ``nashnet run`` re-derives the saddle with the grid
oracle. The same seed always writes the same file.
"""

import argparse

import numpy as np
import yaml

from nashnet.catalog import CATALOG
from nashnet.digraph import build_cycle_matrix
from nashnet.exprs import format_expr

OBJECTIVES = ("f1", "f2", "f3")


def scenario_doc(seed: int, agents: int, iterations: int, box: float) -> dict:
    rng = np.random.default_rng(seed)

    def cycle():
        # components within a factor 2 of each other keep every arc >= 0.25
        mu = rng.uniform(1.0, 2.0, agents)
        return build_cycle_matrix(mu / mu.sum())

    def rows(A):
        return [[float(v) for v in row] for row in A]

    def block():
        out = []
        for i in range(agents):
            entry = CATALOG[OBJECTIVES[i % len(OBJECTIVES)]]
            out.append({"expr": format_expr(entry.expr),
                        "selections": {int(k): float(v) for k, v in entry.selection.items()}})
        return out

    a1, a2 = cycle(), cycle()
    eye = rows(np.eye(agents))
    cross = [[i, i, 1.0] for i in range(agents)]
    x0 = rng.uniform(-0.8 * box, 0.8 * box, agents)
    y0 = rng.uniform(-0.8 * box, 0.8 * box, agents)
    return {
        "meta": {"name": f"many_agents_{seed}"},
        "dimensions": {"m1": 1, "m2": 1},
        "boxes": {"x": {"lower": [-box], "upper": [box]},
                  "y": {"lower": [-box], "upper": [box]}},
        "agents": {"subnet1": block(), "subnet2": block()},
        "graph": {"eta": 0.1, "period": 2, "windows": {"t1": 2, "t2": 2, "t_cross": 1},
                  "phases": [{"a1": rows(a1), "a2": rows(a2),
                              "cross_to_1": cross, "cross_to_2": cross},
                             {"a1": eye, "a2": eye,
                              "cross_to_1": cross, "cross_to_2": cross}]},
        "stepsize": {"variant": "homogeneous", "gamma": {"c": 1.0, "b": 50.0, "eps": 0.5}},
        "initial": {"x": [[float(v)] for v in x0], "y": [[float(v)] for v in y0]},
        "run": {"iterations": iterations},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--agents", type=int, default=100)
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--box", type=float, default=5.0, help="half-width of both boxes")
    args = ap.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        yaml.dump(scenario_doc(args.seed, args.agents, args.iterations, args.box), fh,
                  Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False)


if __name__ == "__main__":
    main()
