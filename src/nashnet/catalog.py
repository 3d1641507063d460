"""example1's five agents by name, f1-f3 of subnet 1 then g1 and g2 of
subnet 2, as ``bundled_scenario("example1")`` loads them. No command
imports this module: it exists only for ``perfbench/gen_scenario.py``,
which reads f1-f3, until that script reads example1 itself."""

from collections import namedtuple

from .scenario_io import bundled_scenario

CatalogEntry = namedtuple("CatalogEntry", "expr selection")

_example1 = bundled_scenario("example1")
CATALOG = {name: CatalogEntry(*agent) for name, agent in
           zip(("f1", "f2", "f3", "g1", "g2"), _example1.objectives1 + _example1.objectives2)}
