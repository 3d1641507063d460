"""One set-up sample: import the CLI and load each scenario once.

Usage: python setup_probe.py SCENARIO...

A SCENARIO is a file path, or ``bundled:NAME`` for a packaged scenario
(loaded the way ``nashnet reproduce`` loads it). The benchmark times this
process from start to exit: that is the work every CLI command pays before
its first iteration.
"""

import sys

import nashnet.cli  # noqa: F401
from nashnet.scenario_io import bundled_scenario, load_scenario

for spec in sys.argv[1:]:
    if spec.startswith("bundled:"):
        bundled_scenario(spec.split(":", 1)[1])
    else:
        load_scenario(spec)
