"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

Each workload function takes the run context and returns a `Plan`. The
commands are nashnet CLI argument lists, run one at a time from a working
directory whose ``out/`` subdirectory receives every file they write. The
check reads those files back and returns a list of problems (empty when the
outputs are correct).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NASH_ERROR_LIMIT = 1e-6  # final squared Nash error of each paper experiment
MANY_AGENTS_BOX = 5.0  # both blocks of the generated scenario live in [-5, 5]


@dataclass
class Plan:
    commands: list  # CLI argument lists, run in order
    setup_specs: list  # scenarios one set-up sample loads (see setup_probe.py)
    setup_samples: int  # set-up samples per trace-0 run
    check: Callable[[Path], list]


def _last_row(path: Path) -> dict:
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 4096))
        last = fh.read().decode().strip().rsplit("\n", 1)[-1]
    return dict(zip(header, last.split(",")))


def _first_row(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return dict(zip(header, fh.readline().strip().split(",")))


def reproduce_paper(ctx) -> Plan:
    """The paper's three experiments; the inputs are the bundled files."""
    examples = ("1", "2", "3")

    def check(cwd: Path) -> list:
        problems = []
        for e in examples:
            stem = cwd / "out" / f"example{e}"
            missing = [k for k in ("trace", "metrics", "plotdata")
                       if not Path(f"{stem}_{k}.csv").is_file()]
            if missing:
                problems.append(f"example{e}: no {', '.join(missing)} CSV")
                continue
            err = float(_last_row(Path(f"{stem}_metrics.csv"))["nash_error"])
            if not err <= NASH_ERROR_LIMIT:
                problems.append(f"example{e}: final nash_error {err:.3e} > {NASH_ERROR_LIMIT:g}")
        return problems

    return Plan(commands=[["reproduce", e, "--out", "out"] for e in examples],
                setup_specs=[f"bundled:example{e}" for e in examples],
                setup_samples=1 if ctx.smoke else 7, check=check)


def sweep_gamma(ctx) -> Plan:
    """example1 under eight seeded values of gamma.c, two worker processes."""
    rng = random.Random(ctx.seed)
    values = [f"{rng.uniform(0.5, 2.5):.4f}" for _ in range(2 if ctx.smoke else 8)]
    scenario = ctx.root / "src" / "nashnet" / "scenarios" / "example1.yaml"
    if ctx.smoke:
        text = scenario.read_text(encoding="utf-8")
        if "iterations: 100000" not in text:
            raise RuntimeError("example1.yaml no longer sets iterations: 100000")
        scenario = ctx.work / "example1_smoke.yaml"
        scenario.write_text(text.replace("iterations: 100000", "iterations: 2000"),
                            encoding="utf-8")

    def check(cwd: Path) -> list:
        summary = cwd / "out" / "sweep_summary.csv"
        if not summary.is_file():
            return ["no sweep_summary.csv"]
        rows = [r.split(",") for r in summary.read_text(encoding="utf-8").splitlines()[1:]]
        if len(rows) != len(values):
            return [f"summary has {len(rows)} rows for {len(values)} values"]
        problems = []
        for i, (row, value) in enumerate(zip(rows, values)):
            if float(row[0]) != float(value):
                problems.append(f"summary row {i} holds {row[0]}, expected {value}")
            if not (cwd / row[2]).is_file():
                problems.append(f"summary row {i}: {row[2]} missing")
        return problems

    return Plan(commands=[["sweep", str(scenario), "--param", "gamma.c",
                           "--values", ",".join(values), "--out", "out", "--jobs", "2"]],
                setup_specs=[str(scenario)],
                setup_samples=1 if ctx.smoke else 7, check=check)


def many_agents(ctx) -> Plan:
    """A generated 100 + 100 agent scenario without a stored oracle."""
    agents, iterations = (6, 200) if ctx.smoke else (100, 2000)
    scenario = ctx.work / "many_agents.yaml"
    ctx.generate(["--seed", str(ctx.seed), "--out", str(scenario), "--agents", str(agents),
                  "--iterations", str(iterations), "--box", repr(MANY_AGENTS_BOX)])

    def check(cwd: Path) -> list:
        trace, metrics = cwd / "out" / "trace.csv", cwd / "out" / "metrics.csv"
        if not (trace.is_file() and metrics.is_file()):
            return ["trace or metrics CSV missing"]
        problems = []
        with open(trace, encoding="utf-8") as fh:
            col = fh.readline().strip().split(",").index("s0")
            outside = sum(1 for line in fh
                          if not -MANY_AGENTS_BOX <= float(line.split(",")[col]) <= MANY_AGENTS_BOX)
        if outside:
            problems.append(f"{outside} states outside the box")
        h0 = float(_first_row(metrics)["h1"])
        hk = float(_last_row(metrics)["h1"])
        if not hk < h0:
            problems.append(f"h1 did not shrink: {h0:.6g} at k=0, {hk:.6g} at k=K")
        return problems

    return Plan(commands=[["run", str(scenario), "--out", "out/trace.csv",
                           "--metrics", "out/metrics.csv"]],
                setup_specs=[str(scenario)],
                setup_samples=1 if ctx.smoke else 2, check=check)


WORKLOADS = {"reproduce-paper": reproduce_paper, "sweep-gamma": sweep_gamma,
             "many-agents": many_agents}
