"""Smoke tests of the benchmark itself.

Run from the root of the checkout:

    python -m pytest -q perfbench/tests

Each workload runs at reduced size (``--smoke``) in both modes, and every
metric BENCHMARK.json names must appear in the last-line JSON and in the
printed report, with its unit. reproduce-paper has no size knob in the CLI,
so its smoke runs use the bundled 100k-iteration experiments once each.
The whole file takes about three minutes on a 2-core machine.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import self_by_name, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        line = rf"^\s+{re.escape(m['name'])}\s+{re.escape(m['unit'])}\s+\S"
        assert re.search(line, proc.stdout, re.M), m["name"]
    assert re.search(r"^\s+fail_rate\s+ratio\s+0 ", proc.stdout, re.M)


def test_fails_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "many-agents", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_generated_scenario_passes_graph_check():
    work = ROOT / ".bench_work" / "graph-check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        scenario = work / "many_agents.yaml"
        subprocess.run([sys.executable, "perfbench/gen_scenario.py", "--seed", "1",
                        "--out", str(scenario)], cwd=ROOT, env=env, check=True)
        proc = subprocess.run([sys.executable, "-m", "nashnet.cli", "graph-check", str(scenario)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "replay", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "engine.run", "parent": 0, "start": 1.0, "end": 6.0},
        {"id": 2, "name": "exprs.compile", "parent": 1, "start": 1.0, "end": 2.0},
        {"id": 3, "name": "exprs.compile", "parent": 1, "start": 2.5, "end": 3.0},
        {"id": 4, "name": "cli.main", "parent": 0, "start": 7.0, "end": 9.0},
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.5, 2: 1.0, 3: 0.5, 4: 2.0}
    assert self_by_name(spans) == {"engine.run": 3.5, "exprs.compile": 1.5, "cli.main": 2.0}
