"""The benchmark's traced replay still wraps what the CLI calls.

``perfbench/replay.py`` runs CLI commands in one process with the names the
CLI looks up at call time (loaders, writers, ``_reference_saddle``,
``_sweep_worker``, ...) wrapped as spans. A CLI refactor that renames or
bypasses one of them breaks the benchmark; this runs the replay on small
commands so such a break fails here too. The spans must also still count
what the benchmark divides by: ``engine.us_per_iter`` is the engine's self
time over the iterations of the ``engine.run`` spans, so those must add up
to each command's K however the run is segmented, and the kernel's code
must be generated once per run, not once per segment. And the
many-agents workload's input, which ``perfbench/gen_scenario.py`` draws
from a seed, is pinned here, so no change to example1's agents, the
printer or the parser moves it unseen.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from canonical_reference import many_agents_doc

ROOT = Path(__file__).resolve().parent.parent
SHARED_SADDLE = str(ROOT / "src" / "nashnet" / "scenarios" / "shared_saddle.yaml")
EXAMPLE2 = str(ROOT / "src" / "nashnet" / "scenarios" / "example2.yaml")
# every span the replay records on these commands: a refactor that bypasses
# a wrapped name drops its span
SPANS = {"replay", "cli.import", "cli.main", "cli.sweep_job", "digraph.checks", "engine.run",
         "exprs.compile", "exprs.convexity", "metrics.compute", "saddle.grid",
         "saddle.reference", "scenario_io.parse", "scenario_io.trace_csv",
         "scenario_io.metrics_csv", "scenario_io.plotdata_csv", "stepsizes.limit_vectors"}


def test_replay_records_the_cli_spans(tmp_path):
    commands = [
        ["run", SHARED_SADDLE, "--iters", "50"],
        ["oracle", SHARED_SADDLE, "--grid", "41"],
        ["reproduce", "shared_saddle", "--trust-bundled", "--out", "out"],
        ["sweep", SHARED_SADDLE, "--values", "1,2", "--out", "out"],
        ["run", EXAMPLE2, "--iters", "50"],  # derives its oracle limit vectors
    ]
    (tmp_path / "commands.json").write_text(json.dumps(commands), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "replay.py"), "commands.json", "spans.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert {s["name"] for s in spans} == SPANS
    assert sorted(os.listdir(tmp_path / "out")) == [
        "shared_saddle_gamma_c_0_metrics.csv", "shared_saddle_gamma_c_1_metrics.csv",
        "shared_saddle_metrics.csv", "shared_saddle_plotdata.csv",
        "shared_saddle_trace.csv", "sweep_summary.csv"]


def test_engine_spans_count_each_run_once(tmp_path):
    """Each command's ``engine.run`` spans add up to its K, and each run
    generates its kernel's code once, while its writers take it in
    segments."""
    commands = [
        ["run", SHARED_SADDLE, "--iters", "50"],
        ["reproduce", "shared_saddle", "--trust-bundled", "--out", "out"],
        ["sweep", SHARED_SADDLE, "--values", "1,2", "--out", "out"],
        ["run", EXAMPLE2, "--iters", "40000", "--metrics", "m.csv"],
    ]
    (tmp_path / "commands.json").write_text(json.dumps(commands), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "replay.py"), "commands.json", "spans.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    runs = [s for s in spans if s["name"] == "engine.run"]
    # per command, the iterations of its runs: the sweep runs two jobs
    assert {r: sum(s["iterations"] for s in runs if s["run"] == r) for r in range(4)} == {
        0: 50, 1: 20000, 2: 40000, 3: 40000}
    for s in runs:  # 3 + 2 agents, each agent's derivative code made once per run
        assert sum(c["name"] == "exprs.compile" and c["parent"] == s["id"] for c in spans) == 5
    for r, name in ((1, "scenario_io.trace_csv"), (3, "scenario_io.metrics_csv")):
        assert sum(s["name"] == name and s["run"] == r for s in spans) > 1


# SHA-256 of json.dumps(scenario_doc(seed, 100, 2000, 5.0), sort_keys=True)
MANY_AGENTS_DIGESTS = {
    1: "5f5476f10e81fc37e0de9865759974809f3353d9c2a57c87c858d8847c953408",
    2: "1379bdaf33ca5d022b32b09b0215ef86154ed886f0b6d4f1711d6a8315ecdf2d",
    3: "e37f7a6dcc2cdb8836e6c67a53d8300835c37fc53574928c1785de28873f4d0c",
}


@pytest.mark.parametrize("seed", sorted(MANY_AGENTS_DIGESTS))
def test_many_agents_documents_are_pinned(seed):
    """The benchmark's generator writes the same many-agents document for
    each of these seeds: the same objectives, graph and initial states."""
    text = json.dumps(many_agents_doc(seed), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MANY_AGENTS_DIGESTS[seed]
