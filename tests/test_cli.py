"""Command-line interface: subcommands, file outputs, and the exit-code
contract (2 parse, 3 validation, 4 numeric, 5 resource)."""

import copy
import csv
import dataclasses
import errno
import functools
import hashlib
import math
import operator
import os
import stat
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import nashnet
from nashnet import cli, scenario_io
from nashnet.cli import main
from nashnet.engine import run
from nashnet.errors import ValidationError
from nashnet.exprs import MAX_DEPTH, MAX_OPERANDS
from nashnet.metrics import compute_metrics
from nashnet.scenario_io import (bundled_scenario, load_scenario, metrics_to_csv,
                                 save_scenario, scenario_to_doc)


@pytest.fixture()
def shsad(tmp_path):
    """A quick-to-run scenario file on disk."""
    import dataclasses
    s = dataclasses.replace(bundled_scenario("shared_saddle"), iterations=500)
    path = tmp_path / "shsad.yaml"
    save_scenario(s, path)
    return str(path)


def test_run_writes_trace_and_metrics(shsad, tmp_path, capsys):
    trace = str(tmp_path / "trace.csv")
    metrics = str(tmp_path / "metrics.csv")
    assert main(["run", shsad, "--out", trace, "--metrics", metrics]) == 0
    out = capsys.readouterr().out
    assert "nash_error=" in out and "h1=" in out and "h2=" in out
    with open(trace) as fh:
        assert fh.readline().strip() == "k,agent,subnet,s0,stepsize"
    with open(metrics) as fh:
        assert fh.readline().strip() == "k,h1,h2,nash_error,saddle_residual"


def test_run_iters_zero(shsad, tmp_path):
    trace, metrics = tmp_path / "t.csv", tmp_path / "m.csv"
    assert main(["run", shsad, "--iters", "0", "--out", str(trace),
                 "--metrics", str(metrics)]) == 0
    # header + one row per agent at k=0, with no stepsize applied
    assert trace.read_text() == ("k,agent,subnet,s0,stepsize\n"
                                 "0,1,1,3,\n0,2,1,-2,\n0,3,1,4,\n0,1,2,2.5,\n0,2,2,-3,\n")
    assert metrics.read_text() == ("k,h1,h2,nash_error,saddle_residual\n"
                                   "0,6,5.5,37.25,1.7430555555555558\n")


def test_run_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("meta: [unclosed\n")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_validation_error_exit_3_no_trace(shsad, tmp_path, capsys):
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["graph"]["phases"][0]["a1"][0] = [0.7, 0.2, 0.0]  # sums to 0.9
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    trace = tmp_path / "never.csv"
    assert main(["run", str(bad), "--out", str(trace)]) == 3
    assert not trace.exists()
    assert "(ii)" in capsys.readouterr().err


@pytest.mark.parametrize("run_doc, argv, message", [
    ({"iterations": -3}, [], "iterations must be >= 0"),
    ({"iterations": 500}, ["--iters", "-1"], "iterations must be >= 0"),
])
def test_run_iteration_count_errors_exit_3(shsad, tmp_path, capsys, run_doc, argv, message):
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["run"]["iterations"] = run_doc["iterations"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    trace = tmp_path / "never.csv"
    assert main(["run", str(bad), "--out", str(trace)] + argv) == 3
    assert not trace.exists()
    assert message in capsys.readouterr().err


def test_run_numeric_error_exit_4(tmp_path, capsys):
    import dataclasses
    from canonical_reference import make_identical_scenario, neg
    from nashnet.exprs import BoxSet, Pow, Sum, Var
    from nashnet.stepsizes import GammaSchedule, StepsizeRule
    e = Sum((Pow(Var("x", 0), 4), neg(Pow(Var("y", 0), 2))))
    box = BoxSet((-float("inf"),), (float("inf"),))
    s = make_identical_scenario(
        objectives=[(e, {})], a_seq=(np.eye(1),),
        box_x=box, box_y=box,
        rule=StepsizeRule("homogeneous", GammaSchedule(c=1e200)),
        x0=[[1e100]], y0=[[0.0]], iterations=20)
    path = tmp_path / "blowup.yaml"
    save_scenario(s, path)
    assert main(["run", str(path)]) == 4


def test_a_late_numeric_error_removes_the_files_begun(tmp_path, monkeypatch, capsys):
    """x' = -2x unprojected, under a huge gamma: the state at k = 4 is inf.
    With segments of two iterations the trace and metrics files have
    taken the first segment when the second fails; `run --out --metrics`
    exits 4 with the error and no traceback, and leaves neither file."""
    import dataclasses
    from canonical_reference import make_identical_scenario, neg
    from nashnet import engine
    from nashnet.exprs import BoxSet, Pow, Sum, Var
    from nashnet.stepsizes import GammaSchedule, StepsizeRule
    e = Sum((neg(Pow(Var("x", 0), 2)), neg(Pow(Var("y", 0), 2))))
    box = BoxSet((-float("inf"),), (float("inf"),))
    s = make_identical_scenario(
        objectives=[(e, {})], a_seq=(np.eye(1),), box_x=box, box_y=box,
        rule=StepsizeRule("homogeneous", GammaSchedule(c=1e100)),
        x0=[[1.0]], y0=[[0.0]], iterations=20)
    path = tmp_path / "late.yaml"
    save_scenario(dataclasses.replace(s, oracle_x=(0.0,), oracle_y=(0.0,)), path)
    monkeypatch.setattr(engine, "SEGMENT_VALUES", 2 * (s.n1 + s.n2))
    written, real = [], cli.compute_metrics
    monkeypatch.setattr(cli, "compute_metrics",
                        lambda trace, *args: written.append(trace.start) or real(trace, *args))
    paths = [tmp_path / "t.csv", tmp_path / "m.csv"]
    assert main(["run", str(path), "--out", str(paths[0]), "--metrics", str(paths[1])]) == 4
    assert written == [0]
    err = capsys.readouterr().err
    assert err.endswith("\nerror: non-finite state produced at iteration 3\n") and "Traceback" not in err
    assert not any(p.exists() for p in paths)


def test_a_streamed_run_compiles_its_residual_once(tmp_path, monkeypatch):
    """example1 in segments of 100 iterations: `compute_metrics` scores each
    segment, and the residual's sum objective, three distinct subnet-1
    objectives, is compiled once for the run, not once per segment."""
    from nashnet import engine, saddle
    monkeypatch.setattr(engine, "SEGMENT_VALUES", 100 * 5)
    compiles, segments = [], []
    compile_objective, compute = saddle.compile_objective, cli.compute_metrics
    monkeypatch.setattr(saddle, "compile_objective",
                        lambda *args, **kw: compiles.append(args) or compile_objective(*args, **kw))
    monkeypatch.setattr(cli, "compute_metrics",
                        lambda trace, *args: segments.append(trace.start) or compute(trace, *args))
    example1 = str(resources.files("nashnet") / "scenarios" / "example1.yaml")
    assert main(["run", example1, "--iters", "400", "--metrics", str(tmp_path / "m.csv")]) == 0
    assert segments == [0, 100, 200, 300] and len(compiles) == 3


def test_run_non_finite_sample_is_a_load_warning(shsad, tmp_path, capsys):
    """x0^60 overflows on a +-1e6 box while sampling convexity: the load
    warns, prints no numpy RuntimeWarning, and the short run still works."""
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["boxes"]["x"] = {"lower": [-1e6], "upper": [1e6]}
    doc["agents"]["subnet1"][0]["expr"] = "(sub (pow x0 60) (pow y0 2))"
    doc["initial"]["x"] = [[0.5], [0.5], [0.5]]
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert load_scenario(path).warnings == ("subnet1[0]: objective not finite on sample",)
    capsys.readouterr()
    assert main(["run", str(path), "--iters", "3"]) == 0
    assert capsys.readouterr().err == "warning: subnet1[0]: objective not finite on sample\n"


def test_every_command_that_loads_a_scenario_prints_its_warnings(tmp_path, capsys):
    """example1's objectives are not concave in y on the whole box: `run`,
    `oracle` and `sweep` print the same load warnings."""
    s = bundled_scenario("example1")
    assert s.warnings
    path = tmp_path / "example1.yaml"
    save_scenario(dataclasses.replace(s, iterations=5), path)
    want = "".join(f"warning: {w}\n" for w in s.warnings)
    for argv in (["run", str(path)], ["oracle", str(path), "--grid", "11"],
                 ["sweep", str(path), "--param", "iterations", "--values", "5",
                  "--out", str(tmp_path)]):
        assert main(argv) == 0
        assert capsys.readouterr().err == want, argv


NESTED = {"add": "(add x0 {})", "sub": "(sub x0 {})", "neg": "(neg {})", "mul": "(mul x0 {})",
          "scale": "(scale 2 {})", "pow": "(pow {} 1)", "abs": "(abs {})"}


def _objective(shape, op, size):
    """`size` operators `op` nested around x0 (deep), or one `op` of
    `size` operands (wide), an affine form's coefficients and offset each
    one."""
    if shape == "deep":
        expr = "x0"
        for _ in range(size):
            expr = NESTED[op].format(expr)
        return expr
    if op == "affine":
        return f"(affine (1{' 0' * (size - 3)}) (0) 0)"
    return f"({op}{' x0' * size})"


@pytest.mark.parametrize("shape, op", [*(("deep", op) for op in NESTED),
                                       ("wide", "add"), ("wide", "mul"), ("wide", "affine")],
                         ids=lambda v: v)
def test_objective_size_bounds_exit_3(shape, op, shsad, tmp_path, capsys):
    """An objective runs with MAX_DEPTH nested operators and MAX_OPERANDS
    operands. One past either bound, the code generated for it could fail
    to compile (too many nested parentheses, or the compiler's recursion
    limit), so the load exits 3 and names the bound."""
    bound = MAX_DEPTH if shape == "deep" else MAX_OPERANDS
    doc = yaml.safe_load(Path(shsad).read_text())
    path = tmp_path / "big.yaml"
    for size, code in ((bound, 0), (bound + 1, 3)):
        doc["agents"]["subnet1"][0]["expr"] = _objective(shape, op, size)
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["run", str(path), "--iters", "3"]) == code
    err = capsys.readouterr().err
    assert f"more than {bound} " in err and "Traceback" not in err


def test_oracle_default_weights(shsad, tmp_path, capsys):
    out = str(tmp_path / "saddle.csv")
    assert main(["oracle", shsad, "--grid", "401", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "key,value"
    vals = dict(ln.split(",") for ln in lines[1:])
    assert float(vals["x_star[0]"]) == pytest.approx(1.0, abs=1e-6)
    assert float(vals["y_star[0]"]) == pytest.approx(-0.5, abs=1e-6)


def test_oracle_report_text_pinned(tmp_path):
    example1 = os.path.join(os.path.dirname(nashnet.__file__), "scenarios", "example1.yaml")
    out = tmp_path / "saddle.csv"
    assert main(["oracle", example1, "--grid", "101", "--weights", "1,2,0.5",
                 "--out", str(out)]) == 0
    assert out.read_text() == ("key,value\n"
                               "x_star[0],0.99011919999999998\n"
                               "y_star[0],0.9000984000000003\n"
                               "value,-1.8000988115781169\n"
                               "minimax_gap,0\n"
                               "grid_resolution,101\n")


def test_oracle_weights_flag(shsad, capsys):
    # weights shift nothing here (all objectives share the saddle), but the
    # count must match
    assert main(["oracle", shsad, "--grid", "201", "--weights", "1,2,1"]) == 0
    assert main(["oracle", shsad, "--grid", "201", "--weights", "1,2"]) == 3


def test_oracle_budget_exit_5(shsad, capsys):
    """2025^2 cells exceed saddle.GRID_BUDGET; the refusal comes before
    any cell is evaluated."""
    assert main(["oracle", shsad, "--grid", "2025"]) == 5
    assert capsys.readouterr().err == ("error: grid of 4100625 evaluations exceeds budget "
                                       "4100000; reduce resolution to at most 2024\n")


def test_oracle_nan_table_exit_4(shsad, tmp_path, capsys):
    """x0^400 - y0^400 is inf - inf at the corners of [-6, 6]^2: the oracle
    exits 4, points to a stored reference and writes no report."""
    doc = yaml.safe_load(Path(shsad).read_text())
    for entry in doc["agents"]["subnet1"]:
        entry.update(expr="(sub (pow x0 400) (pow y0 400))", selections={})
    doc["boxes"] = {side: {"lower": [-6.0], "upper": [6.0]} for side in ("x", "y")}
    path, out = tmp_path / "nan.yaml", tmp_path / "report.csv"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["oracle", str(path), "--grid", "101", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "NaN" in err and "run.oracle" in err
    assert not out.exists()


def test_overflowing_values_leak_no_numpy_warning(shsad, tmp_path):
    """The NaN oracle table above, and a run whose saddle residual is
    inf - inf (x0 pinned at 1e80, so x0^4 overflows, against a stored
    reference there), write to stderr no numpy RuntimeWarning: the oracle
    only its load warnings and its error line, and the run nothing while
    its metrics hold nan."""
    doc = yaml.safe_load(Path(shsad).read_text())
    for entry in doc["agents"]["subnet1"]:
        entry.update(expr="(sub (pow x0 400) (pow y0 400))", selections={})
    doc["boxes"] = {side: {"lower": [-6.0], "upper": [6.0]} for side in ("x", "y")}
    nan_table = tmp_path / "nan.yaml"
    nan_table.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    for side in ("subnet1", "subnet2"):
        for entry in doc["agents"][side]:
            entry.update(expr="(sub (pow x0 4) (pow y0 2))", selections={})
    doc["boxes"]["x"] = {"lower": [1e80], "upper": [1e80]}
    doc["initial"]["x"] = [[1e80]] * 3
    doc["run"].update(iterations=20, oracle={"x_star": [1e80], "y_star": [0.0]})
    overflow = tmp_path / "overflow.yaml"
    overflow.write_text(yaml.safe_dump(doc, sort_keys=False))

    def cli(*argv):
        return subprocess.run([sys.executable, "-W", "always::RuntimeWarning",
                               "-m", "nashnet.cli", *argv],
                              env=_env(), capture_output=True, text=True, timeout=300)
    proc = cli("oracle", str(nan_table), "--grid", "101")
    warned = "".join(f"warning: {w}\n" for w in load_scenario(nan_table).warnings)
    assert (proc.returncode, proc.stderr) == (4, warned + "error: grid oracle table holds NaN; "
                                              "store a reference under run.oracle (x_star, "
                                              "y_star) in the scenario document instead\n")
    metrics = tmp_path / "m.csv"
    proc = cli("run", str(overflow), "--out", str(tmp_path / "t.csv"), "--metrics", str(metrics))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert metrics.read_text().splitlines()[-1].endswith(",nan")


def test_graph_check_pass(shsad, capsys):
    assert main(["graph-check", shsad]) == 0
    out = capsys.readouterr().out
    assert "weight rule" in out and "pass" in out
    assert "limit vector" in out
    assert "false" in out  # unbalanced phases reported


def test_graph_check_failure_exit_3(tmp_path, capsys):
    doc = scenario_to_doc(bundled_scenario("shared_saddle"))
    # disconnect subnet 1 in every phase: node 0 only hears itself
    for ph in doc["graph"]["phases"]:
        ph["a1"][0] = [1.0, 0.0, 0.0]
        ph["a1"][1] = [0.0, 1.0, 0.0]
        ph["a1"][2] = [0.0, 0.0, 1.0]
    bad = tmp_path / "disc.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["graph-check", str(bad)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:4] == ["subnet 1 jointly strongly connected within T=1..2: FAIL",
                          "subnet 2 jointly strongly connected within T=2: pass",
                          "cross layer covers every node within T=1: pass"]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("disconnect", [False, True], ids=["passing graph", "failing graph"])
def test_graph_check_into_a_closed_pipe_exits_141(disconnect, buffered, tmp_path):
    """A reader that closed stdout before the first line ends graph-check
    with the documented status 141 and no traceback, whether the graph
    passes or fails its checks and whether the first print or the final
    flush meets the closed pipe; a failure raised before that flush is
    still reported on stderr."""
    doc = scenario_to_doc(bundled_scenario("example2"))
    if disconnect:  # node 0 of subnet 1 hears only itself
        for ph in doc["graph"]["phases"]:
            ph["a1"][0] = [1.0] + [0.0] * (len(ph["a1"]) - 1)
    path = tmp_path / "g.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nashnet.cli", "graph-check", str(path)],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    if buffered:
        assert ("error: assumptions failed" in proc.stderr) == disconnect


@pytest.mark.parametrize("coeff_x, code, message", [
    ("1 0", 0, "50 iterations"),
    ("1 -0.0", 0, "50 iterations"),
    ("1 2", 3, "needs dimensions (2, 1)"),
])
def test_a_zero_affine_coefficient_reads_no_coordinate(coeff_x, code, message, shsad,
                                                       tmp_path, capsys):
    """On an m1 = 1 scenario an affine term with a zero coefficient for x1
    loads and runs, since that term is left out of the sum; a nonzero one
    still needs m1 = 2."""
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["agents"]["subnet1"][0]["expr"] = f"(sub (affine ({coeff_x}) (1) 0) (pow y0 2))"
    path = tmp_path / "affine.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", str(path), "--iters", "50"]) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)


@pytest.mark.parametrize("name, windows", [
    ("example1", (2, 2, 1)), ("example2", (2, 2, 1)), ("example3", (2, 2, 1)),
    ("shared_saddle", (2, 2, 1)), ("perron_weighted", (1, 1, 1))])
def test_graph_check_prints_the_least_window(name, windows, capsys):
    """Each connectivity verdict names the least window that passes."""
    path = resources.files("nashnet") / "scenarios" / f"{name}.yaml"
    assert main(["graph-check", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:4] == [f"subnet 1 jointly strongly connected within T={windows[0]}: pass",
                          f"subnet 2 jointly strongly connected within T={windows[1]}: pass",
                          f"cross layer covers every node within T={windows[2]}: pass"]


def test_an_unread_window_key_is_ignored(tmp_path, capsys):
    """``graph.windows: {t1: 0}``, once a validation error, is a key the
    loader does not read: the scenario runs."""
    doc = yaml.safe_load((resources.files("nashnet") / "scenarios" / "example2.yaml")
                         .read_text(encoding="utf-8"))
    doc["graph"]["windows"] = {"t1": 0}
    path = tmp_path / "zero_window.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", str(path), "--iters", "50"]) == 0
    assert "50 iterations" in capsys.readouterr().out


def test_graph_check_lists_weight_rule_violations(shsad, tmp_path, capsys):
    """graph-check loads without any check, so a weight-rule violation is
    listed beside the other verdicts; every other command fails at load."""
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["graph"]["phases"][0]["a1"][0] = [0.7, 0.2, 0.0]  # sums to 0.9
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["graph-check", str(bad)]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "weight rule (eta=0.1): FAIL"
    assert lines[1].startswith("  ") and "(ii)" in lines[1]
    assert any(ln.startswith("subnet 1 jointly strongly connected") for ln in lines)
    assert any(ln.startswith("cross layer covers every node") for ln in lines)
    assert "assumptions failed: weight rule" in captured.err
    for argv in (["run", str(bad)], ["oracle", str(bad), "--grid", "41"],
                 ["sweep", str(bad), "--values", "1", "--out", str(tmp_path / "sw")]):
        assert main(argv) == 3
        assert "weight rule violated" in capsys.readouterr().err
    # with no positive weight the derived floor is 1.0 and every node lacks a self-loop
    for ph in doc["graph"]["phases"]:
        ph.update(a1=[[0.0] * 3] * 3, a2=[[0.0] * 2] * 2, cross_to_1=[], cross_to_2=[])
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["graph-check", str(bad)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "weight rule (eta=1.0): FAIL"
    assert "  [weight-rule (i)] phase 0, node 0: subnet 1 missing self-loop" in lines


def test_graph_check_reports_a_graph_without_limit_vectors(tmp_path, capsys):
    """An oracle_heterogeneous rule derives its limit vectors at run, which
    needs the weight rule, and the load refuses a graph that breaks it;
    graph-check reads the graph alone, so it prints the failing verdict and
    exits 3, and run keeps the load's message."""
    doc = yaml.safe_load((resources.files("nashnet") / "scenarios" / "example2.yaml")
                         .read_text(encoding="utf-8"))
    assert doc["stepsize"]["variant"] == "oracle_heterogeneous" and "phi1" not in doc["stepsize"]
    doc["graph"]["phases"][0]["a1"][0] = [0.8, 0.1, 0.0]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["graph-check", str(bad)]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "weight rule (eta=0.1): FAIL"
    assert any(ln.startswith("cross layer covers every node") for ln in lines)
    assert "assumptions failed: weight rule" in captured.err
    assert main(["run", str(bad)]) == 3
    assert "oracle limit vectors exist only on" in capsys.readouterr().err


def test_oracle_needs_a_jointly_strongly_connected_graph(tmp_path, capsys):
    """example2 with every subnet-1 phase the identity meets the weight rule,
    but subnet 1 is not jointly strongly connected: the oracle rule has no
    limit vectors, so run exits 3 with the load's message, while the same
    document under a homogeneous rule loads with the subnet-1 warning
    before example2's own."""
    doc = yaml.safe_load((resources.files("nashnet") / "scenarios" / "example2.yaml")
                         .read_text(encoding="utf-8"))
    for ph in doc["graph"]["phases"]:
        ph["a1"] = np.eye(3).tolist()
    path = tmp_path / "identity.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", str(path)]) == 3
    assert "oracle limit vectors exist only on" in capsys.readouterr().err
    doc["stepsize"]["variant"] = "homogeneous"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert load_scenario(path).warnings == (
        ("subnet 1 not jointly strongly connected within one period",)
        + bundled_scenario("example2").warnings)
    assert main(["run", str(path), "--iters", "5"]) == 0
    assert "warning: subnet 1 not jointly strongly connected" in capsys.readouterr().err


@pytest.mark.parametrize("case, code, message", [
    ("missing scenario file", 2, "nonexistent.yaml"),
    ("unknown stepsize variant", 3, "unknown stepsize variant 'heterogeneous'"),
    ("sweep values not numbers", 3, "--values"),
    ("grid resolution below 3", 3, "grid resolution"),
    ("box bound not a number", 3, "boxes.x.lower[0] must be a number, got 'x'"),
    ("infinite objective constant", 3, "non-finite number 'inf'"),
    ("add without an argument", 3, "add takes at least 1 argument"),
    ("pow exponent below 1", 3, "pow exponent must be an integer >= 1, got 0"),
    ("NaN saddle reference", 3, "x_star"),
    ("zero sweep jobs", 3, "--jobs"),
    ("infinite sweep value", 3, "--values"),
    ("power-law gamma_0 overflows", 3, "gamma_0"),
    ("non-positive weight", 3, "--weights"),
    ("fractional iterations", 3, "whole numbers"),
    ("fractional scenario iterations", 3, "run.iterations must be a whole number, got 2.7"),
    ("trace path in a missing directory", 3, "missing_dir"),
    ("metrics path in a missing directory", 3, "missing_dir"),
    ("oracle report path in a missing directory", 3, "missing_dir"),
    ("reproduce output directory is a file", 3, "a_file"),
    ("sweep output directory is a file", 3, "a_file"),
    ("sweep scenario name holds a path separator", 3, "path separator"),
    ("oracle on an unbounded box", 5, "store a reference under run.oracle"),
    ("run on an unbounded box without a stored reference", 5, "finite box bounds"),
    ("trace and metrics paths name one file", 3, "--out and --metrics name the same file"),
])
def test_user_errors_map_to_exit_codes(case, code, message, shsad, tmp_path, capsys):
    """User input errors end in their documented exit code, not a
    traceback, and no message quotes an exception it caught."""
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["boxes"]["x"]["lower"] = ["x"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["agents"]["subnet1"][0]["expr"] = "(sub (pow (sub x0 inf) 2) (pow (add y0 0.5) 2))"
    inf_const = tmp_path / "inf_const.yaml"
    inf_const.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc["agents"]["subnet1"][0]["expr"] = "(add)"
    empty_add = tmp_path / "empty_add.yaml"
    empty_add.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc["agents"]["subnet1"][0]["expr"] = "(sub (pow x0 0) (pow y0 2))"
    pow_zero = tmp_path / "pow_zero.yaml"
    pow_zero.write_text(yaml.safe_dump(doc, sort_keys=False))
    with open(shsad) as fh:
        doc = yaml.safe_load(fh)
    doc["run"]["oracle"]["x_star"] = [float("nan")]
    nan_ref = tmp_path / "nan_ref.yaml"
    nan_ref.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["run"]["iterations"] = 2.7
    frac_iters = tmp_path / "frac_iters.yaml"
    frac_iters.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["meta"]["name"] = "../escaped"
    escaped = tmp_path / "escaped.yaml"
    escaped.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["boxes"]["x"]["lower"] = [float("-inf")]
    del doc["run"]["oracle"]
    unbounded = tmp_path / "unbounded.yaml"
    unbounded.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["stepsize"]["variant"] = "heterogeneous"
    unknown_variant = tmp_path / "unknown_variant.yaml"
    unknown_variant.write_text(yaml.safe_dump(doc, sort_keys=False))
    sweep_dir = tmp_path / "sw"
    missing = tmp_path / "missing_dir"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv = {
        "missing scenario file": ["run", str(tmp_path / "nonexistent.yaml")],
        "unknown stepsize variant": ["run", str(unknown_variant)],
        "sweep values not numbers": ["sweep", shsad, "--values", "a,b", "--out", str(sweep_dir)],
        "grid resolution below 3": ["oracle", shsad, "--grid", "2"],
        "box bound not a number": ["run", str(bad)],
        "infinite objective constant": ["run", str(inf_const)],
        "add without an argument": ["run", str(empty_add)],
        "pow exponent below 1": ["run", str(pow_zero)],
        "NaN saddle reference": ["run", str(nan_ref), "--iters", "50"],
        "zero sweep jobs": ["sweep", shsad, "--values", "1", "--out", str(sweep_dir),
                            "--jobs", "0"],
        "infinite sweep value": ["sweep", shsad, "--param", "iterations", "--values", "1e400",
                                 "--out", str(sweep_dir)],
        "power-law gamma_0 overflows": ["sweep", shsad, "--param", "gamma.b", "--values",
                                        "1e-320", "--out", str(sweep_dir)],
        "non-positive weight": ["oracle", shsad, "--grid", "41", "--weights", "1,0,1"],
        "fractional iterations": ["sweep", shsad, "--param", "iterations", "--values", "2.7",
                                  "--out", str(sweep_dir)],
        "fractional scenario iterations": ["run", str(frac_iters)],
        "trace path in a missing directory": ["run", shsad, "--iters", "5",
                                              "--out", str(missing / "t.csv")],
        "metrics path in a missing directory": ["run", shsad, "--iters", "5",
                                                "--metrics", str(missing / "m.csv")],
        "oracle report path in a missing directory": ["oracle", shsad, "--grid", "41",
                                                      "--out", str(missing / "r.csv")],
        "reproduce output directory is a file": ["reproduce", "shared_saddle", "--trust-bundled",
                                                 "--out", str(a_file)],
        "sweep output directory is a file": ["sweep", shsad, "--values", "1", "--out", str(a_file)],
        "sweep scenario name holds a path separator": ["sweep", str(escaped), "--values", "1",
                                                        "--out", str(sweep_dir)],
        "oracle on an unbounded box": ["oracle", str(unbounded), "--grid", "41"],
        "run on an unbounded box without a stored reference": ["run", str(unbounded),
                                                               "--iters", "5"],
        "trace and metrics paths name one file": ["run", shsad, "--iters", "5", "--out",
                                                  str(tmp_path / "a.csv"), "--metrics",
                                                  f"{tmp_path}/./a.csv"],
    }[case]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "ValueError(" not in err
    assert not sweep_dir.exists() and not missing.exists()


def test_unbounded_box_runs_against_a_stored_reference(shsad, tmp_path, capsys):
    """Only the grid oracle needs finite box bounds: with a stored reference
    `run` on a box unbounded below exits 0 with a finite Nash error."""
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["boxes"]["x"]["lower"] = [float("-inf")]
    path = tmp_path / "unbounded.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    metrics = tmp_path / "m.csv"
    assert main(["run", str(path), "--iters", "50", "--metrics", str(metrics)]) == 0
    rows = metrics.read_text().splitlines()[1:]
    assert len(rows) == 51 and all(math.isfinite(float(r.split(",")[3])) for r in rows)
    assert "nash_error=nan" not in capsys.readouterr().out


def _leaf_paths(node, path=()):
    """The key paths of a document's scalars and empty containers."""
    if isinstance(node, (dict, list)) and node:
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        return [leaf for key in keys for leaf in _leaf_paths(node[key], path + (key,))]
    return [path]


@functools.cache
def _fuzz_documents():
    """Every bundled document."""
    return {name: yaml.safe_load(resources.files("nashnet.scenarios")
                                 .joinpath(f"{name}.yaml").read_text())
            for name in scenario_io.BUNDLED}


# no count above 10, so no mutated count (a cross index, a selection
# key) makes a run slow
_FUZZ_VALUES = [None, True, "a", -1, 0, 1, 2, 3, 1.5, math.nan, math.inf, [], {}, [[0.5, 0.5]]]


@st.composite
def _mutated_documents(draw):
    """A document name and one or two (leaf path, value) replacements."""
    docs = _fuzz_documents()
    name = draw(st.sampled_from(sorted(docs)))
    leaf = st.tuples(st.sampled_from(_leaf_paths(docs[name])), st.sampled_from(_FUZZ_VALUES))
    return name, draw(st.lists(leaf, min_size=1, max_size=2))


@settings(max_examples=200, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(tmp_path_factory, mutated):
    """Whatever one or two leaves of a scenario hold, `run` returns 0 or a
    documented failure code, never a traceback."""
    name, edits = mutated
    doc = copy.deepcopy(_fuzz_documents()[name])
    for path, value in edits:
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = copy.deepcopy(value)
    path = tmp_path_factory.getbasetemp() / "mutated.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", str(path), "--iters", "20"]) in {0, 2, 3, 4, 5}


def test_csv_writers_start_no_process(shsad, tmp_path, monkeypatch):
    """Every CSV is formatted in the calling process: with ``os.fork`` and
    ``os.pipe`` refused, ``run`` writes its trace and metrics in many
    chunks, exits 0 and leaves no child behind."""
    def refused(*args):
        raise AssertionError("a CSV writer tried to start a process")

    monkeypatch.setattr(scenario_io, "CSV_CHUNK", 150)
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "pipe", refused)
    paths = [tmp_path / "t.csv", tmp_path / "m.csv"]
    assert main(["run", shsad, "--out", str(paths[0]), "--metrics", str(paths[1])]) == 0
    assert all(p.stat().st_size > 0 for p in paths)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_learner_banks_above_the_cap_exit_5_before_any_code(monkeypatch, capsys):
    """example3's periodic learner needs 2 x 9 = 18 bank entries on subnet 1
    (one 3 x 3 bank per phase of its period 2): under a cap of 17 the run
    exits 5 within a second, naming the cap and the count, and no line of
    the learner's loop is generated."""
    from nashnet import stepsizes
    example3 = resources.files("nashnet.scenarios").joinpath("example3.yaml")

    def generated(*args):
        raise AssertionError("learner code generated")
    monkeypatch.setattr(stepsizes, "LEARNER_BANK_CAP", 17)
    monkeypatch.setattr(stepsizes, "canonical_mix_code", generated)
    monkeypatch.setattr(stepsizes, "periodic_code", generated)
    start = time.perf_counter()
    assert main(["run", str(example3), "--iters", "50"]) == 5
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "cap of 17" in err and "18 in all" in err


def test_failed_write_removes_the_partial_file(shsad, tmp_path, monkeypatch, capsys):
    """A write that fails part way, here an OSError after the first chunk,
    ends in exit 3 and leaves no file at the path, not even the file that
    was there before."""
    real, calls = scenario_io._format_chunk, []

    def failing(*chunk):
        calls.append(chunk)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*chunk)

    monkeypatch.setattr(scenario_io, "CSV_CHUNK", 150)
    monkeypatch.setattr(scenario_io, "_format_chunk", failing)
    out = tmp_path / "t.csv"
    out.write_text("an earlier run\n")
    assert main(["run", shsad, "--out", str(out)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def test_failed_write_removes_only_a_regular_file(tmp_path, monkeypatch):
    """A failed write to a device such as /dev/null leaves the path alone."""
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)

    def failing(fh):
        fh.write("k\n")
        raise OSError(errno.EIO, "Input/output error")

    for path in (os.devnull, str(tmp_path / "r.csv")):
        with pytest.raises(ValidationError, match="Input/output error"):
            cli._write(path, failing)
    assert removed == [str(tmp_path / "r.csv")]


def test_output_files_keep_the_umask_mode(shsad, tmp_path):
    """Outputs are opened in place, so under umask 022 they are 0644."""
    paths = [tmp_path / "t.csv", tmp_path / "m.csv"]
    old = os.umask(0o022)
    try:
        assert main(["run", shsad, "--iters", "5", "--out", str(paths[0]),
                     "--metrics", str(paths[1])]) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [0o644, 0o644]


_HELPERS_SCRIPT = """
import sys
from nashnet import cli, scenario_io
scenario_io.CSV_CHUNK = 150
sys.exit(cli.main(["run", sys.argv[1], "--out", sys.argv[2], "--metrics", sys.argv[3]]))
"""


def _env():
    src = str(Path(nashnet.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_streaming_through_helpers_leaks_no_file_or_pipe(shsad, tmp_path):
    """Streamed writes through the vectorised formatting helpers, in chunks
    of 150 values, close every file they open: under ``-X dev -W
    error::ResourceWarning`` the run exits 0 and warns of nothing, and its
    files match a run in default chunks."""
    chunked = [str(tmp_path / f) for f in ("t.csv", "m.csv")]
    default = [str(tmp_path / f) for f in ("t1.csv", "m1.csv")]
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", _HELPERS_SCRIPT, shsad, *chunked],
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "ResourceWarning" not in proc.stderr
    assert main(["run", shsad, "--out", default[0], "--metrics", default[1]]) == 0
    assert [Path(p).read_bytes() for p in chunked] == [Path(p).read_bytes() for p in default]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, os.wait4")
def test_peak_memory_follows_only_the_run_arrays(tmp_path):
    """Peak RSS of ``run example1.yaml --out --metrics`` grows from 50k to
    200k iterations by at most twice the extra iterations' share of the
    Trace and MetricsSeries arrays (``compute_metrics`` builds each series
    from temporaries of the states' size) plus 4 MB: no CSV text is held
    whole, and nothing else is kept per iteration. And by at most 2 MB:
    the CLI streams the run in segments of a fixed size, so it never holds
    those arrays whole either (about 17 MB of growth before it did)."""
    example1 = str(Path(nashnet.__file__).parent / "scenarios" / "example1.yaml")
    scenario = load_scenario(example1)

    def array_bytes(iterations):
        trace = run(scenario, iterations=iterations)
        metrics = compute_metrics(trace, scenario, cli._reference_saddle(scenario))
        return sum(getattr(obj, f.name).nbytes for obj in (trace, metrics)
                   for f in dataclasses.fields(obj) if f.name != "start")

    per_iteration = (array_bytes(2000) - array_bytes(1000)) / 1000

    def peak_mb(iterations):
        proc = subprocess.Popen(
            [sys.executable, "-m", "nashnet.cli", "run", example1, "--iters", str(iterations),
             "--out", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.csv")],
            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_maxrss / 1024  # KiB on Linux

    growth = peak_mb(200_000) - peak_mb(50_000)
    share = per_iteration * 150_000 / 2**20
    assert growth <= 2 * share + 4, (growth, share)
    assert growth <= 2.0, growth


def test_reproduce_trust_bundled(tmp_path, capsys, monkeypatch):
    # shrink the bundled horizon via --iters? reproduce has no iters flag, so
    # run the cheap shared_saddle bundle instead of an example
    out_dir = str(tmp_path / "rep")
    assert main(["reproduce", "shared_saddle", "--out", out_dir, "--trust-bundled"]) == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["shared_saddle_metrics.csv", "shared_saddle_plotdata.csv",
                     "shared_saddle_trace.csv"]
    assert main(["reproduce", "nonsense", "--out", out_dir]) == 3


def test_reproduce_rederives_reference(tmp_path, capsys):
    out_dir = str(tmp_path / "rep2")
    assert main(["reproduce", "perron_weighted", "--out", out_dir]) == 0
    assert "nash_error=" in capsys.readouterr().out


def test_sweep_serial_and_parallel_agree(shsad, tmp_path):
    d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["sweep", shsad, "--param", "gamma.c", "--values", "0.5,1.0",
                 "--out", d1, "--jobs", "1"]) == 0
    assert main(["sweep", shsad, "--param", "gamma.c", "--values", "0.5,1.0",
                 "--out", d2, "--jobs", "2"]) == 0
    s1 = Path(d1, "sweep_summary.csv").read_text()
    s2 = Path(d2, "sweep_summary.csv").read_text()
    assert s1.replace(d1, "") == s2.replace(d2, "")
    assert len(s1.strip().splitlines()) == 3


def test_sweep_outputs_pinned(shsad, tmp_path):
    """The summary names each metrics file by its path; a '%' in the output
    directory is copied, never interpreted."""
    d = str(tmp_path / "sw%d 100%")
    assert main(["sweep", shsad, "--param", "gamma.c", "--values", "0.5,1.0,2e-3",
                 "--out", d]) == 0
    summary = Path(d, "sweep_summary.csv").read_text()
    assert summary == (
        "gamma.c,final_nash_error,metrics_file\n"
        "0.5,2.370336467542939e-08,<DIR>/shared_saddle_gamma_c_0_metrics.csv\n"
        "1,5.7946508526276113e-14,<DIR>/shared_saddle_gamma_c_1_metrics.csv\n"
        "0.002,11.020093754777523,<DIR>/shared_saddle_gamma_c_2_metrics.csv\n"
    ).replace("<DIR>", d)
    digests = {f: hashlib.sha256(Path(d, f).read_bytes()).hexdigest()
               for f in sorted(os.listdir(d)) if f != "sweep_summary.csv"}
    assert digests == {
        "shared_saddle_gamma_c_0_metrics.csv":
            "263b1f5859247d061313473f0e5ca525f752e76effd0d64a195cbf92d0f8082c",
        "shared_saddle_gamma_c_1_metrics.csv":
            "37754139a507043b4ccf5c8050d254e8f49929b09f6563f7e3193d81b16a0c96",
        "shared_saddle_gamma_c_2_metrics.csv":
            "01ec97e6ccc709502c543ca46af62efe0ccb3fb8d676d7c29fa0e502e0e297c3",
    }


def test_sweep_derives_one_reference(shsad, tmp_path, monkeypatch):
    """Without a stored reference a sweep runs the grid search once, before
    its jobs: no override moves an objective or a box, so each metrics file
    is the one its overridden scenario scored against its own search gives."""
    doc = yaml.safe_load(Path(shsad).read_text())
    del doc["run"]["oracle"]
    path = tmp_path / "no_ref.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    grid, calls = cli.grid_minimax, []
    monkeypatch.setattr(cli, "grid_minimax", lambda *a, **kw: calls.append(a) or grid(*a, **kw))
    d = tmp_path / "sw"
    assert main(["sweep", str(path), "--values", "0.5,1,2", "--out", str(d), "--jobs", "1"]) == 0
    assert len(calls) == 1
    s = load_scenario(path)
    for i, c in enumerate((0.5, 1.0, 2.0)):
        s_i = dataclasses.replace(s, rule=dataclasses.replace(
            s.rule, schedule=dataclasses.replace(s.rule.schedule, c=c)))
        want = metrics_to_csv(compute_metrics(run(s_i), s_i, cli._reference_saddle(s_i)))
        assert Path(d, f"shared_saddle_gamma_c_{i}_metrics.csv").read_text() == want


def test_sweep_summary_quotes_a_path_with_a_comma(shsad, tmp_path):
    """An output directory holding a comma and a quote leaves every summary
    row three fields under `csv.reader`, the path read back as given."""
    d = str(tmp_path / 'a,b "c"')
    assert main(["sweep", shsad, "--param", "gamma.c", "--values", "0.5,1.0", "--out", d]) == 0
    with open(Path(d, "sweep_summary.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma.c", "final_nash_error", "metrics_file"]
    assert [len(r) for r in rows] == [3, 3, 3]
    assert [r[2] for r in rows[1:]] == [
        os.path.join(d, f"shared_saddle_gamma_c_{i}_metrics.csv") for i in range(2)]


def test_sweep_iterations_param(shsad, tmp_path):
    d = str(tmp_path / "s3")
    assert main(["sweep", shsad, "--param", "iterations",
                 "--values", "10,20", "--out", d]) == 0
    assert os.path.exists(os.path.join(d, "sweep_summary.csv"))


_SWEEP_WORKER = cli._sweep_worker


def _worker_killed_on_c_2(job):
    """The sweep's worker, except that the job at gamma.c = 2 begins its
    metrics file and then dies as a killed process does."""
    scenario, _, out = job
    if scenario.rule.schedule.c == 2.0:
        with open(out, "w") as fh:
            fh.write("k,h1,h2,nash_error,saddle_residual\n")
            fh.flush()
            os._exit(9)
    return _SWEEP_WORKER(job)


def test_a_sweep_whose_worker_dies_exits_5(shsad, tmp_path, monkeypatch, capsys):
    """A worker that dies breaks the pool: the sweep exits 5 with an error
    naming it and no traceback, removes every metrics file it began and
    writes no summary."""
    monkeypatch.setattr(cli, "_sweep_worker", _worker_killed_on_c_2)
    d = tmp_path / "sw"
    assert main(["sweep", shsad, "--values", "1,2", "--out", str(d), "--jobs", "2"]) == 5
    assert capsys.readouterr().err == (
        "error: sweep of gamma.c over shared_saddle: a worker process died before its jobs "
        "ended; its metrics files are removed and no summary is written\n")
    assert os.listdir(d) == []


@pytest.mark.parametrize("values, jobs, pools", [
    ("0.5,1,2", "2", [2]),
    ("0.5,1", "100000000000000000000", [2]),
    ("1", "3000", []),
], ids=["fewer workers than jobs", "huge worker count", "one job"])
def test_sweep_starts_at_most_one_worker_per_job(values, jobs, pools, shsad, tmp_path,
                                                  monkeypatch):
    """A pool starts all its workers at once, so a sweep asks for no more
    than it has jobs, and runs a single job in this process. The stand-in
    pool records its worker count and starts no process."""
    made = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    assert main(["sweep", shsad, "--values", values, "--out", str(tmp_path / "sw"),
                 "--jobs", jobs]) == 0
    assert made == pools


@pytest.mark.parametrize("command", [
    ["run", "--iters", str(10 ** 28)],
    ["run", "--iters", str(2 ** 60)],
    ["sweep", "--param", "iterations", "--values", "1e30"],
], ids=["10**28 iterations", "2**60 iterations", "sweep to 1e30 iterations"])
def test_iteration_counts_that_cannot_be_tabulated_exit_5(command, shsad, tmp_path, capsys):
    """More float64 stepsizes than an array can hold is a resource error,
    raised before any table is allocated."""
    sweep_dir = tmp_path / "sw"
    argv = command[:1] + [shsad] + command[1:] + (["--out", str(sweep_dir)]
                                                  if command[0] == "sweep" else [])
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert "iterations cannot be tabulated" in err and "Traceback" not in err
    assert not sweep_dir.exists()


def test_an_allocation_that_fails_exits_5(shsad, monkeypatch, capsys):
    """A table too large for the machine, such as the 7.28 TiB cross layer
    of a scenario with 1,000,000 agents per subnetwork, ends in exit 5 with
    numpy's message; the stand-in allocation, in place of the stepsize
    tables, raises at once."""
    def refuse(*_):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr(nashnet.engine, "stepsize_tables", refuse)
    assert main(["run", shsad, "--iters", "1000000000000"]) == 5
    assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 7.28 TiB for "
                                       "an array with shape (1000000000000,) and data type "
                                       "float64\n")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["agents"]["subnet1"].append(dict(d["agents"]["subnet1"][0])),
     "subnet-1 matrix shape (3, 3) != (4, 4)"),
    (lambda d: d["agents"]["subnet2"].append(dict(d["agents"]["subnet2"][0])),
     "subnet-2 matrix shape (2, 2) != (3, 3)"),
    (lambda d: d["graph"].update(phases=[]), "a graph sequence needs at least one phase"),
], ids=["subnet 1 agent count", "subnet 2 agent count", "no phase"])
def test_graphs_that_disagree_with_the_agent_lists_exit_3(edit, message, tmp_path, capsys):
    """The agent lists size the cross layers, and with them the graph: a
    subnetwork whose matrices are of another size fails run and graph-check
    with a message naming it, as does an empty phase list."""
    doc = yaml.safe_load((resources.files("nashnet") / "scenarios" / "example2.yaml")
                         .read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    for command in ("run", "graph-check"):
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
