"""Command-line interface: subcommands, file outputs, and the exit-code
contract (2 parse, 3 validation, 4 numeric, 5 resource)."""

import dataclasses
import errno
import hashlib
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import nashnet
from nashnet import cli, scenario_io
from nashnet.cli import main
from nashnet.engine import run
from nashnet.errors import ValidationError
from nashnet.metrics import compute_metrics
from nashnet.scenario_io import (bundled_scenario, load_scenario, save_scenario,
                                 scenario_to_doc)


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
    ({"iterations": 3, "table": 2}, [], "table of length 2"),
    ({"iterations": 2, "table": 2}, ["--iters", "3"], "table of length 2"),
])
def test_run_iteration_count_errors_exit_3(shsad, tmp_path, capsys, run_doc, argv, message):
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["run"]["iterations"] = run_doc["iterations"]
    if "table" in run_doc:
        doc["stepsize"]["gamma"] = {"table": [0.1] * run_doc["table"]}
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    trace = tmp_path / "never.csv"
    assert main(["run", str(bad), "--out", str(trace)] + argv) == 3
    assert not trace.exists()
    assert message in capsys.readouterr().err


def test_run_numeric_error_exit_4(tmp_path, capsys):
    import dataclasses
    import numpy as np
    from canonical_reference import make_identical_scenario
    from nashnet.exprs import BoxSet, Neg, Pow, Sum, x_var, y_var
    from nashnet.stepsizes import GammaSchedule, Homogeneous
    e = Sum((Pow(x_var(0), 4), Neg(Pow(y_var(0), 2))))
    box = BoxSet((-float("inf"),), (float("inf"),))
    s = make_identical_scenario(
        objectives=[(e, {})], a_seq=(np.eye(1),), eta=1.0, t1=1,
        box_x=box, box_y=box,
        rule=Homogeneous(GammaSchedule(table=(1e200,) * 20)),
        x0=[[1e100]], y0=[[0.0]], iterations=20)
    path = tmp_path / "blowup.yaml"
    save_scenario(s, path)
    assert main(["run", str(path)]) == 4


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


def test_oracle_budget_exit_5(shsad, monkeypatch, capsys):
    monkeypatch.setenv("NASHNET_BUDGET", "1000")
    assert main(["oracle", shsad, "--grid", "401"]) == 5


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
    assert "FAIL" in capsys.readouterr().out


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


@pytest.mark.parametrize("case, code, message", [
    ("missing scenario file", 2, "nonexistent.yaml"),
    ("sweep values not numbers", 3, "--values"),
    ("grid resolution below 3", 3, "grid resolution"),
    ("infinite budget", 5, "NASHNET_BUDGET"),
    ("dimension not a number", 3, "malformed"),
    ("infinite objective constant", 3, "non-finite number 'inf'"),
    ("NaN saddle reference", 3, "x_star"),
    ("zero sweep jobs", 3, "--jobs"),
    ("infinite sweep value", 3, "--values"),
    ("non-positive weight", 3, "--weights"),
    ("fractional iterations", 3, "whole numbers"),
    ("fractional scenario iterations", 3, "run.iterations must be a whole number, got 2.7"),
    ("trace path in a missing directory", 3, "missing_dir"),
    ("metrics path in a missing directory", 3, "missing_dir"),
    ("oracle report path in a missing directory", 3, "missing_dir"),
    ("reproduce output directory is a file", 3, "a_file"),
    ("sweep output directory is a file", 3, "a_file"),
])
def test_user_errors_map_to_exit_codes(case, code, message, shsad, tmp_path,
                                       monkeypatch, capsys):
    """User input errors end in their documented exit code, not a traceback."""
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["dimensions"]["m1"] = "x"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["agents"]["subnet1"][0]["expr"] = "(sub (pow (sub x0 inf) 2) (pow (add y0 0.5) 2))"
    inf_const = tmp_path / "inf_const.yaml"
    inf_const.write_text(yaml.safe_dump(doc, sort_keys=False))
    with open(shsad) as fh:
        doc = yaml.safe_load(fh)
    doc["run"]["oracle"]["x_star"] = [float("nan")]
    nan_ref = tmp_path / "nan_ref.yaml"
    nan_ref.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(Path(shsad).read_text())
    doc["run"]["iterations"] = 2.7
    frac_iters = tmp_path / "frac_iters.yaml"
    frac_iters.write_text(yaml.safe_dump(doc, sort_keys=False))
    sweep_dir = tmp_path / "sw"
    missing = tmp_path / "missing_dir"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv = {
        "missing scenario file": ["run", str(tmp_path / "nonexistent.yaml")],
        "sweep values not numbers": ["sweep", shsad, "--values", "a,b", "--out", str(sweep_dir)],
        "grid resolution below 3": ["oracle", shsad, "--grid", "2"],
        "infinite budget": ["oracle", shsad, "--grid", "41"],
        "dimension not a number": ["run", str(bad)],
        "infinite objective constant": ["run", str(inf_const)],
        "NaN saddle reference": ["run", str(nan_ref), "--iters", "50"],
        "zero sweep jobs": ["sweep", shsad, "--values", "1", "--out", str(sweep_dir),
                            "--jobs", "0"],
        "infinite sweep value": ["sweep", shsad, "--param", "iterations", "--values", "1e400",
                                 "--out", str(sweep_dir)],
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
    }[case]
    if case == "infinite budget":
        monkeypatch.setenv("NASHNET_BUDGET", "inf")
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not sweep_dir.exists() and not missing.exists()


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
    whole, and nothing else is kept per iteration."""
    example1 = str(Path(nashnet.__file__).parent / "scenarios" / "example1.yaml")
    scenario = load_scenario(example1, check_assumptions=False)

    def array_bytes(iterations):
        trace = run(scenario, iterations=iterations)
        metrics = compute_metrics(trace, scenario, cli._reference_saddle(scenario))
        return sum(getattr(obj, f.name).nbytes for obj in (trace, metrics)
                   for f in dataclasses.fields(obj) if getattr(obj, f.name) is not None)

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


def test_sweep_iterations_param(shsad, tmp_path):
    d = str(tmp_path / "s3")
    assert main(["sweep", shsad, "--param", "iterations",
                 "--values", "10,20", "--out", d]) == 0
    assert os.path.exists(os.path.join(d, "sweep_summary.csv"))
