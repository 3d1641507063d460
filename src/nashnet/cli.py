"""Command-line interface.

Subcommands: ``run`` (execute a scenario, write trace + metrics), ``oracle``
(grid saddle search, optionally weighted), ``graph-check`` (assumption
verdicts), ``reproduce`` (bundled experiments, self-verifying by default)
and ``sweep`` (one scenario under a list of parameter overrides, optionally
in parallel worker processes).

Failure classes map to fixed exit codes: 2 parse, 3 validation, 4 numeric,
5 resource (an allocation that fails and a sweep worker that dies
included), 141 stdout closed early (as a shell shows SIGPIPE), 1 other.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from .digraph import check_jointly_bipartite, check_ujsc, is_weight_balanced, validate_weight_rule
from .engine import Scenario, run
from .errors import NashnetError, ResourceError, ValidationError
from .metrics import compute_metrics, sum_objective
from .saddle import (SaddleReport, WeightedObjective, grid_minimax,
                     unit_weighted)
from .scenario_io import (BUNDLED, bundled_scenario, load_graph, load_scenario,
                          metrics_to_csv, plotdata_to_csv, report_to_csv,
                          sweep_summary_to_csv, trace_to_csv)
from .stepsizes import oracle_heterogeneous_build


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except NashnetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except MemoryError as exc:  # a table too large for this machine
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return ResourceError.exit_code
        finally:
            sys.stdout.flush()  # a reader that left early shows here, not at exit
    except BrokenPipeError:  # Python's signal-docs recipe: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # the status a shell shows for SIGPIPE


def _build_parser():
    p = argparse.ArgumentParser(
        prog="nashnet",
        description="Distributed Nash equilibrium computation over switching networks.")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute a scenario and write trace/metrics files")
    pr.add_argument("scenario", help="scenario file path")
    pr.add_argument("--iters", type=int, default=None, help="override iteration count")
    pr.add_argument("--out", default=None, help="trace CSV output path")
    pr.add_argument("--metrics", default=None, help="metrics CSV output path")
    pr.set_defaults(func=cmd_run)

    po = sub.add_parser("oracle", help="grid saddle search for a scenario's sum objective")
    po.add_argument("scenario")
    po.add_argument("--weights", default=None,
                    help="comma-separated positive weights for the subnet-1 objectives")
    po.add_argument("--grid", type=int, default=2001, help="grid resolution per dimension")
    po.add_argument("--out", default=None, help="report CSV output path")
    po.set_defaults(func=cmd_oracle)

    pg = sub.add_parser("graph-check", help="verdicts for the connectivity and weight assumptions")
    pg.add_argument("scenario")
    pg.set_defaults(func=cmd_graph_check)

    pp = sub.add_parser("reproduce", help="run a bundled experiment end to end")
    pp.add_argument("example", help="bundled id: 1, 2, 3 or a bundled scenario name")
    pp.add_argument("--out", default=".", help="output directory")
    pp.add_argument("--trust-bundled", action="store_true",
                    help="use the stored saddle reference instead of re-deriving it")
    pp.set_defaults(func=cmd_reproduce)

    ps = sub.add_parser("sweep", help="run one scenario under several stepsize parameters")
    ps.add_argument("scenario")
    ps.add_argument("--param", default="gamma.c",
                    choices=("gamma.c", "gamma.b", "gamma.eps", "iterations"),
                    help="which knob to sweep")
    ps.add_argument("--values", required=True, help="comma-separated values")
    ps.add_argument("--out", default=".", help="output directory")
    ps.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    ps.set_defaults(func=cmd_sweep)
    return p


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _reference_saddle(scenario: Scenario, rederive: bool = False) -> SaddleReport:
    """The saddle reference every command scores its run against.

    The scenario's stored reference, unless it has none or `rederive` asks
    for a fresh grid search; a re-derived saddle must then agree with the
    stored one to 1e-4.
    """
    stored = scenario.oracle_x is not None
    if stored and not rederive:
        return SaddleReport(x_star=scenario.oracle_x, y_star=scenario.oracle_y,
                            value=float("nan"), minimax_gap=float("nan"),
                            grid_resolution=0)
    saddle = grid_minimax(unit_weighted(scenario.objectives1), scenario.box_x, scenario.box_y)
    if stored:
        drift = max(abs(a - b) for a, b in zip(saddle.x_star + saddle.y_star,
                                               scenario.oracle_x + scenario.oracle_y))
        if drift > 1e-4:
            raise ValidationError(
                f"re-derived saddle differs from the stored reference by {drift:.3e}")
    return saddle


def _write(path, write):
    """Open `path` for text and let `write` stream the file into it (see
    :func:`_writing`)."""
    with _writing({path: write}) as put:
        put()


@contextlib.contextmanager
def _writing(writers):
    """Open each path of `writers`, a dict path -> write(fh, *args), for
    text, and yield ``put(*args)``, which calls each writer with its
    stream and the args; a command streams its files in one or many puts.

    If the body fails, or a write or a close, every file opened is removed,
    if its path names a regular file, before the error goes on; an OSError
    is a ValidationError naming the path it met.
    """
    opened, at = [], [None]  # the files opened; at[0], the path in hand
    try:
        with contextlib.ExitStack() as stack:
            for path, write in writers.items():
                at[0] = path
                opened.append((path, write, stack.enter_context(open(path, "w", encoding="utf-8"))))
                stack.callback(at.__setitem__, 0, path)  # names the file as it closes

            def put(*args):
                for path, write, fh in opened:
                    at[0] = path
                    write(fh, *args)
            yield put
    except BaseException as exc:
        for path, _, _ in opened:
            if os.path.isfile(path):
                os.remove(path)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write {str(at[0])!r}: {exc.strerror or exc}") from None
        raise


def _make_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory {str(path)!r}: {exc.strerror or exc}") from None


def _numbers(text: str, what: str) -> list:
    """Comma-separated finite floats from a command-line argument."""
    try:
        values = [float(v) for v in text.split(",")]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ValidationError(f"{what} must be comma-separated finite numbers, got {text!r}")


def _outcome(trace, metrics) -> str:
    return (f"{trace.iterations} iterations, nash_error={metrics.nash_error[-1]:.6g}, "
            f"h1={metrics.h1[-1]:.6g}, h2={metrics.h2[-1]:.6g}")


def _loaded(scenario):
    """`scenario`, once its load warnings are printed to stderr."""
    for w in scenario.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return scenario


# the writers :func:`_stream` hands each segment and its metrics to, by output
_WRITERS = {
    "trace": lambda fh, trace, _: trace_to_csv(trace, fh),
    "metrics": lambda fh, _, metrics: metrics_to_csv(metrics, fh),
    "plotdata": lambda fh, trace, metrics: plotdata_to_csv(trace, metrics, fh),
}


def _stream(scenario: Scenario, saddle: SaddleReport | None, writers, iterations=None):
    """Run `scenario` and score it against `saddle` segment by segment
    (``engine.run``'s consumer): each segment and its metrics go to each
    of `writers`, a dict path -> writer of :data:`_WRITERS`, in k order and
    are then dropped, so no command holds a whole run. The files are
    opened, and removed on failure, as :func:`_writing` says. A `saddle`
    of None is the scenario's own reference (:func:`_reference_saddle`),
    derived once the first segment has run, so a run that fails there
    reports that failure, not the oracle's; the residual's sum objective is
    compiled then too, once per run. Returns the final segment and its
    metrics."""
    metrics = u = None
    with _writing(writers) as put:
        def consume(segment):
            nonlocal saddle, metrics, u
            if u is None:  # the first segment
                if saddle is None:
                    saddle = _reference_saddle(scenario)
                u = sum_objective(scenario)
            metrics = compute_metrics(segment, scenario, saddle, u)
            put(segment, metrics)
        trace = run(scenario, iterations, consume)
    return trace, metrics


def cmd_run(args) -> int:
    if args.out and args.metrics and os.path.realpath(args.out) == os.path.realpath(args.metrics):
        raise ValidationError(f"--out and --metrics name the same file {args.out!r}; "
                              "both are written as the run goes")
    scenario = _loaded(load_scenario(args.scenario))
    writers = {path: _WRITERS[ext] for path, ext in ((args.out, "trace"), (args.metrics, "metrics"))
               if path}
    trace, metrics = _stream(scenario, None, writers, args.iters)
    print(f"{scenario.name}: {_outcome(trace, metrics)}")
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    scenario = _loaded(load_scenario(args.scenario))
    if args.weights is None:
        w = unit_weighted(scenario.objectives1)
    else:
        vals = _numbers(args.weights, "--weights")
        if len(vals) != len(scenario.objectives1) or min(vals) <= 0:
            raise ValidationError(f"--weights needs {len(scenario.objectives1)} positive "
                                  f"weights, one per subnet-1 objective; got {args.weights!r}")
        w = WeightedObjective(tuple((v, e) for v, (e, _) in zip(vals, scenario.objectives1)))
    report = grid_minimax(w, scenario.box_x, scenario.box_y, resolution=args.grid)
    if args.out:
        _write(args.out, lambda fh: report_to_csv(report, fh))
    xs = ", ".join(f"{v:.6g}" for v in report.x_star)
    ys = ", ".join(f"{v:.6g}" for v in report.y_star)
    print(f"saddle: x*=({xs}), y*=({ys}), value={report.value:.6g}, "
          f"gap={report.minimax_gap:.3g}, grid={report.grid_resolution}")
    return 0


# ---------------------------------------------------------------------------
# graph-check
# ---------------------------------------------------------------------------

def cmd_graph_check(args) -> int:
    g = load_graph(args.scenario)
    failed = []

    def verdict(claim, ok, name):
        print(f"{claim}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)

    problems = validate_weight_rule(g)
    verdict(f"weight rule (eta={g.eta})", not problems, "weight rule")
    for v in problems:
        print(f"  {v}")
    checks = [(f"subnet {s} jointly strongly connected", f"subnet {s} connectivity",
               lambda T, s=s: check_ujsc(g, s, T)) for s in (1, 2)]
    checks.append(("cross layer covers every node", "cross coverage",
                   lambda T: check_jointly_bipartite(g, T)))
    for claim, name, check in checks:
        # the least window that passes; one period's union holds every phase
        T = next((T for T in range(1, g.period + 1) if check(T)), None)
        verdict(f"{claim} within T={T or f'1..{g.period}'}", T is not None, name)

    for subnet, mats in ((1, g.a1), (2, g.a2)):
        flags = [is_weight_balanced(A) for A in mats]
        print(f"subnet {subnet} weight-balanced per phase: "
              + ", ".join(str(f).lower() for f in flags))
    if not failed:
        for subnet, vecs in zip((1, 2), oracle_heterogeneous_build(g)):
            for s, phi in enumerate(vecs):
                print(f"subnet {subnet} limit vector (start phase {s}): ("
                      + ", ".join(f"{v:.6g}" for v in phi) + ")")
    if failed:
        raise ValidationError("assumptions failed: " + ", ".join(failed))
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def cmd_reproduce(args) -> int:
    name = f"example{args.example}" if args.example in ("1", "2", "3") else args.example
    if name not in BUNDLED:
        raise ValidationError(f"unknown bundled experiment {args.example!r}")
    scenario = _loaded(bundled_scenario(name))
    _make_dir(args.out)
    saddle = _reference_saddle(scenario, rederive=not args.trust_bundled)
    writers = {os.path.join(args.out, f"{name}_{ext}.csv"): write for ext, write in _WRITERS.items()}
    trace, metrics = _stream(scenario, saddle, writers)
    print(f"{name}: {_outcome(trace, metrics)}; wrote {', '.join(writers)}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _apply_override(scenario: Scenario, param: str, value: float) -> Scenario:
    if param == "iterations":
        if value != int(value):
            raise ValidationError(f"--values for iterations must be whole numbers, got {value!r}")
        return replace(scenario, iterations=int(value))
    sched = scenario.rule.schedule
    sched = replace(sched, **{param.split(".", 1)[1]: value})  # validates as the loader does
    return replace(scenario, rule=replace(scenario.rule, schedule=sched))


def _sweep_worker(job):
    scenario, saddle, out = job
    _, metrics = _stream(scenario, saddle, {out: _WRITERS["metrics"]})
    return float(metrics.nash_error[-1])


def cmd_sweep(args) -> int:
    values = _numbers(args.values, "--values")
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    scenario = _loaded(load_scenario(args.scenario))
    if os.path.basename(scenario.name) != scenario.name:
        raise ValidationError(f"scenario name {scenario.name!r} holds a path separator; "
                              "sweep names its output files after it")
    saddle = _reference_saddle(scenario)  # no override moves an objective or a box
    tag = args.param.replace(".", "_")
    jobs = [(_apply_override(scenario, args.param, v), saddle,
             os.path.join(args.out, f"{scenario.name}_{tag}_{i}_metrics.csv"))
            for i, v in enumerate(values)]
    _make_dir(args.out)
    workers = min(args.jobs, len(jobs))  # a pool starts all its workers at once
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                errors = list(pool.map(_sweep_worker, jobs))
        except BrokenProcessPool:  # a worker killed, by the OOM killer for one
            for _, _, out in jobs:  # a dead worker's own cleanup never ran
                if os.path.isfile(out):
                    os.remove(out)
            raise ResourceError(f"sweep of {args.param} over {scenario.name}: a worker process "
                                "died before its jobs ended; its metrics files are removed "
                                "and no summary is written") from None
    else:
        errors = [_sweep_worker(j) for j in jobs]
    results = [(v, err, out) for v, err, (_, _, out) in zip(values, errors, jobs)]  # job order
    summary = os.path.join(args.out, "sweep_summary.csv")
    _write(summary, lambda fh: sweep_summary_to_csv(args.param, results, fh))
    for value, err, _ in results:
        print(f"{args.param}={value:g}: final nash_error={err:.6g}")
    print(f"wrote {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
