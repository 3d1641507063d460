"""nashnet benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--results FILE]

Workloads are defined in workloads.py and listed in BENCHMARK.json. Every
command is ``python -m nashnet.cli ...`` with the checkout's ``src`` on
PYTHONPATH and one BLAS/OpenMP thread, run closed-loop, one at a time.

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's commands repeated while they fit in ``--seconds`` (at least
once), with set-up samples (a fresh interpreter importing the CLI and
loading each scenario) taken half before and half after them.
``--trace 1`` runs the commands once untraced and then once through the
traced replay (replay.py), and derives the per-layer metrics from its spans.
Outputs are checked after every repetition, and repetitions in one run
must write files with the same SHA-256 digests (when the commands take
longer than ``--seconds`` there is one repetition and nothing to compare).
The replay's files must have the same digests as the CLI's.

Prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 1 if any
command or check failed, 2 if the checkout holds no nashnet sources.
``--smoke`` runs every workload at reduced size, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # every child is killed once the run is this old
COVERAGE_FLOOR = 0.9  # layer self times must cover this share of the replay's root span
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class Failure(Exception):
    """A step whose result the rest of the run cannot do without."""


class Context:
    def __init__(self, seed, smoke, work):
        self.root, self.seed, self.smoke, self.work = ROOT, seed, smoke, work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failures = []
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        (work / "tmp").mkdir()
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        TMPDIR=str(work / "tmp"))

    def spawn(self, argv, cwd, label):
        """Run one child to completion: (wall seconds, peak RSS in MB, ok)."""
        self.attempted += 1
        remaining = self.deadline - time.perf_counter()
        with open(self.logs / f"{label}.out", "wb") as out, \
                open(self.logs / f"{label}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(remaining, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (self.logs / f"{label}.err").read_text(errors="replace")[-2000:]
            self.failures.append(f"{label}: exit {code}: {tail.strip()}")
        return wall, usage.ru_maxrss / 1024.0, code == 0

    def generate(self, args):
        if not self.spawn([str(HERE / "gen_scenario.py")] + args, self.work, "generate")[2]:
            raise Failure("input generation failed")


def digests(out_dir: Path) -> dict:
    result = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            result[str(path.relative_to(out_dir))] = h.hexdigest()
    return result


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    (path / "out").mkdir(parents=True)
    return path


def run_cli(ctx, plan, label):
    """The workload's commands once, untraced; outputs checked and digested."""
    cwd = fresh_dir(ctx.work / "cli")
    wall, rss = 0.0, 0.0
    for i, argv in enumerate(plan.commands):
        w, r, _ = ctx.spawn(["-m", "nashnet.cli"] + argv, cwd, f"{label}-cmd{i}")
        wall, rss = wall + w, max(rss, r)
    ctx.failures += [f"{label}: {p}" for p in plan.check(cwd)]
    sample = {"wall_s": wall, "peak_rss_mb": rss, "digests": digests(cwd / "out")}
    shutil.rmtree(cwd / "out")
    return sample


def summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(ctx, plan, samples, setup):
    for _ in range(samples):
        wall, _, ok = ctx.spawn([str(HERE / "setup_probe.py")] + plan.setup_specs,
                                ctx.work, f"setup{len(setup)}")
        if ok:
            setup.append(wall)


def measure_untraced(ctx, plan, seconds):
    # set-up samples are split before and after the commands, so the median
    # spans the whole run rather than one moment of it
    setup = []
    measure_setup(ctx, plan, plan.setup_samples // 2, setup)
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(run_cli(ctx, plan, f"sample{len(samples)}"))
        if samples[-1]["digests"] != samples[0]["digests"]:
            ctx.failures.append(f"sample{len(samples) - 1}: output digests differ from sample0")
        elapsed = time.perf_counter() - start
        if elapsed + samples[-1]["wall_s"] > seconds:
            break
    measure_setup(ctx, plan, plan.setup_samples - plan.setup_samples // 2, setup)
    if not setup:
        raise Failure("no set-up sample succeeded")
    stats = {"wall_s": summary([s["wall_s"] for s in samples]),
             "setup_s": summary(setup),
             "peak_rss_mb": summary([s["peak_rss_mb"] for s in samples])}
    metrics = {name: s["median"] for name, s in stats.items()}
    raw = {"setup_s": setup, "samples": samples}
    return metrics, stats, raw


def layer_metrics(spans, replay_wall, cli_wall):
    """Per-layer metrics from the replay's spans; (reported, detail)."""
    own = tracing.self_times(spans)
    by_name = tracing.self_by_name(spans)
    layer = [s for s in spans if s["name"] != tracing.ROOT]

    def named(name):
        return [s for s in layer if s["name"] == name]

    engine = named("engine.run")
    engine_s = by_name.get("engine.run", 0.0)
    iterations = sum(s["iterations"] for s in engine)
    agent_steps = sum(s["agent_steps"] for s in engine)
    csv = [s for s in layer if s["name"].startswith("scenario_io.") and "bytes" in s]
    csv_s = sum(own[s["id"]] for s in csv)
    csv_mb = sum(s["bytes"] for s in csv) / 1e6
    saddle_s = sum(t for n, t in by_name.items() if n.startswith("saddle."))
    term_evals = sum(s.get("term_evals", 0) for s in layer)
    covered = sum(own[s["id"]] for s in layer)
    root = next(s for s in spans if s["name"] == tracing.ROOT)
    root_s = root["end"] - root["start"]
    reported = {
        "cli.import_s": by_name.get("cli.import", 0.0),
        # the CLI's own work outside the wrapped library calls: chiefly file writes
        "cli.write_s": by_name.get("cli.main", 0.0) + by_name.get("cli.sweep_job", 0.0),
        "scenario_io.parse_s": by_name.get("scenario_io.parse", 0.0),
        "scenario_io.input_mb": sum(s.get("input_bytes", 0) for s in layer) / 1e6,
        "digraph.checks_s": by_name.get("digraph.checks", 0.0),
        "exprs.convexity_s": by_name.get("exprs.convexity", 0.0),
        "exprs.compile_s": by_name.get("exprs.compile", 0.0),
        "engine.run_s": engine_s,
        "engine.us_per_iter": engine_s / iterations * 1e6,
        "engine.ns_per_agent_step": engine_s / agent_steps * 1e9,
        "engine.agent_steps": agent_steps,
        "saddle.oracle_s": saddle_s,
        "saddle.term_evals": term_evals,
        "metrics.compute_s": by_name.get("metrics.compute", 0.0),
        "metrics.peak_alloc_mb": max(s["peak_alloc_bytes"] for s in named("metrics.compute")) / 1e6,
        "scenario_io.metrics_csv_s": by_name.get("scenario_io.metrics_csv", 0.0),
        "scenario_io.csv_s": csv_s,
        "scenario_io.csv_mb": csv_mb,
        "scenario_io.csv_mb_per_s": csv_mb / csv_s,
        "trace.replay_s": replay_wall,
        "trace.overhead_s": replay_wall - cli_wall,
        "trace.coverage": covered / root_s,
    }
    # layers that only some workloads exercise: reported where they run
    detail = {}
    scenarios = [s["scenario"] for s in engine]
    if len(set(scenarios)) == len(scenarios):  # one engine run per scenario
        for s in engine:
            detail[f"engine.run_s.{s['scenario']}"] = (own[s["id"]], "s")
            detail[f"engine.us_per_iter.{s['scenario']}"] = (
                own[s["id"]] / s["iterations"] * 1e6, "us")
    for name in ("stepsizes.limit_vectors", "scenario_io.trace_csv",
                 "scenario_io.plotdata_csv", "saddle.grid"):
        if name in by_name:
            detail[f"{name}_s"] = (by_name[name], "s")
    detail["trace.interpreter_s"] = (replay_wall - root_s, "s")  # start-up and teardown
    if term_evals:
        detail["saddle.ns_per_term_eval"] = (by_name["saddle.grid"] / term_evals * 1e9, "ns")
    jobs = named("cli.sweep_job")
    if jobs:
        job_s = [s["end"] - s["start"] for s in jobs]
        detail["cli.sweep_job_s"] = (statistics.median(job_s), "s")
        detail["cli.sweep_pool_efficiency"] = (sum(job_s) / (2 * cli_wall), "ratio")
    return reported, detail


def measure_traced(ctx, plan):
    cli = run_cli(ctx, plan, "cli")
    cwd = fresh_dir(ctx.work / "replay")
    commands = ctx.work / "commands.json"
    spans_path = ctx.work / "spans.json"
    commands.write_text(json.dumps(plan.commands), encoding="utf-8")
    wall, _, ok = ctx.spawn([str(HERE / "replay.py"), str(commands), str(spans_path)],
                            cwd, "replay")
    if not ok:
        raise Failure("traced replay failed")
    ctx.failures += [f"replay: {p}" for p in plan.check(cwd)]
    replayed = digests(cwd / "out")
    if replayed != cli["digests"]:
        differ = sorted(k for k in set(replayed) | set(cli["digests"])
                        if replayed.get(k) != cli["digests"].get(k))
        ctx.failures.append(f"replay outputs differ from the CLI's: {', '.join(differ)}")
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    metrics, detail = layer_metrics(spans, wall, cli["wall_s"])
    if metrics["trace.coverage"] < COVERAGE_FLOOR:
        ctx.failures.append(f"layer self times cover {metrics['trace.coverage']:.1%} "
                            f"of the traced replay, below {COVERAGE_FLOOR:.0%}")
    raw = {"cli": cli, "replay_digests": replayed, "spans": spans}
    return metrics, detail, raw


def machine_facts(ctx):
    label = "machine"
    if not ctx.spawn([str(HERE / "machine.py")], ctx.work, label)[2]:
        raise Failure("could not read machine facts")
    facts = json.loads((ctx.logs / f"{label}.out").read_text(encoding="utf-8"))
    facts["pinned_by_benchmark"] = PINNED_ENV
    return facts


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    ap = argparse.ArgumentParser(description="nashnet benchmark, one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, one set-up sample")
    ap.add_argument("--results", default=None, help="write the full results JSON here")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nashnet" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no nashnet sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(args.seed, args.smoke, work)
    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "smoke": args.smoke, "seconds": args.seconds}
    metrics, detail = None, {}
    try:
        results["machine"] = machine_facts(ctx)
        plan = WORKLOADS[args.workload](ctx)
        if args.trace:
            metrics, detail, raw = measure_traced(ctx, plan)
        else:
            metrics, results["stats"], raw = measure_untraced(ctx, plan, args.seconds)
        results["raw"] = raw
    except Failure as exc:
        ctx.failures.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    m = results.get("machine", {})
    print(f"nashnet benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    if m:
        print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
              f"numpy={m['numpy']} blas={m['blas']['name']} {m['blas']['version']} "
              f"({m['blas']['config']}) libyaml={m['libyaml']} "
              f"threads={m['threads']} (pinned by the benchmark)")
    failed = min(len(ctx.failures), ctx.attempted)
    fail_rate = failed / max(ctx.attempted, 1)
    for problem in ctx.failures:
        print(f"FAILED: {problem}")
    out = None
    if metrics is not None:
        out = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted}
        stats = results.get("stats", {})
        for e in wanted:
            s = stats.get(e["name"])
            quartiles = (f" q1={fmt(s['q1'])} q3={fmt(s['q3'])} n={s['n']}" if s else "")
            print(f"  {e['name']:28s} {e['unit']:6s} {fmt(metrics[e['name']])}{quartiles}")
        for name, (value, unit) in sorted(detail.items()):
            print(f"  {name:28s} {unit:6s} {fmt(value)}")
    print(f"  {'fail_rate':28s} {'ratio':6s} {fmt(fail_rate)} "
          f"({failed} failed of {ctx.attempted} attempted)")
    results.update(metrics=metrics, detail={k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
                   failures=ctx.failures, attempted=ctx.attempted, failed=failed)
    results_path = Path(args.results) if args.results else (
        ROOT / ".bench_work" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"results: {results_path}")
    if out is not None:
        print(json.dumps({"correct": not ctx.failures, "attempted": ctx.attempted,
                          "failed": failed, "metrics": out}))
    return 1 if ctx.failures or out is None else 0


if __name__ == "__main__":
    sys.exit(main())
