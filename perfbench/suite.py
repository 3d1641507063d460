"""Run every workload over several seeds and summarise, in one command.

Usage (from the root of a checkout):

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--record FILE]

For each workload, ``--runs`` untraced runs (seeds first-seed, first-seed+1,
...) give the end-to-end metrics as median, quartiles and sample count,
with the spread (interquartile range over median) next to the bound from
BENCHMARK.json. One traced run per workload then gives the per-layer
numbers. Runs go round-robin over the workloads, so a slow spell of the
machine does not land on one workload only. Output files must have the same
digests in every run that shares inputs: all runs of reproduce-paper, and
for the seeded workloads the untraced and the traced run of the first seed. ``--record`` writes the summary,
the machine facts, each workload's rationale and the layer -> end-to-end
prediction map to a JSON file. Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ALL = ("reproduce-paper", "sweep-gamma", "many-agents")
SEEDED = {"sweep-gamma", "many-agents"}  # workloads whose inputs depend on the seed

# Which end-to-end metric each layer metric should move, and on which workload.
PREDICTIONS = [
    {"layer": "cli.import_s", "moves": "setup_s", "on": list(ALL)},
    {"layer": "scenario_io.parse_s", "moves": "setup_s, wall_s", "on": ["many-agents"],
     "note": "<= 3% of reproduce-paper"},
    {"layer": "scenario_io.input_mb", "moves": "setup_s, wall_s", "on": ["many-agents"]},
    {"layer": "exprs.convexity_s", "moves": "setup_s", "on": ["many-agents"]},
    {"layer": "digraph.checks_s", "moves": "setup_s", "on": ["many-agents"]},
    {"layer": "stepsizes.limit_vectors_s", "moves": "setup_s", "on": ["reproduce-paper"],
     "note": "detail metric: only example2 builds limit vectors"},
    {"layer": "exprs.compile_s", "moves": "wall_s", "on": ["many-agents"],
     "note": "compile runs inside engine.run, after set-up"},
    {"layer": "engine.run_s, engine.us_per_iter", "moves": "wall_s",
     "on": ["reproduce-paper", "sweep-gamma"],
     "note": "engine.run_s.example3 - engine.run_s.example2 is the learner replay"},
    {"layer": "engine.ns_per_agent_step", "moves": "wall_s", "on": ["many-agents"]},
    {"layer": "saddle.oracle_s, saddle.term_evals, saddle.ns_per_term_eval", "moves": "wall_s",
     "on": ["many-agents"], "note": "small on reproduce-paper, none on sweep-gamma"},
    {"layer": "metrics.compute_s, metrics.peak_alloc_mb", "moves": "peak_rss_mb, wall_s",
     "on": ["many-agents"]},
    {"layer": "scenario_io.csv_s, scenario_io.csv_mb_per_s, cli.write_s", "moves": "wall_s",
     "on": ["reproduce-paper"], "note": "on sweep-gamma only metrics_csv_s applies"},
    {"layer": "scenario_io.metrics_csv_s", "moves": "wall_s", "on": ["sweep-gamma"]},
    {"layer": "cli.sweep_job_s, cli.sweep_pool_efficiency", "moves": "wall_s",
     "on": ["sweep-gamma"], "note": "detail metrics"},
    {"layer": "trace.overhead_s, trace.coverage", "moves": "none: checks the tracing itself",
     "on": list(ALL)},
]


def run_one(workload, seed, trace, seconds, results_dir):
    results = results_dir / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--results", str(results)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    detail = json.loads(results.read_text()) if results.is_file() else {}
    ok = proc.returncode == 0 and summary is not None and summary["correct"]
    if not ok:
        print(f"  run failed: {workload} seed={seed} trace={trace} exit={proc.returncode}\n"
              + proc.stdout[-1500:] + proc.stderr[-1500:], file=sys.stderr)
    print(f"  {workload} seed={seed} trace={trace}: "
          + ("ok" if ok else "FAILED")
          + "".join(f" {k}={v['value']:.4g}" for k, v in
                    (summary or {}).get("metrics", {}).items() if not trace), flush=True)
    return ok, summary, detail


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description="all nashnet benchmark workloads, summarised")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", default=None, help="write the summary JSON here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ALL
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results_dir = ROOT / ".bench_work" / "suite"
    results_dir.mkdir(parents=True, exist_ok=True)

    all_ok = True
    untraced = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            ok, summary, detail = run_one(w, seed, 0, seconds, results_dir)
            all_ok &= ok
            untraced[w].append((seed, summary, detail))
    traced = {}
    for w in workloads:
        ok, summary, detail = run_one(w, seeds[0], 1, seconds, results_dir)
        all_ok &= ok
        traced[w] = (summary, detail)

    record = {"run_seconds": seconds, "seeds": seeds,
              "machine": None, "workloads": {}, "predictions": PREDICTIONS}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for w in workloads:
        runs = [(seed, s, d) for seed, s, d in untraced[w] if s is not None]
        if not runs:
            continue
        record["machine"] = record["machine"] or runs[0][2].get("machine")
        e2e = {m["name"]: stats([s["metrics"][m["name"]]["value"] for _, s, _ in runs])
               for m in spec["end_to_end"]}
        attempted = sum(s["attempted"] for _, s, _ in runs)
        failed = sum(s["failed"] for _, s, _ in runs)
        # digests of every sample of every run that shares its inputs must agree
        groups = {}
        for seed, _, d in runs:
            key = seed if w in SEEDED else None
            for sample in d.get("raw", {}).get("samples", []):
                groups.setdefault(key, []).append(json.dumps(sample["digests"], sort_keys=True))
        # the traced run repeats seeds[0], so every workload compares two CLI runs
        t_summary, t_detail = traced[w]
        if t_summary is not None:
            groups.setdefault(seeds[0] if w in SEEDED else None, []).append(
                json.dumps(t_detail["raw"]["cli"]["digests"], sort_keys=True))
        deterministic = all(len(set(v)) == 1 for v in groups.values())
        compared = sum(len(v) for v in groups.values() if len(v) > 1)
        all_ok &= deterministic

        print(f"\n{w} ({len(runs)} untraced runs, seeds {runs[0][0]}..{runs[-1][0]}): {why.get(w, '')}")
        for m in spec["end_to_end"]:
            s = e2e[m["name"]]
            print(f"  {m['name']:14s} {m['unit']:5s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} n={s['n']} spread={s['spread']:.2%} bound={m['bound']:.0%}")
        print(f"  {'fail_rate':14s} ratio {failed / attempted:.6g} ({failed} of {attempted})")
        print(f"  output digests identical across runs sharing inputs: {deterministic} "
              f"({compared} CLI runs compared)")
        entry = {"why": why.get(w), "seeds": [seed for seed, _, _ in runs], "end_to_end": e2e,
                 "fail_rate": failed / attempted, "attempted": attempted, "failed": failed,
                 "deterministic": deterministic, "digest_runs_compared": compared}
        if t_summary is not None:
            print(f"  per layer (traced, seed {seeds[0]}):")
            for name, v in t_summary["metrics"].items():
                print(f"    {name:34s} {v['unit']:6s} {v['value']:.6g}")
            for name, v in sorted(t_detail.get("detail", {}).items()):
                print(f"    {name:34s} {v['unit']:6s} {v['value']:.6g}")
            entry["per_layer"] = {k: v["value"] for k, v in t_summary["metrics"].items()}
            entry["detail"] = {k: v["value"] for k, v in t_detail.get("detail", {}).items()}
        record["workloads"][w] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nrecorded {args.record}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
