"""Traced replay of nashnet CLI commands.

Usage: python replay.py COMMANDS.json SPANS.json

COMMANDS.json holds a list of CLI argument lists (``reproduce``, ``sweep``
and ``run`` as the benchmark runs them). Each command runs in this one
process through ``nashnet.cli.main``, so the replay executes the CLI's own
code and writes the same files at the same relative paths. A sweep runs
with ``--jobs 1``, so its jobs stay in this process and can be traced.

Spans come from wrapping the names the CLI code looks up at call time (the
module globals of ``nashnet.cli``, ``scenario_io``, ``engine`` and
``stepsizes``), so each library call the CLI makes is recorded. Each
command is a ``cli.main`` span: its self time is the CLI's own work outside
the wrapped calls, chiefly writing the output files. The grid oracle's
compiled terms are wrapped to count grid points times terms. The spans of
each command share a run id; all spans are written to SPANS.json once,
when the replay ends.
"""

import json
import os
import sys
import tracemalloc

sys.dont_write_bytecode = True

from tracing import ROOT, Tracer  # noqa: E402


def traced(tracer, name, fn, annotate=None):
    """`fn` with every call recorded as a span; `annotate(span, result, *args)`
    attaches counts after the span has closed, outside its time."""
    def call(*args, **kwargs):
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
        if annotate is not None:
            annotate(span, out, *args, **kwargs)
        return out
    return call


def instrument(tracer):
    from importlib import resources

    import numpy as np
    from nashnet import cli, engine, saddle, scenario_io, stepsizes

    def wrap(module, attr, name, annotate=None):
        setattr(module, attr, traced(tracer, name, getattr(module, attr), annotate))

    def file_bytes(span, _out, path, *_, **__):
        span["input_bytes"] = os.path.getsize(path)

    def bundled_bytes(span, _out, name):
        span["input_bytes"] = len(resources.files("nashnet.scenarios")
                                  .joinpath(f"{name}.yaml").read_bytes())

    def engine_counts(span, trace, scenario, *_, **__):
        span["scenario"] = scenario.name
        span["iterations"] = trace.iterations
        span["agent_steps"] = trace.iterations * (scenario.n1 + scenario.n2)

    def csv_bytes(span, text, *_):
        span["bytes"] = len(text)

    wrap(cli, "load_scenario", "scenario_io.parse", file_bytes)
    wrap(cli, "bundled_scenario", "scenario_io.parse", bundled_bytes)
    for attr in ("validate_weight_rule", "check_ujsc", "check_jointly_bipartite"):
        wrap(scenario_io, attr, "digraph.checks")
    wrap(scenario_io, "sample_convexity", "exprs.convexity")
    wrap(stepsizes, "oracle_heterogeneous_build", "stepsizes.limit_vectors")
    wrap(engine, "compile_objective", "exprs.compile")
    wrap(cli, "run", "engine.run", engine_counts)
    wrap(cli, "_reference_saddle", "saddle.reference")
    wrap(cli, "grid_minimax", "saddle.grid")
    for writer in ("trace_to_csv", "metrics_to_csv", "plotdata_to_csv"):
        wrap(cli, writer, f"scenario_io.{writer.replace('_to_', '_')}", csv_bytes)
    wrap(cli, "_sweep_worker", "cli.sweep_job")

    compute = cli.compute_metrics

    def compute_metrics(*args, **kwargs):
        with tracer.span("metrics.compute") as span:
            tracemalloc.start()
            try:
                out = compute(*args, **kwargs)
                span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return out
    cli.compute_metrics = compute_metrics

    # grid points x objective terms evaluated by the oracle's compiled sums
    compile_objective = saddle.compile_objective

    def compile_counted(*args, **kwargs):
        fn = compile_objective(*args, **kwargs)
        if not kwargs.get("vector"):
            return fn

        def counted(x, y):
            out = fn(x, y)
            span = tracer.current()
            if span is not None and span["name"] == "saddle.grid":
                span["term_evals"] = span.get("term_evals", 0) + np.broadcast(*x, *y).size
            return out
        return counted
    saddle.compile_objective = compile_counted
    return cli


def in_process(argv):
    """`argv` as the replay runs it: a sweep's jobs stay in this process."""
    argv = list(argv)
    if argv[0] == "sweep" and "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return argv


def main():
    commands_path, spans_path = sys.argv[1:3]
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    tracer = Tracer()
    with tracer.span(ROOT):
        with tracer.span("cli.import"):
            import nashnet.cli  # noqa: F401
        cli = instrument(tracer)
        for run_id, argv in enumerate(commands):
            tracer.run_id = run_id
            with tracer.span("cli.main"):
                code = cli.main(in_process(argv))
            if code != 0:
                sys.exit(f"replay: {' '.join(argv)} exited {code}")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)


if __name__ == "__main__":
    main()
