"""Scenario files, bundled examples, and trace/metrics serialization.

Scenario documents are YAML: nested key-value sections with matrix literals
as lists of lists and objectives in prefix notation (see ``exprs.parse_expr``).
Loading validates structure and the weight rule; connectivity-window checks
and convexity sampling attach warnings without failing the load. Every CSV
the package writes (traces, metrics, plot data, oracle reports, sweep
summaries) comes from one formatter, with a fixed header and
17-significant-digit floats so reimports are bit-faithful.
"""

from __future__ import annotations

import io
import multiprocessing
import os
from importlib import resources

import numpy as np
import yaml

from .digraph import GraphSequenceSpec, check_jointly_bipartite, check_ujsc, validate_weight_rule
from .engine import Scenario, Trace
from .errors import ParseError, ResourceError, ValidationError
from .exprs import BoxSet, format_expr, parse_expr, sample_convexity
from .metrics import MetricsSeries
from .stepsizes import (AdaptiveCommonEigvec, AdaptivePeriodic, GammaSchedule,
                        Homogeneous, OracleHeterogeneous)

BUNDLED = ("example1", "example2", "example3", "perron_weighted", "shared_saddle")

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def load_scenario(path, check_assumptions: bool = True) -> Scenario:
    """Parse and validate a scenario file (see :func:`loads_scenario`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read scenario file {str(path)!r}: {reason}") from None
    return loads_scenario(text, check_assumptions=check_assumptions)


def loads_scenario(text: str, check_assumptions: bool = True) -> Scenario:
    """Parse and validate a scenario document.

    Weight-rule violations fail the load; window and convexity findings are
    collected on the returned scenario's ``warnings`` attribute. With
    `check_assumptions` false no assumption is checked at all: the caller
    runs every check itself (``nashnet graph-check`` reports them).
    """
    try:
        # libyaml's parser when pyyaml was built with it: the same safe
        # resolver and constructor, so the same document, several times faster
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"scenario parse error{where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")
    try:
        scenario = _scenario_from_doc(doc)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"scenario document malformed: {exc!r}") from None

    warnings = []
    if check_assumptions:
        g = scenario.graph
        problems = validate_weight_rule(g, g.eta)
        if problems:
            raise ValidationError(
                "weight rule violated: " + "; ".join(str(v) for v in problems[:10]))
        if not check_ujsc(g, 1, g.t1):
            warnings.append(f"subnet 1 not jointly strongly connected within window {g.t1}")
        if not check_ujsc(g, 2, g.t2):
            warnings.append(f"subnet 2 not jointly strongly connected within window {g.t2}")
        if not check_jointly_bipartite(g, g.t_cross):
            warnings.append(f"cross layer leaves isolated nodes within window {g.t_cross}")
        for label, (e, s) in zip(
                [f"subnet1[{i}]" for i in range(g.n1)] + [f"subnet2[{i}]" for i in range(g.n2)],
                tuple(scenario.objectives1) + tuple(scenario.objectives2)):
            for w in sample_convexity(e, scenario.box_x, scenario.box_y, trials=200):
                warnings.append(f"{label}: {w}")
    object.__setattr__(scenario, "warnings", tuple(warnings))
    return scenario


def _scenario_from_doc(doc: dict) -> Scenario:
    meta = doc.get("meta", {})
    dims = doc["dimensions"]
    m1, m2 = int(dims["m1"]), int(dims["m2"])
    box_x = BoxSet(tuple(doc["boxes"]["x"]["lower"]), tuple(doc["boxes"]["x"]["upper"]))
    box_y = BoxSet(tuple(doc["boxes"]["y"]["lower"]), tuple(doc["boxes"]["y"]["upper"]))

    def agents(section):
        out = []
        for entry in section:
            e = parse_expr(entry["expr"])
            sel = {int(k): float(v) for k, v in (entry.get("selections") or {}).items()}
            out.append((e, sel))
        return tuple(out)

    obj1 = agents(doc["agents"]["subnet1"])
    obj2 = agents(doc["agents"]["subnet2"])

    gdoc = doc["graph"]
    phases = gdoc["phases"]
    n1, n2 = len(obj1), len(obj2)
    a1, a2, c1, c2 = [], [], [], []
    for ph in phases:
        a1.append(np.asarray(ph["a1"], dtype=float))
        a2.append(np.asarray(ph["a2"], dtype=float))
        c1.append(_cross_matrix(ph.get("cross_to_1", []), n1, n2))
        c2.append(_cross_matrix(ph.get("cross_to_2", []), n2, n1))
    windows = gdoc.get("windows", {})
    graph = GraphSequenceSpec(
        n1=n1, n2=n2, period=int(gdoc["period"]),
        a1=tuple(a1), a2=tuple(a2), cross1=tuple(c1), cross2=tuple(c2),
        eta=float(gdoc["eta"]),
        t1=int(windows.get("t1", 1)), t2=int(windows.get("t2", 1)),
        t_cross=int(windows.get("t_cross", 1)))

    rule = _rule_from_doc(doc["stepsize"], graph)
    run_doc = doc.get("run", {})
    oracle = run_doc.get("oracle") or {}
    return Scenario(
        name=str(meta.get("name", "unnamed")), m1=m1, m2=m2,
        objectives1=obj1, objectives2=obj2, graph=graph,
        box_x=box_x, box_y=box_y, rule=rule,
        x0=np.asarray(doc["initial"]["x"], dtype=float),
        y0=np.asarray(doc["initial"]["y"], dtype=float),
        iterations=int(run_doc.get("iterations", 1000)),
        oracle_x=tuple(oracle["x_star"]) if "x_star" in oracle else None,
        oracle_y=tuple(oracle["y_star"]) if "y_star" in oracle else None,
        oracle_provenance=str(oracle.get("provenance", "")))


def _cross_matrix(edges, n_to, n_from) -> np.ndarray:
    """Edge list [source, target, weight] -> (n_to, n_from) weight matrix."""
    C = np.zeros((n_to, n_from))
    for src, dst, w in edges:
        if not (0 <= int(dst) < n_to and 0 <= int(src) < n_from):
            raise ValidationError(f"cross edge {[src, dst, w]} names a missing agent")
        C[int(dst), int(src)] = float(w)
    return C


def _rule_from_doc(sdoc: dict, graph: GraphSequenceSpec):
    gdoc = sdoc.get("gamma", {})
    if "table" in gdoc:
        schedule = GammaSchedule(table=tuple(gdoc["table"]))
    else:
        schedule = GammaSchedule(c=float(gdoc.get("c", 1.0)),
                                 b=float(gdoc.get("b", 1.0)),
                                 eps=float(gdoc.get("eps", 0.5)))
    variant = sdoc["variant"]
    if variant == "homogeneous":
        return Homogeneous(schedule)
    if variant == "oracle_heterogeneous":
        if "phi1" in sdoc:
            return OracleHeterogeneous(schedule=schedule, period=graph.period,
                                       phi1=tuple(tuple(v) for v in sdoc["phi1"]),
                                       phi2=tuple(tuple(v) for v in sdoc["phi2"]))
        if validate_weight_rule(graph, graph.eta) or not all(check_ujsc(graph, s, graph.period) for s in (1, 2)):
            raise ValidationError("oracle limit vectors exist only on a jointly strongly connected "
                                  "graph that meets the weight rule; store phi1 and phi2 otherwise")
        from .stepsizes import oracle_heterogeneous_build
        return oracle_heterogeneous_build(graph, schedule)
    if variant == "adaptive_common":
        return AdaptiveCommonEigvec(schedule)
    if variant == "adaptive_periodic":
        return AdaptivePeriodic(schedule,
                                p1=int(sdoc.get("p1", graph.period)),
                                p2=int(sdoc.get("p2", graph.period)))
    raise ValidationError(f"unknown stepsize variant {variant!r}")


# ---------------------------------------------------------------------------
# saving
# ---------------------------------------------------------------------------

def scenario_to_doc(s: Scenario) -> dict:
    g = s.graph
    phases = []
    for ph in range(g.period):
        phases.append({
            "a1": [[float(v) for v in row] for row in g.a1[ph]],
            "a2": [[float(v) for v in row] for row in g.a2[ph]],
            "cross_to_1": _edges(g.cross1[ph]),
            "cross_to_2": _edges(g.cross2[ph]),
        })
    sdoc = {"variant": _variant_name(s.rule), "gamma": _gamma_doc(s.rule.schedule)}
    if isinstance(s.rule, OracleHeterogeneous):
        sdoc["phi1"] = [[float(v) for v in vec] for vec in s.rule.phi1]
        sdoc["phi2"] = [[float(v) for v in vec] for vec in s.rule.phi2]
    if isinstance(s.rule, AdaptivePeriodic):
        sdoc["p1"], sdoc["p2"] = s.rule.p1, s.rule.p2
    doc = {
        "meta": {"name": s.name,
                 "determinism": "runs are seed-free and bit-identical"},
        "dimensions": {"m1": s.m1, "m2": s.m2},
        "boxes": {"x": {"lower": list(s.box_x.lower), "upper": list(s.box_x.upper)},
                  "y": {"lower": list(s.box_y.lower), "upper": list(s.box_y.upper)}},
        "agents": {
            "subnet1": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives1],
            "subnet2": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives2],
        },
        "graph": {"eta": g.eta, "period": g.period,
                  "windows": {"t1": g.t1, "t2": g.t2, "t_cross": g.t_cross},
                  "phases": phases},
        "stepsize": sdoc,
        "initial": {"x": [[float(v) for v in row] for row in s.x0],
                    "y": [[float(v) for v in row] for row in s.y0]},
        "run": {"iterations": s.iterations},
    }
    if s.oracle_x is not None:
        doc["run"]["oracle"] = {"x_star": [float(v) for v in s.oracle_x],
                                "y_star": [float(v) for v in s.oracle_y],
                                "provenance": s.oracle_provenance}
    return doc


def _selections_doc(sel):
    """The selections that differ from the default +0.0, -0.0 included."""
    return {int(k): float(v) for k, v in sel.items() if v != 0.0 or repr(float(v)) == "-0.0"}


def _edges(C):
    out = []
    for dst in range(C.shape[0]):
        for src in range(C.shape[1]):
            if C[dst, src] > 0:
                out.append([int(src), int(dst), float(C[dst, src])])
    return out


def _variant_name(rule):
    return {Homogeneous: "homogeneous", OracleHeterogeneous: "oracle_heterogeneous",
            AdaptiveCommonEigvec: "adaptive_common",
            AdaptivePeriodic: "adaptive_periodic"}[type(rule)]


def _gamma_doc(schedule: GammaSchedule):
    if schedule.table is not None:
        return {"table": list(schedule.table)}
    return {"c": schedule.c, "b": schedule.b, "eps": schedule.eps}


def save_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_doc(s), fh, sort_keys=False)


def bundled_scenario(name: str) -> Scenario:
    """Load one of the packaged experiment scenarios by name."""
    if name not in BUNDLED:
        raise ValidationError(f"no bundled scenario {name!r}; choose from {BUNDLED}")
    text = resources.files("nashnet.scenarios").joinpath(f"{name}.yaml").read_text()
    return loads_scenario(text)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

CSV_CHUNK = 8192  # values per `%` call: bounds each chunk's table and text
# plot_grid: the early transient at every k, the tail about 1.6% apart on
# a log axis, so a 100k-iteration run keeps 1,323 values of k
PLOT_DENSE_K = 1024
PLOT_STEP_DIVISOR = 64


def _csv(header: str, *parts) -> str:
    """The one formatter that turns numbers into CSV text.

    Each part is ``(template, blocks)``: `blocks` are 2-D arrays with one
    row per `template`, whose columns, left to right, fill the template's
    `%` fields. A chunk of at most CSV_CHUNK values is gathered from the
    blocks only when it is formatted, goes through one `%`, and lands in
    the one buffer that holds the whole text.

    Chunks are dealt round-robin to the shares of :func:`_share_count`:
    share 0 is this process, each other share a forked helper that sends
    its chunks back through a pipe, so the text is the same for any count.
    """
    chunks = []
    for template, blocks in parts:
        rows = max(1, CSV_CHUNK // sum(b.shape[1] for b in blocks))
        chunks += [(template, blocks, r, r + rows) for r in range(0, len(blocks[0]), rows)]
    buf = io.StringIO()
    buf.write(header + "\n")
    helpers = _fork_helpers(chunks, _share_count(len(chunks)))
    shares = len(helpers) + 1
    try:
        for j, chunk in enumerate(chunks):
            share = j % shares
            buf.write(_receive(helpers[share - 1]) if share else _format_chunk(*chunk))
    finally:
        failed = _reap(helpers)
    if failed:
        raise ResourceError(f"CSV formatting helper exited with status {failed[0]}")
    return buf.getvalue()


def _format_chunk(template: str, blocks, start: int, stop: int) -> str:
    table = np.concatenate([b[start:stop] for b in blocks], axis=1)
    return (template * len(table)) % tuple(table.ravel().tolist())


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_count(chunks: int) -> int:
    """How many processes format a CSV of `chunks` chunks: one per usable
    core, but only one in a pool worker (``sweep --jobs N`` already fills
    the cores) or where the platform cannot fork."""
    if multiprocessing.parent_process() is not None or not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cores(), chunks))


def _fork_helpers(chunks, shares: int) -> list:
    """(pid, pipe reader) of a forked helper for each share but the first;
    none at all, and the caller formats alone, when a pipe or fork fails.

    A helper formats only its own chunks, ``chunks[share::shares]``, and
    writes each to its pipe as an 8-byte length and the UTF-8 text. A full
    pipe blocks it, so it holds at most one chunk the parent has not read.
    """
    helpers = []
    try:
        for share in range(1, shares):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    for _, reader in helpers:
                        reader.close()
                    with os.fdopen(w, "wb") as out:
                        for chunk in chunks[share::shares]:
                            data = _format_chunk(*chunk).encode("utf-8")
                            out.write(len(data).to_bytes(8, "little"))
                            out.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            helpers.append((pid, os.fdopen(r, "rb")))
    except OSError:
        _reap(helpers)
        return []
    return helpers


def _receive(helper) -> str:
    pid, reader = helper
    head = reader.read(8)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(head) < 8 or len(data) < size:
        raise ResourceError(f"CSV formatting helper {pid} stopped before sending its chunk")
    return data.decode("utf-8")


def _reap(helpers) -> list:
    """Close every helper's pipe, so one still writing stops, and wait for
    each; the nonzero exit statuses."""
    for _, reader in helpers:
        reader.close()
    statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in helpers]
    return [s for s in statuses if s != 0]


def trace_to_csv(trace: Trace, m1: int, m2: int) -> str:
    """Long-format rows (k, agent, subnet, states..., applied stepsize);
    the last iteration's rows leave the stepsize empty."""
    m = max(m1, m2)
    K = trace.iterations
    k = np.arange(K + 1)[:, None]
    sides = ((1, trace.x, trace.alpha), (2, trace.y, trace.beta))

    def part(rows, last):
        fields, blocks = "", []
        for subnet, states, steps in sides:
            dim = states.shape[2]
            for i in range(states.shape[1]):
                fields += (f"%d,{i + 1},{subnet}," + ",".join([FLOAT_FMT] * dim)
                           + "," * (m - dim) + ("," if last else "," + FLOAT_FMT) + "\n")
                blocks += [k[rows], states[rows, i]] + ([] if last else [steps[rows, i:i + 1]])
        return fields, blocks

    cols = ["k", "agent", "subnet"] + [f"s{d}" for d in range(m)] + ["stepsize"]
    return _csv(",".join(cols), part(slice(0, K), False), part(slice(K, K + 1), True))


def metrics_to_csv(metrics: MetricsSeries) -> str:
    series = (np.arange(len(metrics.h1)), metrics.h1, metrics.h2, metrics.nash_error,
              metrics.saddle_residual)
    return _csv("k,h1,h2,nash_error,saddle_residual",
                ("%d" + f",{FLOAT_FMT}" * 4 + "\n", [v[:, None] for v in series]))


def plot_grid(iterations: int) -> np.ndarray:
    """The iterations plot data keeps: every k up to min(K, PLOT_DENSE_K),
    then each next k is min(K, k + k // PLOT_STEP_DIVISOR), so K comes
    last. Integer arithmetic only, so the grid is the same everywhere."""
    ks = list(range(min(iterations, PLOT_DENSE_K) + 1))
    k = ks[-1]
    while k < iterations:
        k = min(iterations, k + k // PLOT_STEP_DIVISOR)
        ks.append(k)
    return np.array(ks)


def plotdata_to_csv(trace: Trace, metrics: MetricsSeries | None) -> str:
    """Plot-ready long format: k, series, value, for k on
    :func:`plot_grid`; the trace CSV holds every k."""
    ks = plot_grid(trace.iterations)
    k = ks[:, None]
    fields, blocks = "", []
    for name, states in (("x", trace.x), ("y", trace.y)):
        for i in range(states.shape[1]):
            for d in range(states.shape[2]):
                tag = f"{name}{i + 1}" if states.shape[2] == 1 else f"{name}{i + 1}[{d}]"
                fields += f"%d,{tag},{FLOAT_FMT}\n"
                blocks += [k, states[ks, i, d:d + 1]]
    if metrics is not None:
        fields += f"%d,nash_error,{FLOAT_FMT}\n"
        blocks += [k, metrics.nash_error[ks, None]]
    return _csv("k,series,value", (fields, blocks))


def report_to_csv(report) -> str:
    """Key-value rows of a :class:`~nashnet.saddle.SaddleReport`."""
    keys = ([f"x_star[{d}]" for d in range(len(report.x_star))]
            + [f"y_star[{d}]" for d in range(len(report.y_star))] + ["value", "minimax_gap"])
    row = (*report.x_star, *report.y_star, report.value, report.minimax_gap,
           report.grid_resolution)
    fields = "".join(f"{key},{FLOAT_FMT}\n" for key in keys) + "grid_resolution,%d\n"
    return _csv("key,value", (fields, [np.array([row], dtype=object)]))


def sweep_summary_to_csv(param: str, results) -> str:
    """One row per sweep job: (value, final nash error, metrics file path)."""
    return _csv(f"{param},final_nash_error,metrics_file",
                (f"{FLOAT_FMT},{FLOAT_FMT},%s\n", [np.array(results, dtype=object)]))
