"""Scenario files and the bundled examples.

Scenario documents are YAML: nested key-value sections with matrix literals
as lists of lists and objectives in prefix notation (see ``exprs.parse_expr``).
Loading validates structure and the weight rule; connectivity checks over
one period and convexity sampling attach warnings without failing the load.
The CSV writers live in :mod:`nashnet.csvout`.
"""

from __future__ import annotations

from dataclasses import asdict
from importlib import resources

import numpy as np
import yaml

from .digraph import GraphSequenceSpec, check_jointly_bipartite, check_ujsc, validate_weight_rule
from .engine import Scenario
from .errors import ParseError, ValidationError
from .exprs import BoxSet, format_expr, parse_expr, sample_convexity, whole_number
from .stepsizes import GammaSchedule, StepsizeRule

BUNDLED = ("example1", "example2", "example3", "perron_weighted", "shared_saddle")


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read scenario file {str(path)!r}: {reason}") from None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (see :func:`loads_scenario`)."""
    return loads_scenario(_read(path))


def load_graph(path) -> GraphSequenceSpec:
    """The switching graph of a scenario file alone: no other section is
    read, no assumption is checked and no limit vector is derived, so
    ``nashnet graph-check`` can report every verdict itself."""
    return _from_doc(_graph_from_doc, _document(_read(path)))


def _document(text: str) -> dict:
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
    return doc


def _from_doc(build, doc: dict):
    """`build(doc)`, a document of the wrong shape a ValidationError."""
    try:
        return build(doc)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"scenario document malformed: {exc!r}") from None


def loads_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Weight-rule violations fail the load, and so does an
    ``oracle_heterogeneous`` rule on a graph that has no limit vectors (they
    are derived at run); connectivity findings over one period and
    convexity findings are collected in the returned scenario's
    ``warnings`` field, each distinct objective sampled once and its
    findings repeated for every agent that holds it.
    """
    scenario = _from_doc(_scenario_from_doc, _document(text))
    g = scenario.graph
    problems = validate_weight_rule(g)
    connected = [check_ujsc(mats, g.period) for mats in (g.a1, g.a2)]
    if scenario.rule.variant == "oracle_heterogeneous" and (problems or not all(connected)):
        raise ValidationError("oracle limit vectors exist only on a jointly strongly connected "
                              "graph that meets the weight rule")
    if problems:
        raise ValidationError(
            "weight rule violated: " + "; ".join(str(v) for v in problems[:10]))
    warnings = [f"subnet {subnet} not jointly strongly connected within one period"
                for subnet, ok in zip((1, 2), connected) if not ok]
    if not check_jointly_bipartite(g, g.period):
        warnings.append("cross layer leaves isolated nodes within one period")
    # one sample per distinct objective: the agents of one expr text share its tree
    exprs = [e for e, _ in tuple(scenario.objectives1) + tuple(scenario.objectives2)]
    labels = [f"subnet1[{i}]" for i in range(g.n1)] + [f"subnet2[{i}]" for i in range(g.n2)]
    found = {}
    for label, e in zip(labels, exprs):
        if id(e) not in found:
            found[id(e)] = sample_convexity(e, scenario.box_x, scenario.box_y, trials=200)
        warnings += [f"{label}: {w}" for w in found[id(e)]]
    object.__setattr__(scenario, "warnings", tuple(warnings))
    return scenario


def _scenario_from_doc(doc: dict) -> Scenario:
    meta = doc.get("meta", {})
    box_x, box_y = (BoxSet(*(tuple(_floats(doc["boxes"][side][end], f"boxes.{side}.{end}"))
                             for end in ("lower", "upper"))) for side in "xy")

    trees = {}  # expr text -> its tree, which every agent holding the text shares

    def agents(side):
        out = []
        for i, entry in enumerate(doc["agents"][side]):
            text = entry["expr"]
            if text not in trees:
                trees[text] = parse_expr(text)
            sel = {whole_number(k, f"agents.{side}[{i}] selection key"): float(v)
                   for k, v in (entry.get("selections") or {}).items()}
            out.append((trees[text], sel))
        return tuple(out)

    obj1, obj2 = agents("subnet1"), agents("subnet2")
    graph = _graph_from_doc(doc)
    rule = _rule_from_doc(doc["stepsize"])
    run_doc = doc.get("run", {})
    oracle = run_doc.get("oracle") or {}
    return Scenario(
        name=str(meta.get("name", "unnamed")), objectives1=obj1, objectives2=obj2, graph=graph,
        box_x=box_x, box_y=box_y, rule=rule,
        x0=_floats(doc["initial"]["x"], "initial.x"),
        y0=_floats(doc["initial"]["y"], "initial.y"),
        iterations=whole_number(run_doc.get("iterations", 1000), "run.iterations"),
        oracle_x=tuple(oracle["x_star"]) if "x_star" in oracle else None,
        oracle_y=tuple(oracle["y_star"]) if "y_star" in oracle else None,
        oracle_provenance=str(oracle.get("provenance", "")))


def _graph_from_doc(doc: dict) -> GraphSequenceSpec:
    """The graph, its cross layers sized by the agent lists."""
    phases = doc["graph"]["phases"]
    n1, n2 = len(doc["agents"]["subnet1"]), len(doc["agents"]["subnet2"])
    keys = [f"graph.phases[{p}]" for p in range(len(phases))]
    return GraphSequenceSpec(
        a1=tuple(_floats(ph["a1"], f"{key}.a1") for ph, key in zip(phases, keys)),
        a2=tuple(_floats(ph["a2"], f"{key}.a2") for ph, key in zip(phases, keys)),
        cross1=tuple(_cross_matrix(ph.get("cross_to_1", []), n1, n2, f"{key}.cross_to_1")
                     for ph, key in zip(phases, keys)),
        cross2=tuple(_cross_matrix(ph.get("cross_to_2", []), n2, n1, f"{key}.cross_to_2")
                     for ph, key in zip(phases, keys)))


def _cross_matrix(edges, n_to, n_from, key: str) -> np.ndarray:
    """Edge list [source, target, weight] -> (n_to, n_from) weight matrix;
    `key` names the list in error messages. An edge given twice is an error,
    not the last weight written."""
    C = np.zeros((n_to, n_from))
    seen = {}  # (target, source) -> the index of its edge
    for e, (src, dst, w) in enumerate(edges):
        src = whole_number(src, f"{key}[{e}] cross edge source")
        dst = whole_number(dst, f"{key}[{e}] cross edge target")
        if not (0 <= dst < n_to and 0 <= src < n_from):
            raise ValidationError(f"{key}[{e}]: cross edge {[src, dst, w]} names a missing agent")
        first = seen.setdefault((dst, src), e)
        if first != e:
            raise ValidationError(f"{key}[{e}]: cross edge {edges[e]} repeats "
                                  f"{key}[{first}] {edges[first]}")
        try:
            C[dst, src] = float(w)
        except (TypeError, ValueError):
            raise ValidationError(f"{key}[{e}][2] must be a number, got {w!r}") from None
    return C


def _floats(value, key: str) -> np.ndarray:
    """``np.asarray(value, dtype=float)``; an entry that is not a number is a
    ValidationError naming its key, such as ``boxes.x.lower[0]``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        if isinstance(value, list):
            for i, v in enumerate(value):
                _floats(v, f"{key}[{i}]")
        else:
            raise ValidationError(f"{key} must be a number, got {value!r}") from None
        raise  # every entry is a number: the lists are ragged


def _rule_from_doc(sdoc: dict) -> StepsizeRule:
    gdoc = sdoc.get("gamma", {})
    for key in gdoc:  # refused, not ignored: the run would take the default in its place
        if key not in ("c", "b", "eps"):
            raise ValidationError(f"stepsize.gamma.{key} is not a parameter of the schedule "
                                  "c / (k + b)^(1/2 + eps)")
    return StepsizeRule(sdoc["variant"], GammaSchedule(**{k: float(v) for k, v in gdoc.items()}))


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
    doc = {
        "meta": {"name": s.name},
        "boxes": {"x": {"lower": list(s.box_x.lower), "upper": list(s.box_x.upper)},
                  "y": {"lower": list(s.box_y.lower), "upper": list(s.box_y.upper)}},
        "agents": {
            "subnet1": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives1],
            "subnet2": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives2],
        },
        "graph": {"phases": phases},
        "stepsize": {"variant": s.rule.variant, "gamma": asdict(s.rule.schedule)},
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


def save_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_doc(s), fh, sort_keys=False)


def bundled_scenario(name: str) -> Scenario:
    """Load one of the packaged experiment scenarios by name."""
    if name not in BUNDLED:
        raise ValidationError(f"no bundled scenario {name!r}; choose from {BUNDLED}")
    text = resources.files("nashnet.scenarios").joinpath(f"{name}.yaml").read_text()
    return loads_scenario(text)
