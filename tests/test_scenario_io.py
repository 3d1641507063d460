"""Scenario files, bundled scenarios, and CSV serialization."""

import copy
import csv
import dataclasses
import hashlib
import io
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_reference import (gamma, make_identical_scenario, many_agents_doc,
                                 pairwise_disagreement, subnet1_objectives,
                                 subnet2_objectives, trace_csv_text)
from nashnet.engine import Trace, run
from nashnet.errors import ParseError, ValidationError
from nashnet.exprs import BoxSet, format_expr, parse_expr, sample_convexity
from nashnet.metrics import MetricsSeries, compute_metrics
from nashnet.saddle import SaddleReport
from nashnet import csvout, scenario_io
from nashnet.cli import main
from nashnet.csvout import (metrics_to_csv, plotdata_to_csv, report_to_csv,
                            sweep_summary_to_csv, trace_to_csv)
from nashnet.scenario_io import (BUNDLED, bundled_scenario, load_graph, load_scenario,
                                 loads_scenario, save_scenario, scenario_to_doc)
from nashnet.stepsizes import GammaSchedule, StepsizeRule, oracle_heterogeneous_build

ROOT = Path(__file__).resolve().parent.parent


def test_bundled_example1_matches_published_setup():
    s = bundled_scenario("example1")
    g = s.graph
    np.testing.assert_allclose(g.a1[0], [[0.6, 0.4, 0], [0.4, 0.6, 0], [0, 0, 1]])
    np.testing.assert_allclose(g.a1[1], [[1, 0, 0], [0, 0.7, 0.3], [0, 0.3, 0.7]])
    np.testing.assert_allclose(g.a2[0], [[0.9, 0.1], [0.1, 0.9]])
    assert s.rule.variant == "homogeneous"
    # gamma_k = 1 / (k + 50)
    assert gamma(s.rule.schedule, 0) == pytest.approx(1 / 50)
    assert gamma(s.rule.schedule, 10) == pytest.approx(1 / 60)
    np.testing.assert_allclose(s.x0.ravel(), [2.0, -0.5, -1.5])
    np.testing.assert_allclose(s.y0.ravel(), [1.0, 0.5])
    assert [e for e, _ in s.objectives1] == [e for e, _ in subnet1_objectives()]
    assert [e for e, _ in s.objectives2] == [e for e, _ in subnet2_objectives()]


def test_bundled_rules():
    assert bundled_scenario("example2").rule.variant == "oracle_heterogeneous"
    assert bundled_scenario("example3").rule.variant == "adaptive_periodic"
    with pytest.raises(ValidationError):
        bundled_scenario("example9")


def test_example2_rule_carries_published_limit_vectors():
    phi1, phi2 = oracle_heterogeneous_build(bundled_scenario("example2").graph)
    np.testing.assert_allclose(phi1[0], [0.5336, 0.3408, 0.1256], atol=1e-4)
    np.testing.assert_allclose(phi1[1], [0.5336, 0.1525, 0.3139], atol=1e-4)
    np.testing.assert_allclose(phi2[0], [0.8889, 0.1111], atol=1e-4)


@pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                  "perron_weighted", "shared_saddle"])
def test_save_load_roundtrip_lossless(name, tmp_path):
    s = bundled_scenario(name)
    p1 = tmp_path / "a.yaml"
    p2 = tmp_path / "b.yaml"
    save_scenario(s, p1)
    s2 = load_scenario(p1)
    save_scenario(s2, p2)
    assert p1.read_text() == p2.read_text()
    assert scenario_to_doc(s) == scenario_to_doc(s2)


def test_save_load_keeps_negative_zero(tmp_path):
    """-0.0 in an objective and in a kink selection comes back as -0.0."""
    from nashnet.exprs import compile_objective, parse_expr
    s = bundled_scenario("shared_saddle")
    e = parse_expr("(add (mul x0 -0.0) (neg (abs y0)) (scale -0.0 y0))")
    s = dataclasses.replace(s, objectives1=((e, {0: -0.0}),) * s.n1,
                            objectives2=((e, {0: -0.0}),) * s.n2)
    save_scenario(s, tmp_path / "z.yaml")
    s2 = load_scenario(tmp_path / "z.yaml")
    for e2, sel2 in s2.objectives1 + s2.objectives2:
        assert format_expr(e2) == format_expr(e) and str(sel2[0]) == "-0.0"
        value = compile_objective(e2, 1, 1)([1.0], [0.0])
        assert str(value) == "-0.0"  # +0.0 constants would give 0.0


def test_documents_with_a_metrics_list_still_load():
    """`run.metrics` was dropped from the format; the key is ignored."""
    import yaml
    doc = scenario_to_doc(bundled_scenario("shared_saddle"))
    assert "metrics" not in doc["run"]
    doc["run"]["metrics"] = ["h1", "h2", "nash_error", "saddle_residual"]
    assert scenario_to_doc(loads_scenario(yaml.safe_dump(doc))) == scenario_to_doc(
        bundled_scenario("shared_saddle"))


def test_parse_error_carries_location(tmp_path, monkeypatch):
    """The same location with libyaml's parser and with the pure-Python one."""
    p = tmp_path / "bad.yaml"
    for pure in (False, True):
        with monkeypatch.context() as m:
            if pure:
                m.delattr(yaml, "CSafeLoader", raising=False)
            p.write_text("meta: {name: [unclosed\n")
            with pytest.raises(ParseError) as exc:
                load_scenario(p)
            assert "scenario parse error at line 2, column 1: " in str(exc.value)
            p.write_text("- just\n- a list\n")
            with pytest.raises(ParseError):
                load_scenario(p)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="pyyaml built without libyaml")
@pytest.mark.parametrize("name", BUNDLED)
def test_libyaml_and_pure_python_loaders_agree(name):
    text = (resources.files("nashnet") / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_weight_rule_violation_cites_clause(tmp_path):
    s = bundled_scenario("example1")
    text = (tmp_path / "x").name  # unused; build doc directly
    import yaml
    doc = scenario_to_doc(s)
    doc["graph"]["phases"][0]["a1"][0] = [0.5, 0.4, 0.0]  # row sums to 0.9
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(ValidationError) as exc:
        load_scenario(p)
    assert "(ii)" in str(exc.value)


def test_warnings_attached_not_raised():
    s = bundled_scenario("example1")
    assert any("concavity" in w for w in s.warnings)
    assert all("strongly connected" not in w for w in s.warnings)
    assert bundled_scenario("shared_saddle").warnings == ()


CONCAVITY_F1 = "concavity in y violated on sample by 4.880e+01"
EXAMPLE_WARNINGS = (f"subnet1[0]: {CONCAVITY_F1}",
                    "subnet2[0]: concavity in y violated on sample by 7.584e+00",
                    "subnet2[1]: concavity in y violated on sample by 1.401e+01")


@pytest.mark.parametrize("name, expected", [
    ("example1", EXAMPLE_WARNINGS), ("example2", EXAMPLE_WARNINGS),
    ("example3", EXAMPLE_WARNINGS), ("perron_weighted", ()), ("shared_saddle", ())])
def test_bundled_warnings_pinned(name, expected):
    assert bundled_scenario(name).warnings == expected


def test_many_agents_warnings_pinned():
    """Every f1 agent (i = 0 mod 3) of the 100 + 100 agent document loses
    concavity in y on the sample, by the same amount as example1's."""
    text = yaml.dump(many_agents_doc(1), sort_keys=False,
                     Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    s = loads_scenario(text)
    assert len(s.warnings) == 68
    assert s.warnings == tuple(f"subnet{side}[{i}]: {CONCAVITY_F1}"
                               for side in (1, 2) for i in range(0, 100, 3))


def test_agents_with_one_expr_text_share_its_tree():
    """The loader parses each distinct expr text once: the 200 agents of
    the many-agents document hold three trees, one per text. Texts that
    differ only in a 0.0 / -0.0 constant keep a tree each."""
    doc = many_agents_doc(1)

    def trees(doc):
        s = loads_scenario(yaml.safe_dump(doc, sort_keys=False))
        held = {}  # text -> the tree of its first holder
        for side in ("subnet1", "subnet2"):
            for agent, (e, _) in zip(doc["agents"][side], getattr(s, f"objectives{side[-1]}")):
                assert held.setdefault(agent["expr"], e) is e
        assert len({id(e) for e in held.values()}) == len(held)
        return held

    assert len(trees(doc)) == 3
    for i, zero in enumerate(("0.0", "-0.0")):
        doc["agents"]["subnet1"][i] = {"expr": f"(sub (pow x0 2) (pow (add y0 {zero}) 2))",
                                       "selections": {}}
    held = trees(doc)
    assert len(held) == 5 and len({repr(e) for e in held.values()}) == 5


BUNDLED_DOCS = {name: yaml.safe_load((resources.files("nashnet") / "scenarios"
                                      / f"{name}.yaml").read_text(encoding="utf-8"))
                for name in BUNDLED}
BAD_SCALARS = st.one_of(st.text(max_size=6), st.integers(max_value=-1),
                        st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
                        st.none(), st.lists(st.integers(-3, 3), max_size=3))


def _nodes(node, path=()):
    """(path, value) of `node` and of everything below it."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _is_row(path, value):
    """A matrix row of a graph phase or a row of an initial state."""
    return (isinstance(value, list) and len(value) > 0 and len(path) >= 3
            and path[-2] in ("a1", "a2", "x", "y") and path[0] in ("graph", "initial"))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A bundled document with one to three mutations: a dropped key, a
    scalar replaced by a string, a negative number, None or a list, or a
    truncated matrix or initial-state row."""
    doc = copy.deepcopy(BUNDLED_DOCS[draw(st.sampled_from(BUNDLED))])
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = draw(st.sampled_from(("drop", "scalar", "truncate")))
        if kind == "drop":
            choices = [p for p, _ in nodes if p and isinstance(_at(doc, p[:-1]), dict)]
        elif kind == "scalar":
            choices = [p for p, v in nodes if p and not isinstance(v, (dict, list))]
        else:
            choices = [p for p, v in nodes if _is_row(p, v)]
        if not choices:
            continue
        path = draw(st.sampled_from(choices))
        parent = _at(doc, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "scalar":
            parent[path[-1]] = draw(BAD_SCALARS)
        else:
            del parent[path[-1]][draw(st.integers(0, len(parent[path[-1]]) - 1)):]
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=mutated_documents())
def test_mutated_bundled_documents_fail_only_with_load_errors(doc):
    """A damaged scenario document either loads or raises ParseError or
    ValidationError; nothing else escapes the loader."""
    try:
        loads_scenario(yaml.safe_dump(doc, sort_keys=False))
    except (ParseError, ValidationError):
        pass


def _isolate_agent_0(doc):
    for ph in doc["graph"]["phases"]:
        ph["a1"] = [[1.0, 0.0, 0.0], [0.0, 0.3, 0.7], [0.0, 0.4, 0.6]]


@pytest.mark.parametrize("name, edit, message", [
    ("example2", lambda d: d["graph"]["phases"][0]["cross_to_1"].append([-1, 0, 1.0]),
     r"^graph\.phases\[0\]\.cross_to_1\[4\]: cross edge \[-1, 0, 1\.0\] names a missing agent$"),
    ("example2", lambda d: d["graph"]["phases"][1]["cross_to_2"].append([0, 5, 1.0]),
     r"^graph\.phases\[1\]\.cross_to_2\[6\]: cross edge \[0, 5, 1\.0\] names a missing agent$"),
    ("example2", _isolate_agent_0, "strongly connected"),
    ("example1", lambda d: d["agents"]["subnet2"][0].update(expr="(sub x0 (pow y1 2))", selections={}),
     "dimensions"),
    ("example1", lambda d: d["boxes"]["y"].update(upper=[float("nan")]), "NaN"),
    ("example1", lambda d: d["boxes"]["x"].update(lower=[], upper=[]), "at least one dimension"),
    ("shared_saddle", lambda d: d["agents"]["subnet1"][0].update(
        expr="(sub (pow (sub x0 inf) 2) (pow (add y0 0.5) 2))"), "non-finite number 'inf'"),
    ("shared_saddle", lambda d: d["agents"]["subnet1"][1].update(
        expr="(sub (scale -inf (pow (sub x0 1) 2)) (pow (add y0 0.5) 2))"),
     "non-finite number '-inf'"),
    ("shared_saddle", lambda d: d["agents"]["subnet2"][0].update(
        expr="(sub (affine (nan) (0) 1) (pow (add y0 0.5) 2))"), "non-finite number 'nan'"),
    ("shared_saddle", lambda d: d["run"]["oracle"].update(x_star=[0.1, 0.2]),
     "x_star must hold m1 = 1 finite numbers"),
    ("shared_saddle", lambda d: d["run"]["oracle"].update(x_star=["a"]), "x_star"),
    ("shared_saddle", lambda d: d["run"]["oracle"].pop("y_star"), "both x_star and y_star"),
    ("shared_saddle", lambda d: d["run"]["oracle"].update(x_star=[float("nan")]), "x_star"),
    ("shared_saddle", lambda d: d["run"].update(iterations=2.7),
     "run.iterations must be a whole number, got 2.7"),
    ("shared_saddle", lambda d: d["run"].update(iterations=True),
     "run.iterations must be a whole number, got True"),
    ("shared_saddle", lambda d: d["graph"]["phases"][0]["cross_to_1"].append([0, 0.5, 1.0]),
     "cross edge target"),
    ("example1", lambda d: d["agents"]["subnet1"][1].update(selections={True: 1.0}),
     "selection key must be a whole number, got True"),
    ("shared_saddle", lambda d: d["stepsize"]["gamma"].update(c=float("nan")), "finite c > 0"),
    ("shared_saddle", lambda d: d["stepsize"]["gamma"].update(b=float("inf")), "finite c > 0"),
    # an ignored gamma key would run the schedule on the defaults
    ("shared_saddle", lambda d: d["stepsize"].update(gamma={"table": [1.0, float("nan"), 0.5]}),
     r"^stepsize\.gamma\.table is not a parameter"),
    ("shared_saddle", lambda d: d["stepsize"]["gamma"].update(epsilon=0.25),
     r"^stepsize\.gamma\.epsilon is not a parameter"),
    ("example1", lambda d: d["boxes"]["y"]["upper"].__setitem__(0, "five"),
     r"^boxes\.y\.upper\[0\] must be a number, got 'five'$"),
    ("example2", lambda d: d["initial"]["y"][1].__setitem__(0, {}),
     r"^initial\.y\[1\]\[0\] must be a number, got \{\}$"),
    ("example2", lambda d: d["graph"]["phases"][1]["a2"][0].__setitem__(1, "0.5x"),
     r"^graph\.phases\[1\]\.a2\[0\]\[1\] must be a number, got '0\.5x'$"),
    ("example2", lambda d: d["graph"]["phases"][0]["cross_to_1"][0].__setitem__(2, [1.0]),
     r"^graph\.phases\[0\]\.cross_to_1\[0\]\[2\] must be a number, got \[1\.0\]$"),
    ("shared_saddle", lambda d: d["run"].update(iterations="3"),
     r"^run\.iterations must be a whole number, got '3'$"),
    ("shared_saddle", lambda d: d["run"].update(iterations="1e3"),
     r"^run\.iterations must be a whole number, got '1e3'$"),
    ("example2", lambda d: d["graph"]["phases"][0]["cross_to_1"].append(["0", 0, 1.0]),
     r"^graph\.phases\[0\]\.cross_to_1\[4\] cross edge source must be a whole number, "
     r"got '0'$"),
    ("example2", lambda d: d["graph"]["phases"][1]["cross_to_2"][0].__setitem__(1, 1.5),
     r"^graph\.phases\[1\]\.cross_to_2\[0\] cross edge target must be a whole number, "
     r"got 1\.5$"),
    ("example2", lambda d: d["agents"]["subnet1"][1].update(selections={"0": 1.0}),
     r"^agents\.subnet1\[1\] selection key must be a whole number, got '0'$"),
    ("example2", lambda d: d["agents"]["subnet2"][1].update(selections={0.5: 1.0}),
     r"^agents\.subnet2\[1\] selection key must be a whole number, got 0\.5$"),
    ("example2", lambda d: d["graph"]["phases"][0]["cross_to_1"].append([1, 2, 0.25]),
     r"^graph\.phases\[0\]\.cross_to_1\[4\]: cross edge \[1, 2, 0\.25\] repeats "
     r"graph\.phases\[0\]\.cross_to_1\[3\] \[1, 2, 0\.5\]$"),
], ids=["negative cross index", "cross index past the end",
        "oracle rule on a disconnected graph",
        "objective beyond the dimensions", "NaN box bound", "box without a dimension",
        "infinite constant", "infinite scale factor", "NaN affine coefficient",
        "saddle reference of the wrong length", "saddle reference not a number",
        "saddle reference without y_star", "NaN saddle reference",
        "fractional iterations", "boolean iterations", "fractional cross index",
        "boolean selection key", "NaN gamma c",
        "infinite gamma b", "tabulated gamma", "misspelled gamma key",
        "box bound not a number", "initial state not a number", "matrix weight not a number",
        "cross weight not a number", "quoted iterations", "iterations in exponent notation",
        "quoted cross index", "fractional cross target", "quoted selection key",
        "fractional selection key", "repeated cross edge"])
def test_loader_rejects_unusable_documents(name, edit, message, tmp_path):
    """Each of these once loaded into a wrong matrix, spun in the limit-vector
    search, or crashed a later command; now the load fails. An edit to the
    graph fails graph-check's graph-only load as well, except the one whose
    graph has no limit vectors: graph-check reports that graph's verdicts."""
    doc = copy.deepcopy(BUNDLED_DOCS[name])
    edit(doc)
    text = yaml.safe_dump(doc, sort_keys=False)
    with pytest.raises(ValidationError, match=message):
        loads_scenario(text)
    if doc["graph"] != BUNDLED_DOCS[name]["graph"] and edit is not _isolate_agent_0:
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            load_graph(path)


@pytest.mark.parametrize("edit", [
    lambda g: g.update(eta=-0.5),
    lambda g: g.update(eta=0.0),
    lambda g: g.update(eta=1.5),
    lambda g: g.update(eta=float("nan")),
    lambda g: g.pop("eta", None),
], ids=["negative weight floor", "zero weight floor", "weight floor above one",
        "NaN weight floor", "no weight floor"])
def test_a_declared_weight_floor_is_ignored(edit, tmp_path):
    """``graph.eta``, once a declared floor checked against the weights, is
    a key the loader does not read: the floor is the graph's least positive
    weight, and the run writes example2's pinned trace bytes."""
    from test_acceptance import TRACE_DIGESTS
    doc = copy.deepcopy(BUNDLED_DOCS["example2"])
    edit(doc["graph"])
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert load_scenario(path).graph.eta == 0.1
    out = tmp_path / "trace.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACE_DIGESTS["example2"]


def test_loader_takes_integral_floats():
    doc = copy.deepcopy(BUNDLED_DOCS["shared_saddle"])
    doc["run"]["iterations"] = 1e5
    doc["graph"]["phases"][0]["cross_to_1"][0] = [0.0, 0.0, 1.0]
    s = loads_scenario(yaml.safe_dump(doc, sort_keys=False))
    assert (s.m1, s.graph.period, s.iterations, s.graph.cross1[0][0, 0]) == (1, 2, 100000, 1.0)


def test_connectivity_is_checked_over_one_period():
    """A subnet-1 union over one period that is not strongly connected
    warns, and only it."""
    doc = copy.deepcopy(BUNDLED_DOCS["example1"])
    _isolate_agent_0(doc)
    warned = loads_scenario(yaml.safe_dump(doc, sort_keys=False)).warnings
    assert warned == ("subnet 1 not jointly strongly connected within one period",
                      *EXAMPLE_WARNINGS)


def _unwritten_keys(doc, written, path=()):
    """The paths of keys in `doc` that `written` has no key for at the same
    place, through mappings and lists paired by index (the phase list, the
    agent lists)."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if not isinstance(written, dict) or key not in written:
                yield path + (key,)
            else:
                yield from _unwritten_keys(value, written[key], path + (key,))
    elif isinstance(doc, list) and isinstance(written, list):
        for i, (item, w) in enumerate(zip(doc, written)):
            yield from _unwritten_keys(item, w, path + (i,))


def test_unwritten_keys_flags_a_planted_key():
    doc = copy.deepcopy(BUNDLED_DOCS["example3"])
    doc["graph"]["windows"] = {"t1": 2}
    doc["graph"]["phases"][1]["cross_to_3"] = []
    doc["agents"]["subnet2"][0]["weight"] = 1.0
    written = scenario_to_doc(bundled_scenario("example3"))
    assert set(_unwritten_keys(doc, written)) == {
        ("graph", "windows"), ("graph", "phases", 1, "cross_to_3"),
        ("agents", "subnet2", 0, "weight")}


@pytest.mark.parametrize("name", BUNDLED + ("README",))
def test_documented_keys_are_written_keys(name):
    """Tooling gate: every key of a bundled scenario document, and of the
    README's scenario example, is one that scenario_to_doc writes at the
    same place, so a key the loader stops reading cannot linger in them."""
    if name == "README":
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario file format", 1)[1]
        text = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        doc, scenario = yaml.safe_load(text), loads_scenario(text)
    else:
        doc, scenario = BUNDLED_DOCS[name], bundled_scenario(name)
    assert list(_unwritten_keys(doc, scenario_to_doc(scenario))) == []


class _ReadLog(dict):
    """A document mapping that records in `log` the key paths the loader
    reads: by ``[]``, ``get`` or ``in``, and every path below a map it
    iterates (the selections), which counts as read in full."""

    def __init__(self, doc, log, path=()):
        super().__init__((k, _logged(v, log, path + (k,))) for k, v in doc.items())
        self.log, self.path = log, path

    def __getitem__(self, key):
        self.log.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(self.path + (key,))
        return super().get(key, default)

    def __contains__(self, key):
        self.log.add(self.path + (key,))
        return super().__contains__(key)

    def _read_in_full(self):
        self.log.update(self.path + p for p in _key_paths(dict(super().items())))

    def __iter__(self):
        self._read_in_full()
        return super().__iter__()

    def items(self):
        self._read_in_full()
        return super().items()


def _logged(node, log, path):
    if isinstance(node, dict):
        return _ReadLog(node, log, path)
    if isinstance(node, list):
        return [_logged(v, log, path + (i,)) for i, v in enumerate(node)]
    return node


def _key_paths(node, path=()):
    """The paths of every mapping key in `node`, through lists by index."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(node, dict):
            yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _unread_keys(doc) -> set:
    """The key paths of `doc` that loading it never reads."""
    log = set()
    scenario_io._scenario_from_doc(_logged(doc, log, ()))
    return set(_key_paths(doc)) - log


def test_unread_keys_flags_a_planted_key():
    doc = scenario_to_doc(bundled_scenario("example2"))
    doc["meta"]["determinism"] = "runs are seed-free and bit-identical"
    doc["graph"]["period"] = 2
    doc["stepsize"]["phi1"] = [[0.5, 0.25, 0.25]] * 2
    assert _unread_keys(doc) == {("meta", "determinism"), ("graph", "period"),
                                 ("stepsize", "phi1")}


@pytest.mark.parametrize("name", BUNDLED)
def test_written_keys_are_read_keys(name):
    """Tooling gate, the companion of the one below: every key that
    scenario_to_doc writes is one the loader reads, so the writer cannot
    keep emitting a key that nothing reads."""
    assert _unread_keys(scenario_to_doc(bundled_scenario(name))) == set()


@pytest.mark.parametrize("gdoc, want", [
    ({"c": 2.0}, GammaSchedule(c=2.0)),
    ({"c": 2, "eps": 0.25}, GammaSchedule(c=2.0, eps=0.25)),
    ({}, GammaSchedule()),
])
def test_loader_leaves_missing_gamma_keys_to_the_schedule_defaults(gdoc, want):
    """A `gamma` key the document leaves out takes GammaSchedule's own
    default; the loader holds no copy of them."""
    doc = copy.deepcopy(BUNDLED_DOCS["shared_saddle"])
    doc["stepsize"]["gamma"] = gdoc
    schedule = loads_scenario(yaml.safe_dump(doc, sort_keys=False)).rule.schedule
    assert schedule == want
    assert all(type(getattr(schedule, f)) is float for f in ("c", "b", "eps"))


def test_convexity_is_sampled_once_per_distinct_objective(monkeypatch):
    """Six agents hold two objectives and a pair that differs only in a
    -0.0 / 0.0 constant: the loader samples each distinct ``repr(e)`` once,
    four in all, and its warnings are those of sampling every agent."""
    texts = {"a": "(sub (neg (pow x0 2)) (pow y0 2))", "b": "(add (pow x0 2) (pow y0 2))",
             "c+": "(add (neg (pow x0 4)) 0.0)", "c-": "(add (neg (pow x0 4)) -0.0)"}
    sides = (("a", "b", "c+"), ("b", "c-", "a"))
    box = BoxSet((-2.0,), (2.0,))
    cycle = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    base = make_identical_scenario(subnet1_objectives(), [cycle], box, box,
                                   StepsizeRule("homogeneous", GammaSchedule()), [0.0] * 3, [0.0] * 3)
    doc = scenario_to_doc(base)
    for side, names in zip(("subnet1", "subnet2"), sides):
        doc["agents"][side] = [{"expr": texts[name], "selections": {}} for name in names]
    text = yaml.safe_dump(doc, sort_keys=False)
    calls = []

    def counted(e, *args, **kwargs):
        calls.append(repr(e))
        return sample_convexity(e, *args, **kwargs)
    monkeypatch.setattr(scenario_io, "sample_convexity", counted)
    s = loads_scenario(text)
    assert sorted(calls) == sorted({repr(parse_expr(t)) for t in texts.values()})
    assert len(calls) == 4
    want = [f"subnet{side}[{i}]: {w}"
            for side, names in enumerate(sides, 1) for i, name in enumerate(names)
            for w in sample_convexity(parse_expr(texts[name]), box, box, trials=200)]
    assert want and s.warnings == tuple(want)


def _first_difference(got, want):
    """None if two texts are equal, else the first line where they differ
    and the line counts; a failing ``==`` would make pytest diff whole
    multi-megabyte texts."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    if len(got) == len(want) == first:
        return None
    return first, got[first:first + 1], want[first:first + 1], len(got), len(want)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_trace_csv_equals_the_row_reference(name):
    """A homogeneous, an oracle and an adaptive run write the trace CSV
    that one `%` per row writes. The homogeneous rule's stepsizes are views
    of agent stride 0 that equal the per-agent table bit for bit."""
    s = bundled_scenario(name)
    tr = run(dataclasses.replace(s, iterations=300))
    assert _first_difference(trace_to_csv(tr), trace_csv_text(tr)) is None
    if s.rule.variant == "homogeneous":
        gam = np.array(s.rule.schedule.values(300))[:, None]
        for steps, n in ((tr.alpha, s.n1), (tr.beta, s.n2)):
            assert steps.strides[1] == 0 and not steps.flags.writeable
            assert steps.tobytes() == np.repeat(gam, n, axis=1).tobytes()


def test_trace_csv_roundtrip():
    """17 significant digits reimport every state and stepsize exactly."""
    s = bundled_scenario("shared_saddle")
    tr = run(dataclasses.replace(s, iterations=25))
    lines = trace_to_csv(tr).splitlines()
    assert lines[0] == "k,agent,subnet,s0,stepsize"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == (tr.iterations + 1) * (s.n1 + s.n2)
    x, y = np.empty_like(tr.x), np.empty_like(tr.y)
    alpha, beta = np.empty_like(tr.alpha), np.empty_like(tr.beta)
    for k, agent, subnet, state, step in rows:
        k, i = int(k), int(agent) - 1
        states, steps = (x, alpha) if subnet == "1" else (y, beta)
        states[k, i, 0] = float(state)
        if k < tr.iterations:
            steps[k, i] = float(step)
        else:
            assert step == ""
    np.testing.assert_array_equal(x, tr.x)
    np.testing.assert_array_equal(y, tr.y)
    np.testing.assert_array_equal(alpha, tr.alpha)
    np.testing.assert_array_equal(beta, tr.beta)


def _padded_run():
    """A hand-made 2 + 1 agent run with m1 = 2, m2 = 1 over two iterations,
    whose values reach the corners of the float format."""
    x = np.array([[[0.1, -1 / 3], [1e22, -0.0]],
                  [[5e-324, 2.5], [-7.0, 1e-300]],
                  [[np.pi, -np.e], [123456789.125, 0.0]]])
    y = np.array([[[2 / 3]], [[-1e-5]], [[1.7976931348623157e308]]])
    trace = Trace(x=x, y=y, alpha=np.array([[0.02, 0.5], [1 / 51, 0.25]]),
                  beta=np.array([[1 / 3], [1e-17]]))
    metrics = MetricsSeries(
        h1=np.array([1.5, 0.1, 1e-9]), h2=np.array([0.0, -0.0, 2 / 7]),
        nash_error=np.array([10.0, 1 / 3, 4e-20]),
        saddle_residual=np.array([0.125, -1e-12, float("inf")]))
    return trace, metrics


def test_padded_layout_csv_texts():
    """Pinned texts of all three writers for a layout no bundled scenario
    has: subnet 2 rows pad the missing state column with an empty field."""
    trace, metrics = _padded_run()
    assert trace_to_csv(trace) == (
        "k,agent,subnet,s0,s1,stepsize\n"
        "0,1,1,0.10000000000000001,-0.33333333333333331,0.02\n"
        "0,2,1,1e+22,-0,0.5\n"
        "0,1,2,0.66666666666666663,,0.33333333333333331\n"
        "1,1,1,4.9406564584124654e-324,2.5,0.019607843137254902\n"
        "1,2,1,-7,1e-300,0.25\n"
        "1,1,2,-1.0000000000000001e-05,,1.0000000000000001e-17\n"
        "2,1,1,3.1415926535897931,-2.7182818284590451,\n"
        "2,2,1,123456789.125,0,\n"
        "2,1,2,1.7976931348623157e+308,,\n")
    assert metrics_to_csv(metrics) == (
        "k,h1,h2,nash_error,saddle_residual\n"
        "0,1.5,0,10,0.125\n"
        "1,0.10000000000000001,-0,0.33333333333333331,-9.9999999999999998e-13\n"
        "2,1.0000000000000001e-09,0.2857142857142857,3.9999999999999998e-20,inf\n")
    states = [
        ("0,x1[0],0.10000000000000001\n0,x1[1],-0.33333333333333331\n"
         "0,x2[0],1e+22\n0,x2[1],-0\n0,y1,0.66666666666666663\n"),
        ("1,x1[0],4.9406564584124654e-324\n1,x1[1],2.5\n"
         "1,x2[0],-7\n1,x2[1],1e-300\n1,y1,-1.0000000000000001e-05\n"),
        ("2,x1[0],3.1415926535897931\n2,x1[1],-2.7182818284590451\n"
         "2,x2[0],123456789.125\n2,x2[1],0\n2,y1,1.7976931348623157e+308\n"),
    ]
    errors = ["0,nash_error,10\n", "1,nash_error,0.33333333333333331\n",
              "2,nash_error,3.9999999999999998e-20\n"]
    header = "k,series,value\n"
    assert plotdata_to_csv(trace, metrics) == header + "".join(
        s + e for s, e in zip(states, errors))


def test_metrics_csv_schema():
    s = bundled_scenario("shared_saddle")
    tr = run(dataclasses.replace(s, iterations=10))
    ref = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
    m = compute_metrics(tr, s, ref)
    text = metrics_to_csv(m)
    lines = text.splitlines()
    assert lines[0] == "k,h1,h2,nash_error,saddle_residual"
    assert len(lines) == 12
    # 17-significant-digit floats reimport exactly
    val = float(lines[3].split(",")[3])
    assert val == m.nash_error[2]


def test_plotdata_long_format():
    s = bundled_scenario("shared_saddle")
    tr = run(dataclasses.replace(s, iterations=5))
    ref = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
    m = compute_metrics(tr, s, ref)
    text = plotdata_to_csv(tr, m)
    lines = text.splitlines()
    assert lines[0] == "k,series,value"
    series = {ln.split(",")[1] for ln in lines[1:]}
    assert series == {"x1", "x2", "x3", "y1", "y2", "nash_error"}


def _documented_grid(iterations):
    """The plot-data k-grid as the README states it: every k up to 1024,
    then k + k // 64 while below K, then K."""
    ks = list(range(min(iterations, 1024) + 1))
    while ks[-1] < iterations:
        ks.append(min(iterations, ks[-1] + ks[-1] // 64))
    return ks


@pytest.mark.parametrize("iterations", [0, 1024, 3000])
def test_plotdata_is_a_view_of_the_run(iterations):
    """Plot data holds, for each k on the documented grid, the trace's states
    and the metrics' nash_error at that k, as the same doubles."""
    s = bundled_scenario("shared_saddle")
    tr = run(dataclasses.replace(s, iterations=iterations))
    m = compute_metrics(tr, s, SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0))
    rows = [ln.split(",") for ln in plotdata_to_csv(tr, m).splitlines()[1:]]
    grid = _documented_grid(iterations)
    series = [("x1", tr.x[:, 0, 0]), ("x2", tr.x[:, 1, 0]), ("x3", tr.x[:, 2, 0]),
              ("y1", tr.y[:, 0, 0]), ("y2", tr.y[:, 1, 0]), ("nash_error", m.nash_error)]
    assert [(int(k), name) for k, name, _ in rows] == [(k, name) for k in grid
                                                      for name, _ in series]
    want = [values[k] for k in grid for _, values in series]
    assert np.array([float(v) for _, _, v in rows]).tobytes() == np.array(want).tobytes()


def _shared_saddle_run(iterations):
    s = bundled_scenario("shared_saddle")
    tr = run(dataclasses.replace(s, iterations=iterations))
    m = compute_metrics(tr, s, SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0))
    return tr, m


@pytest.mark.parametrize("make, chunk", [
    (lambda: _shared_saddle_run(0), None),
    (lambda: _shared_saddle_run(7), 40),
    (lambda: _shared_saddle_run(3300), None),
    (_padded_run, 12),
], ids=["K = 0", "odd chunk count, two-row chunks", "odd metrics chunk count",
        "padded layout, one-row chunks"])
def test_csv_bytes_do_not_depend_on_the_share_count(make, chunk, monkeypatch):
    """However many chunks share a CSV's values (CSV_CHUNK at the case's
    size, at 1 and at 7), every writer returns the text one `%` call over
    the whole template writes, and streams it into a file object given as
    `out`. Chunk boundaries fall inside the trace's per-agent templates and
    before its separate last-row part."""
    trace, metrics = make()

    def texts(*streams):
        return (trace_to_csv(trace, *streams[:1]), metrics_to_csv(metrics, *streams[1:2]),
                plotdata_to_csv(trace, metrics, *streams[2:]))

    with monkeypatch.context() as m:
        m.setattr(csvout, "_layout", lambda template: None)
        m.setattr(csvout, "CSV_CHUNK", 1 << 40)
        want = texts()
    real, calls = csvout._format_g, []
    monkeypatch.setattr(csvout, "_format_g", lambda v: calls.append(len(v)) or real(v))
    format_chunk, chunks = csvout._format_chunk, []
    monkeypatch.setattr(csvout, "_format_chunk",
                        lambda *args: chunks.append(args) or format_chunk(*args))
    sizes = (chunk or csvout.CSV_CHUNK, 1, 7)
    for size in sizes:
        monkeypatch.setattr(csvout, "CSV_CHUNK", size)
        assert [_first_difference(got, text) for got, text in zip(texts(), want)] == [None] * 3
        streams = [io.StringIO() for _ in want]
        written = texts(*streams)
        assert ([_first_difference(s.getvalue(), text) for s, text in zip(streams, want)]
                == [None] * 3)
        assert [len(w) for w in written] == [len(t) for t in want]
    # every distinct numeric cell, k included, takes the vectorised path
    # once, twice per size, in one _format_g call per chunk
    assert sum(calls) == 2 * len(sizes) * _distinct_cells(trace, metrics)
    assert len(calls) == len(chunks)


def _distinct_cells(trace, metrics):
    """The distinct numeric cells the trace, metrics and plot-data writers
    format: per trace row group k, the states and each side's stepsizes,
    one per side when the table has agent stride 0; per metrics row k and
    four series; per plot-data k the k, the states and the nash error."""
    states = trace.x[0].size + trace.y[0].size
    steps = sum(1 if a.strides[1] == 0 else a.shape[1] for a in (trace.alpha, trace.beta))
    trace_cells = (trace.iterations + 1) * (1 + states) + trace.iterations * steps
    plot_cells = len(csvout.plot_grid(trace.iterations)) * (states + 2)
    return trace_cells + 5 * len(metrics.h1) + plot_cells


def _from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _tie(s, q):
    """(2q + 1) / 2**(s + 1): times 10**s it is an odd multiple of 1/2."""
    return (2 * q + 1) / 2.0 ** (s + 1)


# any 64-bit pattern, with +-0, +-inf, NaN and the extreme subnormals,
# which random patterns hardly ever hit, drawn on purpose too
_DOUBLES = st.one_of(st.integers(0, 2 ** 64 - 1).map(_from_bits),
                     st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                                      2.225073858507201e-308]))
# 18 significant digits ending in 5: the nearest double sits beside a tie
_NEAR_TIES = st.builds(lambda digits, exp: float(f"{digits}5e{exp}"),
                       st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-340, 300))
# exact ties of the 17th digit, (17-digit integer + 1/2) * 10**-s
_TIES = st.integers(2, 23).flatmap(lambda s: st.integers(
    10 ** 16 // 5 ** s, min(2 * 10 ** 17 // 5 ** s, 2 ** 53) // 2 - 1).map(lambda q: _tie(s, q)))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_DOUBLES, _NEAR_TIES, _TIES), min_size=1, max_size=40))
def test_format_chunk_matches_percent(values):
    """Every %.17g cell reads as `%` writes it, byte for byte."""
    for template in (f"{csvout.FLOAT_FMT}\n", f"{csvout.FLOAT_FMT},k=1,\n"):
        block = np.array(values)[:, None]
        assert (csvout._format_chunk(template, [block], (0,), 0, len(values))
                == (template * len(values)) % tuple(values))


@st.composite
def _gather_cases(draw):
    """A table of 1-6 columns, split into blocks at one cut, and a column
    index that repeats, permutes, leaves out or outnumbers its columns."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.one_of(_DOUBLES, _NEAR_TIES, _TIES),
                                  min_size=width, max_size=width), min_size=1, max_size=6))
    columns = draw(st.one_of(st.permutations(range(width)),
                             st.lists(st.integers(0, width - 1), min_size=1, max_size=3 * width)))
    return rows, draw(st.integers(0, width)), tuple(columns)


@settings(max_examples=300, deadline=None)
@given(_gather_cases())
def test_format_chunk_gathers_any_column_index(case):
    """Field f of each row reads as `%` writes the value of column
    ``columns[f]``, whatever the index: the one gather of formatted slots
    places each column's text in every field that names it."""
    rows, cut, columns = case
    table = np.array(rows)
    template = ",".join([csvout.FLOAT_FMT] * len(columns)) + "\n"
    want = (template * len(rows)) % tuple(row[c] for row in rows for c in columns)
    assert csvout._format_chunk(template, [table[:, :cut], table[:, cut:]], columns,
                                     0, len(rows)) == want


def test_format_g_next_to_powers_of_ten():
    """Powers of ten and their neighbours, where log10 may misplace the
    exponent, and the ends of the double range, read as `%` writes them."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
    values = np.concatenate([values, -values])
    template = f"{csvout.FLOAT_FMT}\n"
    assert (csvout._format_chunk(template, [values[:, None]], (0,), 0, len(values))
            == (template * len(values)) % tuple(values.tolist()))


def test_ties_are_ties():
    """The tie strategy lands on exact halves of the 17th digit."""
    from fractions import Fraction
    for s, q in ((2, 10 ** 16 // 25), (3, 482253082074487), (23, 7)):
        t = Fraction(_tie(s, q)) * 10 ** s
        assert t.denominator == 2 and 10 ** 16 <= t < 10 ** 17


_INTS = st.one_of(st.integers(-2 ** 63 + 1, 2 ** 63 - 1).map(float),
                  st.integers(-2 ** 53, 2 ** 53).map(float),
                  st.integers(2 ** 53, 2 ** 70).map(float),
                  st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False),
                  # -0, the truncations to -0, and the edges of 10**17 and of int64
                  st.sampled_from([-0.0, 0.5, -0.5, 99999999999999984.0, -99999999999999984.0,
                                   1e17, -1e17, 2.0 ** 63, -2.0 ** 63]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_INTS, _DOUBLES), min_size=1, max_size=30))
def test_format_chunk_matches_percent_for_ints(rows):
    """A %d cell arrives as a float64, which `%` truncates toward zero:
    float-typed, negative, fractional and 2**53-or-larger values read as
    `%` writes them, and values of 10**17 or more in magnitude send the
    chunk to `%` whole."""
    template = f"%d,{csvout.FLOAT_FMT}\n"
    block = np.array(rows)
    assert (csvout._format_chunk(template, [block[:, :1], block[:, 1:]], (0, 1), 0,
                                     len(rows))
            == (template * len(rows)) % tuple(block.ravel().tolist()))


def test_unproven_values_fall_back_to_percent(monkeypatch):
    """With PROOF_MARGIN at 1 no %.17g value is proven, so each goes through
    the chunk's one batched `%` call; the writers' bytes do not move."""
    cases = [_shared_saddle_run(40), _padded_run()]
    want = [(trace_to_csv(t), metrics_to_csv(m), plotdata_to_csv(t, m)) for t, m in cases]
    block = np.random.default_rng(7).normal(size=(1000, 1))
    text = csvout._format_chunk("%.17g\n", [block], (0,), 0, 1000)
    monkeypatch.setattr(csvout, "PROOF_MARGIN", 1.0)
    assert csvout._format_chunk("%.17g\n", [block], (0,), 0, 1000) == text
    assert [(trace_to_csv(t), metrics_to_csv(m), plotdata_to_csv(t, m))
            for t, m in cases] == want


def test_object_blocks_and_other_templates_go_through_percent():
    """Oracle reports and sweep summaries (object blocks), templates with
    other fields or text before the first, and tables that do not fill
    their template are formatted by `%` whole, with its text and its
    errors; non-ASCII text between the fields takes the vectorised path."""
    report = SaddleReport((1.0, 2.0), (-0.5,), 0.25, 1e-9, 2001)
    assert report_to_csv(report).splitlines()[-1] == "grid_resolution,2001"
    results = [(0.5 * i, 1e-3 / (i + 1), f"out/m_{i}.csv") for i in range(100)]
    assert sweep_summary_to_csv("gamma.c", results) == (
        "gamma.c,final_nash_error,metrics_file\n"
        + "".join("%.17g,%.17g,%s\n" % row for row in results))
    block = np.array([[1.5, 2.0], [-0.25, 3e7]])
    for template in ("%.3f,%d\n", "%e %.17g\n", "%.17g%%,%d\n", "k=%.17g;%d\n",
                     "%.17g \u00b5,%d\n"):
        assert (csvout._format_chunk(template, [block], (0, 1), 0, 2)
                == (template * 2) % tuple(block.ravel().tolist()))
    with pytest.raises(TypeError, match="not all arguments converted"):
        csvout._format_chunk("%.17g\n", [block], (0, 1), 0, 2)
    with pytest.raises(ValueError, match="NaN"):
        csvout._format_chunk("%d\n", [np.array([[np.nan]])], (0,), 0, 1)


def test_sweep_summary_quotes_paths_as_the_csv_module():
    """A metrics path holding a comma, a quote or a line break is written as
    `csv.writer` writes the field; any other path keeps its bytes."""
    paths = ["out/m_0.csv", "a,b/m.csv", 'say "hi"/m.csv', "two\nlines.csv", "cr\r.csv",
             "100%d/m.csv"]
    results = [(0.5 * i, 1e-3 / (i + 1), p) for i, p in enumerate(paths)]
    text = sweep_summary_to_csv("gamma.c", results)
    rows = [["gamma.c", "final_nash_error", "metrics_file"]] + [
        ["%.17g" % v, "%.17g" % err, p] for v, err, p in results]

    def line(row):
        written = io.StringIO()
        csv.writer(written).writerow(row)  # the default dialect quotes "\r" and "\n"
        return written.getvalue().removesuffix("\r\n") + "\n"
    assert text == "".join(map(line, rows))
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows


def test_one_chunk_stays_under_2_mb():
    """Formatting one full chunk of a bundled trace CSV peaks below 2 MB of
    traced allocations, its text included."""
    import tracemalloc
    trace, _ = _shared_saddle_run(3000)
    out = io.StringIO()
    trace_to_csv(trace, out)  # builds the lookup tables
    peaks = []
    real = csvout._format_chunk

    def traced(*chunk):
        tracemalloc.start()
        try:
            return real(*chunk)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    csvout._format_chunk = traced
    try:
        trace_to_csv(trace, io.StringIO())
    finally:
        csvout._format_chunk = real
    assert len(peaks) > 2 and max(peaks) < 2e6


def test_metrics_series_contracts():
    s = bundled_scenario("shared_saddle")
    tr = run(dataclasses.replace(s, iterations=30))
    ref = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
    m = compute_metrics(tr, s, ref)
    assert len(m.h1) == len(m.h2) == len(m.nash_error) == 31
    with pytest.raises(ValueError):
        compute_metrics(tr, s, SaddleReport((0.0, 0.0), s.oracle_y, 0.0, 0.0, 0))


def test_pairwise_max_is_the_all_pairs_maximum():
    """Comparing each agent with the agents after it, each unordered pair
    once, keeps every bit of the maximum over the whole (k, n, n) array of
    pair distances."""
    from nashnet import metrics
    states = np.random.default_rng(5).normal(size=(11, 4, 3))
    diff = states[:, :, None, :] - states[:, None, :, :]
    whole = np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
    assert metrics._pairwise_max(states).tobytes() == whole.tobytes()


# finite doubles: any bit pattern, plus the signed zeros, the subnormals
# and the largest magnitudes, whose differences overflow
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1.7976931348623157e308, -1.7976931348623157e308,
                                     1e308, -1e308]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(_FINITE, min_size=n, max_size=n), min_size=1, max_size=4)))
def test_one_dimensional_disagreement_equals_the_pairwise_reference(rows):
    """For blocks of one dimension the O(n) max - min span equals, bit for
    bit, the maximum over all agent pairs of ``sqrt((a - b) * (a - b))``."""
    from nashnet import metrics
    states = np.array(rows)[:, :, None]
    with np.errstate(over="ignore"):  # differences of magnitudes near 1e308
        assert metrics._pairwise_max(states).tobytes() == pairwise_disagreement(states).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(2, 3)).flatmap(lambda nm: st.lists(
    st.lists(st.lists(_FINITE, min_size=nm[1], max_size=nm[1]), min_size=nm[0], max_size=nm[0]),
    min_size=1, max_size=4)))
def test_wide_block_disagreement_equals_the_pairwise_reference(rows):
    """For blocks of two and three dimensions, one agent among them or
    several, the pair comparison equals, bit for bit, the maximum over all
    agent pairs of the coordinate squares summed left to right and rooted."""
    from nashnet import metrics
    states = np.array(rows)
    with np.errstate(over="ignore"):  # differences, squares and sums past 1e308
        assert metrics._pairwise_max(states).tobytes() == pairwise_disagreement(states).tobytes()


def test_squared_distance_is_the_reference_sum():
    """The Nash error's per-k sums, squared in place, keep every bit of
    ``((states - ref) ** 2).sum(axis=(1, 2))``."""
    from nashnet import metrics
    rng = np.random.default_rng(6)
    states, ref = rng.normal(size=(11, 4, 3)), rng.normal(size=3)
    whole = ((states - ref) ** 2).sum(axis=(1, 2))
    assert metrics._squared_distance(states, ref).tobytes() == whole.tobytes()


def test_metrics_at_exact_consensus_fixed_point():
    """A trace sitting at consensus on the reference saddle scores zero."""
    s = bundled_scenario("shared_saddle")
    tr = run(dataclasses.replace(s, iterations=3))
    x = np.full_like(tr.x, 1.0)
    y = np.full_like(tr.y, -0.5)
    still = dataclasses.replace(tr, x=x, y=y)
    ref = SaddleReport((1.0,), (-0.5,), 0.0, 0.0, 0)
    m = compute_metrics(still, s, ref)
    assert np.all(m.h1 == 0) and np.all(m.h2 == 0)
    assert np.all(m.nash_error == 0)
    np.testing.assert_allclose(m.saddle_residual, 0.0, atol=1e-12)
