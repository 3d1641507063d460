"""Scenario files, bundled scenarios, and CSV serialization."""

import copy
import io
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_reference import subnet1_objectives, subnet2_objectives
from nashnet.catalog import CATALOG
from nashnet.digraph import build_cycle_matrix
from nashnet.engine import Trace, run
from nashnet.errors import ParseError, ValidationError
from nashnet.exprs import format_expr
from nashnet.metrics import MetricsSeries, compute_metrics
from nashnet.saddle import SaddleReport
from nashnet import scenario_io
from nashnet.scenario_io import (BUNDLED, bundled_scenario, load_scenario,
                                 loads_scenario, metrics_to_csv,
                                 plotdata_to_csv, report_to_csv, save_scenario,
                                 scenario_to_doc, sweep_summary_to_csv,
                                 trace_to_csv)
from nashnet.stepsizes import (AdaptivePeriodic, Homogeneous,
                               OracleHeterogeneous)


def test_bundled_example1_matches_published_setup():
    s = bundled_scenario("example1")
    g = s.graph
    np.testing.assert_allclose(g.a1[0], [[0.6, 0.4, 0], [0.4, 0.6, 0], [0, 0, 1]])
    np.testing.assert_allclose(g.a1[1], [[1, 0, 0], [0, 0.7, 0.3], [0, 0.3, 0.7]])
    np.testing.assert_allclose(g.a2[0], [[0.9, 0.1], [0.1, 0.9]])
    assert isinstance(s.rule, Homogeneous)
    # gamma_k = 1 / (k + 50)
    assert s.rule.schedule.value(0) == pytest.approx(1 / 50)
    assert s.rule.schedule.value(10) == pytest.approx(1 / 60)
    np.testing.assert_allclose(s.x0.ravel(), [2.0, -0.5, -1.5])
    np.testing.assert_allclose(s.y0.ravel(), [1.0, 0.5])
    assert [e for e, _ in s.objectives1] == [e for e, _ in subnet1_objectives()]
    assert [e for e, _ in s.objectives2] == [e for e, _ in subnet2_objectives()]


def test_bundled_rules():
    assert isinstance(bundled_scenario("example2").rule, OracleHeterogeneous)
    r3 = bundled_scenario("example3").rule
    assert isinstance(r3, AdaptivePeriodic) and r3.p1 == 2 and r3.p2 == 2
    with pytest.raises(ValidationError):
        bundled_scenario("example9")


def test_example2_rule_carries_published_limit_vectors():
    r = bundled_scenario("example2").rule
    np.testing.assert_allclose(r.phi1[0], [0.5336, 0.3408, 0.1256], atol=1e-4)
    np.testing.assert_allclose(r.phi1[1], [0.5336, 0.1525, 0.3139], atol=1e-4)
    np.testing.assert_allclose(r.phi2[0], [0.8889, 0.1111], atol=1e-4)


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
    import dataclasses
    from nashnet.exprs import compile_objective, parse_expr
    s = bundled_scenario("shared_saddle")
    e = parse_expr("(add (mul x0 -0.0) (neg (abs y0)) (scale -0.0 y0))")
    s = dataclasses.replace(s, objectives1=((e, {0: -0.0}),) * s.n1,
                            objectives2=((e, {0: -0.0}),) * s.n2)
    save_scenario(s, tmp_path / "z.yaml")
    s2 = load_scenario(tmp_path / "z.yaml")
    for e2, sel2 in s2.objectives1 + s2.objectives2:
        assert format_expr(e2) == format_expr(e) and str(sel2[0]) == "-0.0"
        value = compile_objective(e2, sel2, 1, 1, which="value")([1.0], [0.0])
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


CONCAVITY_F1 = "concavity in y violated on sample by 4.088e+01"
EXAMPLE_WARNINGS = (f"subnet1[0]: {CONCAVITY_F1}",
                    "subnet2[0]: concavity in y violated on sample by 3.335e+00",
                    "subnet2[1]: concavity in y violated on sample by 1.149e+01")


@pytest.mark.parametrize("name, expected", [
    ("example1", EXAMPLE_WARNINGS), ("example2", EXAMPLE_WARNINGS),
    ("example3", EXAMPLE_WARNINGS), ("perron_weighted", ()), ("shared_saddle", ())])
def test_bundled_warnings_pinned(name, expected):
    assert bundled_scenario(name).warnings == expected


def _many_agents_doc(seed, agents):
    """Catalog f1, f2, f3 assigned cyclically in both subnetworks on +-5
    boxes, a seeded cycle matrix then the identity, agent i of each side
    observing agent i of the other."""
    rng = np.random.default_rng(seed)

    def cycle():
        mu = rng.uniform(1.0, 2.0, agents)
        return build_cycle_matrix(mu / mu.sum()).tolist()

    block = [{"expr": format_expr(CATALOG[f"f{i % 3 + 1}"].expr),
              "selections": dict(CATALOG[f"f{i % 3 + 1}"].selection)} for i in range(agents)]
    eye, cross = np.eye(agents).tolist(), [[i, i, 1.0] for i in range(agents)]
    return {
        "meta": {"name": f"many_agents_{seed}"}, "dimensions": {"m1": 1, "m2": 1},
        "boxes": {"x": {"lower": [-5.0], "upper": [5.0]}, "y": {"lower": [-5.0], "upper": [5.0]}},
        "agents": {"subnet1": block, "subnet2": block},
        "graph": {"eta": 0.1, "period": 2, "windows": {"t1": 2, "t2": 2, "t_cross": 1},
                  "phases": [{"a1": cycle(), "a2": cycle(), "cross_to_1": cross, "cross_to_2": cross},
                             {"a1": eye, "a2": eye, "cross_to_1": cross, "cross_to_2": cross}]},
        "stepsize": {"variant": "homogeneous", "gamma": {"c": 1.0, "b": 50.0, "eps": 0.5}},
        "initial": {"x": rng.uniform(-4, 4, (agents, 1)).tolist(),
                    "y": rng.uniform(-4, 4, (agents, 1)).tolist()},
        "run": {"iterations": 2000}}


def test_many_agents_warnings_pinned():
    """Every f1 agent (i = 0 mod 3) of the 100 + 100 agent document loses
    concavity in y on the sample, by the same amount as example1's."""
    text = yaml.dump(_many_agents_doc(1, 100), sort_keys=False,
                     Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    s = loads_scenario(text)
    assert len(s.warnings) == 68
    assert s.warnings == tuple(f"subnet{side}[{i}]: {CONCAVITY_F1}"
                               for side in (1, 2) for i in range(0, 100, 3))


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
    ("example2", lambda d: d["graph"]["phases"][0]["cross_to_1"].append([-1, 0, 1.0]), "missing agent"),
    ("example2", lambda d: d["graph"]["phases"][1]["cross_to_2"].append([0, 5, 1.0]), "missing agent"),
    ("example2", lambda d: d["graph"]["windows"].update(t1=0), "windows"),
    ("example2", _isolate_agent_0, "strongly connected"),
    ("example3", lambda d: d["stepsize"].update(p1=0), "p1"),
    ("example2", lambda d: d["graph"].update(eta=-0.5), r"eta=-0\.5 must lie in \(0, 1\]"),
    ("example2", lambda d: d["graph"].update(eta=0.0), "eta"),
    ("example2", lambda d: d["graph"].update(eta=1.5), "eta"),
    ("example2", lambda d: d["graph"].update(eta=float("nan")), "eta"),
    ("example1", lambda d: d["agents"]["subnet2"][0].update(expr="(sub x0 (pow y1 2))", selections={}),
     "dimensions"),
    ("example1", lambda d: d["boxes"]["y"].update(upper=[float("nan")]), "NaN"),
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
    ("shared_saddle", lambda d: d["dimensions"].update(m1=1.5), "dimensions.m1"),
    ("shared_saddle", lambda d: d["graph"].update(period=2.9), "graph.period"),
    ("shared_saddle", lambda d: d["graph"]["windows"].update(t_cross=1.5), "windows.t_cross"),
    ("shared_saddle", lambda d: d["graph"]["phases"][0]["cross_to_1"].append([0, 0.5, 1.0]),
     "cross edge target"),
    ("example3", lambda d: d["stepsize"].update(p1=1.5), "stepsize.p1"),
    ("example1", lambda d: d["agents"]["subnet1"][1].update(selections={True: 1.0}),
     "selection key must be a whole number, got True"),
    ("shared_saddle", lambda d: d["stepsize"]["gamma"].update(c=float("nan")), "finite c > 0"),
    ("shared_saddle", lambda d: d["stepsize"]["gamma"].update(b=float("inf")), "finite c > 0"),
    ("shared_saddle", lambda d: (d["stepsize"].update(gamma={"table": [1.0, float("nan")] + [0.5] * 3}),
                                 d["run"].update(iterations=5)), "positive and finite"),
], ids=["negative cross index", "cross index past the end", "zero window",
        "oracle rule on a disconnected graph", "zero learner period",
        "negative weight floor", "zero weight floor", "weight floor above one",
        "NaN weight floor", "objective beyond the dimensions", "NaN box bound",
        "infinite constant", "infinite scale factor", "NaN affine coefficient",
        "saddle reference of the wrong length", "saddle reference not a number",
        "saddle reference without y_star", "NaN saddle reference",
        "fractional iterations", "boolean iterations", "fractional dimension",
        "fractional period", "fractional window", "fractional cross index",
        "fractional learner period", "boolean selection key", "NaN gamma c",
        "infinite gamma b", "NaN schedule table entry"])
def test_loader_rejects_unusable_documents(name, edit, message):
    """Each of these once loaded into a wrong matrix, spun in the limit-vector
    search, or crashed a later command; now the load fails, with or without
    the assumption checks."""
    doc = copy.deepcopy(BUNDLED_DOCS[name])
    edit(doc)
    for check in (True, False):
        with pytest.raises(ValidationError, match=message):
            loads_scenario(yaml.safe_dump(doc, sort_keys=False), check_assumptions=check)


def test_loader_takes_integral_floats():
    doc = copy.deepcopy(BUNDLED_DOCS["shared_saddle"])
    doc["dimensions"]["m1"], doc["graph"]["period"], doc["run"]["iterations"] = 1.0, 2.0, 1e5
    doc["graph"]["phases"][0]["cross_to_1"][0] = [0.0, 0.0, 1.0]
    s = loads_scenario(yaml.safe_dump(doc, sort_keys=False))
    assert (s.m1, s.graph.period, s.iterations, s.graph.cross1[0][0, 0]) == (1, 2, 100000, 1.0)


def test_trace_csv_roundtrip():
    """17 significant digits reimport every state and stepsize exactly."""
    s = bundled_scenario("shared_saddle")
    tr = run(s, iterations=25)
    lines = trace_to_csv(tr, s.m1, s.m2).splitlines()
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
    assert trace_to_csv(trace, 2, 1) == (
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
    assert plotdata_to_csv(trace, None) == header + "".join(states)
    assert plotdata_to_csv(trace, metrics) == header + "".join(
        s + e for s, e in zip(states, errors))


def test_metrics_csv_schema():
    s = bundled_scenario("shared_saddle")
    tr = run(s, iterations=10)
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
    tr = run(s, iterations=5)
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
    tr = run(s, iterations=iterations)
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
    tr = run(s, iterations=iterations)
    m = compute_metrics(tr, s, SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0))
    return tr, m, s.m1, s.m2


@pytest.mark.parametrize("make, chunk", [
    (lambda: _shared_saddle_run(0), None),
    (lambda: _shared_saddle_run(7), 40),
    (lambda: _shared_saddle_run(3300), None),
    (lambda: (*_padded_run(), 2, 1), 12),
], ids=["K = 0", "odd chunk count, two-row chunks", "odd metrics chunk count",
        "padded layout, one-row chunks"])
def test_csv_bytes_do_not_depend_on_the_share_count(make, chunk, monkeypatch):
    """However many chunks share a CSV's values (CSV_CHUNK at the case's
    size, at 1 and at 7), every writer returns the text one `%` call over
    the whole template writes, and streams it into a file object given as
    `out`. Chunk boundaries fall inside the trace's per-agent templates and
    before its separate last-row part."""
    trace, metrics, m1, m2 = make()

    def texts(*streams):
        return (trace_to_csv(trace, m1, m2, *streams[:1]), metrics_to_csv(metrics, *streams[1:2]),
                plotdata_to_csv(trace, metrics, *streams[2:]))

    with monkeypatch.context() as m:
        m.setattr(scenario_io, "_layout", lambda template: None)
        m.setattr(scenario_io, "CSV_CHUNK", 1 << 40)
        want = texts()
    real, calls = scenario_io._format_g, []
    monkeypatch.setattr(scenario_io, "_format_g", lambda v: calls.append(len(v)) or real(v))
    for size in (chunk or scenario_io.CSV_CHUNK, 1, 7):
        monkeypatch.setattr(scenario_io, "CSV_CHUNK", size)
        assert texts() == want
        streams = [io.StringIO() for _ in want]
        written = texts(*streams)
        assert tuple(s.getvalue() for s in streams) == want
        assert [len(w) for w in written] == [len(t) for t in want]
    assert sum(calls) > 0  # the writers' templates take the vectorised path


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
    for template in (f"{scenario_io.FLOAT_FMT}\n", f"{scenario_io.FLOAT_FMT},k=1,\n"):
        block = np.array(values)[:, None]
        assert (scenario_io._format_chunk(template, [block], 0, len(values))
                == (template * len(values)) % tuple(values))


def test_format_g_next_to_powers_of_ten():
    """Powers of ten and their neighbours, where log10 may misplace the
    exponent, and the ends of the double range, read as `%` writes them."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
    values = np.concatenate([values, -values])
    template = f"{scenario_io.FLOAT_FMT}\n"
    assert (scenario_io._format_chunk(template, [values[:, None]], 0, len(values))
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
                  st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_INTS, _DOUBLES), min_size=1, max_size=30))
def test_format_chunk_matches_percent_for_ints(rows):
    """A %d cell arrives as a float64, which `%` truncates toward zero:
    float-typed, negative, fractional and 2**53-or-larger values read as
    `%` writes them, and values beyond int64 send the chunk to `%` whole."""
    template = f"%d,{scenario_io.FLOAT_FMT}\n"
    block = np.array(rows)
    assert (scenario_io._format_chunk(template, [block[:, :1], block[:, 1:]], 0, len(rows))
            == (template * len(rows)) % tuple(block.ravel().tolist()))


def test_unproven_values_fall_back_to_percent(monkeypatch):
    """With PROOF_MARGIN at 1 no %.17g value is proven, so each goes through
    the chunk's one batched `%` call; the writers' bytes do not move."""
    cases = [_shared_saddle_run(40), (*_padded_run(), 2, 1)]
    want = [(trace_to_csv(t, m1, m2), metrics_to_csv(m), plotdata_to_csv(t, m))
            for t, m, m1, m2 in cases]
    block = np.random.default_rng(7).normal(size=(1000, 1))
    text = scenario_io._format_chunk("%.17g\n", [block], 0, 1000)
    monkeypatch.setattr(scenario_io, "PROOF_MARGIN", 1.0)
    assert scenario_io._format_chunk("%.17g\n", [block], 0, 1000) == text
    assert [(trace_to_csv(t, m1, m2), metrics_to_csv(m), plotdata_to_csv(t, m))
            for t, m, m1, m2 in cases] == want


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
        assert (scenario_io._format_chunk(template, [block], 0, 2)
                == (template * 2) % tuple(block.ravel().tolist()))
    with pytest.raises(TypeError, match="not all arguments converted"):
        scenario_io._format_chunk("%.17g\n", [block], 0, 2)
    with pytest.raises(ValueError, match="NaN"):
        scenario_io._format_chunk("%d\n", [np.array([[np.nan]])], 0, 1)


def test_one_chunk_stays_under_2_mb():
    """Formatting one full chunk of a bundled trace CSV peaks below 2 MB of
    traced allocations, its text included."""
    import tracemalloc
    trace, _, m1, m2 = _shared_saddle_run(3000)
    out = io.StringIO()
    trace_to_csv(trace, m1, m2, out)  # builds the lookup tables
    peaks = []
    real = scenario_io._format_chunk

    def traced(*chunk):
        tracemalloc.start()
        try:
            return real(*chunk)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    scenario_io._format_chunk = traced
    try:
        trace_to_csv(trace, m1, m2, io.StringIO())
    finally:
        scenario_io._format_chunk = real
    assert len(peaks) > 2 and max(peaks) < 2e6


def test_metrics_series_contracts():
    s = bundled_scenario("shared_saddle")
    tr = run(s, iterations=30)
    ref = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
    m = compute_metrics(tr, s, ref)
    assert len(m.h1) == len(m.h2) == len(m.nash_error) == 31
    with pytest.raises(ValueError):
        compute_metrics(tr, s, SaddleReport((0.0, 0.0), s.oracle_y, 0.0, 0.0, 0))


def test_pairwise_max_is_chunk_independent(monkeypatch):
    """Chunking over k leaves every per-k reduction, and so every bit, as
    the one-shot computation has it."""
    from nashnet import metrics
    states = np.random.default_rng(5).normal(size=(11, 4, 3))
    diff = states[:, :, None, :] - states[:, None, :, :]
    whole = np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
    for rows in (1, 3, 11, 20):  # chunks of `rows` iterations, one spans all
        monkeypatch.setattr(metrics, "PAIRWISE_CHUNK", rows * 4 * 4 * 3)
        assert metrics._pairwise_max(states).tobytes() == whole.tobytes()


def test_squared_distance_is_chunk_independent(monkeypatch):
    """The Nash error's per-k sums, chunked over k, keep every bit of the
    one-shot ``((states - ref) ** 2).sum(axis=(1, 2))``."""
    from nashnet import metrics
    rng = np.random.default_rng(6)
    states, ref = rng.normal(size=(11, 4, 3)), rng.normal(size=3)
    whole = ((states - ref) ** 2).sum(axis=(1, 2))
    for rows in (1, 3, 11, 20):
        monkeypatch.setattr(metrics, "PAIRWISE_CHUNK", rows * 4 * 3)
        assert metrics._squared_distance(states, ref).tobytes() == whole.tobytes()


def test_metrics_at_exact_consensus_fixed_point():
    """A trace sitting at consensus on the reference saddle scores zero."""
    import dataclasses
    s = bundled_scenario("shared_saddle")
    tr = run(s, iterations=3)
    x = np.full_like(tr.x, 1.0)
    y = np.full_like(tr.y, -0.5)
    still = dataclasses.replace(tr, x=x, y=y)
    ref = SaddleReport((1.0,), (-0.5,), 0.0, 0.0, 0)
    m = compute_metrics(still, s, ref)
    assert np.all(m.h1 == 0) and np.all(m.h2 == 0)
    assert np.all(m.nash_error == 0)
    np.testing.assert_allclose(m.saddle_residual, 0.0, atol=1e-12)
