"""Scenario files, bundled scenarios, and CSV serialization."""

import numpy as np
import pytest

from nashnet.catalog import subnet1_objectives, subnet2_objectives
from nashnet.engine import run
from nashnet.errors import ParseError, ValidationError
from nashnet.metrics import compute_metrics
from nashnet.saddle import SaddleReport
from nashnet.scenario_io import (bundled_scenario, load_scenario,
                                 loads_scenario, metrics_to_csv,
                                 plotdata_to_csv, read_trace_csv,
                                 save_scenario, scenario_to_doc, trace_to_csv)
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


def test_parse_error_carries_location(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("meta: {name: [unclosed\n")
    with pytest.raises(ParseError) as exc:
        load_scenario(p)
    assert "line" in str(exc.value)
    p.write_text("- just\n- a list\n")
    with pytest.raises(ParseError):
        load_scenario(p)


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


def test_trace_csv_roundtrip():
    s = bundled_scenario("shared_saddle")
    tr = run(s, iterations=25)
    text = trace_to_csv(tr, s.m1, s.m2)
    header = text.splitlines()[0]
    assert header == "k,agent,subnet,s0,stepsize"
    back = read_trace_csv(text, s.n1, s.n2, s.m1, s.m2)
    np.testing.assert_array_equal(back.x, tr.x)
    np.testing.assert_array_equal(back.y, tr.y)
    np.testing.assert_array_equal(back.alpha, tr.alpha)
    np.testing.assert_array_equal(back.beta, tr.beta)


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


def test_metrics_series_contracts():
    s = bundled_scenario("shared_saddle")
    tr = run(s, iterations=30)
    ref = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
    m = compute_metrics(tr, s, ref)
    assert len(m.h1) == len(m.h2) == len(m.nash_error) == 31
    assert len(m.step_min) == 30
    assert (m.step_min <= m.step_max).all()
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
