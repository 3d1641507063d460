"""The network dynamics: single-step semantics, the generated run loop,
and their bit-for-bit equivalence."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from hypothesis import given, settings
from hypothesis import strategies as st

import nashnet
from canonical_reference import (affine, contact_times, evaluate, gamma, initial_state,
                                 make_identical_scenario, many_agents_doc, neg, project,
                                 reference_run, scale, step, stepsize_for, subgradient_x,
                                 subgradient_y)
from nashnet import engine
from nashnet.digraph import GraphSequenceSpec
from nashnet.engine import Scenario, _contact_pattern, _kernel_source, run
from nashnet.errors import NumericError, ResourceError, ValidationError
from nashnet.exprs import Abs, BoxSet, Pow, Prod, Sum, Var, abs_nodes
from nashnet.scenario_io import BUNDLED, bundled_scenario, loads_scenario
from nashnet.stepsizes import (GammaSchedule, StepsizeRule, distinct_columns,
                               learner_readouts, stepsize_tables)

BOX5 = BoxSet((-5.0,), (5.0,))
SCHED = GammaSchedule(c=1.0, b=1.0, eps=0.5)


def toy_identical(iterations=50):
    e = Sum((Pow(Var("x", 0), 2), neg(Pow(Var("y", 0), 2))))
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    return make_identical_scenario(
        objectives=[(e, {}), (e, {})], a_seq=(A,),
        box_x=BOX5, box_y=BOX5, rule=StepsizeRule("homogeneous", SCHED),
        x0=[[2.0], [-1.0]], y0=[[1.0], [3.0]], iterations=iterations)


def test_scenario_validation():
    s = toy_identical()
    with pytest.raises(ValidationError):
        dataclasses.replace(s, objectives1=s.objectives1[:1])
    with pytest.raises(ValidationError, match="initial states must be n1 x m1"):
        dataclasses.replace(s, box_x=BoxSet((-1.0, -1.0), (1.0, 1.0)))
    # the block dimensions are the boxes', never declared beside them
    assert not {"m1", "m2"} & {f.name for f in dataclasses.fields(Scenario)}
    assert (s.m1, s.m2) == (s.box_x.dim, s.box_y.dim) == (1, 1)
    with pytest.raises(ValidationError):
        dataclasses.replace(s, x0=np.array([[np.inf], [0.0]]))


def test_initial_state_and_trace_shapes():
    s = toy_identical(iterations=10)
    st = initial_state(s)
    assert st.k == 0
    np.testing.assert_allclose(st.x, s.x0)
    assert (st.contact_x == -1).all()
    tr = run(s)
    assert tr.x.shape == (11, 2, 1)
    assert tr.alpha.shape == (10, 2)
    assert tr.iterations == 10
    np.testing.assert_allclose(tr.x[0], s.x0)


def test_single_step_semantics():
    s = toy_identical()
    st = initial_state(s)
    a = np.full(2, gamma(SCHED, 0))
    st1 = step(st, s, a, a)
    # mixing averages both agents to 0.5 (x) and 2.0 (y); cross cache takes
    # the counterpart's time-0 value; then one projected subgradient step
    g0 = gamma(SCHED, 0)
    np.testing.assert_allclose(st1.x[:, 0], [0.5 - g0 * 2 * 0.5] * 2)
    # ascent in y: y + g * (-2 y)
    np.testing.assert_allclose(st1.y[:, 0], [2.0 - g0 * 2 * 2.0] * 2)
    assert (st1.contact_x == 0).all()
    assert st1.k == 1


def test_projection_keeps_states_in_box():
    s = toy_identical(iterations=200)
    big = dataclasses.replace(
        s, rule=StepsizeRule("homogeneous", GammaSchedule(c=50.0, b=1.0, eps=0.5)))
    tr = run(big)
    assert tr.x.min() >= -5.0 and tr.x.max() <= 5.0
    assert tr.y.min() >= -5.0 and tr.y.max() <= 5.0


@pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                  "perron_weighted", "shared_saddle"])
def test_run_equals_repeated_step(name):
    """The generated loop and the reference single-step path agree bit for
    bit."""
    scenario = bundled_scenario(name)
    K = 40
    _assert_run_matches_reference(scenario, run(dataclasses.replace(scenario, iterations=K)), K)


def _assert_bits_equal(got, want):
    """Equal as IEEE bit patterns: -0.0 and 0.0 differ, a NaN equals itself."""
    bits = [np.ascontiguousarray(a, dtype=float).view(np.int64) for a in (got, want)]
    np.testing.assert_array_equal(*bits)


def _assert_run_matches_reference(scenario, tr, K):
    states, alphas, betas = reference_run(scenario, K)
    contact_x, contact_y = _contacts(scenario.graph, K)
    _assert_bits_equal(tr.alpha, np.reshape(alphas, (K, scenario.n1)))
    _assert_bits_equal(tr.beta, np.reshape(betas, (K, scenario.n2)))
    for k, st in enumerate(states):
        _assert_bits_equal(tr.x[k], st.x)
        _assert_bits_equal(tr.y[k], st.y)
        if k:
            np.testing.assert_array_equal(st.contact_x, contact_x[k - 1])
            np.testing.assert_array_equal(st.contact_y, contact_y[k - 1])


def _contacts(graph, K):
    """The (K, n1) and (K, n2) contact clocks the kernel keeps, from the
    contact pattern the kernel is generated from."""
    return tuple(contact_times(p, K) for p in _contact_pattern(graph))


def _random_mixing(rng, n, eta=0.1):
    """Sparse row-stochastic matrix with self-loops on a directed cycle
    (strongly connected), extra arcs at random, positive weights >= eta."""
    A = np.where(rng.random((n, n)) < 0.3, rng.uniform(0.5, 1.0, (n, n)), 0.0)
    A[np.arange(n), np.arange(n)] = rng.uniform(0.5, 1.0, n)
    A[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.0, n)
    A = A / A.sum(axis=1, keepdims=True)
    A[(A > 0) & (A < eta)] = eta
    return A / A.sum(axis=1, keepdims=True)


def _random_cross(rng, n_to, n_from, delayed):
    """Cross weights with empty rows at random; all rows empty if `delayed`."""
    C = np.where(rng.random((n_to, n_from)) < 0.6, rng.uniform(0.5, 1.0, (n_to, n_from)), 0.0)
    C[rng.random(n_to) < 0.3] = 0.0
    if delayed:
        C[:] = 0.0
    sums = C.sum(axis=1, keepdims=True)
    return np.divide(C, sums, out=np.zeros_like(C), where=sums > 0)


def _random_objective(rng, box_x, box_y):
    """sum_d a_d P(x_d - c_d) + b x_0 y_0 + affine(x, y) + sum_d w_d |x_d - k_d|
    - sum_d e_d P(y_d - f_d) - sum_d v_d |y_d - l_d|, where each P is t^2,
    |t|^3 or t^4, each kink k_d, l_d lies on a finite box bound, at 0 or
    inside the box, and each kink selection is drawn from [-1, 1]."""
    def power(side, d, c):
        p = int(rng.integers(2, 5))
        base = Sum((Var(side, d), c))
        return Pow(Abs(base), 3) if p == 3 else Pow(base, p)

    def kink(box, d):
        bounds = [b for b in (box.lower[d], box.upper[d]) if np.isfinite(b)]
        return float(rng.choice(bounds + [0.0, rng.uniform(-1, 1)]))

    m1, m2 = box_x.dim, box_y.dim
    terms = [scale(float(rng.uniform(0.2, 1.0)), power("x", d, float(rng.uniform(-2, 2))))
             for d in range(m1)]
    terms.append(scale(float(rng.uniform(-0.5, 0.5)), Prod((Var("x", 0), Var("y", 0)))))
    terms.append(affine(rng.uniform(-1, 1, m1), rng.uniform(-1, 1, m2), rng.uniform(-1, 1)))
    terms += [scale(float(rng.uniform(0.2, 1.0)), Abs(Sum((Var("x", d), -kink(box_x, d)))))
              for d in range(m1)]
    terms += [neg(scale(float(rng.uniform(0.2, 1.0)), power("y", d, float(rng.uniform(-2, 2)))))
              for d in range(m2)]
    terms += [neg(scale(float(rng.uniform(0.2, 1.0)), Abs(Sum((Var("y", d), -kink(box_y, d))))))
              for d in range(m2)]
    e = Sum(tuple(terms))
    n_abs = len(abs_nodes(e))
    return e, {k: float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])) for k in range(n_abs)}


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 3), n2=st.integers(1, 3), m1=st.integers(1, 3), m2=st.integers(1, 3),
       period=st.integers(1, 3), variant=st.sampled_from(
           ["homogeneous", "oracle_heterogeneous", "adaptive_common", "adaptive_periodic"]),
       infinite_side=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_run_equals_reference_on_random_scenarios(n1, n2, m1, m2, period, variant,
                                                   infinite_side, seed):
    rng = np.random.default_rng(seed)
    a1 = tuple(_random_mixing(rng, n1) for _ in range(period))
    a2 = tuple(_random_mixing(rng, n2) for _ in range(period))
    # the first phase has no cross arcs when there is more than one
    c1 = tuple(_random_cross(rng, n1, n2, ph == 0 and period > 1) for ph in range(period))
    c2 = tuple(_random_cross(rng, n2, n1, ph == 0 and period > 1) for ph in range(period))
    graph = GraphSequenceSpec(a1=a1, a2=a2, cross1=c1, cross2=c2)
    lo_x = rng.uniform(-3, -1, m1)
    if infinite_side:
        lo_x[0] = -np.inf
    box_x = BoxSet(tuple(lo_x), tuple(rng.uniform(1, 3, m1)))
    box_y = BoxSet(tuple(rng.uniform(-3, -1, m2)), tuple(rng.uniform(1, 3, m2)))
    schedule = GammaSchedule(c=float(rng.uniform(0.05, 0.3)), b=10.0, eps=0.5)
    rule = StepsizeRule(variant, schedule)
    K = 12
    scenario = Scenario(
        name="random", objectives1=tuple(_random_objective(rng, box_x, box_y) for _ in range(n1)),
        objectives2=tuple(_random_objective(rng, box_x, box_y) for _ in range(n2)),
        graph=graph, box_x=box_x, box_y=box_y, rule=rule,
        x0=rng.uniform(-4, 4, (n1, m1)), y0=rng.uniform(-4, 4, (n2, m2)), iterations=K)
    _assert_run_matches_reference(scenario, run(scenario), K)


def _openblas_dynamic_arch():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


_DIGEST_SCRIPT = """
import dataclasses, hashlib, json
from nashnet.engine import run
from nashnet.scenario_io import BUNDLED, bundled_scenario, trace_to_csv
digests = {}
for name in BUNDLED:
    s = bundled_scenario(name)
    csv = trace_to_csv(run(dataclasses.replace(s, iterations=20000)))
    digests[name] = hashlib.sha256(csv.encode()).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
def test_trace_bytes_independent_of_blas_kernel():
    """The bundled traces hash the same under OpenBLAS's Prescott kernels as
    under the one it picks for this CPU."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = str(Path(nashnet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def digests(extra):
        out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env={**env, **extra},
                             capture_output=True, text=True, check=True, timeout=600)
        return json.loads(out.stdout)

    assert digests({}) == digests({"OPENBLAS_CORETYPE": "Prescott"})


def _widths(s):
    """The distinct stepsize columns per side that :func:`run` hands the kernel."""
    return tuple(distinct_columns(a).shape[1] for a in stepsize_tables(s.rule, s.graph, 1)(0, 1))


def test_dense_scenario_compiles_and_matches_reference():
    n = 300
    e = Sum((Pow(Var("x", 0), 2), neg(Pow(Var("y", 0), 2))))
    rng = np.random.default_rng(9)
    A = rng.uniform(0.5, 1.0, (n, n))
    s = make_identical_scenario(
        objectives=[(e, {})] * n, a_seq=(A / A.sum(axis=1, keepdims=True),),
        box_x=BOX5, box_y=BOX5, rule=StepsizeRule("homogeneous", SCHED),
        x0=rng.uniform(-4, 4, (n, 1)), y0=rng.uniform(-4, 4, (n, 1)), iterations=2)
    _assert_run_matches_reference(s, run(s), 2)
    # the dense mixing sums are about 6.4M characters; each agent's inlined
    # derivative adds under a hundred
    assert len(_kernel_source(s, _widths(s))) < 6_600_000


def test_run_equals_reference_with_a_bare_product_derivative():
    """d/dx of (y + 0.3) x^2 is the unparenthesized product code
    ``t * (g * 1.0)``: the step must multiply the stepsize by all of it."""
    e = Prod((Sum((Var("y", 0), 0.3)), Pow(Var("x", 0), 2)))
    s = dataclasses.replace(toy_identical(iterations=60), objectives1=((e, {}),) * 2)
    _assert_run_matches_reference(s, run(s), 60)


def test_kernel_inlines_every_derivative():
    """The generated loop calls no objective closure and no sign helper."""
    s = bundled_scenario("example1")
    source = _kernel_source(s, _widths(s))
    for name in ("f0_", "f1_", "_sgn("):
        assert name not in source
    assert source.startswith("def _kernel(k0, k1, state, ia, ib, rec):")


@pytest.mark.parametrize("name", [*BUNDLED, "unbounded"])
def test_kernel_holds_no_arithmetic_that_cannot_move_a_bit(name):
    """No factor 1.0, no addition of a negation, no double negation, no
    box bound by name, no test against an infinite box side and no
    right-hand side computed twice in one agent's step."""
    if name == "unbounded":  # x unbounded below, y on both sides
        s = dataclasses.replace(bundled_scenario("shared_saddle"), box_x=BoxSet((-np.inf,), (5.0,)),
                                box_y=BoxSet((-np.inf,), (np.inf,)))
    else:
        s = bundled_scenario(name)
    source = _kernel_source(s, _widths(s))
    for text in ("1.0 * ", "* 1.0", "+ (-", "(-(-", "lo0", "hi0", "lo1", "hi1", "inf"):
        assert text not in source, text
    if name == "unbounded":
        assert re.search(r"x0_\d+_0 <", source) is None
        assert re.search(r"x1_\d+_0 [<>]", source) is None
        assert re.search(r"x0_\d+_0 > 5\.0:", source)
    seen = set()
    for line in source.splitlines():
        line = line.strip()
        if re.match(r"x\d+_\d+_\d+ = ", line):  # an agent's step ends its block
            seen = set()
        elif (m := re.match(r"t\d+ = (.*)", line)):
            assert m.group(1) not in seen, line
            seen.add(m.group(1))


def test_trace_states_are_views_of_one_buffer():
    s = bundled_scenario("example1")
    tr = run(dataclasses.replace(s, iterations=30))
    assert tr.x.base is not None and tr.x.base is tr.y.base
    assert (tr.y.__array_interface__["data"][0] - tr.x.__array_interface__["data"][0]
            == s.n1 * s.m1 * tr.x.itemsize)


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("values", [1, 7 * 5, 1000])
def test_segments_make_the_whole_run(name, values, monkeypatch):
    """A run handed to a consumer in segments of any length, one iteration
    included, holds the states and stepsizes of the one-segment library
    run byte for byte, in k order; the kernel is generated once, and the
    final segment it returns ends at k = K."""
    s = bundled_scenario(name)
    K = 700
    whole = run(dataclasses.replace(s, iterations=K))
    sources, real = [], engine._kernel_source
    monkeypatch.setattr(engine, "_kernel_source", lambda *args: sources.append(real(*args)) or sources[-1])
    monkeypatch.setattr(engine, "SEGMENT_VALUES", values)
    segments = []
    final = run(dataclasses.replace(s, iterations=K), consumer=segments.append)
    rows = max(1, values // (s.n1 * s.m1 + s.n2 * s.m2))
    assert len(sources) == 1 and final is segments[-1] and final.iterations == K
    assert [g.start for g in segments] == list(range(0, K, rows))
    assert all(len(g.x) == len(g.alpha) for g in segments[:-1]) and len(final.x) == len(final.alpha) + 1
    for field in ("x", "y", "alpha", "beta"):
        joined = np.concatenate([getattr(g, field) for g in segments])
        assert joined.tobytes() == getattr(whole, field).tobytes(), field


def test_zero_iterations_are_one_segment():
    segments = []
    final = run(dataclasses.replace(bundled_scenario("example2"), iterations=0), segments.append)
    assert len(segments) == 1 and segments[0] is final
    assert final.iterations == 0 and len(final.x) == 1


@pytest.mark.parametrize("name, loop", [
    ("example1", "for k, a0_0, a1_0 in zip(range(k0, k1), ia, ib):"),
    ("example2", "for k, a0_0, a0_1, a0_2, a1_0, a1_1 in zip(range(k0, k1), ia, ia, ia, ib, ib):"),
    ("example3", "for k, a0_0, a0_1, a0_2, a1_0, a1_1 in zip(range(k0, k1), ia, ia, ia, ib, ib):"),
], ids=["homogeneous", "oracle", "adaptive"])
def test_kernel_unpacks_one_stepsize_per_distinct_column(name, loop, monkeypatch):
    """The kernel :func:`run` generates unpacks one stepsize per side under
    a homogeneous rule, which every agent's step reads, and one per agent
    under an oracle or adaptive rule."""
    sources, real = [], engine._kernel_source
    monkeypatch.setattr(engine, "_kernel_source", lambda *args: sources.append(real(*args)) or sources[-1])
    run(dataclasses.replace(bundled_scenario(name), iterations=5))
    lines = [ln.strip() for ln in sources[0].splitlines()]
    assert [ln for ln in lines if ln.startswith("for k,")] == [loop]
    steps = set(re.findall(r"\ba[01]_\d+\b", loop))
    assert {a for ln in lines if re.match(r"x[01]_\d+_\d+ = ", ln)
            for a in re.findall(r"\ba[01]_\d+\b", ln)} == steps


def _generated(monkeypatch):
    """The lists the kernel sources and the derivative codes :func:`run`
    generates are appended to."""
    sources, compiles = [], []
    real_source, real_compile = engine._kernel_source, engine.compile_objective
    monkeypatch.setattr(engine, "_kernel_source",
                        lambda *args: sources.append(real_source(*args)) or sources[-1])
    monkeypatch.setattr(engine, "compile_objective",
                        lambda *args, **kw: compiles.append(args[:5]) or real_compile(*args, **kw))
    return sources, compiles


def test_kernel_makes_each_derivative_once_and_each_step_once(monkeypatch):
    """The many-agents scenario holds three objectives on each side, so a
    run makes six derivative codes for its 200 agents. Every agent has a
    cross contact in both phases, so its step is the same in both and is
    written once, after the phase dispatch; the neighbor averages, which
    differ, stay in the branches."""
    s = loads_scenario(yaml.safe_dump(many_agents_doc(1), sort_keys=False))
    sources, compiles = _generated(monkeypatch)
    run(dataclasses.replace(s, iterations=3))
    assert len(compiles) == 6 and len(sources) == 1
    lines = [ln.strip() for ln in sources[0].splitlines()]
    dispatch = lines.index("ph = k % 2")
    for side, n in ((0, s.n1), (1, s.n2)):
        for i in range(n):
            step = f"x{side}_{i}_0 = u{side}_{i}_0 "
            steps = [j for j, ln in enumerate(lines) if ln.startswith(step)]
            assert len(steps) == 1 and steps[0] > dispatch, (side, i)
            assert sum(ln.startswith(f"u{side}_{i}_0 = ") for ln in lines[dispatch:]) == 2


def test_hoisted_and_branch_statements_match_the_reference(monkeypatch):
    """Period 3: mixing rows and cross rows that are the same in every
    phase, and others that are not; an agent whose first cross contact
    falls in phase 1, one in phase 2 and one with none; agents that share
    an objective object, and one that holds it under another selection.
    Shared statements leave the branches, and the run is the reference's
    bit for bit."""
    rng = np.random.default_rng(37)
    box_x, box_y = BoxSet((-2.0, -3.0), (2.0, 1.5)), BoxSet((-2.0,), (2.5,))
    (ea, sa), (eb, sb) = (_random_objective(rng, box_x, box_y) for _ in range(2))
    sa, other = {**sa, 0: 0.0}, {**sa, 0: -0.0}  # equal as dicts, apart in the code
    objectives1 = ((ea, sa), (ea, sa), (eb, sb), (ea, other))
    objectives2 = ((ea, sa), (eb, sb), (eb, sb))

    def mixing(n, shared_rows):
        base = _random_mixing(rng, n)
        return tuple(np.where(np.arange(n)[:, None] < shared_rows, base, _random_mixing(rng, n))
                     for _ in range(3))

    def cross(n_to, n_from, phases_of):
        """Per phase, agent i's row: the same in all phases of its entry
        "all", its own row in each phase it lists, else empty."""
        def row():
            w = rng.uniform(0.5, 1.0, n_from)
            return w / w.sum()

        same = [row() for _ in range(n_to)]
        out = tuple(np.zeros((n_to, n_from)) for _ in range(3))
        for ph, C in enumerate(out):
            for i, phases in enumerate(phases_of):
                if phases == "all" or ph in phases:
                    C[i] = same[i] if phases == "all" else row()
        return out

    graph = GraphSequenceSpec(a1=mixing(4, 2), a2=mixing(3, 1),
                              cross1=cross(4, 3, ["all", (1, 2), (2,), (0, 1, 2)]),
                              cross2=cross(3, 4, ["all", (), (0,)]))
    s = Scenario(name="hoisted", objectives1=objectives1, objectives2=objectives2, graph=graph,
                 box_x=box_x, box_y=box_y, rule=StepsizeRule("homogeneous", SCHED),
                 x0=rng.uniform(-3, 3, (4, 2)), y0=rng.uniform(-3, 3, (3, 1)), iterations=30)
    sources, compiles = _generated(monkeypatch)
    _assert_run_matches_reference(s, run(s), 30)
    assert len(compiles) == 5  # (ea, sa), (eb, sb), (ea, other) in x; (ea, sa), (eb, sb) in y
    lines = [ln.strip() for ln in sources[0].splitlines()]
    dispatch = lines.index("ph = k % 3")

    def where(prefix):
        return [j for j, ln in enumerate(lines) if ln.startswith(prefix)]

    for hoisted in ("u0_0_0 = ", "u0_1_1 = ", "u1_0_0 = ", "c0_0_0 = ", "c1_0_1 = "):
        assert len(where(hoisted)) == 1 and where(hoisted)[0] < dispatch, hoisted
    for held in ("u0_2_0 = ", "u1_2_0 = ", "c0_3_0 = "):
        assert len(where(held)) == 3 and where(held)[0] > dispatch, held
    for before, after in (("c0_1_0 = ", 2), ("c0_2_0 = ", 1), ("c1_2_0 = ", 1), ("c1_1_0 = ", 0)):
        assert len(where(before)) == after, before
    assert len(where("x0_0_0 = u0_0_0 ")) == 1 and where("x0_0_0 = u0_0_0 ")[0] > dispatch
    assert len(where("if k > 1:")) == 1 and len(where("if k > 2:")) == 2
    assert len(where("x1_1_0 = u1_1_0")) == 1  # never in contact: its mixing step alone


def test_many_agents_kernel_generation_peak_memory():
    """Generating and compiling the many-agents kernel, one iteration's run,
    peaks below 8 MB of tracemalloc allocations above what the loaded
    scenario holds: 10.08 MB when every agent's derivative was made and
    every step written per phase, 6.00 MB with each made once."""
    import tracemalloc
    text = yaml.safe_dump(many_agents_doc(1), sort_keys=False)
    tracemalloc.start()
    try:
        s = loads_scenario(text)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(dataclasses.replace(s, iterations=1))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_run_peak_memory_is_the_states_it_returns():
    """engine.run peaks below 1.6 times the bytes of the states it returns
    plus 1.1 times those of its materialised stepsize tables; a broadcast
    view (agent stride 0) counts as none. So a homogeneous run reads its
    gamma column without a K x n copy (example1: two such copies would
    add 1.0 x states), and an adaptive one keeps no K x n table beside
    alpha and beta (example3 peaked at 1.60 x (states + tables) while its
    trace held the learner readouts, 1.15 x without). From 20k iterations
    on the ratios hardly move (example1: 1.40 x states there, 1.36 at
    100k, which tracemalloc makes five times slower to run)."""
    import tracemalloc
    for name in ("example1", "example2", "example3"):
        s = bundled_scenario(name)
        run(dataclasses.replace(s, iterations=10))  # first-call caches
        s = dataclasses.replace(s, iterations=20_000)
        tracemalloc.start()
        try:
            tr = run(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = tr.x.nbytes + tr.y.nbytes
        tables = sum(a.nbytes for a in (tr.alpha, tr.beta) if a.strides[1])
        assert peak < 1.6 * states + 1.1 * tables, (name, peak, states, tables)


def test_recorded_stepsizes_match_rule():
    scenario = bundled_scenario("example2")
    tr = run(dataclasses.replace(scenario, iterations=20))
    for k in (0, 1, 7, 19):
        for i in range(scenario.n1):
            assert tr.alpha[k, i] == pytest.approx(
                stepsize_for(scenario.rule, i, 1, k, graph=scenario.graph), rel=1e-12)
        for i in range(scenario.n2):
            assert tr.beta[k, i] == pytest.approx(
                stepsize_for(scenario.rule, i, 2, k, graph=scenario.graph), rel=1e-12)


def test_consensus_only_before_first_cross_contact():
    s = toy_identical(iterations=4)
    g = s.graph
    # push the cross layer to phase 1 of a period-2 sequence
    delayed = dataclasses.replace(
        g, a1=g.a1 * 2, a2=g.a2 * 2,
        cross1=(np.zeros((2, 2)), np.eye(2)),
        cross2=(np.zeros((2, 2)), np.eye(2)))
    s2 = dataclasses.replace(s, graph=delayed)
    tr = run(s2)
    # step 0 has no cross arcs: pure averaging, no subgradient move
    np.testing.assert_allclose(tr.x[1][:, 0], [0.5, 0.5])
    np.testing.assert_allclose(tr.y[1][:, 0], [2.0, 2.0])
    contact_x, _ = _contacts(delayed, tr.iterations)
    assert (contact_x[0] == -1).all()
    assert (contact_x[1] == 1).all()


def test_stale_cross_observations_reused():
    """With cross arcs only at even times, odd steps reuse the cached mix."""
    s = toy_identical(iterations=6)
    g = s.graph
    intermittent = dataclasses.replace(
        g, a1=g.a1 * 2, a2=g.a2 * 2,
        cross1=(np.eye(2), np.zeros((2, 2))),
        cross2=(np.eye(2), np.zeros((2, 2))))
    tr = run(dataclasses.replace(s, graph=intermittent))
    contact_x, _ = _contacts(intermittent, tr.iterations)
    assert (contact_x[1] == 0).all()  # step 1 still uses the k=0 snapshot
    assert (contact_x[2] == 2).all()


def test_nonfinite_state_raises_numeric_error():
    # an unprojected blow-up: gigantic constant stepsizes on a cubic-growth
    # gradient cannot overflow inside a box, so widen the box to infinity
    e = Sum((Pow(Var("x", 0), 4), neg(Pow(Var("y", 0), 2))))
    box = BoxSet((-np.inf,), (np.inf,))
    s = make_identical_scenario(
        objectives=[(e, {}), (e, {})], a_seq=(np.full((2, 2), 0.5),),
        box_x=box, box_y=box,
        rule=StepsizeRule("homogeneous", GammaSchedule(c=1e200)),
        x0=[[1e100], [1e100]], y0=[[0.0], [0.0]], iterations=50)
    with pytest.raises(NumericError):
        run(s)


def test_value_overflow_alone_leaves_the_run_finite():
    """The engine computes derivatives only: x^4 overflows at the box edge
    x = 1e81 while its derivative 4e243 does not, so the run, and the
    reference, go on and agree bit for bit."""
    e = Sum((Pow(Var("x", 0), 4), neg(Pow(Var("y", 0), 2))))
    with pytest.raises(OverflowError):
        evaluate(e, [1e81], [0.0])
    box = BoxSet((-1e81,), (1e81,))
    s = dataclasses.replace(toy_identical(iterations=20), objectives1=((e, {}),) * 2,
                            objectives2=((e, {}),) * 2, box_x=box, box_y=box,
                            x0=np.array([[1e80], [1e80]]))
    tr = run(s)
    assert (np.abs(tr.x[1:]) == 1e81).all()  # bouncing between the box edges
    _assert_run_matches_reference(s, tr, 20)


def test_identical_scenario_matches_centralized_recursion():
    """One-agent subnetworks with identity mixing reduce to the plain
    centralized descent-ascent recursion."""
    e = Sum((Pow(Sum((Var("x", 0), neg(0.7))), 2), neg(Pow(Var("y", 0), 2))))
    s = make_identical_scenario(
        objectives=[(e, {})], a_seq=(np.eye(1),),
        box_x=BOX5, box_y=BOX5, rule=StepsizeRule("homogeneous", SCHED),
        x0=[[3.0]], y0=[[2.0]], iterations=100)
    tr = run(s)
    x, y = np.array([3.0]), np.array([2.0])
    for k in range(100):
        g = gamma(SCHED, k)
        nx = project(x - g * subgradient_x(e, x, y), BOX5)
        y = project(y + g * subgradient_y(e, x, y), BOX5)
        x = nx
        assert tr.x[k + 1, 0, 0] == pytest.approx(x[0], abs=1e-12)
        assert tr.y[k + 1, 0, 0] == pytest.approx(y[0], abs=1e-12)


def test_zero_iterations():
    s = toy_identical(iterations=0)
    tr = run(s)
    assert tr.x.shape == (1, 2, 1)
    assert tr.alpha.shape == (0, 2)


def test_iteration_count_validated():
    """K has one check, at every entry point: a whole number (any integer
    type, or a float without a fraction, never a bool) >= 0, and at most
    sys.maxsize // 8, taken as an int."""
    s = toy_identical(iterations=4)
    entries = (lambda K: dataclasses.replace(s, iterations=K),
               lambda K: GammaSchedule().values(K),
               lambda K: stepsize_tables(s.rule, s.graph, K),
               lambda K: learner_readouts(s.graph.a1, (0,), K))
    for entry in entries:
        for K in (2.5, True, "3", float("nan"), float("inf"), -1):
            with pytest.raises(ValidationError, match="iterations must be"):
                entry(K)
        with pytest.raises(ResourceError):
            entry(sys.maxsize // 8 + 1)
    for K in (3.0, np.int64(3)):
        s3 = dataclasses.replace(s, iterations=K)
        assert type(s3.iterations) is int
        assert run(s3).iterations == 3
