"""The network dynamics: single-step semantics, the generated run loop,
and their bit-for-bit equivalence."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import nashnet
from canonical_reference import (contact_times, evaluate, initial_state,
                                 make_identical_scenario, project, reference_run,
                                 step, stepsize_for, subgradient_x, subgradient_y)
from nashnet.digraph import GraphSequenceSpec
from nashnet.engine import Scenario, _contact_pattern, _kernel_source, run
from nashnet.errors import NumericError, ValidationError
from nashnet.exprs import (Abs, Affine, BoxSet, Neg, Pow, Prod, Scale, Sum,
                           abs_nodes, x_var, y_var)
from nashnet.scenario_io import bundled_scenario
from nashnet.stepsizes import (AdaptiveCommonEigvec, AdaptivePeriodic,
                               GammaSchedule, Homogeneous,
                               oracle_heterogeneous_build)

BOX5 = BoxSet((-5.0,), (5.0,))
SCHED = GammaSchedule(c=1.0, b=1.0, eps=0.5)


def toy_identical(iterations=50):
    e = Sum((Pow(x_var(0), 2), Neg(Pow(y_var(0), 2))))
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    return make_identical_scenario(
        objectives=[(e, {}), (e, {})], a_seq=(A,), eta=0.5, t1=1,
        box_x=BOX5, box_y=BOX5, rule=Homogeneous(SCHED),
        x0=[[2.0], [-1.0]], y0=[[1.0], [3.0]], iterations=iterations)


def test_scenario_validation():
    s = toy_identical()
    with pytest.raises(ValidationError):
        dataclasses.replace(s, objectives1=s.objectives1[:1])
    with pytest.raises(ValidationError):
        dataclasses.replace(s, box_x=BoxSet((-1.0, -1.0), (1.0, 1.0)))
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
    a = np.full(2, SCHED.value(0))
    st1 = step(st, s, a, a)
    # mixing averages both agents to 0.5 (x) and 2.0 (y); cross cache takes
    # the counterpart's time-0 value; then one projected subgradient step
    g0 = SCHED.value(0)
    np.testing.assert_allclose(st1.x[:, 0], [0.5 - g0 * 2 * 0.5] * 2)
    # ascent in y: y + g * (-2 y)
    np.testing.assert_allclose(st1.y[:, 0], [2.0 - g0 * 2 * 2.0] * 2)
    assert (st1.contact_x == 0).all()
    assert st1.k == 1


def test_projection_keeps_states_in_box():
    s = toy_identical(iterations=200)
    big = dataclasses.replace(
        s, rule=Homogeneous(GammaSchedule(c=50.0, b=1.0, eps=0.5)))
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
    _assert_run_matches_reference(scenario, run(scenario, iterations=K), K)


def _assert_bits_equal(got, want):
    """Equal as IEEE bit patterns: -0.0 and 0.0 differ, a NaN equals itself."""
    bits = [np.ascontiguousarray(a, dtype=float).view(np.int64) for a in (got, want)]
    np.testing.assert_array_equal(*bits)


def _assert_run_matches_reference(scenario, tr, K):
    states, alphas, betas, readouts = reference_run(scenario, K)
    contact_x, contact_y = _contacts(scenario.graph, K)
    _assert_bits_equal(tr.alpha, np.reshape(alphas, (K, scenario.n1)))
    _assert_bits_equal(tr.beta, np.reshape(betas, (K, scenario.n2)))
    if readouts:
        _assert_bits_equal(tr.readout1, readouts[0])
        _assert_bits_equal(tr.readout2, readouts[1])
    else:
        assert tr.readout1 is None and tr.readout2 is None
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
    def power(v, d, c):
        p = int(rng.integers(2, 5))
        base = Sum((v(d), c))
        return Pow(Abs(base), 3) if p == 3 else Pow(base, p)

    def kink(box, d):
        bounds = [b for b in (box.lower[d], box.upper[d]) if np.isfinite(b)]
        return float(rng.choice(bounds + [0.0, rng.uniform(-1, 1)]))

    m1, m2 = box_x.dim, box_y.dim
    terms = [Scale(float(rng.uniform(0.2, 1.0)), power(x_var, d, float(rng.uniform(-2, 2))))
             for d in range(m1)]
    terms.append(Scale(float(rng.uniform(-0.5, 0.5)), Prod((x_var(0), y_var(0)))))
    terms.append(Affine(tuple(rng.uniform(-1, 1, m1)), tuple(rng.uniform(-1, 1, m2)),
                        float(rng.uniform(-1, 1))))
    terms += [Scale(float(rng.uniform(0.2, 1.0)), Abs(Sum((x_var(d), -kink(box_x, d)))))
              for d in range(m1)]
    terms += [Neg(Scale(float(rng.uniform(0.2, 1.0)), power(y_var, d, float(rng.uniform(-2, 2)))))
              for d in range(m2)]
    terms += [Neg(Scale(float(rng.uniform(0.2, 1.0)), Abs(Sum((y_var(d), -kink(box_y, d))))))
              for d in range(m2)]
    e = Sum(tuple(terms))
    n_abs = len(abs_nodes(e))
    return e, {k: float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])) for k in range(n_abs)}


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 3), n2=st.integers(1, 3), m1=st.integers(1, 3), m2=st.integers(1, 3),
       period=st.integers(1, 3), variant=st.sampled_from(["homogeneous", "oracle", "common", "periodic"]),
       infinite_side=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_run_equals_reference_on_random_scenarios(n1, n2, m1, m2, period, variant,
                                                   infinite_side, seed):
    rng = np.random.default_rng(seed)
    a1 = tuple(_random_mixing(rng, n1) for _ in range(period))
    a2 = tuple(_random_mixing(rng, n2) for _ in range(period))
    # the first phase has no cross arcs when there is more than one
    c1 = tuple(_random_cross(rng, n1, n2, ph == 0 and period > 1) for ph in range(period))
    c2 = tuple(_random_cross(rng, n2, n1, ph == 0 and period > 1) for ph in range(period))
    graph = GraphSequenceSpec(n1=n1, n2=n2, period=period, a1=a1, a2=a2, cross1=c1,
                              cross2=c2, eta=0.1, t1=period, t2=period, t_cross=period)
    lo_x = rng.uniform(-3, -1, m1)
    if infinite_side:
        lo_x[0] = -np.inf
    box_x = BoxSet(tuple(lo_x), tuple(rng.uniform(1, 3, m1)))
    box_y = BoxSet(tuple(rng.uniform(-3, -1, m2)), tuple(rng.uniform(1, 3, m2)))
    schedule = GammaSchedule(c=float(rng.uniform(0.05, 0.3)), b=10.0, eps=0.5)
    rule = {"homogeneous": lambda: Homogeneous(schedule),
            "oracle": lambda: oracle_heterogeneous_build(graph, schedule),
            "common": lambda: AdaptiveCommonEigvec(schedule),
            "periodic": lambda: AdaptivePeriodic(schedule, p1=int(rng.integers(1, 4)),
                                                 p2=int(rng.integers(1, 4)))}[variant]()
    K = 12
    scenario = Scenario(
        name="random", m1=m1, m2=m2,
        objectives1=tuple(_random_objective(rng, box_x, box_y) for _ in range(n1)),
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
import hashlib, json
from nashnet.engine import run
from nashnet.scenario_io import BUNDLED, bundled_scenario, trace_to_csv
digests = {}
for name in BUNDLED:
    s = bundled_scenario(name)
    csv = trace_to_csv(run(s, iterations=20000), s.m1, s.m2)
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


def test_dense_scenario_compiles_and_matches_reference():
    n = 300
    e = Sum((Pow(x_var(0), 2), Neg(Pow(y_var(0), 2))))
    rng = np.random.default_rng(9)
    A = rng.uniform(0.5, 1.0, (n, n))
    s = make_identical_scenario(
        objectives=[(e, {})] * n, a_seq=(A / A.sum(axis=1, keepdims=True),),
        eta=0.001, t1=1, box_x=BOX5, box_y=BOX5, rule=Homogeneous(SCHED),
        x0=rng.uniform(-4, 4, (n, 1)), y0=rng.uniform(-4, 4, (n, 1)), iterations=2)
    _assert_run_matches_reference(s, run(s), 2)
    # the dense mixing sums are about 6.4M characters; each agent's inlined
    # derivative adds under a hundred
    assert len(_kernel_source(s, {})) < 6_600_000


def test_run_equals_reference_with_a_bare_product_derivative():
    """d/dx of (y + 0.3) x^2 is the unparenthesized product code
    ``t * (g * 1.0)``: the step must multiply the stepsize by all of it."""
    e = Prod((Sum((y_var(0), 0.3)), Pow(x_var(0), 2)))
    s = dataclasses.replace(toy_identical(iterations=60), objectives1=((e, {}),) * 2)
    _assert_run_matches_reference(s, run(s), 60)


def test_kernel_inlines_every_derivative():
    """The generated loop calls no objective closure and no sign helper."""
    source = _kernel_source(bundled_scenario("example1"), {})
    for name in ("f0_", "f1_", "_sgn("):
        assert name not in source
    assert source.startswith("def _kernel(K, ia, ib, rx, ry):")


def test_recorded_stepsizes_match_rule():
    scenario = bundled_scenario("example2")
    tr = run(scenario, iterations=20)
    for k in (0, 1, 7, 19):
        for i in range(scenario.n1):
            assert tr.alpha[k, i] == pytest.approx(
                stepsize_for(scenario.rule, i, 1, k), rel=1e-12)
        for i in range(scenario.n2):
            assert tr.beta[k, i] == pytest.approx(
                stepsize_for(scenario.rule, i, 2, k), rel=1e-12)


def test_consensus_only_before_first_cross_contact():
    s = toy_identical(iterations=4)
    g = s.graph
    # push the cross layer to phase 1 of a period-2 sequence
    delayed = dataclasses.replace(
        g, period=2, a1=g.a1 * 2, a2=g.a2 * 2,
        cross1=(np.zeros((2, 2)), np.eye(2)),
        cross2=(np.zeros((2, 2)), np.eye(2)), t_cross=2)
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
        g, period=2, a1=g.a1 * 2, a2=g.a2 * 2,
        cross1=(np.eye(2), np.zeros((2, 2))),
        cross2=(np.eye(2), np.zeros((2, 2))), t_cross=2)
    tr = run(dataclasses.replace(s, graph=intermittent))
    contact_x, _ = _contacts(intermittent, tr.iterations)
    assert (contact_x[1] == 0).all()  # step 1 still uses the k=0 snapshot
    assert (contact_x[2] == 2).all()


def test_nonfinite_state_raises_numeric_error():
    # an unprojected blow-up: gigantic constant stepsizes on a cubic-growth
    # gradient cannot overflow inside a box, so widen the box to infinity
    e = Sum((Pow(x_var(0), 4), Neg(Pow(y_var(0), 2))))
    box = BoxSet((-np.inf,), (np.inf,))
    s = make_identical_scenario(
        objectives=[(e, {}), (e, {})], a_seq=(np.full((2, 2), 0.5),),
        eta=0.5, t1=1, box_x=box, box_y=box,
        rule=Homogeneous(GammaSchedule(table=(1e200,) * 50)),
        x0=[[1e100], [1e100]], y0=[[0.0], [0.0]], iterations=50)
    with pytest.raises(NumericError):
        run(s)


def test_value_overflow_alone_leaves_the_run_finite():
    """The engine computes derivatives only: x^4 overflows at the box edge
    x = 1e81 while its derivative 4e243 does not, so the run, and the
    reference, go on and agree bit for bit."""
    e = Sum((Pow(x_var(0), 4), Neg(Pow(y_var(0), 2))))
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
    e = Sum((Pow(Sum((x_var(0), Neg(0.7))), 2), Neg(Pow(y_var(0), 2))))
    s = make_identical_scenario(
        objectives=[(e, {})], a_seq=(np.eye(1),), eta=1.0, t1=1,
        box_x=BOX5, box_y=BOX5, rule=Homogeneous(SCHED),
        x0=[[3.0]], y0=[[2.0]], iterations=100)
    tr = run(s)
    x, y = np.array([3.0]), np.array([2.0])
    for k in range(100):
        g = SCHED.value(k)
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
    s = toy_identical(iterations=4)
    with pytest.raises(ValidationError):
        run(s, iterations=-1)
    with pytest.raises(ValidationError):
        dataclasses.replace(s, iterations=-1)
    table = dataclasses.replace(s, rule=Homogeneous(GammaSchedule(table=(0.1,) * 4)))
    assert run(table).iterations == 4
    with pytest.raises(ValidationError):
        run(table, iterations=5)
    with pytest.raises(ValidationError):
        dataclasses.replace(table, iterations=5)
