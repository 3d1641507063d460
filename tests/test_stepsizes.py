"""Schedules, stepsize rules, and the adaptive learners."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_reference import gamma, phi_readouts, stepsize_for, uncut_learner_readouts
from nashnet.digraph import GraphSequenceSpec, limiting_stochastic_vector, transition_product
from nashnet.engine import run
from nashnet.errors import ValidationError
from nashnet.scenario_io import BUNDLED, bundled_scenario
from nashnet.stepsizes import (GammaSchedule, StepsizeRule, _bank_rows,
                               learner_readouts, oracle_heterogeneous_build,
                               stepsize_tables)


def test_schedule_power_law():
    s = GammaSchedule(c=1.0, b=50.0, eps=0.5)
    g = s.values(101)
    assert g[0] == pytest.approx(1 / 50)
    assert g[100] == pytest.approx(1 / 150)
    with pytest.raises(ValidationError):
        s.values(-1)


def test_schedule_parameter_validation():
    with pytest.raises(ValidationError):
        GammaSchedule(c=-1.0)
    with pytest.raises(ValidationError):
        GammaSchedule(eps=0.0)
    with pytest.raises(ValidationError):
        GammaSchedule(eps=0.6)
    for bad in ({"c": float("nan")}, {"c": float("inf")}, {"b": float("nan")},
                {"b": float("inf")}):
        with pytest.raises(ValidationError, match="finite"):
            GammaSchedule(**bad)
    GammaSchedule(eps=0.5)  # boundary allowed


def test_schedule_rejects_overflowing_gamma_0():
    """gamma_0 = c / b^(1/2 + eps) must be finite; gamma_k falls with k,
    so that covers every k."""
    for kw in ({"b": 1e-320}, {"c": 1e300, "b": 1e-10, "eps": 0.5}):
        with pytest.raises(ValidationError, match="gamma_0"):
            GammaSchedule(**kw)
    assert GammaSchedule(c=1e300, b=1e-5, eps=0.5).values(1)[0] == pytest.approx(1e305)


def test_schedule_values_are_the_values_of_each_k():
    s = GammaSchedule(c=1.3, b=7.0, eps=0.37)
    assert s.values(1000).tolist() == [gamma(s, k) for k in range(1000)]


def test_homogeneous_rule():
    rule = StepsizeRule("homogeneous", GammaSchedule(c=1.0, b=50.0, eps=0.5))
    for agent in range(3):
        assert stepsize_for(rule, agent, 1, 10) == pytest.approx(1 / 60)


def test_oracle_rule_uses_next_start_phase():
    g = bundled_scenario("example2").graph
    rule = StepsizeRule("oracle_heterogeneous", GammaSchedule(c=1.0, b=50.0, eps=0.5))
    # even k: divide by the odd-start vector (0.5336, 0.1525, 0.3139)
    a0 = stepsize_for(rule, 1, 1, 0, graph=g)
    assert a0 == pytest.approx((1 / 50) / 0.15247, rel=1e-3)
    a1 = stepsize_for(rule, 1, 1, 1, graph=g)
    assert a1 == pytest.approx((1 / 51) / 0.34081, rel=1e-3)
    b0 = stepsize_for(rule, 1, 2, 0, graph=g)
    assert b0 == pytest.approx((1 / 50) / (1 / 9), rel=1e-3)


def test_unknown_variant_is_refused():
    with pytest.raises(ValidationError, match="unknown stepsize variant 'oracle'"):
        StepsizeRule("oracle", GammaSchedule())
    rule = StepsizeRule("adaptive_common", GammaSchedule())
    with pytest.raises(ValidationError, match="unknown stepsize variant"):
        dataclasses.replace(rule, variant="periodic")


def test_oracle_run_refuses_a_graph_that_is_only_rooted():
    """Subnet 1 of example1 made [[1, 0, 0], [.5, .5, 0], [.5, 0, .5]] in
    every phase: agent 0 is a root, so the limit vector exists, but it is
    (1, ~0, ~0), and dividing by it gave stepsizes near 1e8. A library run
    under the oracle rule is a ValidationError, as the loader's refusal is."""
    s = bundled_scenario("example1")
    rooted = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])
    g = dataclasses.replace(s.graph, a1=(rooted,) * s.graph.period)
    assert limiting_stochastic_vector(g.a1, 0)[1:].max() < 1e-6
    s = dataclasses.replace(s, graph=g, rule=StepsizeRule("oracle_heterogeneous", s.rule.schedule),
                            iterations=10)
    for call in (lambda: oracle_heterogeneous_build(g), lambda: run(s)):
        with pytest.raises(ValidationError, match="oracle limit vectors exist only on .* "
                                                  "subnet 1 is not within one period"):
            call()


def _diag_bytes(mats, k, s):
    return np.diagonal(transition_product(mats, k, s)).tobytes()


def test_common_learner_rows_are_product_rows():
    """Each agent reads its own diagonal entry of the backward product from
    time 0; the identity it starts from reads 1.0."""
    g = bundled_scenario("perron_weighted").graph
    r = learner_readouts(g.a1, (0,), 7)
    assert r.shape == (7, 3) and r[0].tolist() == [1.0] * 3
    assert r[6].tobytes() == _diag_bytes(g.a1, 5, 0)


def test_periodic_learner_activation_and_readout():
    g = bundled_scenario("example2").graph
    r = learner_readouts(g.a1, (1, 2), 11)
    assert r[0].tolist() == [1.0] * 3  # bank 0 starts at time 1
    assert r[1].tolist() == [1.0] * 3  # bank 1 (k odd) starts at time 2
    assert r[2].tobytes() == g.a1[1].diagonal().tobytes()  # bank 0 after one factor
    # bank 0 (even k) holds the product from time 1 to k-1, bank 1 from time 2
    for k in range(3, 11):
        assert r[k].tobytes() == _diag_bytes(g.a1, k - 1, 1 + k % 2)


def test_periodic_learner_converges_to_oracle_vectors():
    g = bundled_scenario("example2").graph
    phi1, _ = oracle_heterogeneous_build(g)
    r = learner_readouts(g.a1, (1, 2), 202)
    for k in (200, 201):
        target = phi1[(k + 1) % 2]
        assert np.abs(r[k] - target).max() < 1e-8


def test_adaptive_dispatch_requires_learner():
    rule = StepsizeRule("adaptive_periodic", GammaSchedule())
    with pytest.raises(ValueError):
        stepsize_for(rule, 0, 1, 5)
    r = learner_readouts(bundled_scenario("example2").graph.a1, (1, 2), 1)
    assert stepsize_for(rule, 0, 1, 0, readouts=r) == pytest.approx(
        GammaSchedule().values(1)[0])  # fallback denominator 1


def test_adaptive_common_matches_oracle_on_static_graph():
    g = bundled_scenario("perron_weighted").graph
    sched = GammaSchedule()
    rule = StepsizeRule("adaptive_common", sched)
    r = learner_readouts(g.a1, (0,), 301)
    oracle = StepsizeRule("oracle_heterogeneous", sched)
    for agent in range(3):
        got = stepsize_for(rule, agent, 1, 300, readouts=r)
        want = stepsize_for(oracle, agent, 1, 300, graph=g)
        assert got == pytest.approx(want, rel=1e-8)


ACTIVATIONS = ((0,), (1,), (1, 2), (1, 2, 3))


@pytest.mark.parametrize("name", BUNDLED)
def test_learner_readouts_are_phi_diagonals(name):
    """The generated learner equals Phi(k-1, t0)'s diagonal bit for bit, for
    both subnets and the common and periodic activations. At long K, where
    it stops at a repeated bank state, it equals the uncut loop instead, as
    ``phi_readouts`` costs O(K^2); a row of the uncut loop does not depend
    on K, so one table of 100,000 rows serves every K."""
    g = bundled_scenario(name).graph
    for subnet, mats in ((1, g.a1), (2, g.a2)):
        for act in ACTIVATIONS:
            got = learner_readouts(mats, act, 40)
            assert got.tobytes() == phi_readouts(mats, act, 40).tobytes(), (subnet, act)
        for act in ((0,), tuple(range(1, g.period + 1))):
            want = uncut_learner_readouts(mats, act, 100_000)
            for K in (150, 333, 99_999, 100_000):
                got = learner_readouts(mats, act, K)
                assert got.tobytes() == want[:K].tobytes(), (subnet, act, K)


def _sparse_stochastic(rng, n):
    """Row-stochastic with self-loops and about a third of the other arcs."""
    A = np.where(rng.random((n, n)) < 0.35, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    np.fill_diagonal(A, rng.uniform(0.2, 1.0, n))
    return A / A.sum(axis=1, keepdims=True)


def test_learner_readouts_are_phi_diagonals_on_random_sequences():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n, period = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        mats = tuple(_sparse_stochastic(rng, n) for _ in range(period))
        act = ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))]
        K = int(rng.integers(1, 30))
        assert learner_readouts(mats, act, K).tobytes() == phi_readouts(mats, act, K).tobytes()


@st.composite
def _learner_phases(draw):
    """Row-stochastic phases with positive diagonals and some absent arcs,
    n 1-5, period 1-4, and one of ACTIVATIONS."""
    n, period = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    mats = []
    for _ in range(period):
        A = np.array([[draw(st.floats(0.05, 1.0) if i == j else weight) for j in range(n)]
                      for i in range(n)])
        mats.append(A / A.sum(axis=1, keepdims=True))
    return tuple(mats), draw(st.sampled_from(ACTIVATIONS))


@settings(max_examples=60, deadline=None)
@given(_learner_phases(), st.integers(1, 10**6))
def test_learner_readouts_equal_the_uncut_loop(case, offset):
    """Byte for byte the uncut loop's readouts at K = 0, below the first
    checkpoint, at the checkpoint a where the repeated state was first seen,
    at the checkpoint b that repeats it, and past b but off the multiples of
    L = lcm(banks, period), where the checkpoints fall."""
    mats, act = case
    L = math.lcm(len(act), len(mats))
    first = L * max(1, -(-max(act) // L))
    rows, start = _bank_rows(mats, act, 8192)
    b = len(rows)
    past = b + 1 + offset % (2 * b)
    if past % L == 0:
        past += 1
    Ks = (0, first - 1, b, past) if start is None else (0, first - 1, start, b, past)
    want = uncut_learner_readouts(mats, act, max(Ks))
    for K in Ks:
        assert learner_readouts(mats, act, K).tobytes() == want[:K].tobytes(), (K, start, b)


def test_learner_readouts_without_a_repeat_keep_the_uncut_loops_speed():
    """Phases that mix too slowly for the bank state to repeat within
    100,000 iterations run the loop to K, with O(log K) snapshots: the same
    bytes as the uncut loop, in at most 1.25 times its time (best of 3)."""
    mats = (np.array([[1 - 1e-6, 1e-6], [1e-6, 1 - 1e-6]]),
            np.array([[1 - 2e-6, 2e-6], [3e-6, 1 - 3e-6]]))
    act, K = (1, 2), 100_000
    assert _bank_rows(mats, act, K)[1] is None
    assert learner_readouts(mats, act, K).tobytes() == uncut_learner_readouts(mats, act, K).tobytes()
    best = {}
    for _ in range(3):
        for fn in (uncut_learner_readouts, learner_readouts):
            start = time.perf_counter()
            fn(mats, act, K)
            best[fn] = min(best.get(fn, math.inf), time.perf_counter() - start)
    assert best[learner_readouts] <= 1.25 * best[uncut_learner_readouts], best


def test_learner_readouts_refuse_a_bad_activation_or_horizon():
    """An empty activation (no bank), a negative start time or a negative K
    is a ValidationError, not a numpy error or a table of zeros."""
    mats = bundled_scenario("example2").graph.a1
    for act in ((), (-3,), (1, -1), (0.5,)):
        with pytest.raises(ValidationError, match="activation"):
            learner_readouts(mats, act, 5)
    with pytest.raises(ValidationError, match="iterations"):
        learner_readouts(mats, (1, 2), -2)


def test_stepsize_tables_reject_nonpositive_readout():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # no self-loops: the readout hits 0
    g = GraphSequenceSpec(a1=(swap,), a2=(np.eye(1),),
                          cross1=(np.ones((2, 1)),), cross2=(np.full((1, 2), 0.5),))
    np.testing.assert_array_equal(learner_readouts(g.a1, (0,), 3),
                                  [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError):
        stepsize_tables(StepsizeRule("adaptive_common", GammaSchedule()), g, 3)
