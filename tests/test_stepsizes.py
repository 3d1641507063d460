"""Schedules, stepsize rules, and the adaptive learners."""

import numpy as np
import pytest

from canonical_reference import phi_readouts, stepsize_for
from nashnet.digraph import GraphSequenceSpec, transition_product
from nashnet.errors import ValidationError
from nashnet.scenario_io import BUNDLED, bundled_scenario
from nashnet.stepsizes import (AdaptiveCommonEigvec, AdaptivePeriodic,
                               GammaSchedule, Homogeneous,
                               OracleHeterogeneous, learner_readouts,
                               oracle_heterogeneous_build, stepsize_tables)


def test_schedule_power_law():
    s = GammaSchedule(c=1.0, b=50.0, eps=0.5)
    assert s.value(0) == pytest.approx(1 / 50)
    assert s.value(100) == pytest.approx(1 / 150)
    with pytest.raises(ValueError):
        s.value(-1)


def test_schedule_parameter_validation():
    with pytest.raises(ValidationError):
        GammaSchedule(c=-1.0)
    with pytest.raises(ValidationError):
        GammaSchedule(eps=0.0)
    with pytest.raises(ValidationError):
        GammaSchedule(eps=0.6)
    for bad in ({"c": float("nan")}, {"c": float("inf")}, {"b": float("nan")},
                {"b": float("inf")}, {"table": (1.0, float("nan"), 0.5)},
                {"table": (float("inf"), 1.0)}):
        with pytest.raises(ValidationError, match="finite"):
            GammaSchedule(**bad)
    GammaSchedule(eps=0.5)  # boundary allowed


def test_schedule_table():
    s = GammaSchedule(table=(0.5, 0.25, 0.25, 0.1))
    assert s.value(2) == 0.25
    with pytest.raises(ValueError):
        s.value(4)
    with pytest.raises(ValidationError):
        GammaSchedule(table=(0.1, 0.2))  # increasing
    with pytest.raises(ValidationError):
        GammaSchedule(table=())


def test_homogeneous_rule():
    rule = Homogeneous(GammaSchedule(c=1.0, b=50.0, eps=0.5))
    for agent in range(3):
        assert stepsize_for(rule, agent, 1, 10) == pytest.approx(1 / 60)


def test_oracle_rule_uses_next_start_phase():
    g = bundled_scenario("example2").graph
    rule = oracle_heterogeneous_build(g, GammaSchedule(c=1.0, b=50.0, eps=0.5))
    # even k: divide by the odd-start vector (0.5336, 0.1525, 0.3139)
    a0 = stepsize_for(rule, 1, 1, 0)
    assert a0 == pytest.approx((1 / 50) / 0.15247, rel=1e-3)
    a1 = stepsize_for(rule, 1, 1, 1)
    assert a1 == pytest.approx((1 / 51) / 0.34081, rel=1e-3)
    b0 = stepsize_for(rule, 1, 2, 0)
    assert b0 == pytest.approx((1 / 50) / (1 / 9), rel=1e-3)


def test_oracle_rule_validation():
    s = GammaSchedule()
    with pytest.raises(ValidationError):
        OracleHeterogeneous(schedule=s, period=2, phi1=((0.5, 0.5),), phi2=((1.0,),) * 2)
    with pytest.raises(ValidationError):
        OracleHeterogeneous(schedule=s, period=1, phi1=((0.7, 0.7),), phi2=((1.0,),))


def _diag_bytes(spec, subnet, k, s):
    return np.diagonal(transition_product(spec, subnet, k, s)).tobytes()


def test_common_learner_rows_are_product_rows():
    """Each agent reads its own diagonal entry of the backward product from
    time 0; the identity it starts from reads 1.0."""
    g = bundled_scenario("perron_weighted").graph
    r = learner_readouts(g.a1, (0,), 7)
    assert r.shape == (7, 3) and r[0].tolist() == [1.0] * 3
    assert r[6].tobytes() == _diag_bytes(g, 1, 5, 0)


def test_periodic_learner_activation_and_readout():
    g = bundled_scenario("example2").graph
    r = learner_readouts(g.a1, (1, 2), 11)
    assert r[0].tolist() == [1.0] * 3  # bank 0 starts at time 1
    assert r[1].tolist() == [1.0] * 3  # bank 1 (k odd) starts at time 2
    assert r[2].tobytes() == g.a1[1].diagonal().tobytes()  # bank 0 after one factor
    # bank 0 (even k) holds the product from time 1 to k-1, bank 1 from time 2
    for k in range(3, 11):
        assert r[k].tobytes() == _diag_bytes(g, 1, k - 1, 1 + k % 2)


def test_periodic_learner_converges_to_oracle_vectors():
    g = bundled_scenario("example2").graph
    oracle = oracle_heterogeneous_build(g, GammaSchedule())
    r = learner_readouts(g.a1, (1, 2), 202)
    for k in (200, 201):
        target = oracle.phi1[(k + 1) % 2]
        assert np.abs(r[k] - target).max() < 1e-8


def test_adaptive_dispatch_requires_learner():
    rule = AdaptivePeriodic(GammaSchedule(), p1=2, p2=2)
    with pytest.raises(ValueError):
        stepsize_for(rule, 0, 1, 5)
    r = learner_readouts(bundled_scenario("example2").graph.a1, (1, 2), 1)
    assert stepsize_for(rule, 0, 1, 0, readouts=r) == pytest.approx(
        GammaSchedule().value(0))  # fallback denominator 1


def test_adaptive_common_matches_oracle_on_static_graph():
    g = bundled_scenario("perron_weighted").graph
    sched = GammaSchedule()
    rule = AdaptiveCommonEigvec(sched)
    r = learner_readouts(g.a1, (0,), 301)
    oracle = oracle_heterogeneous_build(g, sched)
    for agent in range(3):
        got = stepsize_for(rule, agent, 1, 300, readouts=r)
        want = stepsize_for(oracle, agent, 1, 300)
        assert got == pytest.approx(want, rel=1e-8)


ACTIVATIONS = ((0,), (1,), (1, 2), (1, 2, 3))


@pytest.mark.parametrize("name", BUNDLED)
def test_learner_readouts_are_phi_diagonals(name):
    """The generated learner equals Phi(k-1, t0)'s diagonal bit for bit, for
    both subnets and the common and periodic activations."""
    g = bundled_scenario(name).graph
    for subnet, mats in ((1, g.a1), (2, g.a2)):
        for act in ACTIVATIONS:
            got = learner_readouts(mats, act, 40)
            assert got.tobytes() == phi_readouts(g, subnet, act, 40).tobytes(), (subnet, act)


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
        spec = GraphSequenceSpec(
            n1=n, n2=1, period=period, a1=mats, a2=(np.eye(1),) * period,
            cross1=(np.zeros((n, 1)),) * period, cross2=(np.zeros((1, n)),) * period,
            eta=float(min(A[A > 0].min() for A in mats)), t1=1, t2=1, t_cross=1)
        act = ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))]
        K = int(rng.integers(1, 30))
        assert learner_readouts(mats, act, K).tobytes() == phi_readouts(spec, 1, act, K).tobytes()


def test_stepsize_tables_reject_nonpositive_readout():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # no self-loops: the readout hits 0
    g = GraphSequenceSpec(n1=2, n2=1, period=1, a1=(swap,), a2=(np.eye(1),),
                          cross1=(np.ones((2, 1)),), cross2=(np.full((1, 2), 0.5),),
                          eta=0.5, t1=1, t2=1, t_cross=1)
    np.testing.assert_array_equal(learner_readouts(g.a1, (0,), 3),
                                  [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError):
        stepsize_tables(AdaptiveCommonEigvec(GammaSchedule()), g, 3)
