"""Schedules, stepsize rules, and the adaptive learners."""

import numpy as np
import pytest

from canonical_reference import stepsize_for
from nashnet.digraph import GraphSequenceSpec, transition_product
from nashnet.errors import ValidationError
from nashnet.scenario_io import bundled_scenario
from nashnet.stepsizes import (AdaptiveCommonEigvec, AdaptivePeriodic,
                               GammaSchedule, Homogeneous,
                               OracleHeterogeneous, learner_init_common,
                               learner_init_periodic, learner_readouts,
                               learner_step, oracle_heterogeneous_build,
                               stepsize_tables, validate_schedule)


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


def test_validate_schedule_diminishing():
    assert validate_schedule(GammaSchedule(c=1.0, b=50.0, eps=0.5)) == []
    assert validate_schedule(GammaSchedule(c=2.0, b=1.0, eps=0.25)) == []
    # a constant table is square-summable-divergent in the wrong way
    bad = GammaSchedule(table=(0.1,) * 200)
    assert validate_schedule(bad, horizon=200)


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


def test_common_learner_rows_are_product_rows():
    g = bundled_scenario("perron_weighted").graph
    st = learner_init_common(g.n1)
    np.testing.assert_allclose(st.banks[0], np.eye(3))
    for k in range(6):
        learner_step(st, g.mixing(1, k), k)
    np.testing.assert_allclose(st.banks[0], transition_product(g, 1, 5, 0), atol=1e-14)
    # readout is the own diagonal component
    assert st.readout(1, 6) == pytest.approx(transition_product(g, 1, 5, 0)[1, 1])


def test_periodic_learner_activation_and_readout():
    g = bundled_scenario("example2").graph
    st = learner_init_periodic(g.n1, 2)
    assert st.banks == [None, None]
    assert st.readout(0, 0) == 1.0  # fallback before activation
    learner_step(st, g.mixing(1, 0), 0)  # activates bank 0 at time 1
    assert st.banks[0] is not None and st.banks[1] is None
    assert st.readout(1, 1) == 1.0  # bank 1 (k odd) still inactive
    learner_step(st, g.mixing(1, 1), 1)  # activates bank 1 at time 2
    assert st.banks[1] is not None
    # bank 0 at time k holds the product from time 1 to k-1
    for k in range(2, 9):
        learner_step(st, g.mixing(1, k), k)
    np.testing.assert_allclose(st.banks[0], transition_product(g, 1, 8, 1), atol=1e-14)
    np.testing.assert_allclose(st.banks[1], transition_product(g, 1, 8, 2), atol=1e-14)


def test_periodic_learner_converges_to_oracle_vectors():
    g = bundled_scenario("example2").graph
    oracle = oracle_heterogeneous_build(g, GammaSchedule())
    st = learner_init_periodic(g.n1, 2)
    for k in range(200):
        learner_step(st, g.mixing(1, k), k)
    for k in (200, 201):
        target = oracle.phi1[(k + 1) % 2]
        assert np.abs(st.readout_vector(k) - target).max() < 1e-8


def test_adaptive_dispatch_requires_learner():
    rule = AdaptivePeriodic(GammaSchedule(), p1=2, p2=2)
    with pytest.raises(ValueError):
        stepsize_for(rule, 0, 1, 5)
    st = learner_init_periodic(3, 2)
    assert stepsize_for(rule, 0, 1, 0, learner=st) == pytest.approx(
        GammaSchedule().value(0))  # fallback denominator 1


def test_adaptive_common_matches_oracle_on_static_graph():
    g = bundled_scenario("perron_weighted").graph
    sched = GammaSchedule()
    rule = AdaptiveCommonEigvec(sched)
    st = learner_init_common(g.n1)
    for k in range(300):
        learner_step(st, g.mixing(1, k), k)
    oracle = oracle_heterogeneous_build(g, sched)
    for agent in range(3):
        got = stepsize_for(rule, agent, 1, 300, learner=st)
        want = stepsize_for(oracle, agent, 1, 300)
        assert got == pytest.approx(want, rel=1e-8)


def test_stepsize_tables_reject_nonpositive_readout():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # no self-loops: the readout hits 0
    g = GraphSequenceSpec(n1=2, n2=1, period=1, a1=(swap,), a2=(np.eye(1),),
                          cross1=(np.ones((2, 1)),), cross2=(np.full((1, 2), 0.5),),
                          eta=0.5, t1=1, t2=1, t_cross=1)
    np.testing.assert_array_equal(learner_readouts(learner_init_common(2), g.a1, 3),
                                  [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError):
        stepsize_tables(AdaptiveCommonEigvec(GammaSchedule()), g, 3)
