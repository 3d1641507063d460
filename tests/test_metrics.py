"""The metrics of a run do not depend on how the run was split: each of
the four series, computed segment by segment and concatenated, is the
series of the whole trace byte for byte. The CLI scores its runs this way,
one segment at a time (``engine.run`` with a consumer)."""

import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from nashnet.digraph import GraphSequenceSpec
from nashnet.engine import Scenario, Trace, run
from nashnet.exprs import BoxSet
from nashnet.metrics import compute_metrics
from nashnet.saddle import SaddleReport
from nashnet.scenario_io import BUNDLED, bundled_scenario
from nashnet.stepsizes import GammaSchedule, StepsizeRule
from test_engine import _random_cross, _random_mixing, _random_objective

SERIES = ("h1", "h2", "nash_error", "saddle_residual")


def _segment(trace, a, b):
    """Rows a..b-1 of a whole-run trace as a segment: as many stepsizes as
    states, except for the segment that ends with the row at k = K."""
    K = trace.iterations
    return Trace(x=trace.x[a:b], y=trace.y[a:b], alpha=trace.alpha[a:min(b, K)],
                 beta=trace.beta[a:min(b, K)], start=a)


def _assert_split_metrics_equal_whole(trace, scenario, saddle, cuts):
    """Each series over the segments between `cuts` (0 and K + 1 added)
    concatenates to the whole trace's series, byte for byte."""
    whole = compute_metrics(trace, scenario, saddle)
    bounds = sorted({0, trace.iterations + 1, *cuts})
    parts = [compute_metrics(_segment(trace, a, b), scenario, saddle)
             for a, b in zip(bounds, bounds[1:])]
    assert [p.start for p in parts] == bounds[:-1]
    for name in SERIES:
        joined = np.concatenate([getattr(p, name) for p in parts])
        assert joined.tobytes() == getattr(whole, name).tobytes(), name


def _cuts(K):
    """One-row segments at the start, a split at k = K (the final row alone)
    and uneven segments between."""
    return [1, 2, 3, 7, K // 3, K // 3 + 1, K - 1, K]


@pytest.mark.parametrize("name", BUNDLED)
def test_split_metrics_equal_whole_on_bundled_scenarios(name):
    s = bundled_scenario(name)
    K = 3000
    trace = run(dataclasses.replace(s, iterations=K))
    saddle = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
    _assert_split_metrics_equal_whole(trace, s, saddle, _cuts(K))


@settings(max_examples=20, deadline=None)
@given(n1=st.integers(8, 12), n2=st.integers(8, 12), m=st.sampled_from([2, 1]),
       period=st.integers(1, 2),
       variant=st.sampled_from(["homogeneous", "oracle_heterogeneous", "adaptive_periodic"]),
       seed=st.integers(0, 2 ** 32 - 1), cut=st.integers(1, 59))
def test_split_metrics_equal_whole_on_random_scenarios(n1, n2, m, period, variant, seed, cut):
    """Eight or more agents per side. With blocks of dimension 2 the block
    means reduce over a strided axis; with dimension 1 over a contiguous
    one, which numpy sums pairwise from nine terms on."""
    rng = np.random.default_rng(seed)
    box_x = BoxSet(tuple(rng.uniform(-3, -1, m)), tuple(rng.uniform(1, 3, m)))
    box_y = BoxSet(tuple(rng.uniform(-3, -1, m)), tuple(rng.uniform(1, 3, m)))
    graph = GraphSequenceSpec(
        a1=tuple(_random_mixing(rng, n1) for _ in range(period)),
        a2=tuple(_random_mixing(rng, n2) for _ in range(period)),
        cross1=tuple(_random_cross(rng, n1, n2, False) for _ in range(period)),
        cross2=tuple(_random_cross(rng, n2, n1, False) for _ in range(period)))
    K = 60
    s = Scenario(
        name="random", objectives1=tuple(_random_objective(rng, box_x, box_y) for _ in range(n1)),
        objectives2=tuple(_random_objective(rng, box_x, box_y) for _ in range(n2)),
        graph=graph, box_x=box_x, box_y=box_y,
        rule=StepsizeRule(variant, GammaSchedule(c=float(rng.uniform(0.05, 0.3)), b=10.0)),
        x0=rng.uniform(-4, 4, (n1, m)), y0=rng.uniform(-4, 4, (n2, m)), iterations=K)
    trace = run(s)
    saddle = SaddleReport(tuple(rng.uniform(-1, 1, m)), tuple(rng.uniform(-1, 1, m)), 0.0, 0.0, 0)
    _assert_split_metrics_equal_whole(trace, s, saddle, _cuts(K) + [cut])
    # states spread over many magnitudes, so that the order of a sum shows
    spread = dataclasses.replace(trace, x=trace.x * 10.0 ** rng.integers(-8, 8, trace.x.shape),
                                 y=trace.y * 10.0 ** rng.integers(-8, 8, trace.y.shape))
    _assert_split_metrics_equal_whole(spread, s, saddle, _cuts(K) + [cut])
