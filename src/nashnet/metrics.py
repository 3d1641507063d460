"""Derived per-iteration metrics of a run: disagreements within each
subnetwork, squared Nash error against a reference saddle, and the saddle
residual U(xbar, y*) - U(x*, ybar), which is nonnegative whenever the
reference really is a saddle point.

Each value is a function of its own iteration's states alone, so the
series of a run split into segments (``engine.run`` with a consumer) are
those of the whole trace, byte for byte: the reductions over agents and
coordinates run per k in an order the number of rows does not change
(``tests/test_metrics.py`` checks it on split traces, numpy's pairwise
sum in the block means included)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Scenario, Trace
from .saddle import SaddleReport, unit_weighted


@dataclass(frozen=True)
class MetricsSeries:
    h1: np.ndarray  # (K+1,) max pairwise distance, subnet 1
    h2: np.ndarray
    nash_error: np.ndarray  # (K+1,) sum of squared distances to the reference
    saddle_residual: np.ndarray  # (K+1,)
    start: int = 0  # the k of row 0, that of the trace the series score


PAIRWISE_CHUNK = 1 << 18  # elements of the (k, n, n, m) difference array held at once


def _pairwise_max(states):
    """(K+1,) max pairwise Euclidean distance across agents per iteration.

    With blocks of one dimension this is ``sqrt(square(max - min))`` over
    the agents, O(n) per k, and it equals the maximum over all pairs
    ``sqrt(square(a - b))`` bit for bit: rounding of a - b is monotone in a
    and in -b (and symmetric in sign), so no pair rounds to a larger |a - b|
    than max - min does; ``sqrt(fl(d**2))`` is monotone in |d|; and
    squaring erases the sign of a zero. Wider blocks compare every pair,
    chunked over k to bound memory, squared and rooted in place; no k's
    reduction depends on the chunk.
    """
    _, n, m = states.shape
    if m == 1:
        hi = states[:, 0, 0].copy()
        lo = hi.copy()
        for i in range(1, n):
            np.maximum(hi, states[:, i, 0], out=hi)
            np.minimum(lo, states[:, i, 0], out=lo)
        hi -= lo
        return np.sqrt(np.square(hi, out=hi), out=hi)
    rows = max(1, PAIRWISE_CHUNK // max(1, n * n * m))
    out = np.empty(len(states))
    for start in range(0, len(states), rows):
        part = states[start:start + rows]
        diff = part[:, :, None, :] - part[:, None, :, :]
        dist = np.square(diff, out=diff).sum(axis=-1)
        out[start:start + rows] = np.sqrt(dist, out=dist).max(axis=(1, 2))
    return out


def _squared_distance(states, ref):
    """(K+1,) sum over agents and coordinates of (state - ref)**2, chunked
    over k as :func:`_pairwise_max` is; no k's reduction depends on the chunk."""
    _, n, m = states.shape
    rows = max(1, PAIRWISE_CHUNK // max(1, n * m))
    out = np.empty(len(states))
    for start in range(0, len(states), rows):
        diff = states[start:start + rows] - ref
        out[start:start + rows] = np.square(diff, out=diff).sum(axis=(1, 2))
    return out


def sum_objective(scenario: Scenario):
    """U, the unit-weight sum of the subnet-1 objectives, as the compiled
    numpy closure the saddle residual evaluates."""
    return unit_weighted(scenario.objectives1).compiled(scenario.m1, scenario.m2)


def compute_metrics(trace: Trace, scenario: Scenario, saddle: SaddleReport,
                    u=None) -> MetricsSeries:
    """The metrics of `trace`. `u` is :func:`sum_objective` of `scenario`,
    compiled here when not given; a run scored segment by segment passes
    it, so it compiles once."""
    x_star = np.asarray(saddle.x_star, dtype=float)
    y_star = np.asarray(saddle.y_star, dtype=float)
    if len(x_star) != scenario.m1 or len(y_star) != scenario.m2:
        raise ValueError("saddle reference dimension mismatch")

    h1 = _pairwise_max(trace.x)
    h2 = _pairwise_max(trace.y)
    nash = _squared_distance(trace.x, x_star) + _squared_distance(trace.y, y_star)

    if u is None:
        u = sum_objective(scenario)
    with np.errstate(over="ignore", invalid="ignore"):
        # each block mean, (K+1, m), lives only while its side is evaluated
        u_left = np.asarray(u(list(trace.x.mean(axis=1).T),
                              [np.array([c]) for c in y_star]), dtype=float).ravel()
        u_right = np.asarray(u([np.array([c]) for c in x_star],
                               list(trace.y.mean(axis=1).T)), dtype=float).ravel()
        return MetricsSeries(h1=h1, h2=h2, nash_error=nash, saddle_residual=u_left - u_right,
                             start=trace.start)
