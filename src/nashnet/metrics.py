"""Derived per-iteration metrics of a run: disagreements within each
subnetwork, squared Nash error against a reference saddle, and the saddle
residual U(xbar, y*) - U(x*, ybar), which is nonnegative whenever the
reference really is a saddle point."""

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


PAIRWISE_CHUNK = 1 << 18  # elements of the (k, n, n, m) difference array held at once


def _pairwise_max(states):
    """(K+1,) max pairwise Euclidean distance across agents per iteration.

    Chunked over k to bound memory, squared and rooted in place; no k's
    reduction depends on the chunk.
    """
    _, n, m = states.shape
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


def compute_metrics(trace: Trace, scenario: Scenario, saddle: SaddleReport) -> MetricsSeries:
    x_star = np.asarray(saddle.x_star, dtype=float)
    y_star = np.asarray(saddle.y_star, dtype=float)
    if len(x_star) != scenario.m1 or len(y_star) != scenario.m2:
        raise ValueError("saddle reference dimension mismatch")

    h1 = _pairwise_max(trace.x)
    h2 = _pairwise_max(trace.y)
    nash = _squared_distance(trace.x, x_star) + _squared_distance(trace.y, y_star)

    u = unit_weighted(scenario.objectives1).compiled(scenario.m1, scenario.m2)
    xbar = trace.x.mean(axis=1)  # (K+1, m1)
    ybar = trace.y.mean(axis=1)
    u_left = np.asarray(u([xbar[:, d] for d in range(scenario.m1)],
                          [np.array([c]) for c in y_star]), dtype=float).ravel()
    u_right = np.asarray(u([np.array([c]) for c in x_star],
                           [ybar[:, d] for d in range(scenario.m2)]), dtype=float).ravel()
    return MetricsSeries(h1=h1, h2=h2, nash_error=nash, saddle_residual=u_left - u_right)
