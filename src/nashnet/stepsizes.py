"""Stepsize schedules and per-agent stepsize rules.

Three families: the homogeneous diminishing schedule gamma_k; the oracle
heterogeneous rule dividing gamma_k by the components of the limiting
transition vectors (computable for periodic sequences, where the limit
starting at phase nu+1 depends on the phase alone); and adaptive learners
that estimate those components online by mixing auxiliary basis vectors -
one shared learner when all matrices have a common left eigenvector, or one
bank per phase for periodically switching matrices.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .digraph import (GraphSequenceSpec, canonical_mix_code,
                      limiting_stochastic_vector, periodic_code)
from .errors import ValidationError


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSchedule:
    """gamma_k = c / (k + b)^(1/2 + eps), or an explicit table.

    The power-law exponent range eps in (0, 1/2] keeps the sequence
    square-summable but not summable, with gamma_k * sum_{s<k} gamma_s -> 0.
    """

    c: float = 1.0
    b: float = 1.0
    eps: float = 0.5
    table: tuple | None = None

    def __post_init__(self):
        if self.table is not None:
            tab = tuple(float(v) for v in self.table)
            if not tab or not all(0 < v < math.inf for v in tab):  # also false for NaN
                raise ValidationError("schedule table must be nonempty, positive and finite")
            if any(tab[i + 1] > tab[i] for i in range(len(tab) - 1)):
                raise ValidationError("schedule table must be non-increasing")
            object.__setattr__(self, "table", tab)
            return
        if not (0 < self.c < math.inf and 0 < self.b < math.inf):  # also false for NaN
            raise ValidationError("power-law schedule needs finite c > 0 and b > 0")
        if not 0.0 < self.eps <= 0.5:
            raise ValidationError("power-law exponent eps must lie in (0, 1/2]")

    def require_horizon(self, K: int) -> None:
        """Raise ValidationError unless gamma_0 .. gamma_{K-1} all exist."""
        if K < 0:
            raise ValidationError(f"iterations must be >= 0, got {K}")
        if self.table is not None and K > len(self.table):
            raise ValidationError(
                f"schedule table of length {len(self.table)} cannot cover {K} iterations")

    def value(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.table is not None:
            if k >= len(self.table):
                raise ValueError(f"schedule table of length {len(self.table)} has no entry {k}")
            return self.table[k]
        return self.c / (k + self.b) ** (0.5 + self.eps)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Homogeneous:
    schedule: GammaSchedule


@dataclass(frozen=True)
class OracleHeterogeneous:
    """Per-phase limiting vectors; at time k divide gamma_k by the component
    of the vector for start phase (k+1) mod period."""

    schedule: GammaSchedule
    period: int
    phi1: tuple  # phase -> vector for subnet 1, start index = that phase
    phi2: tuple

    def __post_init__(self):
        for vecs, label in ((self.phi1, "subnet 1"), (self.phi2, "subnet 2")):
            if len(vecs) != self.period:
                raise ValidationError(f"{label} needs one limit vector per phase")
            for v in vecs:
                v = np.asarray(v, dtype=float)
                if np.any(v <= 0) or abs(v.sum() - 1.0) > 1e-9:
                    raise ValidationError(f"{label} limit vector not positive stochastic")
        object.__setattr__(self, "phi1", tuple(np.asarray(v, dtype=float) for v in self.phi1))
        object.__setattr__(self, "phi2", tuple(np.asarray(v, dtype=float) for v in self.phi2))


@dataclass(frozen=True)
class AdaptiveCommonEigvec:
    schedule: GammaSchedule


@dataclass(frozen=True)
class AdaptivePeriodic:
    schedule: GammaSchedule
    p1: int
    p2: int

    def __post_init__(self):
        if self.p1 < 1 or self.p2 < 1:
            raise ValidationError("adaptive periodic rule needs p1 >= 1 and p2 >= 1")


StepsizeRule = Homogeneous | OracleHeterogeneous | AdaptiveCommonEigvec | AdaptivePeriodic


def oracle_heterogeneous_build(spec: GraphSequenceSpec, schedule: GammaSchedule) -> OracleHeterogeneous:
    """Precompute the per-phase limiting vectors of a periodic UJSC spec."""
    phi1 = tuple(limiting_stochastic_vector(spec, 1, s).phi for s in range(spec.period))
    phi2 = tuple(limiting_stochastic_vector(spec, 2, s).phi for s in range(spec.period))
    return OracleHeterogeneous(schedule=schedule, period=spec.period, phi1=phi1, phi2=phi2)


# ---------------------------------------------------------------------------
# adaptive learners
# ---------------------------------------------------------------------------

def learner_readouts(mats, activation, K: int) -> np.ndarray:
    """Adaptive stepsize denominators at times 0..K-1, shape (K, n).

    Bank nu starts as the identity at time ``activation[nu]`` and mixes with
    mats[k % len(mats)] at time k. Time k reads bank k % len(activation):
    agent i reads entry (i, i) of the backward product Phi(k-1, t0) from that
    bank's start t0, or 1.0 while k <= t0. ``(0,)`` is the common-eigenvector
    learner, ``(1, ..., p)`` the periodic one. One generated loop, canonical order.
    """
    n, nb = len(mats[0]), len(activation)
    bank = [[f"b{i}_{c}" for c in range(nb * n)] for i in range(n)]
    new = [[f"n{i}_{c}" for c in range(nb * n)] for i in range(n)]
    init = np.hstack([np.eye(n) if t0 == 0 else np.zeros((n, n)) for t0 in activation])
    lines = [f"{b} = {float(v)!r}" for row, vals in zip(bank, init) for b, v in zip(row, vals)]
    body = ["record((" + ", ".join(bank[i][nu * n + i] for nu in range(nb) for i in range(n)) + ",))"]
    swap = ", ".join(sum(bank, [])) + " = " + ", ".join(sum(new, []))
    body += periodic_code([canonical_mix_code(A, new, bank) + [swap] for A in mats])
    for nu, t0 in enumerate(activation):
        if t0 > 0:
            body += [f"if k == {t0 - 1}:"] + [f"    {bank[i][nu * n + c]} = {float(i == c)!r}"
                                              for i in range(n) for c in range(n)]
    source = ["def _replay(K, record):"] + ["    " + ln for ln in lines] + ["    for k in range(K):"]
    env = {}
    exec("\n".join(source + ["        " + ln for ln in body]), env)  # noqa: S102
    diag = array("d")
    env["_replay"](K, diag.extend)
    k = np.arange(K)
    out = np.frombuffer(diag, dtype=float).reshape(K, nb, n)[k, k % nb]
    out[k < np.asarray(activation)[k % nb]] = 1.0
    return out


# ---------------------------------------------------------------------------
# runtime dispatch
# ---------------------------------------------------------------------------

def stepsize_tables(rule: StepsizeRule, graph: GraphSequenceSpec, K: int):
    """Per-agent stepsizes of iterations 0..K-1, computed before a run.

    Returns (alpha, beta, readout1, readout2): alpha (K, n1) and beta
    (K, n2) hold gamma_k divided by each agent's denominator under `rule`;
    the readouts are the adaptive learners' denominators, None for the
    other rules.
    """
    rule.schedule.require_horizon(K)
    gam = np.array([rule.schedule.value(k) for k in range(K)], dtype=float)[:, None]
    if isinstance(rule, Homogeneous):
        return np.repeat(gam, graph.n1, axis=1), np.repeat(gam, graph.n2, axis=1), None, None
    if isinstance(rule, OracleHeterogeneous):
        if rule.period != graph.period:
            raise ValidationError("oracle stepsize rule period does not match the graph")
        nxt = (np.arange(K) + 1) % rule.period
        return gam / np.array(rule.phi1)[nxt], gam / np.array(rule.phi2)[nxt], None, None
    if isinstance(rule, AdaptiveCommonEigvec):
        act1 = act2 = (0,)
    elif isinstance(rule, AdaptivePeriodic):
        act1, act2 = tuple(range(1, rule.p1 + 1)), tuple(range(1, rule.p2 + 1))
    else:
        raise TypeError(f"unknown stepsize rule {type(rule).__name__}")
    r1, r2 = learner_readouts(graph.a1, act1, K), learner_readouts(graph.a2, act2, K)
    if (r1 <= 0).any() or (r2 <= 0).any():
        raise ValidationError("adaptive readout not positive; weight-rule floor violated upstream")
    return gam / r1, gam / r2, r1, r2
