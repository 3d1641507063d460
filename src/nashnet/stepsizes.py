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
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .digraph import (GraphSequenceSpec, canonical_mix_code, check_ujsc,
                      limiting_stochastic_vector, periodic_code)
from .errors import ResourceError, ValidationError
from .exprs import whole_number


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def require_horizon(K) -> int:
    """K, a run's iteration count, as an int. ValidationError unless K is a
    whole number >= 0 (``exprs.whole_number``); ResourceError when K float64s
    exceed what an array holds."""
    K = whole_number(K, "iterations")
    if K < 0:
        raise ValidationError(f"iterations must be >= 0, got {K}")
    if K > sys.maxsize // 8:
        raise ResourceError(f"{K} iterations cannot be tabulated: an array holds at most "
                            f"{sys.maxsize // 8} float64 values")
    return K


@dataclass(frozen=True)
class GammaSchedule:
    """gamma_k = c / (k + b)^(1/2 + eps).

    The exponent range eps in (0, 1/2] keeps the sequence square-summable
    but not summable, with gamma_k * sum_{s<k} gamma_s -> 0.
    """

    c: float = 1.0
    b: float = 1.0
    eps: float = 0.5

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.b < math.inf):  # also false for NaN
            raise ValidationError("power-law schedule needs finite c > 0 and b > 0")
        if not 0.0 < self.eps <= 0.5:
            raise ValidationError("power-law exponent eps must lie in (0, 1/2]")
        if not math.isfinite(self.values(1)[0]):  # gamma_k falls with k
            raise ValidationError(f"power-law gamma_0 = c / b^(1/2 + eps) overflows "
                                  f"for c = {self.c!r}, b = {self.b!r}")

    def values(self, K: int, start: int = 0) -> np.ndarray:
        """gamma_start .. gamma_{K-1} in one pass, as a float64 array: c / (k
        + b)^(1/2 + eps) in Python floats, the one place the power law is
        evaluated, so a value does not depend on the range it is computed
        in. Errors as :func:`require_horizon`."""
        K = require_horizon(K)
        c, b, p = self.c, self.b, 0.5 + self.eps
        return np.fromiter((c / (k + b) ** p for k in range(start, K)), dtype=float,
                           count=K - start)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepsizeRule:
    """gamma_k of `schedule` divided per agent by a denominator that
    `variant` names and the graph determines (see :func:`stepsize_tables`):
    1 ("homogeneous"); the agent's component of the limit vector for start
    phase (k+1) mod the period ("oracle_heterogeneous"); or a learner's
    readout, from one bank started at time 0 ("adaptive_common") or one
    bank per phase started at times 1, ..., period ("adaptive_periodic")."""

    variant: str
    schedule: GammaSchedule

    def __post_init__(self):
        if self.variant not in ("homogeneous", "oracle_heterogeneous", "adaptive_common",
                                "adaptive_periodic"):
            raise ValidationError(f"unknown stepsize variant {self.variant!r}")


# named as perfbench/replay.py wraps it for its stepsizes.limit_vectors span
def oracle_heterogeneous_build(spec: GraphSequenceSpec) -> tuple:
    """(phi1, phi2): per start phase, the limiting vectors of each
    subnetwork of a periodic spec; ValidationError unless both subnetworks
    are jointly strongly connected within one period."""
    for subnet, mats in ((1, spec.a1), (2, spec.a2)):
        if not check_ujsc(mats, spec.period):
            raise ValidationError(f"oracle limit vectors exist only on a jointly strongly "
                                  f"connected graph; subnet {subnet} is not within one period")
    return tuple(tuple(limiting_stochastic_vector(mats, s) for s in range(spec.period))
                 for mats in (spec.a1, spec.a2))


# ---------------------------------------------------------------------------
# adaptive learners
# ---------------------------------------------------------------------------

# bank entries (banks x n x n) a learner may generate: each is a local of
# the generated loop, and its generation time grows linearly with them
LEARNER_BANK_CAP = 100_000


def learner_readouts(mats, activation, K: int) -> np.ndarray:
    """Adaptive stepsize denominators at times 0..K-1, shape (K, n).

    Bank nu starts as the identity at time ``activation[nu]`` and mixes with
    mats[k % len(mats)] at time k. Time k reads bank k % len(activation):
    agent i reads entry (i, i) of the backward product Phi(k-1, t0) from that
    bank's start t0, or 1.0 while k <= t0. ``(0,)`` is the common-eigenvector
    learner, ``(1, ..., period)`` the periodic one. One generated loop, canonical order.

    Past the last start, the next bank state depends on the state and on
    k mod L alone, L = lcm(len(activation), len(mats)). So the loop runs to
    checkpoints c, 2c, 4c, ... (c the least multiple of L >= every start)
    and stops at the first whose state equals, byte for byte, that of an
    earlier one: from there every row repeats, and the rest are read by index.
    Errors on K as :func:`require_horizon`.
    """
    K = require_horizon(K)
    return _readouts(mats, activation, K)[0](0, K)


def _readouts(mats, activation, K: int):
    """(read, b): read(k0, k1) gives the readouts of :func:`learner_readouts`
    at times k0..k1-1, gathered by index from the rows :func:`_bank_rows`
    ran once, so they do not depend on the range asked for; every time
    from b on reads the value of a time below b."""
    if not (isinstance(activation, Sequence) and activation
            and all(isinstance(t, (int, np.integer)) and t >= 0 for t in activation)):
        raise ValidationError(f"activation must be a non-empty sequence of integers >= 0, "
                              f"got {activation!r}")
    nb, act = len(activation), np.asarray(activation)
    rows, start = _bank_rows(mats, activation, K)

    def read(k0: int, k1: int) -> np.ndarray:
        k = np.arange(k0, k1)
        idx = k if start is None else np.where(k < start, k, start + (k - start) % (len(rows) - start))
        out = rows[idx, k % nb]
        out[k < act[k % nb]] = 1.0
        return out
    return read, len(rows)


def _bank_rows(mats, activation, K: int):
    """(rows, start): the banks' diagonals at times 0..b-1, shape (b, nb, n),
    and the checkpoint a whose bank state checkpoint b repeats, so rows from
    a on repeat with period b - a; None when the loop ran all K iterations
    (b = K) without a repeat."""
    n, nb = len(mats[0]), len(activation)
    bank = [[f"b{i}_{c}" for c in range(nb * n)] for i in range(n)]
    new = [[f"n{i}_{c}" for c in range(nb * n)] for i in range(n)]
    names = ", ".join(sum(bank, []))
    body = ["record((" + ", ".join(bank[i][nu * n + i] for nu in range(nb) for i in range(n)) + ",))"]
    body += periodic_code([canonical_mix_code(A, new, bank) + [f"{names} = " + ", ".join(sum(new, []))]
                           for A in mats])
    source = ["def _replay(k0, k1, state, record):", f"    {names}, = state",
              "    for k in range(k0, k1):"] + ["        " + ln for ln in body] + [f"    return {names},"]
    env = {}
    exec("\n".join(source), env)  # noqa: S102
    replay, diag = env["_replay"], array("d")
    k, banks = 0, np.zeros((n, nb, n))  # entry (i, nu, c) is the local b{i}_{nu * n + c}
    for t0 in sorted(set(activation)):  # run to each start, then set its banks to the identity
        banks = np.reshape(replay(k, min(t0, K), banks.ravel().tolist(), diag.extend), (n, nb, n))
        banks[:, np.asarray(activation) == t0] = np.eye(n)[:, None]
        k = min(t0, K)
    state = banks.ravel().tolist()
    L = math.lcm(nb, len(mats))  # checkpoints: c, 2c, 4c, ... with c the least multiple >= starts
    stop, seen, start = L * max(1, -(-max(activation) // L)), {}, None
    while k < K:
        state, k = replay(k, min(stop, K), state, diag.extend), min(stop, K)
        if k == K:
            break
        key = array("d", state).tobytes()  # bytes, not ==: -0.0 == 0.0 and nan != nan
        if key in seen:
            start = seen[key]
            break
        seen[key], stop = k, 2 * stop
    return np.frombuffer(diag, dtype=float).reshape(k, nb, n), start


# ---------------------------------------------------------------------------
# runtime dispatch
# ---------------------------------------------------------------------------

def stepsize_tables(rule: StepsizeRule, graph: GraphSequenceSpec, K: int):
    """Per-agent stepsizes of a run of K iterations, handed out by k range.

    Returns ``tables(k0, k1) -> (alpha, beta)``: alpha (k1 - k0, n1) and
    beta (k1 - k0, n2) hold gamma_k for k0 <= k < k1 divided by each
    agent's denominator under `rule`, for an adaptive rule its learner
    readout (:func:`learner_readouts`), which is not kept. Each entry is
    computed from k alone, so a run's tables are the same in one range or
    in many. Both are read-only ``np.broadcast_to`` views; a homogeneous
    rule's denominators are 1.0, so its views hold the one gamma column,
    agent stride 0 (see :func:`distinct_columns`).
    Here a rule meets its graph, once per run: the oracle's limit vectors
    and the learners' banks are derived from it. K is checked first and
    taken as an int (see :func:`require_horizon`). An oracle rule is a
    ValidationError on a graph without limit vectors, and an adaptive rule
    is a ResourceError, before any learner code is generated, when a
    side's banks would hold more than LEARNER_BANK_CAP entries, and a
    ValidationError when a readout is not positive.
    """
    schedule, K = rule.schedule, require_horizon(K)
    n1, n2 = graph.n1, graph.n2
    if rule.variant == "homogeneous":
        def denominators(k0: int, k1: int):
            return 1.0, 1.0
    elif rule.variant == "oracle_heterogeneous":
        phi1, phi2 = (np.array(phi) for phi in oracle_heterogeneous_build(graph))

        def denominators(k0: int, k1: int):
            nxt = (np.arange(k0, k1) + 1) % graph.period
            return phi1[nxt], phi2[nxt]
    else:  # adaptive: one bank from time 0, or one per phase from times 1..period
        activation = (0,) if rule.variant == "adaptive_common" else tuple(range(1, graph.period + 1))
        p = len(activation)
        for n, label in ((n1, "subnet 1"), (n2, "subnet 2")):
            if p * n * n > LEARNER_BANK_CAP:
                raise ResourceError(f"{label} adaptive learner needs {p} banks of {n}x{n} entries, "
                                    f"{p * n * n} in all, above the cap of {LEARNER_BANK_CAP}")
        readers = [_readouts(mats, activation, K) for mats in (graph.a1, graph.a2)]
        if any((read(0, b) <= 0).any() for read, b in readers):
            raise ValidationError("adaptive readout not positive; weight-rule floor violated upstream")

        def denominators(k0: int, k1: int):
            return tuple(read(k0, k1) for read, _ in readers)

    def tables(k0: int, k1: int):
        gam = schedule.values(k1, k0)[:, None]
        d1, d2 = denominators(k0, k1)
        return np.broadcast_to(gam / d1, (k1 - k0, n1)), np.broadcast_to(gam / d2, (k1 - k0, n2))
    return tables


def distinct_columns(table: np.ndarray) -> np.ndarray:
    """The columns of a per-agent table that differ: the first alone when
    the table has agent stride 0 (a homogeneous rule's broadcast view),
    else all. Of width w, agent i reads column i % w."""
    return table[:, :1] if table.strides[1] == 0 else table
