"""Plain-Python reference of the network dynamics in the canonical
arithmetic order: the bit-exact oracle that tests hold ``engine.run`` to.

Every neighbor average is summed left to right over the nonzero weights in
increasing j, each product and sum a separately rounded Python float
operation. Stepsizes come from :func:`stepsize_for`, one agent and one
time step at a time; adaptive denominators from :func:`phi_readouts`, the
diagonals of the paper's backward products ``transition_product``.
Objectives are compiled closures of each agent's derivative alone, the
code the engine inlines: neither computes an objective value, so a value
that overflows stops neither. ``test_exprs`` checks the closures against
the interpreter.

The grid oracle's weighted sum has one as well: :func:`per_term_value`
evaluates one closure per term and adds them with ``sum``, and
:func:`whole_table` fills the grid table in a single call, which
:func:`table_extremes` holds whole to take its row maxima and column
minima.

The convexity sampler has its oracle here too: :func:`convexity_points`
draws each trial's points with sequential ``rng.uniform`` calls and
:func:`worst_violations` evaluates them one trial at a time through the
recursive interpreter ``exprs.evaluate``.
"""

import math
from dataclasses import dataclass

import numpy as np

from nashnet.digraph import transition_product
from nashnet.errors import NashnetError, NumericError
from nashnet.exprs import (Abs, Affine, Const, Neg, Pow, Prod, Scale, Sum, Var,
                           compile_objective, evaluate)
from nashnet.stepsizes import (AdaptiveCommonEigvec, AdaptivePeriodic,
                               Homogeneous, OracleHeterogeneous)


@dataclass(frozen=True)
class NetworkState:
    """One-step-at-a-time view of the network."""

    k: int
    x: np.ndarray
    y: np.ndarray
    breve_x: np.ndarray  # cached cross observations of subnet-1 agents
    breve_y: np.ndarray
    contact_x: np.ndarray  # last contact time, -1 before first contact
    contact_y: np.ndarray


def initial_state(scenario) -> NetworkState:
    return NetworkState(
        k=0,
        x=scenario.x0.copy(),
        y=scenario.y0.copy(),
        breve_x=np.zeros((scenario.n1, scenario.m2)),
        breve_y=np.zeros((scenario.n2, scenario.m1)),
        contact_x=np.full(scenario.n1, -1, dtype=int),
        contact_y=np.full(scenario.n2, -1, dtype=int),
    )


def canonical_dot(weights, values) -> float:
    acc = None
    for w, v in zip(weights, values):
        if w != 0.0:
            term = float(w) * v
            acc = term if acc is None else acc + term
    return 0.0 if acc is None else acc


def mix_within(states, A) -> np.ndarray:
    """One canonical convex combination per agent and component."""
    columns = np.asarray(states, dtype=float).T.tolist()
    return np.array([[canonical_dot(row, col) for col in columns]
                     for row in np.asarray(A, dtype=float).tolist()])


def cross_observe(cross_row, other_states, cache_value, cache_time, k):
    """Refresh one agent's cross cache if it has cross in-neighbors now.

    Returns (value, time): the newly mixed observation stamped k, or the
    unchanged cache when the cross row is empty.
    """
    cross_row = np.asarray(cross_row, dtype=float)
    if cross_row.sum() > 0:
        return mix_within(other_states, [cross_row])[0], k
    return cache_value, cache_time


def compiled_objectives(scenario):
    m1, m2 = scenario.m1, scenario.m2
    return ([compile_objective(e, s, m1, m2, which=("x",)) for e, s in scenario.objectives1],
            [compile_objective(e, s, m1, m2, which=("y",)) for e, s in scenario.objectives2])


def _project(point, box):
    return [min(max(v, lo), hi) for v, lo, hi in zip(point, box.lower, box.upper)]


def step(state: NetworkState, scenario, alpha, beta, objectives=None) -> NetworkState:
    """One synchronous update of the whole network with the per-agent
    stepsizes `alpha`, `beta` of time state.k."""
    fx, fy = objectives or compiled_objectives(scenario)
    g = scenario.graph
    k = state.k
    xh = mix_within(state.x, g.mixing(1, k))
    yh = mix_within(state.y, g.mixing(2, k))
    c1, c2 = g.cross_into(1, k), g.cross_into(2, k)
    breve_x = state.breve_x.copy()
    breve_y = state.breve_y.copy()
    tcx = state.contact_x.copy()
    tcy = state.contact_y.copy()
    for i in range(scenario.n1):
        breve_x[i], tcx[i] = cross_observe(c1[i], state.y, breve_x[i], tcx[i], k)
    for i in range(scenario.n2):
        breve_y[i], tcy[i] = cross_observe(c2[i], state.x, breve_y[i], tcy[i], k)

    new_x = xh.copy()
    for i in range(scenario.n1):
        if tcx[i] < 0:
            continue  # never observed the other side: consensus only
        row = xh[i].tolist()
        q = fx[i](row, breve_x[i].tolist())
        a = float(alpha[i])
        new_x[i] = _project([v - a * qd for v, qd in zip(row, q)], scenario.box_x)
    new_y = yh.copy()
    for i in range(scenario.n2):
        if tcy[i] < 0:
            continue
        row = yh[i].tolist()
        q = fy[i](breve_y[i].tolist(), row)
        b = float(beta[i])
        new_y[i] = _project([v + b * qd for v, qd in zip(row, q)], scenario.box_y)
    if not (np.isfinite(new_x).all() and np.isfinite(new_y).all()):
        raise NumericError(f"non-finite state produced at iteration {k}")
    return NetworkState(k=k + 1, x=new_x, y=new_y, breve_x=breve_x,
                        breve_y=breve_y, contact_x=tcx, contact_y=tcy)


def contact_times(pattern, K: int) -> np.ndarray:
    """(K, n) contact time used at each step, from the (period, n) contact
    pattern of ``engine._contact_pattern``: the last k' <= k whose phase
    gives the agent a cross contact, -1 before the first. This is the clock
    t{s}_{i} the engine kernel keeps, and ``step`` stamps as contact_x/y."""
    k = np.arange(K)
    times = np.where(pattern[k % len(pattern)], k[:, None], -1)
    return np.maximum.accumulate(times, axis=0, out=times)


def phi_readouts(spec, subnet: int, activation, K: int) -> np.ndarray:
    """Adaptive denominators at times 0..K-1 straight from the paper: time k
    reads bank nu = k % len(activation), started at t0 = activation[nu], and
    agent i's denominator is Phi(k-1, t0)[i, i], or 1.0 while k <= t0."""
    out = np.ones((K, spec.subnet_size(subnet)))
    for k in range(K):
        t0 = activation[k % len(activation)]
        if k > t0:
            out[k] = np.diagonal(transition_product(spec, subnet, k - 1, t0))
    return out


def activations(rule):
    """Bank start times of an adaptive rule per subnet; None otherwise."""
    if isinstance(rule, AdaptiveCommonEigvec):
        return (0,), (0,)
    if isinstance(rule, AdaptivePeriodic):
        return tuple(range(1, rule.p1 + 1)), tuple(range(1, rule.p2 + 1))
    return None


def stepsize_for(rule, agent: int, subnet: int, k: int, readouts=None) -> float:
    """The stepsize of `agent` in `subnet` at time k under `rule`; adaptive
    rules divide by ``readouts[k, agent]``, that subnet's denominators."""
    g = rule.schedule.value(k)
    if isinstance(rule, Homogeneous):
        return g
    if isinstance(rule, OracleHeterogeneous):
        vecs = rule.phi1 if subnet == 1 else rule.phi2
        phi = vecs[(k + 1) % rule.period]
        return g / float(phi[agent])
    if isinstance(rule, (AdaptiveCommonEigvec, AdaptivePeriodic)):
        if readouts is None:
            raise ValueError("adaptive rules need learner readouts")
        denom = float(readouts[k, agent])
        if denom <= 0.0:
            raise NashnetError(
                f"adaptive readout {denom} not positive for agent {agent} at k={k}; "
                "weight-rule floor violated upstream")
        return g / denom
    raise TypeError(f"unknown stepsize rule {type(rule).__name__}")


def reference_run(scenario, K):
    """K reference steps with the stepsizes of each step.

    Returns (states, alphas, betas, readouts): the K + 1 states, the
    stepsizes applied at each step and, for adaptive rules, the (K, n1) and
    (K, n2) learner readouts from :func:`phi_readouts` (None otherwise).
    """
    rule, g = scenario.rule, scenario.graph
    r1 = r2 = readouts = None
    act = activations(rule)
    if act is not None:
        r1, r2 = readouts = phi_readouts(g, 1, act[0], K), phi_readouts(g, 2, act[1], K)
    objectives = compiled_objectives(scenario)
    states, alphas, betas = [initial_state(scenario)], [], []
    for k in range(K):
        alphas.append([stepsize_for(rule, i, 1, k, r1) for i in range(g.n1)])
        betas.append([stepsize_for(rule, i, 2, k, r2) for i in range(g.n2)])
        states.append(step(states[-1], scenario, alphas[-1], betas[-1], objectives))
    return states, alphas, betas, readouts


def convexity_points(bx, by, trials: int, seed: int) -> tuple:
    """x0, x1, yv, y0, y1, xv of every trial as (trials, m) arrays, drawn
    per trial in that order with one ``rng.uniform`` call each."""
    rng = np.random.default_rng(seed)
    lo_x, hi_x = np.clip(bx.lower, -1e6, 1e6), np.clip(bx.upper, -1e6, 1e6)
    lo_y, hi_y = np.clip(by.lower, -1e6, 1e6), np.clip(by.upper, -1e6, 1e6)
    sides = ((lo_x, hi_x), (lo_x, hi_x), (lo_y, hi_y), (lo_y, hi_y), (lo_y, hi_y), (lo_x, hi_x))
    rows = [[rng.uniform(lo, hi) for lo, hi in sides] for _ in range(trials)]
    return tuple(np.array([row[j] for row in rows]).reshape(trials, len(lo))
                 for j, (lo, _) in enumerate(sides))


def magnitude(e, x, y) -> float:
    """`e` at (x, y) with every constant, coordinate and intermediate result
    replaced by its absolute value: the scale that bounds the rounding error
    of `e` in any evaluation order."""
    if isinstance(e, Const):
        return abs(e.value)
    if isinstance(e, Var):
        return abs(float((x if e.side == "x" else y)[e.index]))
    if isinstance(e, (Neg, Abs)):
        return magnitude(e.child, x, y)
    if isinstance(e, Scale):
        return abs(e.factor) * magnitude(e.child, x, y)
    if isinstance(e, Sum):
        return sum(magnitude(c, x, y) for c in e.children)
    if isinstance(e, Prod):
        return math.prod(magnitude(c, x, y) for c in e.children)
    if isinstance(e, Pow):
        return magnitude(e.child, x, y) ** e.exponent
    if isinstance(e, Affine):
        return (sum(abs(c * v) for c, v in zip(e.coeff_x, x))
                + sum(abs(c * v) for c, v in zip(e.coeff_y, y)) + abs(e.offset))
    raise TypeError(f"unknown node {type(e).__name__}")


def worst_violations(e, bx, by, trials: int, seed: int) -> tuple:
    """(worst_x, worst_y, scale): the largest midpoint excess in x and chord
    excess in y over the trials, starting from 0.0, one interpreter call per
    value; scale is the largest :func:`magnitude` at a sampled point."""
    worst_x = worst_y = scale = 0.0
    for x0, x1, yv, y0, y1, xv in zip(*convexity_points(bx, by, trials, seed)):
        xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
        mid = evaluate(e, xm, yv)
        chord = 0.5 * (evaluate(e, x0, yv) + evaluate(e, x1, yv))
        worst_x = max(worst_x, mid - chord)
        midv = evaluate(e, xv, ym)
        chordv = 0.5 * (evaluate(e, xv, y0) + evaluate(e, xv, y1))
        worst_y = max(worst_y, chordv - midv)
        scale = max(scale, *(magnitude(e, p, q) for p, q in
                             ((xm, yv), (x0, yv), (x1, yv), (xv, ym), (xv, y0), (xv, y1))))
    return worst_x, worst_y, scale


def per_term_value(w, m1, m2, which="value", vector=False):
    """``w.compiled(m1, m2, which="value", vector)`` as one closure per term,
    each weighted and added by ``sum``, so duplicates are evaluated again."""
    if which != "value":
        raise ValueError("the per-term oracle covers which='value' only")
    fns = [(wt, compile_objective(e, s, m1, m2, which="value", vector=vector))
           for wt, e, s in w.terms]

    def value(x, y):
        return sum(wt * f(x, y) for wt, f in fns)
    return value


def whole_table(value_fn, xpts, ypts):
    """The blocks of ``saddle._row_blocks`` in one call over the whole
    (Nx, Ny) product."""
    xcols = [xpts[:, d][:, None] for d in range(xpts.shape[1])]
    ycols = [ypts[:, d][None, :] for d in range(ypts.shape[1])]
    return np.broadcast_to(np.asarray(value_fn(xcols, ycols), dtype=float),
                           (xpts.shape[0], ypts.shape[0])).copy()


def table_extremes(value_fn, xpts, ypts):
    """``saddle._row_max_col_min`` from the whole table, held at once."""
    table = whole_table(value_fn, xpts, ypts)
    return table.max(axis=1), table.min(axis=0)
