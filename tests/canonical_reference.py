"""Plain-Python references the tests hold the package to; no command
reaches them.

The dynamics in the canonical arithmetic order are the bit-exact oracle of
``engine.run``: every neighbor average summed left to right over the
nonzero weights in increasing j, each product and sum a separately rounded
Python float operation. Stepsizes come from :func:`stepsize_for`, one agent
and one time step at a time; adaptive denominators from
:func:`phi_readouts`, the diagonals of the paper's backward products
``transition_product``. Objectives are compiled closures of each agent's
derivative alone, the code the engine inlines, so a value that overflows
stops neither. ``test_exprs`` checks the closures against the recursive
interpreter here, :func:`evaluate` and the forward-mode :func:`_grad`.

The grid oracle's weighted sum has one as well: :func:`per_term_value`
evaluates one closure per term and adds them with ``sum``, and
:func:`whole_table` fills the grid table in a single call, which
:func:`table_extremes` holds whole to take its row maxima and column
minima. :func:`centralized_saddle` finds the saddle by projected
descent-ascent instead, and :func:`verify_saddle` certifies a candidate on
samples. The convexity sampler's oracle draws each trial's points with
sequential ``rng.uniform`` calls and evaluates them one at a time through
the interpreter (:func:`convexity_points`, :func:`worst_violations`).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from nashnet import saddle
from nashnet.catalog import CATALOG
from nashnet.digraph import GraphSequenceSpec, transition_product
from nashnet.engine import Scenario
from nashnet.errors import NashnetError, NumericError
from nashnet.exprs import (Abs, Affine, Const, Neg, Pow, Prod, Scale, Sum, Var,
                           check_selection, compile_objective, dimensions)
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


def per_term_value(w, m1, m2):
    """``w.compiled(m1, m2)`` as one closure per term, each weighted and
    added by ``sum``, so duplicates are evaluated again."""
    fns = [(wt, compile_objective(e, s, m1, m2, which="value", vector=True))
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


# ---------------------------------------------------------------------------
# expression interpreter
# ---------------------------------------------------------------------------

def evaluate(e, x, y) -> float:
    """Exact recursive evaluation of `e` at (x, y)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    mx, my = dimensions(e)
    if len(x) < mx or len(y) < my:
        raise ValueError(f"expression needs dims >= ({mx},{my}), got ({len(x)},{len(y)})")
    return _eval(e, x, y)


def _eval(e, x, y):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index] if e.side == "x" else y[e.index])
    if isinstance(e, Neg):
        return -_eval(e.child, x, y)
    if isinstance(e, Sum):
        return sum(_eval(c, x, y) for c in e.children)
    if isinstance(e, Scale):
        return e.factor * _eval(e.child, x, y)
    if isinstance(e, Prod):
        return math.prod((_eval(c, x, y) for c in e.children), start=1.0)
    if isinstance(e, Pow):
        return _eval(e.child, x, y) ** e.exponent
    if isinstance(e, Abs):
        return abs(_eval(e.child, x, y))
    if isinstance(e, Affine):
        return (sum(c * x[d] for d, c in enumerate(e.coeff_x))
                + sum(c * y[d] for d, c in enumerate(e.coeff_y)) + e.offset)
    raise TypeError(f"unknown node {type(e).__name__}")


def _grad(e, x, y, sel, counter):
    """Forward-mode pass returning (value, dvalue/dx, dvalue/dy)."""
    if isinstance(e, Const):
        return e.value, np.zeros(len(x)), np.zeros(len(y))
    if isinstance(e, Var):
        gx, gy = np.zeros(len(x)), np.zeros(len(y))
        (gx if e.side == "x" else gy)[e.index] = 1.0
        return float((x if e.side == "x" else y)[e.index]), gx, gy
    if isinstance(e, Neg):
        v, gx, gy = _grad(e.child, x, y, sel, counter)
        return -v, -gx, -gy
    if isinstance(e, Scale):
        v, gx, gy = _grad(e.child, x, y, sel, counter)
        return e.factor * v, e.factor * gx, e.factor * gy
    if isinstance(e, Sum):
        v, gx, gy = 0.0, np.zeros(len(x)), np.zeros(len(y))
        for c in e.children:
            cv, cgx, cgy = _grad(c, x, y, sel, counter)
            v += cv
            gx += cgx
            gy += cgy
        return v, gx, gy
    if isinstance(e, Prod):
        parts = [_grad(c, x, y, sel, counter) for c in e.children]
        v = math.prod((pv for pv, _, _ in parts), start=1.0)
        gx, gy = np.zeros(len(x)), np.zeros(len(y))
        for i, (_, cgx, cgy) in enumerate(parts):
            rest = math.prod((pv for j, (pv, _, _) in enumerate(parts) if j != i), start=1.0)
            gx += rest * cgx
            gy += rest * cgy
        return v, gx, gy
    if isinstance(e, Pow):
        cv, cgx, cgy = _grad(e.child, x, y, sel, counter)
        n = e.exponent
        d = n * cv ** (n - 1)
        return cv ** n, d * cgx, d * cgy
    if isinstance(e, Abs):
        idx = counter[0]
        counter[0] += 1
        cv, cgx, cgy = _grad(e.child, x, y, sel, counter)
        s = 1.0 if cv > 0 else (-1.0 if cv < 0 else sel[idx])
        return abs(cv), s * cgx, s * cgy
    if isinstance(e, Affine):
        v = _eval(e, x, y)
        gx, gy = np.zeros(len(x)), np.zeros(len(y))
        gx[:len(e.coeff_x)] = e.coeff_x
        gy[:len(e.coeff_y)] = e.coeff_y
        return v, gx, gy
    raise TypeError(f"unknown node {type(e).__name__}")


def _gradients(e, x, y, sel):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    return _grad(e, x, y, check_selection(e, sel), [0])


def subgradient_x(e, x, y, sel=None) -> np.ndarray:
    """Formal derivative of `e` in the x block with kink selections; for
    `e` convex in x an element of the convex subdifferential."""
    return _gradients(e, x, y, sel)[1]


def subgradient_y(e, x, y, sel=None) -> np.ndarray:
    """Formal derivative of `e` in the y block with kink selections; for
    `e` concave in y an element of the concave subdifferential."""
    return _gradients(e, x, y, sel)[2]


def lipschitz_bound(e, bx, by, grid: int = 21, sel=None) -> float:
    """Sampled estimate of the subgradient bound: the largest block-derivative
    norm on a regular grid over the boxes."""
    if grid < 2:
        raise ValueError("grid must be >= 2 per dimension")
    sel = check_selection(e, sel)
    axes = [np.linspace(l, u, grid) for l, u in zip(bx.lower + by.lower, bx.upper + by.upper)]
    best = 0.0
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    pts = np.stack([m.ravel() for m in mesh], axis=-1) if mesh else np.zeros((1, 0))
    m1 = bx.dim
    for row in pts:
        _, gx, gy = _grad(e, row[:m1], row[m1:], sel, [0])
        best = max(best, float(np.linalg.norm(gx)), float(np.linalg.norm(gy)))
    return best


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def center(box) -> np.ndarray:
    return np.array([(l + u) / 2.0 for l, u in zip(box.lower, box.upper)])


def contains(box, p, tol=0.0) -> bool:
    p = np.asarray(p, dtype=float).ravel()
    return bool(np.all(p >= np.array(box.lower) - tol)
                and np.all(p <= np.array(box.upper) + tol))


def project(p, box) -> np.ndarray:
    """Euclidean projection onto a box: componentwise clamp."""
    p = np.asarray(p, dtype=float).ravel()
    if len(p) != box.dim:
        raise ValueError(f"point dim {len(p)} != box dim {box.dim}")
    return np.clip(p, box.lower, box.upper)


# ---------------------------------------------------------------------------
# saddle instruments
# ---------------------------------------------------------------------------

def weighted_gradient(w, m1, m2):
    """Scalar closure of the weighted sum `w` and its block derivatives:
    ``f(x, y) -> (value, gx, gy)``, one compiled closure per term."""
    fns = [(wt, compile_objective(e, s, m1, m2, which="both")) for wt, e, s in w.terms]

    def both(x, y):
        v, gx, gy = 0.0, np.zeros(m1), np.zeros(m2)
        for wt, f in fns:
            fv, fgx, fgy = f(x, y)
            v += wt * fv
            gx += np.multiply(wt, fgx)
            gy += np.multiply(wt, fgy)
        return v, gx, gy
    return both


def centralized_saddle(w, bx, by, schedule, iters: int = 100_000):
    """Projected subgradient descent-ascent on `w` from the box center, with
    the stepsizes of `schedule`; cross-validates the grid oracle."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    fn = weighted_gradient(w, bx.dim, by.dim)
    x, y = center(bx), center(by)
    for k in range(iters):
        g = schedule.value(k)
        _, gx, gy = fn(tuple(x), tuple(y))
        x = project(x - g * np.asarray(gx), bx)
        y = project(y + g * np.asarray(gy), by)
    v, _, _ = fn(tuple(x), tuple(y))
    return saddle.SaddleReport(x_star=tuple(x), y_star=tuple(y), value=float(v),
                               minimax_gap=float("nan"), grid_resolution=0)


def verify_saddle(w, candidate, bx, by, samples: int = 10_000) -> float:
    """Largest violation of the saddle inequalities on a regular sample:
    the max over sampled x of value(x*,y*) - value(x,y*) and over sampled y
    of value(x*,y) - value(x*,y*)."""
    x_star, y_star = (np.asarray(candidate[0], dtype=float).ravel(),
                      np.asarray(candidate[1], dtype=float).ravel())
    if not (contains(bx, x_star) and contains(by, y_star)):
        raise ValueError("candidate lies outside the boxes")
    m1, m2 = bx.dim, by.dim
    value_fn = w.compiled(m1, m2)
    per_dim = max(3, int(round(samples ** (1.0 / max(m1, m2)))))
    xpts = saddle._mesh(saddle._axis_grids(bx, per_dim))
    ypts = saddle._mesh(saddle._axis_grids(by, per_dim))
    xs_col = [np.array([c]) for c in x_star]
    ys_col = [np.array([c]) for c in y_star]
    v_star = float(np.asarray(value_fn(xs_col, ys_col)).ravel()[0])
    v_x = np.asarray(value_fn([xpts[:, d] for d in range(m1)], ys_col)).ravel()
    v_y = np.asarray(value_fn(xs_col, [ypts[:, d] for d in range(m2)])).ravel()
    return float(max((v_star - v_x).max(), (v_y - v_star).max()))


# ---------------------------------------------------------------------------
# graphs and scenarios
# ---------------------------------------------------------------------------

def ergodicity_coefficient(A) -> float:
    """Contraction factor of `A` on the max-spread seminorm: 1 - min over
    row pairs of the summed entrywise minima; always in [0, 1]."""
    pairs = itertools.combinations(np.asarray(A, dtype=float), 2)
    return 1.0 - min([1.0] + [float(np.minimum(a, b).sum()) for a, b in pairs])


def disagreement_span(points) -> float:
    """Maximum pairwise Euclidean distance of a nonempty point list."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("disagreement_span needs a nonempty list")
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.asarray(points).ndim == 1:
        pts = pts.T  # a flat list of scalars arrived as one row
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).max())


def make_identical_scenario(objectives, a_seq, eta: float, t1: int, box_x, box_y, rule,
                            x0, y0, name: str = "identical", iterations: int = 1000,
                            **kwargs) -> Scenario:
    """Completely identical two-subnetwork scenario: subnet 2 clones subnet
    1 (same objectives, same mixing sequence) and the cross layer pairs
    counterpart agents one-to-one at every step, so the full dynamics
    coincide with the reduced single-network saddle recursion."""
    n = len(objectives)
    a_seq = tuple(np.asarray(a, dtype=float) for a in a_seq)
    eye = np.eye(n)
    graph = GraphSequenceSpec(
        n1=n, n2=n, period=len(a_seq), a1=a_seq, a2=a_seq,
        cross1=tuple(eye for _ in a_seq), cross2=tuple(eye for _ in a_seq),
        eta=eta, t1=t1, t2=t1, t_cross=1)
    m1, m2 = box_x.dim, box_y.dim
    return Scenario(name=name, m1=m1, m2=m2,
                    objectives1=tuple(objectives), objectives2=tuple(objectives),
                    graph=graph, box_x=box_x, box_y=box_y, rule=rule,
                    x0=np.asarray(x0, dtype=float).reshape(n, m1),
                    y0=np.asarray(y0, dtype=float).reshape(n, m2),
                    iterations=iterations, **kwargs)


def subnet1_objectives():
    """(expr, selection) pairs of the catalog's three minimizing agents."""
    return [(CATALOG[n].expr, CATALOG[n].selection) for n in ("f1", "f2", "f3")]


def subnet2_objectives():
    """(expr, selection) pairs of the catalog's two maximizing agents."""
    return [(CATALOG[n].expr, CATALOG[n].selection) for n in ("g1", "g2")]
