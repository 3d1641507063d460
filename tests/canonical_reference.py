"""Plain-Python references the tests hold the package to; no command
reaches them.

The dynamics in the canonical arithmetic order are the bit-exact oracle of
``engine.run``: every neighbor average summed left to right over the
nonzero weights in increasing j, each product and sum a separately rounded
Python float operation. Stepsizes come from :func:`stepsize_for`, one agent
and one time step at a time, on gamma_k from :func:`gamma`; adaptive
denominators from :func:`phi_readouts`, the diagonals of the paper's
backward products ``transition_product``. Objectives are compiled closures
of each agent's derivative alone, built by :func:`emitted_derivative` from
the code the engine inlines, so a value that overflows stops neither.
``test_exprs`` checks them against the recursive interpreter here,
:func:`evaluate` and the forward-mode :func:`_grad`.

The grid oracle's weighted sum has one as well: :func:`per_term_value`
evaluates one closure per term and adds them with ``sum``, and
:func:`whole_table` fills the grid table in a single call, which
:func:`table_extremes` holds whole to take its row maxima and column
minima. :func:`grid_minimax` is the oracle's search as a scan of every
cell of every table it reads. :func:`centralized_saddle` finds the saddle by projected
descent-ascent instead, and :func:`verify_saddle` certifies a candidate on
samples. The convexity sampler's oracle draws each trial's points with
sequential ``rng.uniform`` calls and evaluates them one at a time through
the interpreter (:func:`convexity_points`, :func:`worst_violations`).
The metrics' disagreement span has :func:`pairwise_disagreement`, every
agent pair in plain floats, and the trace CSV has :func:`trace_csv_text`,
one ``%`` per row.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from nashnet import saddle
from nashnet.catalog import CATALOG
from nashnet.digraph import GraphSequenceSpec, transition_product
from nashnet.engine import Scenario
from nashnet.errors import NashnetError, NumericError
from nashnet.exprs import (Abs, Affine, Const, Neg, Pow, Prod, Scale, Sum, Var,
                           check_selection, compile_objective, dimensions,
                           objective_code)
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


def emitted_derivative(e, sel, m1, m2, side):
    """The code ``objective_code`` emits for the derivative of `e` in block
    `side` ("x" or "y"), as a closure ``f(x, y)`` of component sequences
    that returns the components as a tuple. The code reads scalar locals,
    u0.. for x and c0.. for y, as the engine kernel's code does."""
    xs, ys = [f"u{d}" for d in range(m1)], [f"c{d}" for d in range(m2)]
    lines, grad = objective_code(e, sel, m1, m2, side, x=xs, y=ys)
    src = "\n".join(["def _derivative(x, y):", f"    {', '.join(xs + ys)}, = *x, *y"]
                    + ["    " + ln for ln in lines]
                    + ["    return (" + "".join(f"({'-' * neg}{q}), " for neg, q in grad) + ")"])
    env = {}
    exec(src, env)  # noqa: S102 - source generated by the code under test
    return env["_derivative"]


def compiled_objectives(scenario):
    m1, m2 = scenario.m1, scenario.m2
    return ([emitted_derivative(e, s, m1, m2, "x") for e, s in scenario.objectives1],
            [emitted_derivative(e, s, m1, m2, "y") for e, s in scenario.objectives2])


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
    gives the agent a cross contact, -1 before the first. ``step`` stamps
    it as contact_x/y."""
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


def gamma(schedule, k: int) -> float:
    """gamma_k of `schedule`, one k at a time as the paper writes it: the
    table's entry k, or c / (k + b)^(1/2 + eps). There is no gamma_k for
    k < 0 or past the table's end."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if schedule.table is not None:
        if k >= len(schedule.table):
            raise ValueError(f"schedule table of length {len(schedule.table)} has no entry {k}")
        return schedule.table[k]
    return schedule.c / (k + schedule.b) ** (0.5 + schedule.eps)


def stepsize_for(rule, agent: int, subnet: int, k: int, readouts=None) -> float:
    """The stepsize of `agent` in `subnet` at time k under `rule`; adaptive
    rules divide by ``readouts[k, agent]``, that subnet's denominators."""
    g = gamma(rule.schedule, k)
    if isinstance(rule, Homogeneous):
        return g
    if isinstance(rule, OracleHeterogeneous):
        vecs = rule.phi1 if subnet == 1 else rule.phi2
        phi = vecs[(k + 1) % len(vecs)]
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
    fns = [(wt, compile_objective(e, m1, m2, vector=True)) for wt, e in w.terms]

    def value(x, y):
        return sum(wt * f(x, y) for wt, f in fns)
    return value


def whole_table(value_fn, xpts, ypts):
    """The (Nx, Ny) grid table of ``value_fn`` on the product of two point
    sets, in one call, held whole."""
    xcols = [xpts[:, d][:, None] for d in range(xpts.shape[1])]
    ycols = [ypts[:, d][None, :] for d in range(ypts.shape[1])]
    return np.broadcast_to(np.asarray(value_fn(xcols, ycols), dtype=float),
                           (xpts.shape[0], ypts.shape[0])).copy()


def table_extremes(value_fn, xpts, ypts):
    """The row maxima and column minima of the whole table, held at once."""
    table = whole_table(value_fn, xpts, ypts)
    return table.max(axis=1), table.min(axis=0)


def grid_minimax(w, bx, by, resolution: int = 2001, per_term: bool = False):
    """``saddle.grid_minimax`` as the whole-table scan: the coarse table and
    both tables of each refinement level are evaluated in every cell and
    held whole, x* is their ``max(axis=1).argmin()`` row and y* their
    ``min(axis=0).argmax()`` column. The sum is ``w.compiled``, or with
    `per_term` :func:`per_term_value`. No budget, dimension or NaN check."""
    m1, m2 = bx.dim, by.dim
    fn = per_term_value(w, m1, m2) if per_term else w.compiled(m1, m2)
    xpts = saddle._mesh(saddle._axis_grids(bx, resolution))
    ypts = saddle._mesh(saddle._axis_grids(by, resolution))
    sup_y, inf_x = table_extremes(fn, xpts, ypts)
    ix, iy = int(sup_y.argmin()), int(inf_x.argmax())
    gap = float(sup_y[ix] - inf_x[iy])
    x_star, y_star = xpts[ix].copy(), ypts[iy].copy()
    hx = np.array([(u - l) / (resolution - 1) for l, u in zip(bx.lower, bx.upper)])
    hy = np.array([(u - l) / (resolution - 1) for l, u in zip(by.lower, by.upper)])
    fine = min(201, resolution)
    for _ in range(saddle.REFINE_LEVELS):
        fxp = saddle._mesh([np.linspace(max(l, c - h), min(u, c + h), fine)
                            for c, h, l, u in zip(x_star, hx, bx.lower, bx.upper)])
        fyp = saddle._mesh([np.linspace(max(l, c - h), min(u, c + h), fine)
                            for c, h, l, u in zip(y_star, hy, by.lower, by.upper)])
        y_all = np.concatenate([ypts, fyp], axis=0)
        x_all = np.concatenate([xpts, fxp], axis=0)
        x_star = fxp[int(table_extremes(fn, fxp, y_all)[0].argmin())].copy()
        y_star = fyp[int(table_extremes(fn, x_all, fyp)[1].argmax())].copy()
        hx = hx * 2.0 / (fine - 1)
        hy = hy * 2.0 / (fine - 1)
    val = float(np.asarray(fn([np.array([c]) for c in x_star],
                              [np.array([c]) for c in y_star])).ravel()[0])
    return saddle.SaddleReport(x_star=tuple(x_star), y_star=tuple(y_star), value=val,
                               minimax_gap=gap, grid_resolution=resolution)


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
        # one chain, left to right: the x terms, the y terms, the offset
        terms = [c * v for c, v in zip(e.coeff_x, x)] + [c * v for c, v in zip(e.coeff_y, y)]
        return functools.reduce(operator.add, terms + [e.offset])
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

def weighted_gradient(objectives, weights, m1, m2):
    """Scalar closure of the sum of the (expr, selection) `objectives`, each
    times its weight, and its block derivatives under the selections:
    ``f(x, y) -> (value, gx, gy)``, from three closures per term."""
    fns = [(wt, compile_objective(e, m1, m2), emitted_derivative(e, s, m1, m2, "x"),
            emitted_derivative(e, s, m1, m2, "y")) for wt, (e, s) in zip(weights, objectives)]

    def both(x, y):
        v, gx, gy = 0.0, np.zeros(m1), np.zeros(m2)
        for wt, f, fx, fy in fns:
            v += wt * f(x, y)
            gx += np.multiply(wt, fx(x, y))
            gy += np.multiply(wt, fy(x, y))
        return v, gx, gy
    return both


def centralized_saddle(objectives, weights, bx, by, schedule, iters: int = 100_000):
    """Projected subgradient descent-ascent on the weighted sum of the
    (expr, selection) `objectives` from the box center, with the stepsizes
    of `schedule`; cross-validates the grid oracle."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    fn = weighted_gradient(objectives, weights, bx.dim, by.dim)
    x, y = center(bx), center(by)
    for k in range(iters):
        g = gamma(schedule, k)
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


def pairwise_disagreement(states) -> np.ndarray:
    """(K+1,) max over all agent pairs of the Euclidean distance, per k, in
    plain Python floats: each coordinate's difference squared as ``d * d``,
    summed left to right, rooted with ``math.sqrt``. O(n**2) per k."""
    return np.array([max(math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
                         for p in row.tolist() for q in row.tolist())
                     for row in np.asarray(states, dtype=float)])


def trace_csv_text(trace) -> str:
    """The trace CSV one `%` per row writes: for each k, subnet 1's agents
    then subnet 2's, ``k,agent,subnet,states...,stepsize`` with empty
    padding fields and an empty stepsize at k = K."""
    m = max(trace.x.shape[2], trace.y.shape[2])
    K = trace.iterations
    lines = ["k,agent,subnet," + ",".join(f"s{d}" for d in range(m)) + ",stepsize"]
    for k in range(K + 1):
        for subnet, states, steps in ((1, trace.x, trace.alpha), (2, trace.y, trace.beta)):
            for i, state in enumerate(states[k].tolist()):
                cells = ["%d" % k, "%d" % (i + 1), "%d" % subnet]
                cells += ["%.17g" % v for v in state] + [""] * (m - len(state))
                cells.append("%.17g" % steps[k, i] if k < K else "")
                lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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
