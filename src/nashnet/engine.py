"""The distributed Nash-equilibrium computation dynamics.

Per iteration, every agent averages its in-neighbors within its own
subnetwork, refreshes its cached observation of the other subnetwork if it
has cross in-neighbors this step (otherwise the stale cached mix is kept),
and takes a projected subgradient step on its private objective: subnet 1
descends in x, subnet 2 ascends in y. All quantities within one iteration
are computed from the time-k snapshot (synchronous semantics). Agents that
have not yet had any cross contact perform the mixing step only.

The arithmetic order is part of the definition. Neighbor averages and
cross observations are canonical sums (see ``digraph``): left to right over
the nonzero weights in increasing j, every product and sum rounded
separately. The stepsizes of all K iterations are tabulated before the
loop (``stepsizes.stepsize_tables``). :func:`run` then generates one Python
function per call that keeps states, cross caches and contact times in
locals, has one branch per phase with the weights as literals, and inlines
in each agent's step the code of its objective's derivative in the block
the agent moves (``exprs.objective_code``, the generator behind the
compiled objectives, so the arithmetic is theirs), with the agent's own
locals as inputs. No objective value is computed: where only the value
overflows (``x ** 4`` at x = 1e80 in a wide box) the run goes on, while an
overflow in a derivative or a non-finite state raises ``NumericError``.
There is no randomness, and no BLAS call feeds a state, so a trace follows
from IEEE doubles and the platform libm ``pow`` alone: repeated runs are
bit-identical, on any CPU.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .digraph import GraphSequenceSpec, canonical_mix_code, periodic_code
from .errors import NumericError, ValidationError
from .exprs import BoxSet, check_selection, dimensions, format_expr
# the text generator, under the name perfbench/replay.py wraps for its exprs.compile span
from .exprs import objective_code as compile_objective
from .stepsizes import StepsizeRule, stepsize_tables


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one reproducible run."""

    name: str
    m1: int
    m2: int
    objectives1: tuple  # (expr, selection) per subnet-1 agent
    objectives2: tuple
    graph: GraphSequenceSpec
    box_x: BoxSet
    box_y: BoxSet
    rule: StepsizeRule
    x0: np.ndarray  # (n1, m1), may lie outside the box
    y0: np.ndarray
    iterations: int = 1000
    oracle_x: tuple | None = None  # precomputed saddle reference, if any
    oracle_y: tuple | None = None
    oracle_provenance: str = ""

    def __post_init__(self):
        g = self.graph
        if len(self.objectives1) != g.n1 or len(self.objectives2) != g.n2:
            raise ValidationError("agent count does not match the graph spec")
        if self.box_x.dim != self.m1 or self.box_y.dim != self.m2:
            raise ValidationError("box dimensions do not match (m1, m2)")
        x0 = np.asarray(self.x0, dtype=float).reshape(g.n1, self.m1)
        y0 = np.asarray(self.y0, dtype=float).reshape(g.n2, self.m2)
        if not (np.isfinite(x0).all() and np.isfinite(y0).all()):
            raise ValidationError("initial states must be finite")
        if (self.oracle_x is None) != (self.oracle_y is None):
            raise ValidationError("a stored saddle reference needs both x_star and y_star")
        if self.oracle_x is not None:
            object.__setattr__(self, "oracle_x", _saddle_point(self.oracle_x, "x_star", "m1", self.m1))
            object.__setattr__(self, "oracle_y", _saddle_point(self.oracle_y, "y_star", "m2", self.m2))
        self.rule.schedule.require_horizon(self.iterations)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", y0)
        for e, s in tuple(self.objectives1) + tuple(self.objectives2):
            check_selection(e, s)
            if any(d > m for d, m in zip(dimensions(e), (self.m1, self.m2))):
                raise ValidationError(f"objective {format_expr(e)} needs dimensions "
                                      f"{dimensions(e)} beyond (m1, m2) = ({self.m1}, {self.m2})")

    @property
    def n1(self):
        return self.graph.n1

    @property
    def n2(self):
        return self.graph.n2


def _saddle_point(values, name: str, dim_name: str, dim: int) -> tuple:
    """A stored saddle reference block as `dim` finite floats."""
    try:
        point = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        point = None
    if point is None or point.shape != (dim,) or not np.isfinite(point).all():
        raise ValidationError(f"saddle reference {name} must hold {dim_name} = {dim} "
                              f"finite numbers, got {values!r}")
    return tuple(point.tolist())


@dataclass(frozen=True)
class Trace:
    """States and applied stepsizes of a full run; index 0 is the initial
    state, so arrays have length iterations + 1 (stepsizes: iterations)."""

    x: np.ndarray  # (K+1, n1, m1)
    y: np.ndarray  # (K+1, n2, m2)
    alpha: np.ndarray  # (K, n1)
    beta: np.ndarray  # (K, n2)
    readout1: np.ndarray | None = None  # (K, n1) adaptive learner readouts
    readout2: np.ndarray | None = None

    @property
    def iterations(self):
        return self.x.shape[0] - 1


def _kernel_source(scenario: Scenario, env: dict) -> str:
    """Source of ``_kernel(K, ia, ib, rx, ry)``: K iterations of the
    dynamics on scalar locals, one branch per phase.

    ia/ib yield the stepsizes row by row, and rx/ry receive the states
    after each iteration. Each agent's step inlines the code of its
    objective's derivative in the block it moves (``exprs.objective_code``),
    reading the agent's own neighbor average and cross cache. Box bounds
    are bound in `env` (``repr(inf)`` is not a literal). Names carry the
    subnetwork s: state x{s}_{i}_{d}, neighbor average u.., cross cache c..,
    contact time t{s}_{i}, stepsize a{s}_{i}; the derivative's temporaries
    are t1, t2, ..., which every agent assigns before it reads them.
    """
    g = scenario.graph
    n, m = (g.n1, g.n2), (scenario.m1, scenario.m2)
    mats, cross = (g.a1, g.a2), (g.cross1, g.cross2)
    x0, boxes = (scenario.x0, scenario.y0), (scenario.box_x, scenario.box_y)
    objectives = (scenario.objectives1, scenario.objectives2)
    sides = (0, 1)
    state = [[[f"x{s}_{i}_{d}" for d in range(m[s])] for i in range(n[s])] for s in sides]
    mix = [[[f"u{s}_{i}_{d}" for d in range(m[s])] for i in range(n[s])] for s in sides]
    cache = [[[f"c{s}_{i}_{d}" for d in range(m[1 - s])] for i in range(n[s])] for s in sides]
    clock = [[f"t{s}_{i}" for i in range(n[s])] for s in sides]
    contact = _contact_pattern(g)
    for s in sides:
        env.update({f"lo{s}_{d}": v for d, v in enumerate(boxes[s].lower)})
        env.update({f"hi{s}_{d}": v for d, v in enumerate(boxes[s].upper)})

    def tuple_code(names):
        return "(" + ", ".join(names) + ",)"

    def derivative(s, i):
        """Agent i's lines and derivative codes, in its own block."""
        args = (mix[s][i], cache[s][i])[::1 - 2 * s]  # objectives take (x, y)
        e, sel = objectives[s][i]
        lines, (grad,) = compile_objective(e, sel, m[0], m[1], ("xy"[s],),
                                           x=args[0], y=args[1])
        return lines, grad

    grads = [[derivative(s, i) for i in range(n[s])] for s in sides]

    def update(s, i, ph):
        """Agent i's projected subgradient step, or its mixing step alone
        before its first cross contact."""
        lines, grad = grads[s][i]
        step = list(lines)
        for d, (x, u, q) in enumerate(zip(state[s][i], mix[s][i], grad)):
            step += [f"{x} = {u} {'-+'[s]} a{s}_{i} * ({q})",
                     f"if {x} < lo{s}_{d}:", f"    {x} = lo{s}_{d}",
                     f"elif {x} > hi{s}_{d}:", f"    {x} = hi{s}_{d}"]
        hold = [f"{x} = {u}" for x, u in zip(state[s][i], mix[s][i])]
        if contact[s][ph][i]:
            return step
        if not any(c[i] for c in contact[s]):
            return hold
        return ([f"if {clock[s][i]} >= 0:"] + ["    " + ln for ln in step]
                + ["else:"] + ["    " + ln for ln in hold])

    def phase_body(ph):
        out = []
        for s in sides:  # all reads of the time-k snapshot come first
            out += canonical_mix_code(mats[s][ph], mix[s], state[s])
        for s in sides:
            for i in np.flatnonzero(contact[s][ph]):
                out += canonical_mix_code(cross[s][ph][i:i + 1], [cache[s][i]], state[1 - s])
                out.append(f"{clock[s][i]} = k")
        for s in sides:
            for i in range(n[s]):
                out += update(s, i, ph)
        return out

    lines = []
    for s in sides:
        lines += [f"{x} = {float(v)!r}" for row, vals in zip(state[s], x0[s]) for x, v in zip(row, vals)]
        lines += [f"{c} = 0.0" for row in cache[s] for c in row]
        lines += [f"{t} = -1" for t in clock[s]]
    steps = [f"a{s}_{i}" for s in sides for i in range(n[s])]
    streams = ["ia"] * n[0] + ["ib"] * n[1]
    lines.append(f"for k, {', '.join(steps)} in zip(range(K), {', '.join(streams)}):")
    body = periodic_code([phase_body(ph) for ph in range(g.period)])
    body += [f"{rec}({tuple_code([x for row in state[s] for x in row])})"
             for rec, s in (("rx", 0), ("ry", 1))]
    lines += ["    " + ln for ln in body]
    return "\n".join(["def _kernel(K, ia, ib, rx, ry):"] + ["    " + ln for ln in lines])


def _contact_pattern(g: GraphSequenceSpec) -> tuple:
    """Per subnetwork, a (period, n) bool array: whether the agent has a
    cross in-neighbor in that phase."""
    return tuple(np.array([C.sum(axis=1) > 0 for C in cross]) for cross in (g.cross1, g.cross2))


def run(scenario: Scenario, iterations: int | None = None) -> Trace:
    """Execute the full dynamics for K iterations and record everything.

    Stepsizes are tabulated first; then one function generated for this
    scenario runs all K iterations (see the module docstring).
    """
    K = scenario.iterations if iterations is None else int(iterations)
    g = scenario.graph
    n1, n2, m1, m2 = g.n1, g.n2, scenario.m1, scenario.m2
    alpha, beta, r1, r2 = stepsize_tables(scenario.rule, g, K)
    env = {}
    exec(_kernel_source(scenario, env), env)  # noqa: S102 - source generated here from the scenario
    xs, ys = array("d", scenario.x0.ravel()), array("d", scenario.y0.ravel())
    try:
        env["_kernel"](K, iter(memoryview(alpha.ravel())), iter(memoryview(beta.ravel())),
                       xs.extend, ys.extend)
    except ArithmeticError as exc:  # float ** overflow, division by zero in an objective
        k = (len(xs) + len(ys)) // (n1 * m1 + n2 * m2) - 1  # rows recorded after x0, y0
        raise NumericError(f"{type(exc).__name__} at iteration {k}") from None
    x = np.frombuffer(xs, dtype=float).reshape(K + 1, n1, m1)
    y = np.frombuffer(ys, dtype=float).reshape(K + 1, n2, m2)
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite state produced at iteration {np.argmin(finite) - 1}")
    return Trace(x=x, y=y, alpha=alpha, beta=beta, readout1=r1, readout2=r2)
