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
loop (``stepsizes.stepsize_tables``), and the kernel reads one stepsize per
distinct column of a table (``stepsizes.distinct_columns``): one gamma_k
per side under a homogeneous rule. :func:`run` then generates one Python
function per call that keeps states and cross caches in locals, has one
branch per phase with the weights and finite box bounds as literals, tests
an agent's first cross contact against the phase pattern instead of a
stored time, and inlines in each agent's step the code of its objective's
derivative in the block the agent moves (``exprs.objective_code``, the
generator behind the compiled objectives, so the arithmetic is theirs),
with the agent's own locals as inputs. It holds only arithmetic that can
move a bit (see ``objective_code``), and appends each iteration's states,
x block then y block, to one buffer that the trace's x and y view. No
objective value is computed: where only the value
overflows (``x ** 4`` at x = 1e80 in a wide box) the run goes on, while an
overflow in a derivative or a non-finite state raises ``NumericError``.
There is no randomness, and no BLAS call feeds a state, so a trace follows
from IEEE doubles and the platform libm ``pow`` alone: repeated runs are
bit-identical, on any CPU.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .digraph import GraphSequenceSpec, canonical_mix_code, periodic_code
from .errors import NumericError, ValidationError
from .exprs import BoxSet, check_selection, dimensions, format_expr
# the text generator, under the name perfbench/replay.py wraps for its exprs.compile span
from .exprs import objective_code as compile_objective
from .stepsizes import StepsizeRule, distinct_columns, stepsize_tables


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one reproducible run."""

    name: str
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
    warnings: tuple = field(default=(), init=False, compare=False)  # the loader's findings

    def __post_init__(self):
        g = self.graph
        if len(self.objectives1) != g.n1 or len(self.objectives2) != g.n2:
            raise ValidationError("agent count does not match the graph spec")
        try:
            x0 = np.asarray(self.x0, dtype=float).reshape(g.n1, self.m1)
            y0 = np.asarray(self.y0, dtype=float).reshape(g.n2, self.m2)
        except ValueError:
            raise ValidationError("initial states must be n1 x m1 and n2 x m2 numbers, "
                                  "m1 and m2 the box dimensions") from None
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

    # agent counts and block dimensions, read off the graph and the boxes
    n1 = property(lambda self: self.graph.n1)
    n2 = property(lambda self: self.graph.n2)
    m1 = property(lambda self: self.box_x.dim)
    m2 = property(lambda self: self.box_y.dim)


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
    """States x, y and applied stepsizes alpha, beta of a full run; index 0
    is the initial state, so states have length iterations + 1 (stepsizes:
    iterations).
    :func:`run` returns x and y as views of one buffer of rows (x, y).
    Under a homogeneous rule alpha and beta are read-only broadcast views
    of gamma_k, agent stride 0 (see ``stepsizes.stepsize_tables``), whose
    one distinct column is all the kernel reads."""

    x: np.ndarray  # (K+1, n1, m1)
    y: np.ndarray  # (K+1, n2, m2)
    alpha: np.ndarray  # (K, n1)
    beta: np.ndarray  # (K, n2)

    @property
    def iterations(self):
        return self.x.shape[0] - 1


def _kernel_source(scenario: Scenario, widths: tuple) -> str:
    """Source of ``_kernel(K, ia, ib, rec)``: K iterations of the dynamics
    on scalar locals, one branch per phase.

    ia/ib yield each side's distinct stepsize columns row by row,
    ``widths[s]`` per iteration (``stepsizes.distinct_columns``): agent i
    of side s reads column ``i % widths[s]``, so a homogeneous rule's
    kernel unpacks one stepsize per side. rec receives the states of
    both subnetworks after each iteration as one tuple, x block first. Each
    agent's step inlines the code of its objective's derivative in the
    block it moves (``exprs.objective_code``), reading the agent's own
    neighbor average and cross cache; a derivative that is a negation flips
    the step's sign instead (``u - a * (-q)`` is ``u + a * q``). Finite box
    bounds are literals, and an infinite side has no test, as no state
    passes it. Names carry the subnetwork s: state x{s}_{i}_{d}, neighbor
    average u.., cross cache c.., stepsize a{s}_{c}; the derivative's
    temporaries are t1, t2, ..., which every agent assigns before it reads
    them.
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
    contact = _contact_pattern(g)

    def derivative(s, i):
        """Agent i's lines and derivative codes, in its own block."""
        args = (mix[s][i], cache[s][i])[::1 - 2 * s]  # objectives take (x, y)
        e, sel = objectives[s][i]
        return compile_objective(e, sel, m[0], m[1], "xy"[s], x=args[0], y=args[1])

    grads = [[derivative(s, i) for i in range(n[s])] for s in sides]

    def clamp(x, lo, hi):
        """The projection of x onto [lo, hi], without the test of an infinite side."""
        out = []
        for op, v in (("<", lo), (">", hi)):
            if math.isfinite(v):
                out += [f"{'elif' if out else 'if'} {x} {op} {v!r}:", f"    {x} = {v!r}"]
        return out

    def update(s, i, ph):
        """Agent i's projected subgradient step in phase ph, or its mixing
        step alone before its first cross contact. That contact falls at
        k = first, the first phase with a cross in-neighbor, so in a phase
        without one the agent steps once k > first."""
        lines, grad = grads[s][i]
        step = list(lines)
        box, gamma = boxes[s], f"a{s}_{i % widths[s]}"
        for x, u, (neg, q), lo, hi in zip(state[s][i], mix[s][i], grad, box.lower, box.upper):
            a = gamma if q == "1.0" else f"{gamma} * {q}"
            step += [f"{x} = {u} {'-+'[s ^ neg]} {a}"] + clamp(x, lo, hi)
        hold = [f"{x} = {u}" for x, u in zip(state[s][i], mix[s][i])]
        if contact[s][ph][i]:
            return step
        if not contact[s][:, i].any():
            return hold
        first = int(np.argmax(contact[s][:, i]))
        return ([f"if k > {first}:"] + ["    " + ln for ln in step]
                + ["else:"] + ["    " + ln for ln in hold])

    def phase_body(ph):
        out = []
        for s in sides:  # all reads of the time-k snapshot come first
            out += canonical_mix_code(mats[s][ph], mix[s], state[s])
        for s in sides:
            for i in np.flatnonzero(contact[s][ph]):
                out += canonical_mix_code(cross[s][ph][i:i + 1], [cache[s][i]], state[1 - s])
        for s in sides:
            for i in range(n[s]):
                out += update(s, i, ph)
        return out

    lines = []
    for s in sides:
        lines += [f"{x} = {float(v)!r}" for row, vals in zip(state[s], x0[s]) for x, v in zip(row, vals)]
        lines += [f"{c} = 0.0" for row in cache[s] for c in row]
    steps = [f"a{s}_{c}" for s in sides for c in range(widths[s])]
    streams = ["ia"] * widths[0] + ["ib"] * widths[1]
    lines.append(f"for k, {', '.join(steps)} in zip(range(K), {', '.join(streams)}):")
    body = periodic_code([phase_body(ph) for ph in range(g.period)])
    body.append("rec((" + ", ".join(x for s in sides for row in state[s] for x in row) + ",))")
    lines += ["    " + ln for ln in body]
    return "\n".join(["def _kernel(K, ia, ib, rec):"] + ["    " + ln for ln in lines])


def _contact_pattern(g: GraphSequenceSpec) -> tuple:
    """Per subnetwork, a (period, n) bool array: whether the agent has a
    cross in-neighbor in that phase."""
    return tuple(np.array([C.sum(axis=1) > 0 for C in cross]) for cross in (g.cross1, g.cross2))


def run(scenario: Scenario, iterations: int | None = None) -> Trace:
    """Execute the full dynamics for K iterations and record everything.

    Stepsizes are tabulated first; then one function generated for this
    scenario runs all K iterations on their distinct columns (see the
    module docstring).
    """
    K = scenario.iterations if iterations is None else int(iterations)
    g = scenario.graph
    n1, n2, m1, m2 = g.n1, g.n2, scenario.m1, scenario.m2
    alpha, beta = stepsize_tables(scenario.rule, g, K)
    steps = [distinct_columns(a) for a in (alpha, beta)]
    env = {}
    source = _kernel_source(scenario, tuple(a.shape[1] for a in steps))
    exec(source, env)  # noqa: S102 - source generated here from the scenario
    states = array("d", scenario.x0.ravel().tolist() + scenario.y0.ravel().tolist())
    try:
        env["_kernel"](K, *(iter(memoryview(a.ravel())) for a in steps), states.extend)
    except ArithmeticError as exc:  # float ** overflow, division by zero in an objective
        k = len(states) // (n1 * m1 + n2 * m2) - 1  # rows recorded after x0, y0
        raise NumericError(f"{type(exc).__name__} at iteration {k}") from None
    rows = np.frombuffer(states, dtype=float).reshape(K + 1, -1)  # x block, then y block
    x = rows[:, :n1 * m1].reshape(K + 1, n1, m1)
    y = rows[:, n1 * m1:].reshape(K + 1, n2, m2)
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(f"non-finite state produced at iteration {np.argmin(finite) - 1}")
    return Trace(x=x, y=y, alpha=alpha, beta=beta)
