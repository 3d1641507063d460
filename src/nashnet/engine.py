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
separately. :func:`run` generates one Python function per call that keeps
states and cross caches in locals, with the weights and finite box bounds
as literals. A statement the same in every phase is written once, outside
the phase branch: a neighbor-average row or cross-cache line before the
``k % period`` dispatch, an agent's update after it; the others stay in
their phase's branch. An agent's first cross contact is tested against
the phase pattern instead of a stored time. Each agent's step inlines
the code of its objective's derivative in the block the agent moves
(``exprs.objective_code``, the generator behind the compiled objectives,
so the arithmetic is theirs), made once per distinct (objective,
selection, block) and given each agent's own locals as inputs. It holds
only arithmetic that can move a bit (see ``objective_code``). No objective
value is computed: where only the value overflows (``x ** 4`` at x = 1e80
in a wide box) the run goes on, while an overflow in a derivative or a
non-finite state raises ``NumericError``.

The run goes in segments of k. The function takes its locals and the first
k of a segment as arguments and returns the locals, so every phase branch
sees the absolute k. Each segment's stepsizes are tabulated before it runs
(``stepsizes.stepsize_tables``, each entry a function of k alone), and the
kernel reads one stepsize per distinct column of a table
(``stepsizes.distinct_columns``): one gamma_k per side under a homogeneous
rule. It appends each iteration's states, x block then y block, to the
segment's buffer, which the segment's x and y view. The library call is
one segment holding the whole run; a consumer (the CLI's writers) gets
segments of at most SEGMENT_VALUES state values in k order, so its memory
does not grow with K. Splitting a run moves no bit: the kernel's
arithmetic does not see the segment bounds. There is no randomness, and
no BLAS call feeds a state, so a trace follows from IEEE doubles and the
platform libm ``pow`` alone: repeated runs are bit-identical, on any CPU.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .digraph import GraphSequenceSpec, canonical_mix_code, periodic_code
from .errors import NumericError, ValidationError
from .exprs import BoxSet, check_selection, dimensions, expr_keys, format_expr
# the text generator, under the name perfbench/replay.py wraps for its exprs.compile span
from .exprs import objective_code as compile_objective
from .stepsizes import StepsizeRule, distinct_columns, require_horizon, stepsize_tables


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
        object.__setattr__(self, "iterations", require_horizon(self.iterations))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", y0)
        checked = set()  # once per distinct (objective object, selection)
        for e, s in tuple(self.objectives1) + tuple(self.objectives2):
            key = id(e), repr(s)
            if key in checked:
                continue
            checked.add(key)
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


# state values, iterations x (n1 m1 + n2 m2), of one segment of a run
# handed to a consumer (see :func:`run`)
SEGMENT_VALUES = 1 << 16


@dataclass(frozen=True)
class Trace:
    """States x, y and applied stepsizes alpha, beta of a run, or of one
    segment of it: row r holds iteration start + r, and the stepsizes of
    row r moved the states of row r to those of the next iteration.

    A whole run has start 0, K + 1 states and K stepsizes: index 0 is the
    initial state, and the last row, at k = K, applies no stepsize. A
    segment of a longer run (see :func:`run`) holds as many states as
    stepsizes, except the final segment, which ends with the row at k = K.
    :func:`run` returns x and y as views of one buffer of rows (x, y).
    alpha and beta are read-only broadcast views; a homogeneous rule's are
    of gamma_k, agent stride 0 (see ``stepsizes.stepsize_tables``), whose
    one distinct column is all the kernel reads."""

    x: np.ndarray  # (rows, n1, m1)
    y: np.ndarray  # (rows, n2, m2)
    alpha: np.ndarray  # (steps, n1), steps = rows, or rows - 1 where the last row is k = K
    beta: np.ndarray  # (steps, n2)
    start: int = 0  # the k of row 0

    @property
    def iterations(self):
        """The iterations run up to the end of this trace: K for a whole run
        or its final segment."""
        return self.start + len(self.alpha)


# a whole identifier of generated code, never a letter inside a number such as 1e-05
_IDENTIFIER = re.compile(r"\b[A-Za-z_]\w*")


def _kernel_source(scenario: Scenario, widths: tuple) -> str:
    """Source of ``_kernel(k0, k1, state, ia, ib, rec)``: iterations k0 to
    k1 - 1 of the dynamics on scalar locals, each seeing the absolute k.

    state holds the locals the next iteration reads, the states of both
    subnetworks (x block first) and then their cross caches, agent by
    agent; the kernel unpacks it first and returns the same locals after
    iteration k1 - 1, so a run can go on from there. ia/ib yield each
    side's distinct stepsize columns row by row, ``widths[s]`` per
    iteration (``stepsizes.distinct_columns``): agent i of side s reads
    column ``i % widths[s]``, so a homogeneous rule's kernel unpacks one
    stepsize per side. rec receives the states of both subnetworks after
    each iteration as one tuple, x block first.

    An iteration's statements are units: a neighbor-average row and a
    cross-cache line per agent, the reads of the time-k snapshot, and then
    each agent's update. A unit the same in every phase is emitted once,
    outside the phase branch: a read before the ``ph = k % period``
    dispatch, an update after it. Every other unit stays in the branch of
    its phase, reads before updates. So every read of the snapshot comes
    before its first write, and under period 1 there is no branch.

    Each agent's step inlines the code of its objective's derivative in
    the block it moves (``exprs.objective_code``), made once per distinct
    (objective, selection, block) on the first holder's locals; every other
    holder gets that code with its own neighbor average and cross cache put
    in, as whole identifiers. A derivative that is a negation flips the
    step's sign instead (``u - a * (-q)`` is ``u + a * q``). Finite box
    bounds are literals, and an infinite side has no test, as no state
    passes it. Names carry the subnetwork s: state x{s}_{i}_{d}, neighbor
    average u.., cross cache c.., stepsize a{s}_{c}; the derivative's
    temporaries are t1, t2, ..., which every agent assigns before it reads
    them, so moving an agent's update moves no bit.
    """
    g = scenario.graph
    n, m = (g.n1, g.n2), (scenario.m1, scenario.m2)
    mats, cross = (g.a1, g.a2), (g.cross1, g.cross2)
    boxes = (scenario.box_x, scenario.box_y)
    objectives = (scenario.objectives1, scenario.objectives2)
    sides = (0, 1)
    state = [[[f"x{s}_{i}_{d}" for d in range(m[s])] for i in range(n[s])] for s in sides]
    mix = [[[f"u{s}_{i}_{d}" for d in range(m[s])] for i in range(n[s])] for s in sides]
    cache = [[[f"c{s}_{i}_{d}" for d in range(m[1 - s])] for i in range(n[s])] for s in sides]
    contact = _contact_pattern(g)
    keys = expr_keys(e for side in objectives for e, _ in side)
    keys = (keys[:n[0]], keys[n[0]:])
    made = {}  # (objective key, selection, side) -> (first holder, its lines and codes)

    def derivative(s, i):
        """Agent i's lines and derivative codes, in its own block."""
        e, sel = objectives[s][i]
        key = keys[s][i], repr(sel), s
        if key not in made:
            args = (mix[s][i], cache[s][i])[::1 - 2 * s]  # objectives take (x, y)
            made[key] = i, compile_objective(e, sel, m[0], m[1], "xy"[s], x=args[0], y=args[1])
        first, (lines, grad) = made[key]
        if first == i:
            return lines, grad
        names = dict(zip(mix[s][first] + cache[s][first], mix[s][i] + cache[s][i]))

        def put(code):
            return _IDENTIFIER.sub(lambda w: names.get(w.group(), w.group()), code)
        return [put(ln) for ln in lines], [(neg, put(q)) for neg, q in grad]

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

    def units(ph):
        """Phase ph's reads and updates, each a dict unit -> statements in
        the order they run."""
        reads = {("mix", s, i): canonical_mix_code(mats[s][ph][i:i + 1], [mix[s][i]], state[s])
                 for s in sides for i in range(n[s])}
        reads.update({("cross", s, i): canonical_mix_code(cross[s][ph][i:i + 1], [cache[s][i]],
                                                          state[1 - s])
                      for s in sides for i in np.flatnonzero(contact[s][ph]).tolist()})
        return reads, {(s, i): update(s, i, ph) for s in sides for i in range(n[s])}

    phases = [units(ph) for ph in range(g.period)]
    # per part, reads and updates, the units the same in every phase
    shared = [{u for u, code in phases[0][part].items()
               if all(phase[part].get(u) == code for phase in phases[1:])} for part in (0, 1)]
    before, after = ([ln for u, code in phases[0][part].items() if u in shared[part] for ln in code]
                     for part in (0, 1))
    carried = [v for names in (state, cache) for s in sides for row in names[s] for v in row]
    steps = [f"a{s}_{c}" for s in sides for c in range(widths[s])]
    streams = ["ia"] * widths[0] + ["ib"] * widths[1]
    lines = [f"{', '.join(carried)}, = state",
             f"for k, {', '.join(steps)} in zip(range(k0, k1), {', '.join(streams)}):"]
    body = before + periodic_code([[ln for part in (0, 1) for u, code in phase[part].items()
                                    if u not in shared[part] for ln in code] for phase in phases])
    body += after
    body.append("rec((" + ", ".join(x for s in sides for row in state[s] for x in row) + ",))")
    lines += ["    " + ln for ln in body]
    lines.append(f"return {', '.join(carried)},")
    return "\n".join(["def _kernel(k0, k1, state, ia, ib, rec):"] + ["    " + ln for ln in lines])


def _contact_pattern(g: GraphSequenceSpec) -> tuple:
    """Per subnetwork, a (period, n) bool array: whether the agent has a
    cross in-neighbor in that phase."""
    return tuple(np.array([C.sum(axis=1) > 0 for C in cross]) for cross in (g.cross1, g.cross2))


def run(scenario: Scenario, consumer=None) -> Trace:
    """Execute the dynamics for K = ``scenario.iterations`` iterations; a
    run of another length is a run of ``dataclasses.replace(scenario,
    iterations=K)``.

    The stepsize tables are set up and one function is generated for this
    scenario (see the module docstring); the run then goes in segments,
    each a :class:`Trace` of its own range of k. Without a consumer the
    whole run is one segment, which is returned. With one, each segment of
    at most ``max(1, SEGMENT_VALUES // (n1 m1 + n2 m2))`` iterations goes
    to ``consumer(segment)`` in k order and is then dropped, so the memory
    a run holds does not grow with K; the final segment, whose
    ``iterations`` is K, is returned. A segment is checked for non-finite
    states before it is handed on.
    """
    K = scenario.iterations
    g = scenario.graph
    n1, n2, m1, m2 = g.n1, g.n2, scenario.m1, scenario.m2
    w1, w = n1 * m1, n1 * m1 + n2 * m2
    tables = stepsize_tables(scenario.rule, g, K)
    length = K if consumer is None else max(1, SEGMENT_VALUES // w)
    state = scenario.x0.ravel().tolist() + scenario.y0.ravel().tolist()
    state += [0.0] * (n1 * m2 + n2 * m1)  # the cross caches
    states, kernel, k0 = array("d", state[:w]), None, 0  # a segment's rows, from the states at k0
    while True:
        k1 = min(K, k0 + length)
        alpha, beta = tables(k0, k1)
        steps = [distinct_columns(a) for a in (alpha, beta)]
        if kernel is None:
            env = {}
            source = _kernel_source(scenario, tuple(a.shape[1] for a in steps))
            exec(source, env)  # noqa: S102 - source generated here from the scenario
            kernel = env["_kernel"]
        try:
            state = kernel(k0, k1, state, *(iter(memoryview(a.ravel())) for a in steps),
                           states.extend)
        except ArithmeticError as exc:  # float ** overflow, division by zero in an objective
            k = k0 + len(states) // w - 1  # rows recorded after the states at k0
            raise NumericError(f"{type(exc).__name__} at iteration {k}") from None
        rows = np.frombuffer(states, dtype=float).reshape(-1, w)  # x block, then y block
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise NumericError(f"non-finite state produced at iteration {k0 + np.argmin(finite) - 1}")
        if k1 < K:  # the states at k1 begin the next segment
            rows, states = rows[:-1], states[-w:]
        segment = Trace(x=rows[:, :w1].reshape(-1, n1, m1), y=rows[:, w1:].reshape(-1, n2, m2),
                        alpha=alpha, beta=beta, start=k0)
        if consumer is not None:
            consumer(segment)
        if k1 == K:
            return segment
        k0 = k1
