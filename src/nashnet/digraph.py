"""Stochastic matrices and time-varying digraph machinery.

Conventions: the weight of arc (j, i) - node i listening to node j - is
entry (i, j) of the adjacency matrix, so neighbor averaging is the matrix
product A @ x. Rows are stochastic, diagonals positive (self-loops
everywhere). Graph sequences are periodic; a fixed graph is a period-1
sequence.

Every such product that feeds a trace or a stepsize is computed in one
canonical order, defined here: entry i is accumulated left to right over
the nonzero A[i, j] in increasing j, A[i, j0] x[j0] + A[i, j1] x[j1] + ...,
every product and every sum rounded separately (0.0 for a row without
weights), so results follow from IEEE doubles and not from the BLAS. The
tests pin its two forms to ``canonical_reference.canonical_matmul``: the
arrays of :func:`_product_plan`, for backward products at n up to
hundreds, and the scalar source of :func:`canonical_mix_code`, for the
loops the engine and the learner generate at small n (at n = 100 it took
390 us per factor of a backward product, against 152 us for numpy arrays).
A limit vector phi(s) is read off one period's backward product and its
repeated squares, each square such a product too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError

STOCHASTIC_TOL = 1e-12
LIMIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# canonical products
# ---------------------------------------------------------------------------

SUM_TERMS_PER_STATEMENT = 32  # bounds the expression depth of emitted sums


def canonical_mix_code(A, targets, sources) -> list:
    """Statements assigning each ``targets[i][d]`` the canonical sum of
    ``A[i, j] * sources[j][d]`` (0.0 without nonzero weights): the source
    form of ``A @ sources``. Weights become literals, so they must be finite;
    a weight of exactly 1.0 leaves its source bare, as ``1.0 * v`` is v.

    A long sum is split into statements ``t = t + w * v + ...`` of at most
    SUM_TERMS_PER_STATEMENT terms, which keeps the order and bounds the
    nesting the compiler recurses through.
    """
    out = []
    for i, row in enumerate(targets):
        weights = [("" if w == 1.0 else f"{w!r} * ", j)
                   for j, w in enumerate(A[i].tolist()) if w != 0.0]
        for d, t in enumerate(row):
            terms = [f"{w}{sources[j][d]}" for w, j in weights] or ["0.0"]
            out += [f"{t} = " + (f"{t} + " if start else "")
                    + " + ".join(terms[start:start + SUM_TERMS_PER_STATEMENT])
                    for start in range(0, len(terms), SUM_TERMS_PER_STATEMENT)]
    return out


def periodic_code(bodies) -> list:
    """Statements running ``bodies[k % len(bodies)]``, one branch per phase
    that holds a statement: none if no phase does."""
    if len(bodies) == 1:
        return list(bodies[0])
    out = []
    for ph, body in enumerate(bodies):
        if body:
            out += [f"{'elif' if out else 'if'} ph == {ph}:"] + ["    " + ln for ln in body]
    return [f"ph = k % {len(bodies)}"] + out if out else []


def is_weight_balanced(A) -> bool:
    """Weighted in-degree equals weighted out-degree at every node, within
    1e-9.

    Rows already sum to 1, so this reduces to every column summing to 1.
    """
    A = np.asarray(A, dtype=float)
    return bool(np.all(np.abs(A.sum(axis=0) - A.sum(axis=1)) <= 1e-9))


def reachability(adj_bool) -> np.ndarray:
    """Reflexive-transitive closure of a boolean adjacency: entry (i, j) is
    true when a path of arcs leads from node j to node i, so i hears j."""
    R = np.asarray(adj_bool, dtype=bool) | np.eye(len(adj_bool), dtype=bool)
    for _ in range(int(math.ceil(math.log2(max(R.shape[0], 2)))) + 1):
        R = R | (R @ R)
    return R


def strongly_connected(adj_bool) -> bool:
    """Strong connectivity of a boolean adjacency: every node hears every node."""
    return bool(reachability(adj_bool).all())


# ---------------------------------------------------------------------------
# graph sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSequenceSpec:
    """Periodic two-subnetwork graph layer specification.

    a1/a2: per-phase mixing matrices of the two subnetworks.
    cross1: per-phase (n1, n2) weights agents of subnet 1 place on subnet 2
    (an all-zero row means no cross in-neighbor that phase); cross2 likewise
    with shape (n2, n1). Nothing else is declared: the agent counts n1 and
    n2 are the row counts of the cross layers, the period is the number of
    phases, the floor eta is the least positive weight of all four layers
    over every phase (1.0 without one), and one period's union contains
    every shorter window's.
    """

    a1: tuple
    a2: tuple
    cross1: tuple
    cross2: tuple
    n1: int = field(init=False)
    n2: int = field(init=False)
    period: int = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self):
        names = ("a1", "a2", "cross1", "cross2")
        layers = [tuple(np.asarray(m, dtype=float) for m in getattr(self, name)) for name in names]
        if not layers[0]:
            raise ValidationError("a graph sequence needs at least one phase")
        n1, n2 = (len(mats[0]) if mats and mats[0].ndim else 0 for mats in layers[2:])
        if not (n1 and n2):
            raise ValidationError(f"subnet {2 if n1 else 1} has no agents")
        labels = ("subnet-1 matrix", "subnet-2 matrix", "cross-to-1 layer", "cross-to-2 layer")
        for label, mats, shape in zip(labels, layers, ((n1, n1), (n2, n2), (n1, n2), (n2, n1))):
            if len(mats) != len(layers[0]):
                raise ValidationError(f"{label} has {len(mats)} phases, a1 {len(layers[0])}")
            for m in mats:
                if m.shape != shape:
                    raise ValidationError(f"{label} shape {m.shape} != {shape}")
        weights = sum(layers, ())
        if not all(np.isfinite(m).all() for m in weights):
            raise ValidationError("graph weights must be finite")
        positive = [m[m > 0] for m in weights]
        eta = min((float(p.min()) for p in positive if p.size), default=1.0)
        for name, value in zip(names + ("n1", "n2", "period", "eta"),
                               layers + [n1, n2, len(layers[0]), eta]):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Violation:
    clause: str
    phase: int
    node: int
    message: str

    def __str__(self):
        return f"[{self.clause}] phase {self.phase}, node {self.node}: {self.message}"


def _row_faults(A) -> np.ndarray:
    """(n, 3) flags per row of square `A`: a negative weight, a sum not within
    STOCHASTIC_TOL of one (a NaN sum included), a diagonal entry not positive."""
    return np.column_stack(((A < 0).any(axis=1), ~(np.abs(A.sum(axis=1) - 1.0) <= STOCHASTIC_TOL),
                            np.diagonal(A) <= 0))


def validate_weight_rule(spec: GraphSequenceSpec) -> list:
    """Check the weight rule clauses, under the floor spec.eta, which holds
    by derivation: (i) every node keeps a self-loop; (ii) within-subnet rows
    are nonnegative and sum to one; (iii) nonempty cross rows are
    nonnegative and sum to one. Violations are returned as data, never raised.
    """
    out = []
    for phase in range(spec.period):
        for subnet, mats in ((1, spec.a1), (2, spec.a2)):
            A = mats[phase]
            for i, (negative, off, loopless) in enumerate(_row_faults(A).tolist()):
                if negative:
                    out.append(Violation("weight-rule (ii)", phase, i,
                                         f"subnet {subnet} has negative weights"))
                if off:
                    out.append(Violation("weight-rule (ii)", phase, i,
                                         f"subnet {subnet} row sums to {A[i].sum():.17g}"))
                if loopless:
                    out.append(Violation("weight-rule (i)", phase, i,
                                         f"subnet {subnet} missing self-loop"))
        for subnet, mats in ((1, spec.cross1), (2, spec.cross2)):
            for i, row in enumerate(mats[phase]):
                if np.any(row < 0):
                    out.append(Violation("weight-rule (iii)", phase, i,
                                         f"subnet {subnet} cross weights negative"))
                    continue
                s = row.sum()
                if s != 0.0 and abs(s - 1.0) > STOCHASTIC_TOL:  # 0: no cross in-neighbors
                    out.append(Violation("weight-rule (iii)", phase, i,
                                         f"subnet {subnet} cross row sums to {s:.17g}"))
    return out


def _window_unions(mats, T: int, covered):
    """For each start 0..period-1 of the periodic phase list `mats` (all
    starts, by periodicity), the logical or of ``covered(M)`` over the
    phases M of the length-T window from it; ValueError when T < 1."""
    if T < 1:
        raise ValueError("window T must be >= 1")
    p = len(mats)
    for start in range(p):
        yield functools.reduce(np.logical_or, (covered(mats[k % p])
                                               for k in range(start, start + min(T, p))))


def check_ujsc(mats, T: int) -> bool:
    """Every length-T window's union graph of phase list `mats` is strongly connected."""
    return all(strongly_connected(u) for u in _window_unions(mats, T, lambda A: A > 0))


def check_jointly_bipartite(spec: GraphSequenceSpec, T: int) -> bool:
    """Every length-T window's cross union leaves no node without a cross
    in-neighbor from the other subnetwork, a row with a positive sum."""
    return all(u.all() for mats in (spec.cross1, spec.cross2)
               for u in _window_unions(mats, T, lambda C: C.sum(axis=1) > 0))


# ---------------------------------------------------------------------------
# transition products and their limits
# ---------------------------------------------------------------------------

def _product_plan(A) -> list:
    """The canonical order of ``A @ P`` as data: for each rank t, the rows
    of `A` that have a t-th nonzero weight, that weight's column and the
    weight itself, as an (r, 1) column."""
    rows, cols = np.nonzero(A)  # row-major, so j increases within a row
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    return [(rows[sel], cols[sel], A[rows[sel], cols[sel]][:, None])
            for sel in (rank == t for t in range(int(rank.max(initial=-1)) + 1))]


def _planned_product(plan, P) -> np.ndarray:
    """``A @ P`` in the canonical order, for `plan` = ``_product_plan(A)``."""
    out = np.zeros(P.shape)
    for t, (r, c, w) in enumerate(plan):
        out[r] = w * P[c] if t == 0 else out[r] + w * P[c]
    return out


def transition_product(mats, k: int, s: int) -> np.ndarray:
    """Backward product A(k) A(k-1) ... A(s) of phase list `mats`; row-stochastic."""
    if not 0 <= s <= k:
        raise ValueError(f"need k >= s >= 0, got k={k}, s={s}")
    plans = [_product_plan(A) for A in mats]
    P = mats[s % len(mats)]
    for t in range(s + 1, k + 1):
        P = _planned_product(plans[t % len(mats)], P)
    return P


# P^(2^60) spans more periods than the longest run stepsizes.require_horizon
# admits (sys.maxsize // 8 iterations), so a product still spread out there
# does not settle within any run.
MAX_SQUARINGS = 60
# Rows that lose mass can meet the spread by decaying rather than mixing, so
# at the stop every row must sum to one within ROW_SUM_TOL. Over the N periods
# taken, a row then lost at most ROW_SUM_TOL / N per period against a mixing
# rate near ln(1 / spread_tol) / N, so decay moves phi by about 5e-8 at most at
# LIMIT_TOL; rounding alone reaches 3.6e-9 in 27 squarings (test_digraph).
ROW_SUM_TOL = 1e-6


def limiting_stochastic_vector(mats, s: int, spread_tol: float = LIMIT_TOL) -> np.ndarray:
    """The common row of the backward products of phase list `mats` from time s.

    One period's product P = Phi(s + p - 1, s) is squared, P^2, P^4, ...,
    each square a canonical product, at most MAX_SQUARINGS times. phi is
    read off the first P^(2^j) whose maximum column spread is within
    `spread_tol`, as the row average scaled to sum to one; NumericError when
    none is (a product that is not finite never is), or when a row of that
    P^(2^j) sums farther from one than ROW_SUM_TOL.

    Before any product, ValidationError when a phase has a negative weight,
    a row whose sum is not within STOCHASTIC_TOL of one (a NaN weight too)
    or a diagonal entry that is not positive, and NumericError when the
    union graph of one period has no root, a node every agent hears. A root
    is necessary: if the rows agree on phi, some phi_j > 0, so from some
    time on every row i of the product is positive at j, and an arc of the
    product is a path of the union, so every i hears j. With positive
    diagonals it is also sufficient: each factor keeps every arc of the
    factors before it, so one period's product has the union's reachability,
    and a stochastic matrix with a positive diagonal and a rooted graph has
    powers that converge to rank one. So the limit is computed only under
    positive diagonals: the swap [[0, 1], [1, 0]] cycles forever, and
    [[0, 1], [0, 1]], which has a limit, is refused too.
    """
    for phase, A in enumerate(mats):
        if _row_faults(A).any():
            raise ValidationError(f"phase {phase} is not row-stochastic with a positive "
                                  "diagonal: a weight is negative, a row does not sum to one "
                                  "or a diagonal entry is not positive")
    union = next(_window_unions(mats, len(mats), lambda A: A > 0))
    if not reachability(union).all(axis=0).any():
        raise NumericError("transition product has no limit: the union graph of one "
                           "period has no node that every agent hears")
    P = transition_product(mats, s + len(mats) - 1, s)
    with np.errstate(all="ignore"):  # an overflowing product ends as a spread never reached
        for j in range(MAX_SQUARINGS + 1):  # P is P^(2^j)
            if j:
                P = _planned_product(_product_plan(P), P)
            if float((P.max(axis=0) - P.min(axis=0)).max()) <= spread_tol:  # False on NaN
                drift = float(np.abs(P.sum(axis=1) - 1.0).max())
                if drift > ROW_SUM_TOL:
                    raise NumericError(f"transition product starting at {s} reached spread "
                                       f"{spread_tol} with a row sum {drift:.3g} away from one: "
                                       "its rows lose mass faster than they mix")
                phi = P.mean(axis=0)
                return phi / phi.sum()
    raise NumericError(f"transition product starting at {s} did not reach spread "
                       f"{spread_tol} within 2**{MAX_SQUARINGS} periods")


def perron_vector(A) -> np.ndarray:
    """Positive stochastic left eigenvector of `A` for eigenvalue one.

    `A` must meet weight-rule clauses (i) and (ii) as a period-1 sequence.
    The vector is the limit of the constant-sequence transition product.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not (A > 0).any():
        raise ValidationError(f"Perron vector needs a square matrix with a positive "
                              f"weight, got shape {A.shape}")
    if not strongly_connected(A > 0):
        raise ValidationError("Perron vector requires a strongly connected graph")
    phi = limiting_stochastic_vector((A,), 0, spread_tol=LIMIT_TOL * 1e-2)
    resid = float(np.abs(phi @ A - phi).max())
    if resid > LIMIT_TOL:
        raise NumericError(f"Perron residual {resid:.3e} above tolerance {LIMIT_TOL}")
    return phi


def build_cycle_matrix(mu, b11: float = 0.5) -> np.ndarray:
    """Stochastic matrix on a directed cycle with self-loops whose left
    eigenvector for eigenvalue one is `mu`.

    The construction needs the first component minimal; indices are permuted
    internally (ties to the lowest index) and permuted back.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    n = len(mu)
    if np.any(mu <= 0) or abs(mu.sum() - 1.0) > 1e-9:
        raise ValidationError("mu must be a positive stochastic vector")
    if not 0.0 < b11 < 1.0:
        raise ValidationError("b11 must lie in (0, 1)")
    if n == 1:
        return np.array([[1.0]])
    first = int(np.argmin(mu))  # lowest index wins ties by argmin semantics
    perm = [first] + [i for i in range(n) if i != first]
    m = mu[perm]
    B = np.zeros((n, n))
    diag = np.empty(n)
    diag[0] = b11
    diag[1:] = 1.0 - (1.0 - b11) * m[0] / m[1:]
    for r in range(n):
        B[r, r] = diag[r]
        B[r, (r + 1) % n] = 1.0 - diag[r]
    # map back: original node i sits at permuted position inv[i]
    inv = np.argsort(perm)
    return B[np.ix_(inv, inv)]
