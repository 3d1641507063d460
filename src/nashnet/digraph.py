"""Stochastic matrices and time-varying digraph machinery.

Conventions: the weight of arc (j, i) - node i listening to node j - is
entry (i, j) of the adjacency matrix, so neighbor averaging is the matrix
product A @ x. Rows are stochastic, diagonals positive (self-loops
everywhere). Graph sequences are periodic; a fixed graph is a period-1
sequence.

Every such product that feeds a trace is computed in one canonical order,
defined here: entry i is accumulated left to right over the nonzero A[i, j]
in increasing j, A[i, j0] x[j0] + A[i, j1] x[j1] + ..., with every product
and every sum rounded separately. :func:`canonical_matmul` evaluates it on
arrays and :func:`canonical_mix_code` emits it as Python source for the
generated loops, so results follow from IEEE doubles and not from the BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

STOCHASTIC_TOL = 1e-12
LIMIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# basic matrix checks
# ---------------------------------------------------------------------------

def stochastic_violations(A, tol=STOCHASTIC_TOL, eta=None):
    """Reasons why `A` is not a valid mixing matrix (empty list = valid).

    Checks nonnegativity, unit row sums within `tol`, positive diagonal,
    and, when `eta` is given, that every positive entry is at least `eta`.
    """
    A = np.asarray(A, dtype=float)
    out = []
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return [f"matrix is not square: shape {A.shape}"]
    n = A.shape[0]
    if np.any(A < 0):
        out.append("negative entries present")
    bad = np.nonzero(np.abs(A.sum(axis=1) - 1.0) > tol)[0]
    for i in bad:
        out.append(f"row {i} sums to {A[i].sum():.17g}, not 1")
    for i in range(n):
        if A[i, i] <= 0:
            out.append(f"diagonal entry ({i},{i}) not positive (no self-loop)")
    if eta is not None:
        pos = A[A > 0]
        if pos.size and pos.min() < eta - 1e-15:
            out.append(f"positive entry {pos.min():.17g} below eta={eta}")
    return out


def require_stochastic(A, tol=STOCHASTIC_TOL, eta=None):
    A = np.asarray(A, dtype=float)
    problems = stochastic_violations(A, tol, eta)
    if problems:
        raise ValidationError("; ".join(problems))
    return A


# ---------------------------------------------------------------------------
# canonical products
# ---------------------------------------------------------------------------

SUM_TERMS_PER_STATEMENT = 32  # bounds the expression depth of emitted sums


def canonical_matmul(A, B) -> np.ndarray:
    """A @ B in the canonical order (see the module docstring).

    Vectorized over rows: pass t adds the t-th nonzero term of every row
    that has one. A row without nonzero weights yields 0.0.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    B2 = B.reshape(B.shape[0], -1)
    out = np.zeros((A.shape[0], B2.shape[1]))
    rows, cols = np.nonzero(A)  # row-major, so j increases within a row
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    for t in range(int(rank.max(initial=-1)) + 1):
        sel = rank == t
        r, c = rows[sel], cols[sel]
        term = A[r, c][:, None] * B2[c]
        out[r] = term if t == 0 else out[r] + term
    return out.reshape((A.shape[0],) + B.shape[1:])


def canonical_mix_code(A, targets, sources) -> list:
    """Statements assigning each ``targets[i][d]`` the canonical sum of
    ``A[i, j] * sources[j][d]`` (0.0 without nonzero weights): the source
    form of ``A @ sources``. Weights become literals, so they must be finite.

    A long sum is split into statements ``t = t + w * v + ...`` of at most
    SUM_TERMS_PER_STATEMENT terms, which keeps the order and bounds the
    nesting the compiler recurses through.
    """
    out = []
    for i, row in enumerate(targets):
        nonzero = np.flatnonzero(A[i])
        for d, t in enumerate(row):
            terms = [f"{float(A[i, j])!r} * {sources[j][d]}" for j in nonzero] or ["0.0"]
            out += [f"{t} = " + (f"{t} + " if start else "")
                    + " + ".join(terms[start:start + SUM_TERMS_PER_STATEMENT])
                    for start in range(0, len(terms), SUM_TERMS_PER_STATEMENT)]
    return out


def periodic_code(bodies) -> list:
    """Statements running ``bodies[k % len(bodies)]``, one branch per phase."""
    if len(bodies) == 1:
        return list(bodies[0])
    out = [f"ph = k % {len(bodies)}"]
    for ph, body in enumerate(bodies):
        out += [f"{'elif' if ph else 'if'} ph == {ph}:"] + ["    " + ln for ln in body]
    return out


def is_weight_balanced(A, tol=1e-9) -> bool:
    """Weighted in-degree equals weighted out-degree at every node.

    Rows already sum to 1, so this reduces to every column summing to 1.
    """
    A = np.asarray(A, dtype=float)
    return bool(np.all(np.abs(A.sum(axis=0) - A.sum(axis=1)) <= tol))


def strongly_connected(adj_bool) -> bool:
    """Strong connectivity of a boolean adjacency via reachability closure."""
    R = np.asarray(adj_bool, dtype=bool) | np.eye(len(adj_bool), dtype=bool)
    n = R.shape[0]
    for _ in range(int(math.ceil(math.log2(max(n, 2)))) + 1):
        R = R | (R @ R)
    return bool(R.all())


# ---------------------------------------------------------------------------
# graph sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSequenceSpec:
    """Periodic two-subnetwork graph layer specification.

    a1/a2: per-phase mixing matrices of the two subnetworks.
    cross1: per-phase (n1, n2) weights agents of subnet 1 place on subnet 2
    (an all-zero row means no cross in-neighbor that phase); cross2 likewise
    with shape (n2, n1). eta is the declared weight floor; t1/t2/t_cross the
    claimed connectivity windows.
    """

    n1: int
    n2: int
    period: int
    a1: tuple
    a2: tuple
    cross1: tuple
    cross2: tuple
    eta: float
    t1: int
    t2: int
    t_cross: int

    def __post_init__(self):
        if self.period < 1 or len(self.a1) != self.period or len(self.a2) != self.period:
            raise ValidationError("phase count must equal the declared period")
        if len(self.cross1) != self.period or len(self.cross2) != self.period:
            raise ValidationError("cross layers must cover every phase")
        if min(self.t1, self.t2, self.t_cross) < 1:
            raise ValidationError("connectivity windows t1, t2 and t_cross must be >= 1")
        if not 0.0 < self.eta <= 1.0:  # also false for NaN
            raise ValidationError(f"weight floor eta={self.eta} must lie in (0, 1]")
        a1 = tuple(np.asarray(m, dtype=float) for m in self.a1)
        a2 = tuple(np.asarray(m, dtype=float) for m in self.a2)
        c1 = tuple(np.asarray(m, dtype=float) for m in self.cross1)
        c2 = tuple(np.asarray(m, dtype=float) for m in self.cross2)
        for m in a1:
            if m.shape != (self.n1, self.n1):
                raise ValidationError(f"subnet-1 matrix shape {m.shape} != ({self.n1},{self.n1})")
        for m in a2:
            if m.shape != (self.n2, self.n2):
                raise ValidationError(f"subnet-2 matrix shape {m.shape} != ({self.n2},{self.n2})")
        for m in c1:
            if m.shape != (self.n1, self.n2):
                raise ValidationError("cross-to-1 layer has wrong shape")
        for m in c2:
            if m.shape != (self.n2, self.n1):
                raise ValidationError("cross-to-2 layer has wrong shape")
        if not all(np.isfinite(m).all() for m in a1 + a2 + c1 + c2):
            raise ValidationError("graph weights must be finite")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "cross1", c1)
        object.__setattr__(self, "cross2", c2)

    def subnet_size(self, subnet: int) -> int:
        return self.n1 if subnet == 1 else self.n2

    def mixing(self, subnet: int, k: int) -> np.ndarray:
        seq = self.a1 if subnet == 1 else self.a2
        return seq[k % self.period]

    def cross_into(self, subnet: int, k: int) -> np.ndarray:
        """Weights agents of `subnet` place on the other subnet at time k."""
        seq = self.cross1 if subnet == 1 else self.cross2
        return seq[k % self.period]

    def window(self, subnet: int) -> int:
        return self.t1 if subnet == 1 else self.t2


@dataclass(frozen=True)
class Violation:
    clause: str
    phase: int
    node: int
    message: str

    def __str__(self):
        return f"[{self.clause}] phase {self.phase}, node {self.node}: {self.message}"


def validate_weight_rule(spec: GraphSequenceSpec, eta: float) -> list:
    """Check the weight rule clauses against a declared floor `eta`.

    (i) positive arc weights are at least eta; (ii) within-subnet rows sum to
    one with positive diagonals; (iii) nonempty cross rows sum to one with
    entries at least eta. Violations are returned as data, never raised.
    """
    out = []
    for phase in range(spec.period):
        for subnet, mats in ((1, spec.a1), (2, spec.a2)):
            A = mats[phase]
            n = spec.subnet_size(subnet)
            for i in range(n):
                row = A[i]
                if np.any(row < 0):
                    out.append(Violation("weight-rule (ii)", phase, i,
                                         f"subnet {subnet} has negative weights"))
                if abs(row.sum() - 1.0) > STOCHASTIC_TOL:
                    out.append(Violation("weight-rule (ii)", phase, i,
                                         f"subnet {subnet} row sums to {row.sum():.17g}"))
                if A[i, i] <= 0:
                    out.append(Violation("weight-rule (i)", phase, i,
                                         f"subnet {subnet} missing self-loop"))
                pos = row[row > 0]
                if pos.size and pos.min() < eta - 1e-15:
                    out.append(Violation("weight-rule (i)", phase, i,
                                         f"subnet {subnet} weight {pos.min():.17g} below eta={eta}"))
        for subnet in (1, 2):
            C = spec.cross_into(subnet, phase)
            for i in range(spec.subnet_size(subnet)):
                row = C[i]
                if np.any(row < 0):
                    out.append(Violation("weight-rule (iii)", phase, i,
                                         f"subnet {subnet} cross weights negative"))
                    continue
                s = row.sum()
                if s == 0.0:
                    continue  # no cross in-neighbors this phase
                if abs(s - 1.0) > STOCHASTIC_TOL:
                    out.append(Violation("weight-rule (iii)", phase, i,
                                         f"subnet {subnet} cross row sums to {s:.17g}"))
                pos = row[row > 0]
                if pos.size and pos.min() < eta - 1e-15:
                    out.append(Violation("weight-rule (iii)", phase, i,
                                         f"subnet {subnet} cross weight {pos.min():.17g} below eta={eta}"))
    return out


def check_ujsc(spec: GraphSequenceSpec, subnet: int, T: int) -> bool:
    """Every length-T window's union graph is strongly connected.

    Periodicity makes starts 0..period-1 exhaustive.
    """
    if T < 1:
        raise ValueError("window T must be >= 1")
    n = spec.subnet_size(subnet)
    for start in range(spec.period):
        union = np.zeros((n, n), dtype=bool)
        for k in range(start, start + min(T, spec.period)):  # longer windows repeat phases
            union |= spec.mixing(subnet, k) > 0
        if not strongly_connected(union):
            return False
    return True


def check_jointly_bipartite(spec: GraphSequenceSpec, T: int) -> bool:
    """Every length-T window's cross union leaves no node without a cross
    in-neighbor from the other subnetwork."""
    if T < 1:
        raise ValueError("window T must be >= 1")
    for start in range(spec.period):
        for subnet in (1, 2):
            n = spec.subnet_size(subnet)
            seen = np.zeros(n, dtype=bool)
            for k in range(start, start + min(T, spec.period)):
                seen |= spec.cross_into(subnet, k).sum(axis=1) > 0
            if not seen.all():
                return False
    return True


# ---------------------------------------------------------------------------
# transition products and their limits
# ---------------------------------------------------------------------------

def transition_product(spec: GraphSequenceSpec, subnet: int, k: int, s: int) -> np.ndarray:
    """Backward product A(k) A(k-1) ... A(s); row-stochastic."""
    if not 0 <= s <= k:
        raise ValueError(f"need k >= s >= 0, got k={k}, s={s}")
    P = spec.mixing(subnet, s)
    for t in range(s + 1, k + 1):
        P = canonical_matmul(spec.mixing(subnet, t), P)
    return P


@dataclass(frozen=True)
class LimitVector:
    """Common row limit of an infinite backward transition product."""

    phi: np.ndarray
    start_index: int
    achieved_spread: float


@dataclass(frozen=True)
class GeometricRateBound:
    """Envelope |Phi(k,s)_ij - phi_j(s)| <= C rho^(k-s) for a UJSC sequence."""

    C: float
    rho: float
    M: int


def geometric_rate_bound(n: int, T: int, eta: float) -> GeometricRateBound:
    M = (n - 1) * T
    return GeometricRateBound(
        C=2.0 * (1.0 + eta ** (-M)) / (1.0 - eta ** M),
        rho=(1.0 - eta ** M) ** (1.0 / M),
        M=M,
    )


def limiting_stochastic_vector(spec: GraphSequenceSpec, subnet: int, s: int,
                               spread_tol: float = LIMIT_TOL,
                               max_steps: int | None = None) -> LimitVector:
    """Extend the backward product from time s until all rows agree.

    Convergence is detected by the maximum column spread falling below
    `spread_tol`; the row average is returned. UJSC of the sequence
    guarantees termination at a geometric rate.
    """
    n = spec.subnet_size(subnet)
    if max_steps is None and n == 1:
        max_steps = 1  # a 1x1 stochastic product is its own limit; the bound needs n > 1
    if max_steps is None:
        bound = geometric_rate_bound(n, spec.window(subnet), spec.eta)
        if bound.rho < 1.0:
            max_steps = int(10 * bound.M * math.log(1.0 / spread_tol)
                            / math.log(1.0 / bound.rho)) + 10
        else:
            # eta^M underflowed; the a-priori cap is useless, use a generous one
            max_steps = 1_000_000
    P = spec.mixing(subnet, s)
    for step in range(max_steps):
        spread = float((P.max(axis=0) - P.min(axis=0)).max())
        if spread <= spread_tol:
            phi = P.mean(axis=0)
            return LimitVector(phi=phi / phi.sum(), start_index=s, achieved_spread=spread)
        P = canonical_matmul(spec.mixing(subnet, s + step + 1), P)
    raise NumericError(
        f"transition product of subnet {subnet} starting at {s} did not reach "
        f"spread {spread_tol} within {max_steps} factors")


def _constant_spec(A) -> GraphSequenceSpec:
    """The period-1 sequence of stochastic `A`; its floor is the least
    positive weight, which lies in (0, 1] because every row sums to one."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    eta = float(A[A > 0].min())
    return GraphSequenceSpec(n1=n, n2=1, period=1, a1=(A,), a2=(np.eye(1),),
                             cross1=(np.zeros((n, 1)),), cross2=(np.zeros((1, n)),),
                             eta=eta, t1=n, t2=1, t_cross=1)


def perron_vector(A, tol: float = LIMIT_TOL) -> LimitVector:
    """Positive stochastic left eigenvector of `A` for eigenvalue one.

    Computed as the limit of the constant-sequence transition product.
    """
    A = require_stochastic(A)
    if not strongly_connected(A > 0):
        raise ValidationError("Perron vector requires a strongly connected graph")
    lv = limiting_stochastic_vector(_constant_spec(A), 1, 0, spread_tol=min(tol, LIMIT_TOL) * 1e-2)
    resid = float(np.abs(lv.phi @ A - lv.phi).max())
    if resid > tol:
        raise NumericError(f"Perron residual {resid:.3e} above tolerance {tol}")
    return lv


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
