"""The grid saddle-point oracle: exact min-max over the boxes.

The grid oracle is the exact min-max of a regular grid - for the 1-D / 1-D
experiments the most trustworthy ground truth available - followed by a
local refinement of REFINE_LEVELS levels around the winner for ~100x
sharper answers. Its report is byte for byte that of a scan of every cell,
but it evaluates in full only the rows and columns that can still win
(:func:`_best_line`). The cells of the others are never evaluated, so the
oracle is defined for tables without NaN: a NaN in any cell it evaluates
is a NumericError. Each distinct objective of a weighted sum is evaluated
once per call, on windows of TABLE_CHUNK cells' worth of lines, so the
table is never held whole. Blocks of dimension above two, and boxes with
an infinite bound, are rejected with a resource error; such a scenario,
like one whose table holds NaN, needs a stored reference, ``run.oracle``
with ``x_star`` and ``y_star``, in its document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ResourceError, ValidationError
from .exprs import BoxSet, compile_objective, expr_keys

# cells of the coarse grid: 2001 points per 1-D block must fit, so the cap
# sits just above 2001^2
GRID_BUDGET = 4_100_000
TABLE_CHUNK = 1 << 16  # cells of the grid table evaluated at once
SAMPLE_STRIDE = 16  # every 16th opposing point bounds a line's extreme
REFINE_LEVELS = 3  # local refinements after the coarse grid
_STORE = ("store a reference under run.oracle (x_star, y_star) in the scenario "
          "document instead")


@dataclass(frozen=True)
class WeightedObjective:
    """Positively weighted sum of objective expressions."""

    terms: tuple  # of (weight, expr)

    def __post_init__(self):
        terms = tuple((float(w), e) for w, e in self.terms)
        if any(w <= 0 for w, _ in terms):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "terms", terms)

    def compiled(self, m1, m2):
        """The weighted sum as one numpy-broadcast closure ``f(x, y)`` of the
        value, evaluating each distinct expression once per call.

        One closure serves every term with the same expression, keyed by
        ``exprs.expr_keys``, which tells -0.0 and 0.0 apart. The terms are
        summed in their own order into an accumulator that starts at 0.0,
        so the bytes equal those of the per-term sum ``sum(w * f(x, y) for
        w, f in fns)``; ``1.0 * v`` is exact and skipped.
        """
        slots, fns, order = {}, [], []
        for (w, e), key in zip(self.terms, expr_keys(e for _, e in self.terms)):
            if key not in slots:
                slots[key] = len(fns)
                fns.append(compile_objective(e, m1, m2, vector=True))
            order.append((w, slots[key]))

        def value(x, y):
            vals = [f(x, y) for f in fns]
            acc = np.zeros(np.broadcast_shapes(*map(np.shape, (*x, *y))))
            for w, i in order:
                acc += vals[i] if w == 1.0 else w * vals[i]
            return acc
        return value


def unit_weighted(objectives) -> WeightedObjective:
    """Unit-weight sum of the expressions of (expr, selection) pairs."""
    return WeightedObjective(tuple((1.0, e) for e, _ in objectives))


@dataclass(frozen=True)
class SaddleReport:
    x_star: tuple
    y_star: tuple
    value: float
    minimax_gap: float
    grid_resolution: int


def _axis_grids(box: BoxSet, resolution: int):
    return [np.linspace(l, u, resolution) for l, u in zip(box.lower, box.upper)]


def _mesh(axes):
    """Flatten a per-axis grid list into an (N, dim) point array, C order so
    np.argmin ties resolve to the lexicographically smallest index."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _cells(value_fn, xpts, ypts):
    """The objective on the product of two point sets, an (Nx, Ny) table
    (a broadcast view where no term reads one side). Cells are elementwise,
    so no cell's value depends on which other points share the call."""
    values = value_fn([xpts[:, d][:, None] for d in range(xpts.shape[1])],
                      [ypts[:, d][None, :] for d in range(ypts.shape[1])])
    return np.broadcast_to(np.asarray(values, dtype=float), (len(xpts), len(ypts)))


def _extremes(value_fn, lines, cross, side):
    """Each line's extreme over all of `cross`: on side 0 the lines are rows
    and this is their ``max(axis=1)``, on side 1 they are columns and this
    is their ``min(axis=0)``. NumericError if any cell is NaN."""
    if side == 0:
        ext = _cells(value_fn, lines, cross).max(axis=1)
    else:
        ext = _cells(value_fn, cross, lines).min(axis=0)
    if np.isnan(ext).any():  # max and min propagate a NaN cell
        raise NumericError(f"grid oracle table holds NaN; {_STORE}")
    return ext


def _batches(index, width):
    """`index` in windows of TABLE_CHUNK // width lines, at least two, or all
    of a shorter index. The last window ends at the last line and may
    overlap the one before, so every window has the same size: the same
    allocation each time, and never a one-column table, whose
    ``min(axis=0)`` is a contiguous reduction that can sign a zero unlike
    the whole table's."""
    size, n = max(2, TABLE_CHUNK // width), len(index)
    return (index[max(0, min(i, n - size)):i + size] for i in range(0, n, size))


def _best_line(value_fn, xpts, ypts, side):
    """The winning line of the (Nx, Ny) table and its extreme: on side 0 the
    row of least maximum, on side 1 the column of greatest minimum, ties to
    the lowest index, as ``max(axis=1).argmin()`` and
    ``min(axis=0).argmax()`` of the whole table pick them.

    The lines' extremes over every SAMPLE_STRIDE-th opposing point bound
    their full extremes (below for rows, above for columns). Lines are then
    reduced in full in order of their bounds, best first, stable on index,
    until the next line's bound is strictly worse than the best full
    extreme found: no line left can then win or tie. The cells of the lines
    left are never evaluated.
    """
    lines, cross = (xpts, ypts) if side == 0 else (ypts, xpts)
    sign = 1.0 if side == 0 else -1.0  # the winner has the least key
    sample, bound = cross[::SAMPLE_STRIDE], np.empty(len(lines))
    for b in _batches(np.arange(len(lines)), len(sample)):
        bound[b] = sign * _extremes(value_fn, lines[b], sample, side)
    order = np.argsort(bound, kind="stable")
    best, seen, found = np.inf, [], []
    for batch in _batches(order, len(cross)):
        if bound[batch[0]] > best:
            break
        ext = _extremes(value_fn, lines[batch], cross, side)
        seen.append(batch)
        found.append(ext)
        best = min(best, (sign * ext).min())
    seen, found = np.concatenate(seen), np.concatenate(found)
    ties = np.flatnonzero(sign * found == best)
    win = ties[seen[ties].argmin()]
    return int(seen[win]), found[win]


@np.errstate(over="ignore", invalid="ignore")
def grid_minimax(w: WeightedObjective, bx: BoxSet, by: BoxSet,
                 resolution: int = 2001) -> SaddleReport:
    """Exact saddle search on a regular grid with local refinement.

    x* minimizes the max over the y grid, y* maximizes the min over the x
    grid; the reported minimax gap is their difference on the coarse grid.
    The coarse grid must fit GRID_BUDGET, which counts its cells,
    evaluated or not. NumericError if a cell the search evaluates is NaN;
    a cell or value that overflows does not warn.
    """
    if resolution < 3:
        raise ValidationError(f"grid resolution must be >= 3, got {resolution}")
    m1, m2 = bx.dim, by.dim
    if m1 > 2 or m2 > 2:
        raise ResourceError(
            f"grid oracle limited to blocks of dimension <= 2, got ({m1},{m2}); {_STORE}")
    bounds = (*bx.lower, *bx.upper, *by.lower, *by.upper)
    if not np.isfinite(bounds).all():
        raise ResourceError(f"grid oracle needs finite box bounds, got {bounds}; {_STORE}")
    total = resolution ** m1 * resolution ** m2
    if total > GRID_BUDGET:
        need = int(np.floor(GRID_BUDGET ** (1.0 / (m1 + m2))))
        raise ResourceError(
            f"grid of {total} evaluations exceeds budget {GRID_BUDGET}; "
            f"reduce resolution to at most {need}")

    value_fn = w.compiled(m1, m2)
    x_axes = _axis_grids(bx, resolution)
    y_axes = _axis_grids(by, resolution)
    xpts, ypts = _mesh(x_axes), _mesh(y_axes)
    ix, sup_y = _best_line(value_fn, xpts, ypts, 0)
    iy, inf_x = _best_line(value_fn, xpts, ypts, 1)
    gap = float(sup_y - inf_x)
    x_star, y_star = xpts[ix].copy(), ypts[iy].copy()

    # local refinement: shrink a window of one coarse cell around the winner,
    # keeping the opposing sweep global (coarse grid plus the fine window)
    hx = np.array([(u - l) / (resolution - 1) for l, u in zip(bx.lower, bx.upper)])
    hy = np.array([(u - l) / (resolution - 1) for l, u in zip(by.lower, by.upper)])
    fine = min(201, resolution)
    for _ in range(REFINE_LEVELS):
        fx_axes = [np.linspace(max(l, c - h), min(u, c + h), fine)
                   for c, h, l, u in zip(x_star, hx, bx.lower, bx.upper)]
        fy_axes = [np.linspace(max(l, c - h), min(u, c + h), fine)
                   for c, h, l, u in zip(y_star, hy, by.lower, by.upper)]
        fxp, fyp = _mesh(fx_axes), _mesh(fy_axes)
        y_all = np.concatenate([ypts, fyp], axis=0)
        x_all = np.concatenate([xpts, fxp], axis=0)
        x_star = fxp[_best_line(value_fn, fxp, y_all, 0)[0]].copy()
        y_star = fyp[_best_line(value_fn, x_all, fyp, 1)[0]].copy()
        hx = hx * 2.0 / (fine - 1)
        hy = hy * 2.0 / (fine - 1)

    val = float(np.asarray(value_fn([np.array([c]) for c in x_star],
                                    [np.array([c]) for c in y_star])).ravel()[0])
    return SaddleReport(x_star=tuple(x_star), y_star=tuple(y_star),
                        value=val, minimax_gap=gap, grid_resolution=resolution)
