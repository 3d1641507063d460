"""The grid saddle-point oracle: exhaustive min-max over the boxes.

The grid oracle is deliberately brute force - for the 1-D / 1-D experiments
it is the most trustworthy ground truth available - and is followed by a
local refinement of REFINE_LEVELS levels around the winner for ~100x
sharper answers. It evaluates each distinct objective of a weighted sum
once per table, in row blocks of at most TABLE_CHUNK cells, and keeps of
each block only its row maxima and the running column minima, never the
whole table. Blocks of dimension above two, and boxes with an infinite
bound, are rejected with a resource error; such a scenario needs a stored
reference, ``run.oracle`` with ``x_star`` and ``y_star``, in its document.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, ValidationError
from .exprs import BoxSet, compile_objective

# 2001 grid points per 1-D block must fit, so the cap sits just above 2001^2
DEFAULT_BUDGET = 4_100_000
BUDGET_ENV = "NASHNET_BUDGET"
TABLE_CHUNK = 1 << 16  # cells of the grid table evaluated at once
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

        One closure serves every term with the same expression. The key is
        ``repr(e)``, not ``format_expr(e)``, which prints the constants -0.0
        and 0.0 alike. The terms are summed in their own order into an
        accumulator that starts at 0.0, so the bytes equal those of the
        per-term sum ``sum(w * f(x, y) for w, f in fns)``; ``1.0 * v`` is
        exact and skipped.
        """
        slots, fns, order = {}, [], []
        for w, e in self.terms:
            key = repr(e)
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


def grid_budget() -> int:
    """The grid evaluation budget: BUDGET_ENV as a whole number of at least
    one, or DEFAULT_BUDGET when it is unset."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(float(raw))
    except (ValueError, OverflowError):
        raise ResourceError(f"{BUDGET_ENV}={raw!r} is not a finite number") from None
    if budget < 1:
        raise ResourceError(f"{BUDGET_ENV}={raw!r} is below one evaluation")
    return budget


def _axis_grids(box: BoxSet, resolution: int):
    return [np.linspace(l, u, resolution) for l, u in zip(box.lower, box.upper)]


def _mesh(axes):
    """Flatten a per-axis grid list into an (N, dim) point array, C order so
    np.argmin ties resolve to the lexicographically smallest index."""
    if len(axes) == 1:
        return axes[0][:, None]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _row_blocks(value_fn, xpts, ypts):
    """The value of the objective on the product of point sets, an (Nx, Ny)
    table, as blocks of whole rows, top to bottom.

    A block has at most TABLE_CHUNK cells, so the per-term sums stay in
    cache and the table is never held whole; no cell's value depends on
    the block size.
    """
    nx, ny = xpts.shape[0], ypts.shape[0]
    ycols = [ypts[:, d][None, :] for d in range(ypts.shape[1])]
    rows = max(1, TABLE_CHUNK // ny)
    for start in range(0, nx, rows):
        block = xpts[start:start + rows]
        values = value_fn([block[:, d][:, None] for d in range(block.shape[1])], ycols)
        yield np.broadcast_to(np.asarray(values, dtype=float), (len(block), ny))


def _row_max_col_min(value_fn, xpts, ypts):
    """The table's row maxima and column minima, as the whole table's
    ``max(axis=1)`` and ``min(axis=0)`` give them: each row is reduced
    alone, and the column minima of the blocks are folded top to bottom.
    Min is exact and keeps its later operand on ties, so even a signed
    zero comes out as from the whole table."""
    row_max, col_min = [], None
    for block in _row_blocks(value_fn, xpts, ypts):
        row_max.append(block.max(axis=1))
        low = block.min(axis=0)
        col_min = low if col_min is None else np.minimum(col_min, low, out=low)
    return np.concatenate(row_max), col_min


def grid_minimax(w: WeightedObjective, bx: BoxSet, by: BoxSet,
                 resolution: int = 2001) -> SaddleReport:
    """Brute-force saddle search on a regular grid with local refinement.

    x* minimizes the max over the y grid, y* maximizes the min over the x
    grid; the reported minimax gap is their difference on the coarse grid.
    The coarse grid must fit the budget of :func:`grid_budget`.
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
    budget = grid_budget()
    total = resolution ** m1 * resolution ** m2
    if total > budget:
        need = int(np.floor(budget ** (1.0 / (m1 + m2))))
        raise ResourceError(
            f"grid of {total} evaluations exceeds budget {budget}; "
            f"reduce resolution to at most {need}")

    value_fn = w.compiled(m1, m2)
    x_axes = _axis_grids(bx, resolution)
    y_axes = _axis_grids(by, resolution)
    xpts, ypts = _mesh(x_axes), _mesh(y_axes)
    sup_y, inf_x = _row_max_col_min(value_fn, xpts, ypts)
    ix = int(sup_y.argmin())
    iy = int(inf_x.argmax())
    gap = float(sup_y[ix] - inf_x[iy])
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
        x_star = fxp[int(_row_max_col_min(value_fn, fxp, y_all)[0].argmin())].copy()
        y_star = fyp[int(_row_max_col_min(value_fn, x_all, fyp)[1].argmax())].copy()
        hx = hx * 2.0 / (fine - 1)
        hy = hy * 2.0 / (fine - 1)

    val = float(np.asarray(value_fn([np.array([c]) for c in x_star],
                                    [np.array([c]) for c in y_star])).ravel()[0])
    return SaddleReport(x_star=tuple(x_star), y_star=tuple(y_star),
                        value=val, minimax_gap=gap, grid_resolution=resolution)
