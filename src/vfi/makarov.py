"""Makarov dependency bounds for treatment-effect CDFs and quantiles.

The lower/upper bound functions are suprema/infima of a difference of two
step CDFs, piecewise constant in u with jumps only at the event set
{treated points} union {control points + x}.  The bootstrap structure keeps
every event's right value and left limit; the plug-in bounds need only the
left limits (sup) and right values (inf) at shifted control points."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .empirical import Sample, StepCDF, ecdf_build
from .valuemap import Grid, GriddedObjective, ValueFunction

__all__ = [
    "BoundPair",
    "GridBudgetError",
    "SupportInfo",
    "MakarovStructure",
    "lower_bound",
    "upper_bound",
    "quantile_bounds",
    "support_bounds",
    "default_grid",
    "makarov_objective",
    "compute_bounds",
    "bounds_to_csv",
    "bounds_from_csv",
]

DEFAULT_GRID_POINTS = 512
MAX_GRID_POINTS = 1_000_000
_CHUNK = 200_000  # cap on grid-by-sample work arrays


class GridBudgetError(ValueError):
    """A requested grid step would give more than MAX_GRID_POINTS points."""


@dataclass(frozen=True)
class SupportInfo:
    """Support intervals of the two bound functions and their common range."""

    lower_support: tuple[float, float]
    upper_support: tuple[float, float]
    global_range: tuple[float, float]


@dataclass(frozen=True)
class BoundPair:
    lower: ValueFunction
    upper: ValueFunction
    grid: Grid


def _chunks(grid: Grid, width: int):
    """Slices of grid rows whose row-by-width work arrays stay near _CHUNK cells."""
    rows = max(1, _CHUNK // max(1, width))
    for s in range(0, len(grid), rows):
        yield slice(s, s + rows)


def _row_indices(j1: np.ndarray, j0: np.ndarray, xs: np.ndarray):
    """Candidate indices at the grid rows xs, compared in u-space where the
    control jumps sit at row = j0 + x.  Returns six (len(xs), .) arrays:

        #row <= j1,  #row < j1     (per treated jump)
        #row <= row, #row < row    (per shifted control jump)
        #j1 <= row,  #j1 < row     (per shifted control jump)

    Only the first costs a searchsorted per row; the rest follow from it in
    linear time.  ``row`` is non-decreasing because j0 is increasing and
    rounding is monotone, so its ties come only from rounding in the shift.
    """
    m, n0 = xs.size, j0.size
    rows = j0[None, :] + xs[:, None]
    le_t = np.empty((m, j1.size), dtype=np.intp)
    for r in range(m):
        le_t[r] = np.searchsorted(rows[r], j1, side="right")
    # runs of equal values in each row: #row < row is the start of the run,
    # #row <= row its end (found from the right, on the reversed row)
    pos = np.arange(n0)
    starts = np.ones((m, n0), dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    lt_c = np.where(starts, pos, 0)
    np.maximum.accumulate(lt_c, axis=1, out=lt_c)
    ends = np.ones((m, n0), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    le_c = np.where(ends[:, ::-1], n0 - pos, n0)
    np.minimum.accumulate(le_c, axis=1, out=le_c)
    le_c = le_c[:, ::-1]
    # #row < j1: drop the tie run that ends at #row <= j1 (``last`` is the
    # flat position of that run's last element; where #row <= j1 is 0 it
    # points at row[0] > j1, which is no tie)
    last = le_t - 1
    np.maximum(last, 0, out=last)
    last += n0 * np.arange(m)[:, None]
    tie = rows.ravel()[last] == j1
    lt_t = le_t.copy()
    lt_t[tie] = lt_c.ravel()[last[tie]]
    # j1[k] < row[p] iff #row <= j1[k] is at most p, and j1[k] <= row[p] iff
    # #row < j1[k] is at most p: count both per p
    off = (n0 + 1) * np.arange(m)[:, None]

    def at_most(idx):
        hist = np.bincount((idx + off).ravel(), minlength=m * (n0 + 1))
        counts = hist.reshape(m, n0 + 1)[:, :n0]
        return np.cumsum(counts, axis=1, out=counts)

    return le_t, lt_t, le_c, lt_c, at_most(lt_t), at_most(le_t)


def _scan(F1: StepCDF, F0: StepCDF, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per grid x, the max of F1-part - F0-part and the min of (1 - F0-part)
    + F1-part over the candidates that dominate the rest of the family of
    ``MakarovStructure`` (every event's right value and left limit).

    With the control jumps at row = j0 + x (u-space), D_x(u) = F1(u) -
    F0(u - x) rises only at treated jumps and falls only at control jumps,
    so its max is a left limit at a control jump and its min a right value
    at one; the tails, where D_x is 0, are matched by the first left limit
    and the last right value.  In a tie run of ``row``, c0[p] and c0[p + 1]
    stand in for c0 at the run's start and end.  Both combine forms are
    monotone in each part in floating point, so every dropped value is
    dominated by a kept one: the result is bit-identical to a reduce over
    the whole family, and to the ECDF of the shifted sample X0 + x.
    Comparing j1 - x against j0 instead can flip an ordering at rounding
    scale and pick up a different piece.
    """
    j1, j0 = F1.jump_points, F0.jump_points
    c1 = np.concatenate(([0.0], F1.cum_probs))
    c0 = np.concatenate(([0.0], F0.cum_probs))
    j1_inf = np.append(j1, np.inf)
    after = 1.0 - c0[1:]  # 1 - F0-part just after each control jump
    lower, upper = np.empty((2, len(grid)))
    for s in _chunks(grid, j0.size):
        rows = j0[None, :] + grid.points[s, None]
        idx = np.searchsorted(j1, rows)  # #j1 < row
        lower[s] = (c1[idx] - c0[:-1]).max(axis=1)
        idx += j1_inf[idx] == rows  # #j1 <= row
        upper[s] = (after + c1[idx]).min(axis=1)
    return lower, upper


def _clamped(values: np.ndarray, grid: Grid) -> ValueFunction:
    return ValueFunction(grid=grid, values=np.clip(values, 0.0, 1.0, out=values))


def lower_bound(F1: StepCDF, F0: StepCDF, grid: Grid) -> ValueFunction:
    """sup_u F1(u) - F0(u - x) at each grid x, clamped to [0, 1].  The
    supremum over all of R is attained on the candidate family (or in a
    tail, where the difference is 0)."""
    return _clamped(_scan(F1, F0, grid)[0], grid)


def upper_bound(F1: StepCDF, F0: StepCDF, grid: Grid) -> ValueFunction:
    """1 + inf_u F1(u) - F0(u - x) at each grid x, clamped to [0, 1].

    Candidates evaluate as (1 - F0-part) + F1-part so the degenerate case
    (F0-part equal to 1) reproduces F1 values bit for bit.
    """
    return _clamped(_scan(F1, F0, grid)[1], grid)


class MakarovStructure:
    """Fixed candidate structure for the objective Pi(F)(u, x) = F1(u) - F0(u - x).

    Candidates for each grid x are the event points {F1 jumps} union
    {F0 jumps + x}, each taken right-continuously and as a left limit
    (columns [0, M) and [M, 2M)).  Because bootstrap directions jump at the
    same event points, the structure evaluates any reweighting of the same
    observations exactly via the candidate indices the bound scan uses.
    """

    def __init__(self, F1: StepCDF, F0: StepCDF, grid: Grid):
        self.F1, self.F0, self.grid = F1, F0, grid
        j1, j0 = F1.jump_points, F0.jump_points
        n1 = j1.size
        shape = (len(grid), n1 + j0.size)
        self.i1r = np.empty(shape, dtype=np.intp)
        self.i1l = np.empty(shape, dtype=np.intp)
        self.i0r = np.empty(shape, dtype=np.intp)
        self.i0l = np.empty(shape, dtype=np.intp)
        # treated candidate i: #j1 <= j1[i] is i + 1 and #j1 < j1[i] is i
        self.i1r[:, :n1] = np.arange(1, n1 + 1)
        self.i1l[:, :n1] = np.arange(n1)
        for s in _chunks(grid, shape[1]):
            le_t, lt_t, le_c, lt_c, le_j, lt_j = _row_indices(j1, j0, grid.points[s])
            self.i1r[s, n1:] = le_j
            self.i1l[s, n1:] = lt_j
            self.i0r[s, :n1], self.i0r[s, n1:] = le_t, le_c
            self.i0l[s, :n1], self.i0l[s, n1:] = lt_t, lt_c
        self.c1 = np.concatenate(([0.0], F1.cum_probs))
        self.c0 = np.concatenate(([0.0], F0.cum_probs))

    def cell_indices(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices into (d1, d0) of the candidates at the given row-major
        flat positions of the K x 2M candidate matrix, for ``evaluate``."""
        M = self.i1r.shape[1]
        k, c = np.divmod(flat, 2 * M)
        right = c < M
        c = np.where(right, c, c - M)
        ia = np.where(right, self.i1r[k, c], self.i1l[k, c])
        ib = np.where(right, self.i0r[k, c], self.i0l[k, c])
        return ia, ib

    def evaluate(self, d1: np.ndarray, d0: np.ndarray, cells=None) -> np.ndarray:
        """g1(u) - g0(u - x) over all candidates, for step functions with
        the same jump points as (F1, F0) and cumulative arrays d1, d0
        (leading zero included).  With ``cells`` from ``cell_indices``,
        only at those candidates, as a flat array in the same order."""
        if cells is not None:
            ia, ib = cells
            return d1[ia] - d0[ib]
        right = d1[self.i1r] - d0[self.i0r]
        left = d1[self.i1l] - d0[self.i0l]
        return np.concatenate((right, left), axis=1)

    def base_values(self, cells=None) -> np.ndarray:
        return self.evaluate(self.c1, self.c0, cells)

    def objective(self, orientation: str = "lower") -> GriddedObjective:
        sign = 1.0 if orientation == "lower" else -1.0
        if orientation not in ("lower", "upper"):
            raise ValueError(f"unknown orientation {orientation!r}")
        return GriddedObjective(
            grid=self.grid,
            values=sign * self.base_values(),
            tag="makarov-lower" if sign > 0 else "makarov-upper-negated",
        )


def makarov_objective(F1: StepCDF, F0: StepCDF, grid: Grid, orientation: str = "lower") -> GriddedObjective:
    """Event-point candidate objective; psi of it recovers the bound:
    lower_bound = psi(.) and upper_bound = 1 - psi(.) for orientation 'upper'."""
    return MakarovStructure(F1, F0, grid).objective(orientation)


def quantile_bounds(F1: StepCDF, F0: StepCDF, taus) -> tuple[np.ndarray, np.ndarray]:
    """Inverted bounds (U^{-1}(tau), L^{-1}(tau)) for the quantile function.

    U^{-1}(tau) = sup_{u in (0, tau)} Q1(u) - Q0(u + 1 - tau) and
    L^{-1}(tau) = inf_{u in (tau, 1)} Q1(u) - Q0(u - tau), evaluated over
    the quantile-level breakpoints of both samples inside the open interval
    plus points 1e-9 inside each endpoint.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.all((taus > 0.0) & (taus < 1.0)):
        raise ValueError("quantile level must lie in (0, 1)")
    eps = 1e-9
    b1 = F1.cum_probs
    b0 = F0.cum_probs
    lower_q = np.empty(taus.size)
    upper_q = np.empty(taus.size)
    for k, tau in enumerate(taus):
        # sup over (0, tau) of Q1(u) - Q0(u + 1 - tau)
        cands = np.concatenate((b1, b0 - (1.0 - tau), [eps, tau - eps]))
        cands = cands[(cands > 0.0) & (cands < tau)]
        lower_q[k] = np.max(F1.quantile(cands) - F0.quantile(cands + (1.0 - tau)))
        # inf over (tau, 1) of Q1(u) - Q0(u - tau)
        cands = np.concatenate((b1, b0 + tau, [tau + eps, 1.0 - eps]))
        cands = cands[(cands > tau) & (cands < 1.0)]
        upper_q[k] = np.min(F1.quantile(cands) - F0.quantile(cands - tau))
    return lower_q, upper_q


def support_bounds(X1: Sample, X0: Sample) -> SupportInfo:
    """Support endpoints of both bound functions from the sample extremes
    and the min/max vertical quantile-function gap over pooled levels."""
    n1, n0 = len(X1), len(X0)
    levels = np.unique(
        np.concatenate((np.arange(1, n1 + 1) / n1, np.arange(1, n0 + 1) / n0))
    )
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    qdiff = F1.quantile(levels) - F0.quantile(levels)
    lo_all = X1.min - X0.max
    hi_all = X1.max - X0.min
    return SupportInfo(
        lower_support=(float(qdiff.min()), hi_all),
        upper_support=(lo_all, float(qdiff.max())),
        global_range=(lo_all, hi_all),
    )


def default_grid(support: SupportInfo, step: float | None = None) -> Grid:
    """Uniform grid covering the global range, padded one step each side.

    Raises GridBudgetError, before allocating, when the grid would have more
    than MAX_GRID_POINTS points."""
    lo, hi = support.global_range
    if not np.isfinite(hi - lo):
        raise ValueError(f"effect range [{lo!r}, {hi!r}] is too wide to grid: "
                         "its width is not a finite float")
    if step is None:
        step = (hi - lo) / DEFAULT_GRID_POINTS if hi > lo else 1.0
    if not (0 < step < np.inf):
        raise ValueError("grid step must be positive and finite")
    steps = (hi - lo) / step
    # capped before int(), which fails on an infinite count
    n_inner = int(np.ceil(steps - 1e-12)) if steps < MAX_GRID_POINTS else MAX_GRID_POINTS
    if n_inner + 3 > MAX_GRID_POINTS:
        raise GridBudgetError(
            f"grid step {step!r} over [{lo!r}, {hi!r}] gives more than "
            f"{MAX_GRID_POINTS} grid points, the limit")
    points = lo + step * np.arange(-1, n_inner + 2)
    return Grid(points=points, step=float(step))


def compute_bounds(X1: Sample, X0: Sample, grid: Grid | None = None, step: float | None = None) -> BoundPair:
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    if grid is None:
        grid = default_grid(support_bounds(X1, X0), step)
    lower, upper = _scan(F1, F0, grid)
    return BoundPair(lower=_clamped(lower, grid), upper=_clamped(upper, grid), grid=grid)


def bounds_to_csv(pair: BoundPair) -> str:
    """CSV rows (x, lower, upper) with shortest round-trip float formatting."""
    buf = io.StringIO()
    buf.write("x,lower,upper\n")
    for x, lo, hi in zip(pair.grid.points, pair.lower.values, pair.upper.values):
        buf.write(f"{float(x)!r},{float(lo)!r},{float(hi)!r}\n")
    return buf.getvalue()


def bounds_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]]
    arr = np.asarray(rows)
    return arr[:, 0], arr[:, 1], arr[:, 2]
