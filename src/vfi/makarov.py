"""Makarov dependency bounds for treatment-effect CDFs and quantiles.

The lower/upper bound functions are suprema/infima of a difference of two
step CDFs.  Because the objective is piecewise constant in u with jumps
only at sample points, the optimum over all of R is attained on the finite
event set {treated points} union {control points + x} together with their
left limits; everything here is exact over that set.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .empirical import Sample, StepCDF, ecdf_build
from .valuemap import Grid, GriddedObjective, ValueFunction

__all__ = [
    "BoundPair",
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
_CHUNK = 200_000  # cap on grid-by-sample work arrays


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
    n0: int
    n1: int


def _eval_cdf(jumps: np.ndarray, cum0: np.ndarray, x: np.ndarray, left: bool) -> np.ndarray:
    idx = np.searchsorted(jumps, x, side="left" if left else "right")
    return cum0[idx]


def _scan(F1: StepCDF, F0: StepCDF, grid: Grid, combine, reduce) -> np.ndarray:
    """Per grid x, reduce combine(F1-part, F0-part) at u over the full
    candidate family: right-continuous values and left limits at both
    treated jump points and shifted control jump points.  Both one-sided
    limits at every event are needed because a shifted control point can
    collide with a treated point in floating point, collapsing the piece
    between them otherwise.

    All comparisons happen in u-space: the control jumps sit at j0 + x as
    floats, so the scan agrees bit for bit with evaluating the ECDF of the
    shifted sample X0 + x.  Comparing j1 - x against j0 instead can flip an
    ordering at rounding scale and pick up a different piece.
    """
    j1, j0 = F1.jump_points, F0.jump_points
    c1 = np.concatenate(([0.0], F1.cum_probs))
    c0 = np.concatenate(([0.0], F0.cum_probs))
    out = np.empty(len(grid))
    rows = max(1, _CHUNK // max(1, j1.size + j0.size))
    for s in range(0, len(grid), rows):
        xs = grid.points[s : s + rows, None]
        e0 = j0[None, :] + xs
        m = e0.shape[0]
        f0r_t = np.empty((m, j1.size))
        f0l_t = np.empty((m, j1.size))
        f0r_c = np.empty((m, j0.size))
        f0l_c = np.empty((m, j0.size))
        for r in range(m):
            row = e0[r]
            f0r_t[r] = c0[np.searchsorted(row, j1, side="right")]
            f0l_t[r] = c0[np.searchsorted(row, j1, side="left")]
            f0r_c[r] = c0[np.searchsorted(row, row, side="right")]
            f0l_c[r] = c0[np.searchsorted(row, row, side="left")]
        blocks = (
            combine(c1[None, 1:], f0r_t),
            combine(c1[None, :-1], f0l_t),
            combine(_eval_cdf(j1, c1, e0, left=False), f0r_c),
            combine(_eval_cdf(j1, c1, e0, left=True), f0l_c),
        )
        out[s : s + rows] = reduce(np.concatenate(blocks, axis=1), axis=1)
    return out


def lower_bound(F1: StepCDF, F0: StepCDF, grid: Grid) -> ValueFunction:
    """sup_u F1(u) - F0(u - x) at each grid x, clamped to [0, 1].  The
    supremum over all of R is attained on the candidate family (or in a
    tail, where the difference is 0)."""
    out = _scan(F1, F0, grid, lambda a, b: a - b, np.max)
    np.maximum(out, 0.0, out=out)
    np.clip(out, 0.0, 1.0, out=out)
    return ValueFunction(grid=grid, values=out)


def upper_bound(F1: StepCDF, F0: StepCDF, grid: Grid) -> ValueFunction:
    """1 + inf_u F1(u) - F0(u - x) at each grid x, clamped to [0, 1].

    Candidates evaluate as (1 - F0-part) + F1-part so the degenerate case
    (F0-part equal to 1) reproduces F1 values bit for bit.
    """
    out = _scan(F1, F0, grid, lambda a, b: (1.0 - b) + a, np.min)
    np.minimum(out, 1.0, out=out)
    np.maximum(out, 0.0, out=out)
    return ValueFunction(grid=grid, values=out)


class MakarovStructure:
    """Fixed candidate structure for the objective Pi(F)(u, x) = F1(u) - F0(u - x).

    Candidates for each grid x are the event points {F1 jumps} union
    {F0 jumps + x}, each taken right-continuously and as a left limit
    (columns [0, M) and [M, 2M)).  Because bootstrap directions jump at the
    same event points, the structure evaluates any reweighting of the same
    observations exactly via precomputed searchsorted indices.
    """

    def __init__(self, F1: StepCDF, F0: StepCDF, grid: Grid):
        self.F1, self.F0, self.grid = F1, F0, grid
        j1, j0 = F1.jump_points, F0.jump_points
        x = grid.points[:, None]
        events = np.concatenate(
            (np.broadcast_to(j1, (len(grid), j1.size)), j0[None, :] + x), axis=1
        )
        self.events = events
        self.i1r = np.searchsorted(j1, events, side="right")
        self.i1l = np.searchsorted(j1, events, side="left")
        # control jumps live in u-space at j0 + x; index every candidate
        # against those shifted positions so the structure matches the
        # direct scan bit for bit (j1 - x vs j0 need not order the same way)
        K, M = events.shape
        self.i0r = np.empty((K, M), dtype=np.intp)
        self.i0l = np.empty((K, M), dtype=np.intp)
        for k in range(K):
            row = events[k, j1.size :]
            self.i0r[k] = np.searchsorted(row, events[k], side="right")
            self.i0l[k] = np.searchsorted(row, events[k], side="left")
        self.c1 = np.concatenate(([0.0], F1.cum_probs))
        self.c0 = np.concatenate(([0.0], F0.cum_probs))

    @property
    def n_candidates(self) -> int:
        return 2 * self.events.shape[1]

    def cell_indices(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices into (d1, d0) of the candidates at the given row-major
        flat positions of the K x 2M candidate matrix, for ``evaluate``."""
        M = self.events.shape[1]
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
        u = np.concatenate((self.events, self.events), axis=1)
        return GriddedObjective(
            grid=self.grid,
            values=sign * self.base_values(),
            u=u,
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
    if np.any(taus <= 0.0) or np.any(taus >= 1.0):
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
    """Uniform grid covering the global range, padded one step each side."""
    lo, hi = support.global_range
    if step is None:
        step = (hi - lo) / DEFAULT_GRID_POINTS if hi > lo else 1.0
    if not (step > 0):
        raise ValueError("grid step must be positive")
    n_inner = int(np.ceil((hi - lo) / step - 1e-12))
    points = lo + step * np.arange(-1, n_inner + 2)
    return Grid(points=points, step=float(step))


def compute_bounds(X1: Sample, X0: Sample, grid: Grid | None = None, step: float | None = None) -> BoundPair:
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    if grid is None:
        grid = default_grid(support_bounds(X1, X0), step)
    return BoundPair(
        lower=lower_bound(F1, F0, grid),
        upper=upper_bound(F1, F0, grid),
        grid=grid,
        n0=len(X0),
        n1=len(X1),
    )


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
