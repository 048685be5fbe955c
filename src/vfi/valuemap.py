"""Gridded objective functions and the marginal optimization map.

An objective f(u, x) is stored exactly as, for each grid point x, a finite
set of candidate arguments u with their objective values.  For objectives
built from step functions the candidate set is exhaustive, so taking the
per-x maximum ("psi") is exact rather than a discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "GriddedObjective", "NearArgmax", "ValueFunction", "psi", "negate"]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite grid of x-values with a nominal spacing."""

    points: np.ndarray
    step: float

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.isfinite(p)) or not np.all(np.diff(p) > 0):
            raise ValueError("grid points must be finite and strictly increasing")
        if not (0 < self.step < np.inf):
            raise ValueError("grid step must be positive and finite")
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return self.points.size

    def rect_weights(self) -> np.ndarray:
        """Left-rectangle integration weights; the last point gets ``step``."""
        d = np.diff(self.points)
        return np.concatenate((d, [self.step]))

    def same_as(self, other: "Grid") -> bool:
        return (
            len(self) == len(other)
            and np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True)
class GriddedObjective:
    """Objective f(u, x) as a (grid, candidates) matrix.

    ``values[k, c]`` is f at candidate c of grid point k; ``valid`` masks
    padding for ragged candidate sets (None means all valid).
    """

    grid: Grid
    values: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(self.grid):
            raise ValueError("values must be (n_grid, n_candidates)")
        object.__setattr__(self, "values", v)
        if self.valid is not None:
            m = np.asarray(self.valid, dtype=bool)
            if m.shape != v.shape:
                raise ValueError("valid mask shape mismatch")
            object.__setattr__(self, "valid", m)
        bad = ~np.isfinite(v)
        if self.valid is not None:
            bad &= self.valid
        if np.any(bad):
            raise ValueError("candidate values must be finite")

    @classmethod
    def from_candidates(cls, grid: Grid, candidates) -> "GriddedObjective":
        """Build from a per-grid-point list of (u, value) pairs (ragged); the
        arguments u are not kept."""
        if len(candidates) != len(grid):
            raise ValueError("need one candidate list per grid point")
        width = max((len(c) for c in candidates), default=0)
        if width == 0 or any(len(c) == 0 for c in candidates):
            k = next(i for i, c in enumerate(candidates) if len(c) == 0)
            raise ValueError(f"empty candidate set at grid point x={float(grid.points[k])!r}")
        values = np.zeros((len(grid), width))  # 0.0 placeholders, masked out
        valid = np.zeros((len(grid), width), dtype=bool)
        for k, cand in enumerate(candidates):
            for c, (_, val) in enumerate(cand):
                values[k, c] = val
                valid[k, c] = True
        return cls(grid=grid, values=values, valid=valid)

    def masked_values(self, fill: float) -> np.ndarray:
        if self.valid is None:
            return self.values
        return np.where(self.valid, self.values, fill)


@dataclass(frozen=True)
class ValueFunction:
    """psi(f) sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.grid),):
            raise ValueError("values must have one entry per grid point")
        object.__setattr__(self, "values", v)


def psi(f: GriddedObjective) -> ValueFunction:
    """Marginal maximization: per grid point, the exact candidate maximum."""
    if f.valid is not None and not f.valid.any(axis=1).all():
        k = int(np.flatnonzero(~f.valid.any(axis=1))[0])
        raise ValueError(f"empty candidate set at grid point x={float(f.grid.points[k])!r}")
    return ValueFunction(grid=f.grid, values=f.masked_values(-np.inf).max(axis=1))


@dataclass(frozen=True)
class NearArgmax:
    """The cells of an objective within ``slack`` of their row's maximum.

    ``cells`` holds their row-major flat indices into the (n_grid, width)
    candidate matrix, ``counts[k]`` how many of them row k has, and
    ``values`` the objective at each; ``row_max`` is psi of the objective.
    Built from a dense objective by ``of``, or chunk by chunk of grid rows
    by a candidate structure that never holds the whole matrix.
    """

    grid: Grid
    width: int
    slack: float
    row_max: np.ndarray
    cells: np.ndarray
    counts: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, f: GriddedObjective, slack: float) -> "NearArgmax":
        """The one-chunk case: every row of a dense objective at once."""
        row_max = psi(f).values
        vals = f.masked_values(-np.inf)
        keep = vals >= (row_max - slack)[:, None]
        cells = np.flatnonzero(keep)
        return cls(grid=f.grid, width=vals.shape[1], slack=slack, row_max=row_max,
                   cells=cells, counts=keep.sum(axis=1), values=vals.ravel()[cells])


def negate(f: GriddedObjective) -> GriddedObjective:
    """Pointwise negation of candidate values; inf f = -psi(negate(f))."""
    return GriddedObjective(grid=f.grid, values=-f.values, valid=f.valid)
