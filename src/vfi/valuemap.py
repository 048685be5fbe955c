"""Gridded objective functions and the marginal optimization map.

An objective f(u, x) is stored exactly as, for each grid point x, its
values at a finite set of candidate arguments u, the same count at every x.
For objectives built from step functions the candidate set is exhaustive,
so taking the per-x maximum ("psi") is exact rather than a discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "GriddedObjective", "NearArgmax", "ValueFunction", "psi"]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite grid of x-values with a nominal spacing."""

    points: np.ndarray
    step: float

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.isfinite(p)) or not np.all(p[1:] > p[:-1]):
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
    """Objective f(u, x) as a (grid, candidates) matrix: ``values[k, c]`` is
    f at candidate c of grid point k, every row with the same candidates."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(self.grid):
            raise ValueError("values must be (n_grid, n_candidates)")
        if v.shape[1] == 0:
            raise ValueError("values need at least one candidate column")
        if not np.isfinite(v).all():
            raise ValueError("candidate values must be finite")
        object.__setattr__(self, "values", v)


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
    return ValueFunction(grid=f.grid, values=f.values.max(axis=1))


@dataclass(frozen=True)
class NearArgmax:
    """The cells of an objective within ``slack`` of their row's maximum.

    ``cells`` holds their row-major flat indices into the (n_grid, width)
    candidate matrix, ``starts[k]`` the position in it of row k's first
    cell, and ``values`` the objective at each; ``row_max`` is psi of the
    objective.  Built from a dense objective by ``of``, or chunk by chunk of
    grid rows by a candidate structure that never holds the whole matrix.
    """

    grid: Grid
    width: int
    slack: float
    row_max: np.ndarray
    cells: np.ndarray
    values: np.ndarray
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        # the first cell at or past each row's first flat index; a row
        # without cells starts where the next one does
        rows = np.arange(len(self.grid)) * self.width
        object.__setattr__(self, "starts", np.searchsorted(self.cells, rows))

    @classmethod
    def of(cls, f: GriddedObjective, slack: float) -> "NearArgmax":
        """The one-chunk case: every row of a dense objective at once."""
        row_max = psi(f).values
        cells = np.flatnonzero(f.values >= (row_max - slack)[:, None])
        return cls(grid=f.grid, width=f.values.shape[1], slack=slack, row_max=row_max,
                   cells=cells, values=f.values.ravel()[cells])
