"""Plug-in directional-derivative estimators for the lambda statistics.

The derivative of each statistic at the estimated objective is a max or an
L_p aggregate of the direction h restricted to estimated near-argmax sets.
Three estimated sets drive everything: per-x eps-argmax candidates (slack
a_n), the joint near-maximizer set, and the contact region where the value
function is within b_n of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import StatKind
from .valuemap import Grid, GriddedObjective, NearArgmax

__all__ = [
    "Tuning",
    "ArgmaxSets",
    "eps_argmax",
    "derivative_estimate",
    "derivative_estimates",
    "dominance_derivative_estimate",
    "dominance_derivative_estimates",
]

MIN_COMBINED_N = 16


@dataclass(frozen=True)
class Tuning:
    """Slack and rate constants derived from the combined sample size."""

    n: int
    a_const: float = 0.2
    b_const: float = 3.0

    def __post_init__(self):
        # log(log(n)) must be safely positive
        if self.n < MIN_COMBINED_N:
            raise ValueError(f"combined sample size {self.n} below minimum {MIN_COMBINED_N}")
        if not (self.a_const > 0 and self.b_const > 0):
            raise ValueError("tuning constants must be positive")

    @property
    def r_n(self) -> float:
        return float(np.sqrt(self.n))

    @property
    def a_n(self) -> float:
        return self.a_const * float(np.log(np.log(self.n))) / self.r_n

    @property
    def b_n(self) -> float:
        return self.b_const * float(np.log(np.log(self.n))) / self.r_n


@dataclass(frozen=True)
class ArgmaxSets:
    """Estimated argmax structure of an objective on a (n_grid, width)
    candidate matrix, held as its per-x cells.

    cells: row-major flat indices of the per-x eps-argmax cells, those
    within a_n of their row maximum; starts[k] is the position of row k's
    first cell in it.  The derivative estimators read a direction only there.
    joint: mask over ``cells`` of those within a_n of the global maximum,
    which lie inside the per-x sets.
    contact[k]: |value function| <= b_n, with an all-True fallback when the
    threshold captures nothing.
    """

    grid: Grid
    width: int
    cells: np.ndarray
    starts: np.ndarray
    joint: np.ndarray
    contact: np.ndarray
    contact_fallback: bool = False

    def __post_init__(self):
        ends = np.append(self.starts[1:], self.cells.size)
        if self.starts.shape != (len(self.grid),) or np.any(ends <= self.starts):
            raise ValueError("per-x argmax sets must be nonempty")
        if self.joint.shape != self.cells.shape:
            raise ValueError("joint argmax set must be a mask over the per-x cells")
        if not self.joint.any():
            raise ValueError("joint argmax set must be nonempty")
        if not self.contact.any():
            raise ValueError("contact set must be nonempty after fallback")

    @property
    def per_x(self) -> np.ndarray:
        """Dense (n_grid, width) mask of the per-x cells."""
        mask = np.zeros(len(self.grid) * self.width, dtype=bool)
        mask[self.cells] = True
        return mask.reshape(len(self.grid), self.width)


def eps_argmax(f, tuning: Tuning) -> ArgmaxSets:
    """Argmax sets of ``f``: a dense ``GriddedObjective``, or the
    ``NearArgmax`` cells a candidate structure kept with slack a_n."""
    near = NearArgmax.of(f, tuning.a_n) if isinstance(f, GriddedObjective) else f
    if near.slack != tuning.a_n:
        raise ValueError(f"cells were kept with slack {near.slack!r}, not a_n={tuning.a_n!r}")
    joint = near.values >= near.row_max.max() - tuning.a_n
    contact = np.abs(near.row_max) <= tuning.b_n
    fallback = not contact.any()
    if fallback:
        contact = np.ones(len(near.grid), dtype=bool)
    return ArgmaxSets(
        grid=near.grid, width=near.width, cells=near.cells,
        starts=np.concatenate(([0], np.cumsum(near.counts)[:-1])),
        joint=joint, contact=contact, contact_fallback=fallback,
    )


def _cell_values(h, sets: ArgmaxSets) -> np.ndarray:
    """h on the per-x cells, from h on every candidate (the objective's
    shape) or from h already restricted to ``sets.cells``."""
    hv = h.values if isinstance(h, GriddedObjective) else np.asarray(h, dtype=float)
    if hv.shape == (len(sets.grid), sets.width):
        return hv.ravel()[sets.cells]
    if hv.shape == sets.cells.shape:
        return hv
    raise ValueError("direction does not share the objective's candidate structure")


def _direction_block(H, sets: ArgmaxSets) -> np.ndarray:
    """H as a (B, cells) block of B directions on ``sets.cells``."""
    hv = np.asarray(H, dtype=float)
    if hv.ndim != 2 or hv.shape[1] != sets.cells.size:
        raise ValueError("directions must be a (B, cells) block on the per-x cells")
    return hv


def _row_sup(hv: np.ndarray, sets: ArgmaxSets) -> np.ndarray:
    return np.maximum.reduceat(hv, sets.starts, axis=1)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each row, in the pairwise order numpy uses for a 1-D
    array; it keeps that order along an axis only when the rows are
    contiguous, and a column selection can return them column-major."""
    return np.ascontiguousarray(terms).sum(axis=1)


def derivative_estimates(kind: StatKind, sets: ArgmaxSets, H) -> np.ndarray:
    """``derivative_estimate`` for each row of H, a (B, cells) block of B
    directions on ``sets.cells``: B values, each the same bits as its
    direction alone gives."""
    hv = _direction_block(H, sets)
    row = _row_sup(hv, sets)
    if kind.j == 1:
        # second branch: sup_x inf over the per-x set of (-h)
        return np.maximum(row.max(axis=1), -row.min(axis=1))
    if kind.j == 2:
        return np.maximum(hv[:, sets.joint].max(axis=1), 0.0)
    w = sets.grid.rect_weights()
    if kind.j == 3:
        terms = np.abs(row) ** kind.p * w
    else:
        terms = np.maximum(row[:, sets.contact], 0.0) ** kind.p * w[sets.contact]
    return np.array([total ** (1.0 / kind.p) for total in _row_sums(terms)])


def derivative_estimate(kind: StatKind, sets: ArgmaxSets, h) -> float:
    """Directional-derivative value of lambda_j at the objective, in
    direction h, using the estimated argmax sets.  h is given on every
    candidate or only on ``sets.cells``."""
    return float(derivative_estimates(kind, sets, _cell_values(h, sets)[None])[0])


def dominance_derivative_estimates(
    setsA: ArgmaxSets,
    setsB: ArgmaxSets,
    contact: np.ndarray,
    HA,
    HB,
    sign: float = 1.0,
) -> np.ndarray:
    """``dominance_derivative_estimate`` for each row of HA and HB, (B,
    cells) blocks of B directions on their sets' ``cells``: B values, each
    the same bits as its pair of directions alone gives."""
    if not setsA.grid.same_as(setsB.grid):
        raise ValueError("argmax sets live on different grids")
    contact = np.asarray(contact, dtype=bool)
    if not contact.any():
        contact = np.ones(len(setsA.grid), dtype=bool)
    rowA = _row_sup(_direction_block(HA, setsA), setsA)
    rowB = _row_sup(_direction_block(HB, setsB), setsB)
    integrand = np.maximum(sign * (rowA + rowB)[:, contact], 0.0)
    w = setsA.grid.rect_weights()[contact]
    return np.sqrt(_row_sums(integrand ** 2 * w))


def dominance_derivative_estimate(
    setsA: ArgmaxSets,
    setsB: ArgmaxSets,
    contact: np.ndarray,
    hA,
    hB,
    sign: float = 1.0,
) -> float:
    """Derivative of the one-sided L2 dominance statistic.

    hA is the direction on the lower-bound objective of the A-vs-control
    pair; hB the direction on the (negated) upper-bound objective of the
    B-vs-control pair; each is given on every candidate or only on its
    sets' ``cells``.  ``contact`` restricts integration to the estimated
    region where the population gap is zero.  ``sign`` flips the integrand
    for the reversed orientation of the test.
    """
    HA = _cell_values(hA, setsA)[None]
    HB = _cell_values(hB, setsB)[None]
    return float(dominance_derivative_estimates(setsA, setsB, contact, HA, HB, sign)[0])
