"""Uniform test statistics over gridded objectives.

Four basic statistics of the value function psi(f): two-sided and one-sided
sup norms (j = 1, 2) and their L_p counterparts (j = 3, 4), plus the two
applied statistics used by the band and dominance procedures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .valuemap import GriddedObjective, ValueFunction, psi

__all__ = ["StatKind", "StatValue", "lambda_stat", "ks_band_stat", "dominance_stat"]


@dataclass(frozen=True)
class StatKind:
    j: int
    p: float = 2.0

    def __post_init__(self):
        if self.j not in (1, 2, 3, 4):
            raise ValueError(f"unknown statistic kind j={self.j}")
        if self.j in (3, 4) and not (np.isfinite(self.p) and self.p >= 1):
            raise ValueError("exponent p must be a finite real >= 1")


@dataclass(frozen=True)
class StatValue:
    value: float

    def __post_init__(self):
        if not (self.value >= 0):
            raise ValueError("statistic value must be nonnegative")


def _lp(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float(np.sum(values**p * weights) ** (1.0 / p))


def lambda_stat(f: GriddedObjective, kind: StatKind) -> StatValue:
    """lambda_j(f) for j in 1..4 using left-rectangle weights for j in 3, 4."""
    v = psi(f).values
    if kind.j == 1:
        val = float(np.max(np.abs(v)))
    elif kind.j == 2:
        val = float(max(np.max(v), 0.0))
    elif kind.j == 3:
        val = _lp(np.abs(v), f.grid.rect_weights(), kind.p)
    else:
        val = _lp(np.maximum(v, 0.0), f.grid.rect_weights(), kind.p)
    return StatValue(value=val)


def ks_band_stat(Lhat: ValueFunction, L0: ValueFunction, r_n: float) -> StatValue:
    """Scaled sup-distance r_n * max |Lhat - L0| over the common grid."""
    if not Lhat.grid.same_as(L0.grid):
        raise ValueError("value functions live on different grids")
    val = r_n * float(np.max(np.abs(Lhat.values - L0.values)))
    return StatValue(value=val)


def dominance_stat(LA: ValueFunction, UB: ValueFunction, r_n: float) -> StatValue:
    """Scaled one-sided L2 statistic r_n * (sum [LA - UB]_+^2 dx)^(1/2).

    Zero exactly when LA <= UB on the whole grid, which is the testable
    implication of distributional dominance.
    """
    if not LA.grid.same_as(UB.grid):
        raise ValueError("value functions live on different grids")
    gap = np.maximum(LA.values - UB.values, 0.0)
    val = r_n * _lp(gap, LA.grid.rect_weights(), 2.0)
    return StatValue(value=val)
