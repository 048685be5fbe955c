"""User-facing procedures: uniform bands for the bound functions, the
combined CDF band, the dominance test, and the constant-effect diagnostic.

The derivative estimators read a bootstrap direction only on the per-x
eps-argmax cells of the plug-in objective, a few percent of its candidates.
One pass over chunks of grid rows (``MakarovStructure``) keeps those cells'
index pairs, so every replicate reuses them, evaluates its direction there
alone, and only the cumulative weight arrays change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    BootstrapRun,
    bootstrap_statistic_distribution,
    rows_per_block,
)
from .derivative import (
    ArgmaxSets,
    Tuning,
    derivative_estimates,
    dominance_derivative_estimates,
    eps_argmax,
)
from .empirical import Sample, ecdf_build
from .makarov import (
    MakarovStructure,
    _scan,
    SupportInfo,
    default_grid,
    support_bounds,
    upper_bound,
)
from .stats import StatKind, dominance_stat
from .valuemap import Grid, ValueFunction

__all__ = [
    "Band",
    "TestResult",
    "uniform_band",
    "bound_bands",
    "cdf_band",
    "dominance_test",
    "constant_effect_check",
]


@dataclass(frozen=True)
class Band:
    grid: Grid
    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    alpha: float
    c_star: float
    r_n: float
    run: BootstrapRun | None = None

    def __post_init__(self):
        if np.any(self.lo > self.center + 1e-12) or np.any(self.center > self.hi + 1e-12):
            raise ValueError("band limits must bracket the center")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    critical_value: float
    reject: bool
    alpha: float
    rep_count: int
    rep_mean: float
    rep_max: float
    run: BootstrapRun | None = None


def _block_starts(sample: Sample) -> np.ndarray:
    return np.unique(sample.sorted_values, return_index=True)[1]


def _cum_from_weights(w: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """Cumulative mass array (leading zero) of the reweighted sample, on
    the same unique-value blocks as the plug-in ECDF; for a (B, n) block
    of weight rows, one array per row."""
    mass = np.add.reduceat(w, starts, axis=-1)
    cum = np.zeros(mass.shape[:-1] + (mass.shape[-1] + 1,))
    np.cumsum(mass, axis=-1, out=cum[..., 1:])
    cum[..., 1:] /= n
    return cum


def _directions(structure: MakarovStructure, d1: np.ndarray, d0: np.ndarray,
                cells, base: np.ndarray, scale: float) -> np.ndarray:
    """scale * (g - base) on ``cells`` for each row of the cumulative blocks."""
    h = structure.evaluate(d1, d0, cells)
    h -= base
    h *= scale
    return h


class _BandProblem:
    """Bootstrap problem for one bound function's sup-norm statistic.

    It evaluates one replicate per call: at n = 1e3 per arm a band
    replicate keeps about 57,000 cells, past ``BLOCK_CELLS``, so the cap
    allows no more there, and ``bench/traced.py`` counts one replicate per
    ``replicate_stat`` call."""

    block_rows = 1

    def __init__(self, X1: Sample, X0: Sample, structure: MakarovStructure,
                 which: str, sets: ArgmaxSets, r_n: float):
        self.sample_sizes = [len(X1), len(X0)]
        self.structure = structure
        self.sets = sets
        self.scale = (1.0 if which == "lower" else -1.0) * r_n
        self.cells = structure.cell_indices(which)
        self.base = structure.base_values(self.cells)
        self.starts1 = _block_starts(X1)
        self.starts0 = _block_starts(X0)
        self.kind = StatKind(j=1)

    def replicate_stat(self, ws) -> np.ndarray:
        w1, w0 = ws
        d1 = _cum_from_weights(w1, self.starts1, self.sample_sizes[0])
        d0 = _cum_from_weights(w0, self.starts0, self.sample_sizes[1])
        h = _directions(self.structure, d1, d0, self.cells, self.base, self.scale)
        return derivative_estimates(self.kind, self.sets, h)


def _plugin(X1: Sample, X0: Sample, grid: Grid | None, step: float | None,
            a_n: float, orientations: tuple[str, ...], config: BootstrapConfig | None):
    """Near-argmax candidates of the given orientations, from one pass, and
    the clipped (lower, upper) plug-in bounds, from the scan behind `bounds`
    output so that band centers match it bit for bit.  Both run their row
    chunks on the config's threads."""
    threads = config.threads if config else 1
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    if grid is None:
        grid = default_grid(support_bounds(X1, X0), step)
    structure = MakarovStructure(F1, F0, grid, a_n, orientations, threads)
    return structure, np.clip(_scan(F1, F0, grid, threads), 0.0, 1.0)


def uniform_band(which: str, X1: Sample, X0: Sample, alpha: float = 0.05,
                 config: BootstrapConfig | None = None, grid: Grid | None = None,
                 step: float | None = None, tuning: Tuning | None = None) -> Band:
    """Uniform confidence band for the lower or upper bound function.

    The band is the plug-in bound plus/minus c*/r_n, where c* estimates the
    (1 - alpha) quantile of the sup-norm limit via the bootstrap with the
    derivative estimator for the two-sided sup statistic.
    """
    if which not in ("lower", "upper"):
        raise ValueError(f"band target must be 'lower' or 'upper', got {which!r}")
    tuning = tuning or Tuning(n=len(X1) + len(X0))
    structure, (lower, upper) = _plugin(X1, X0, grid, step, tuning.a_n, (which,), config)
    center = lower if which == "lower" else upper
    return _band(which, X1, X0, structure, center, alpha, config, tuning)


def bound_bands(X1: Sample, X0: Sample, alpha: float = 0.05,
                config: BootstrapConfig | None = None, grid: Grid | None = None,
                step: float | None = None, tuning: Tuning | None = None) -> tuple[Band, Band]:
    """The lower and upper ``uniform_band`` at the same level, sharing one
    candidate pass and one bound scan."""
    tuning = tuning or Tuning(n=len(X1) + len(X0))
    structure, (lower, upper) = _plugin(X1, X0, grid, step, tuning.a_n, ("lower", "upper"),
                                        config)
    return (_band("lower", X1, X0, structure, lower, alpha, config, tuning),
            _band("upper", X1, X0, structure, upper, alpha, config, tuning))


def _band(which: str, X1: Sample, X0: Sample, structure: MakarovStructure,
          center: np.ndarray, alpha: float, config: BootstrapConfig | None,
          tuning: Tuning) -> Band:
    """Bootstrap band around the plug-in bound ``center`` on ``structure``."""
    config = replace(config or BootstrapConfig(), alpha=alpha)
    sets = eps_argmax(structure.near_argmax(which), tuning)
    problem = _BandProblem(X1, X0, structure, which, sets, tuning.r_n)
    run = bootstrap_statistic_distribution(problem, config)
    half = run.critical_value / tuning.r_n
    return Band(
        grid=structure.grid,
        lo=np.maximum(center - half, 0.0),
        hi=np.minimum(center + half, 1.0),
        center=center,
        alpha=alpha,
        c_star=run.critical_value,
        r_n=tuning.r_n,
        run=run,
    )


def cdf_band(lower_band: Band, upper_band: Band) -> Band:
    """Conservative band for the effect CDF from two bound bands at level
    alpha/2 each: lower limit of the lower-bound band, upper limit of the
    upper-bound band, re-monotonized since clipping can break monotonicity."""
    if not lower_band.grid.same_as(upper_band.grid):
        raise ValueError("bands live on different grids")
    if lower_band.alpha != upper_band.alpha:
        raise ValueError("bands must share the same level")
    lo = np.maximum.accumulate(lower_band.lo)
    hi = np.minimum.accumulate(upper_band.hi[::-1])[::-1]
    return Band(
        grid=lower_band.grid,
        lo=lo,
        hi=hi,
        center=0.5 * (lower_band.center + upper_band.center),
        alpha=2.0 * lower_band.alpha,
        c_star=max(lower_band.c_star, upper_band.c_star),
        r_n=lower_band.r_n,
    )


class _DominanceProblem:
    """Bootstrap problem for the one-sided L2 dominance statistic; the
    control sample's weights are shared between both bound structures."""

    def __init__(self, X0, XA, XB, sA: MakarovStructure, sB: MakarovStructure,
                 orientA, orientB, setsA, setsB, contact, integrand_sign, r_n):
        self.sample_sizes = [len(X0), len(XA), len(XB)]
        self.sA, self.sB = sA, sB
        self.setsA, self.setsB = setsA, setsB
        self.contact = contact
        self.scaleA = (1.0 if orientA == "lower" else -1.0) * r_n
        self.scaleB = (1.0 if orientB == "lower" else -1.0) * r_n
        self.integrand_sign = integrand_sign
        self.cellsA = sA.cell_indices(orientA)
        self.cellsB = sB.cell_indices(orientB)
        self.baseA = sA.base_values(self.cellsA)
        self.baseB = sB.base_values(self.cellsB)
        self.starts0 = _block_starts(X0)
        self.startsA = _block_starts(XA)
        self.startsB = _block_starts(XB)
        self.block_rows = rows_per_block(max(setsA.cells.size, setsB.cells.size),
                                         self.sample_sizes)

    def replicate_stat(self, ws) -> np.ndarray:
        w0, wA, wB = ws
        n0, nA, nB = self.sample_sizes
        d0 = _cum_from_weights(w0, self.starts0, n0)
        dA = _cum_from_weights(wA, self.startsA, nA)
        dB = _cum_from_weights(wB, self.startsB, nB)
        hA = _directions(self.sA, dA, d0, self.cellsA, self.baseA, self.scaleA)
        hB = _directions(self.sB, dB, d0, self.cellsB, self.baseB, self.scaleB)
        return dominance_derivative_estimates(
            self.setsA, self.setsB, self.contact, hA, hB, sign=self.integrand_sign
        )


def dominance_test(X0: Sample, XA: Sample, XB: Sample, alpha: float = 0.05,
                   config: BootstrapConfig | None = None, grid: Grid | None = None,
                   step: float | None = None, tuning: Tuning | None = None,
                   orientation: str = "necessary") -> TestResult:
    """Bootstrap test of distributional dominance of treatment A over B
    against a common control.

    orientation 'necessary' tests the refutable implication L_A <= U_B;
    'sufficient' tests U_A <= L_B, whose failure leaves dominance
    undetermined but which is the breakdown-frontier quantity.
    """
    if orientation not in ("necessary", "sufficient"):
        raise ValueError(f"unknown orientation {orientation!r}")
    config = replace(config or BootstrapConfig(), alpha=alpha)
    tuning = tuning or Tuning(n=len(X0) + len(XA) + len(XB))
    F0, FA, FB = ecdf_build(X0), ecdf_build(XA), ecdf_build(XB)
    if grid is None:
        lo = min(XA.min, XB.min) - X0.max  # the union of both pairs' ranges
        hi = max(XA.max, XB.max) - X0.min
        grid = default_grid(SupportInfo((lo, hi), (lo, hi), (lo, hi)), step)
    if orientation == "necessary":
        orientA, orientB, integrand_sign = "lower", "upper", 1.0
    else:
        orientA, orientB, integrand_sign = "upper", "lower", -1.0
    sA = MakarovStructure(FA, F0, grid, tuning.a_n, (orientA,))
    sB = MakarovStructure(FB, F0, grid, tuning.a_n, (orientB,))
    # one pair is read as "lower": its clipped row maxima are its lower
    # bound, bit for bit, so only the other pair needs the bound scan
    if orientation == "necessary":
        lv = np.clip(sA.near_argmax("lower").row_max, 0.0, 1.0)  # L_A
        rv = upper_bound(FB, F0, grid).values  # U_B
    else:
        lv = upper_bound(FA, F0, grid).values  # U_A
        rv = np.clip(sB.near_argmax("lower").row_max, 0.0, 1.0)  # L_B
    gap = lv - rv
    left = ValueFunction(grid=grid, values=lv)
    right = ValueFunction(grid=grid, values=rv)
    stat = dominance_stat(left, right, tuning.r_n)
    contact = np.abs(gap) <= tuning.b_n
    setsA = eps_argmax(sA.near_argmax(orientA), tuning)
    setsB = eps_argmax(sB.near_argmax(orientB), tuning)
    problem = _DominanceProblem(X0, XA, XB, sA, sB, orientA, orientB, setsA, setsB,
                                contact, integrand_sign, tuning.r_n)
    run = bootstrap_statistic_distribution(problem, config)
    reps = run.replicates
    return TestResult(
        statistic=stat.value,
        critical_value=run.critical_value,
        reject=stat.value > run.critical_value,
        alpha=alpha,
        rep_count=reps.size,
        rep_mean=float(reps.mean()),
        rep_max=float(reps.max()),
        run=run,
    )


def constant_effect_check(band: Band, x_star: float) -> bool:
    """Whether a constant effect of size x_star is consistent with the
    band, i.e. the step CDF I(x >= x_star) fits inside it everywhere."""
    pts = band.grid.points
    if not (pts[0] <= x_star <= pts[-1]):
        raise ValueError(f"x_star={x_star!r} outside grid extent")
    step_fn = (pts >= x_star).astype(float)
    return bool(np.all(band.lo <= step_fn) and np.all(step_fn <= band.hi))
