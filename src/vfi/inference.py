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
from functools import partial

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    BootstrapRun,
    bootstrap_statistic_distribution,
    rows_per_block,
)
from .derivative import (
    Tuning,
    derivative_estimates,
    dominance_derivative_estimates,
    eps_argmax,
)
from .empirical import Sample, ecdf_build
from .makarov import (
    MakarovStructure,
    _sample_grid,
    _scan,
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


class _BootstrapProblem:
    """Bootstrap problem of a statistic whose derivative estimate reads
    bootstrap directions r_n(G* - G) on the kept cells of bound structures
    (Fang and Santos 2019).

    Each term (structure, orientation, treated index, control index) reads
    the kept cells of one orientation of a structure, with the cumulative
    weight arrays of those two of ``samples``.  Each call builds every
    sample's array once, evaluates each term, subtracts its base values,
    scales by r_n ("lower") or -r_n ("upper"), and returns ``estimate``
    of the directions, one (B, cells) block per term.  ``block_rows`` is
    the replicates per call."""

    def __init__(self, samples, terms, estimate, r_n: float, block_rows: int):
        self.sample_sizes = [len(X) for X in samples]
        self.block_rows = block_rows
        self.starts = [_block_starts(X) for X in samples]
        self.estimate = estimate
        self.terms = []
        for structure, orientation, i1, i0 in terms:
            cells = structure.cell_indices(orientation)
            scale = (1.0 if orientation == "lower" else -1.0) * r_n
            self.terms.append((structure, cells, structure.base_values(cells), scale, i1, i0))

    def replicate_stat(self, ws) -> np.ndarray:
        d = [_cum_from_weights(w, st, n) for w, st, n in zip(ws, self.starts, self.sample_sizes)]
        hs = []
        for structure, cells, base, scale, i1, i0 in self.terms:
            h = structure.evaluate(d[i1], d[i0], cells)
            h -= base
            h *= scale
            hs.append(h)
        return self.estimate(*hs)


def _plugin(X1: Sample, X0: Sample, grid: Grid | None, step: float | None,
            a_n: float, orientations: tuple[str, ...], config: BootstrapConfig | None):
    """Near-argmax candidates of the given orientations, from one pass, and
    the clipped (lower, upper) plug-in bounds, from the scan behind `bounds`
    output so that band centers match it bit for bit.  The candidate pass
    runs its row chunks on the config's threads; the scan runs on one."""
    threads = config.threads if config else 1
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    if grid is None:
        grid = _sample_grid(X0, (X1,), step)
    structure = MakarovStructure(F1, F0, grid, a_n, orientations, threads)
    return structure, np.clip(_scan(F1, F0, grid), 0.0, 1.0)


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
    # one replicate per call: bench/traced.py counts one per replicate_stat call
    problem = _BootstrapProblem((X1, X0), [(structure, which, 0, 1)],
                                partial(derivative_estimates, StatKind(j=1), sets),
                                tuning.r_n, block_rows=1)
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
        grid = _sample_grid(X0, (XA, XB), step)  # the union of both pairs' ranges
    if orientation == "necessary":
        orientA, orientB, integrand_sign = "lower", "upper", 1.0
    else:
        orientA, orientB, integrand_sign = "upper", "lower", -1.0
    sA = MakarovStructure(FA, F0, grid, tuning.a_n, (orientA,), config.threads)
    sB = MakarovStructure(FB, F0, grid, tuning.a_n, (orientB,), config.threads)
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
    samples = (X0, XA, XB)  # the control's weights are shared by both terms
    problem = _BootstrapProblem(
        samples, [(sA, orientA, 1, 0), (sB, orientB, 2, 0)],
        partial(dominance_derivative_estimates, setsA, setsB, contact, sign=integrand_sign),
        tuning.r_n,
        block_rows=rows_per_block(max(setsA.cells.size, setsB.cells.size), map(len, samples)))
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
