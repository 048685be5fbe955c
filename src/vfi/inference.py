"""User-facing procedures: uniform bands for the bound functions, the
combined CDF band, the dominance test, and the constant-effect diagnostic.

The derivative estimators read a bootstrap direction only on the per-x
eps-argmax cells of the plug-in objective, a few percent of its candidates.
One pass over chunks of grid rows (``MakarovStructure``) keeps those cells'
index pairs, so every replicate reuses them, evaluates its direction there
alone, and only the cumulative weight arrays change.  The structure also
gives its pair's plug-in bound (``bound``) and directions (``directions``).
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
from .empirical import Sample, _cum_from_weights, ecdf_build
from .makarov import MakarovStructure, _resolve_grid
from .stats import StatKind, dominance_stat
from .valuemap import Grid, ValueFunction

__all__ = [
    "Band",
    "TestResult",
    "uniform_band",
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


class _BootstrapProblem:
    """Bootstrap problem of a statistic whose derivative estimate reads
    bootstrap directions r_n(G* - G) on the kept cells of bound structures
    (Fang and Santos 2019).

    Each term (structure, orientation, treated index, control index) reads
    the kept cells of one orientation of a structure, with the cumulative
    weight arrays of those two of ``samples``.  Each call builds every
    sample's array once and returns ``estimate`` of the terms' ``directions``,
    one (B, cells) block per term.  ``block_rows`` is the replicates per
    call."""

    def __init__(self, samples, terms, estimate, r_n: float, block_rows: int):
        self.sample_sizes = [len(X) for X in samples]
        self.block_rows = block_rows
        self.starts = [X.block_starts for X in samples]
        self.terms, self.estimate, self.r_n = terms, estimate, r_n

    def replicate_stat(self, ws) -> np.ndarray:
        d = [_cum_from_weights(w, st) for w, st in zip(ws, self.starts)]
        return self.estimate(*(structure.directions(o, d[i1], d[i0], self.r_n)
                               for structure, o, i1, i0 in self.terms))


def uniform_band(which: str, X1: Sample, X0: Sample,
                 config: BootstrapConfig = BootstrapConfig(), grid: Grid | None = None,
                 step: float | None = None, tuning: Tuning | None = None) -> Band:
    """Uniform confidence band for the lower or upper bound function.

    The band is the plug-in bound plus/minus c*/r_n, where c* estimates the
    (1 - alpha) quantile of the sup-norm limit via the bootstrap with the
    derivative estimator for the two-sided sup statistic; alpha is
    ``config.alpha``.  The grid is ``grid``, or else the default grid over
    the samples' range with spacing ``step``; giving both is an error.
    """
    if which not in ("lower", "upper"):
        raise ValueError(f"band target must be 'lower' or 'upper', got {which!r}")
    return _bands((which,), X1, X0, config, grid, step, tuning)[0]


def _bands(orientations: tuple[str, ...], X1: Sample, X0: Sample, config: BootstrapConfig,
           grid: Grid | None, step: float | None, tuning: Tuning | None) -> tuple[Band, ...]:
    """One band per orientation from one candidate pass on the config's threads."""
    tuning = tuning or Tuning(n=len(X1) + len(X0))
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    grid = _resolve_grid(grid, step, X0, (X1,))
    structure = MakarovStructure(F1, F0, grid, tuning.a_n, orientations, config.threads)
    return tuple(_band(o, X1, X0, structure, config, tuning) for o in orientations)


def _band(which: str, X1: Sample, X0: Sample, structure: MakarovStructure,
          config: BootstrapConfig, tuning: Tuning) -> Band:
    """Bootstrap band around the structure's plug-in bound."""
    center = structure.bound(which)
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
        alpha=config.alpha,
        c_star=run.critical_value,
        r_n=tuning.r_n,
        run=run,
    )


def cdf_band(X1: Sample, X0: Sample,
             config: BootstrapConfig = BootstrapConfig(), grid: Grid | None = None,
             step: float | None = None, tuning: Tuning | None = None) -> Band:
    """Conservative band for the effect CDF at level ``config.alpha``: the
    lower and upper bound bands at alpha/2 each, from one candidate pass,
    combined as the lower limit of the lower-bound band and the upper limit
    of the upper-bound band, re-monotonized since clipping can break
    monotonicity.  ``grid``, ``step`` and ``tuning`` are as for
    ``uniform_band``."""
    half = replace(config, alpha=config.alpha / 2.0)
    lower_band, upper_band = _bands(("lower", "upper"), X1, X0, half, grid, step, tuning)
    lo = np.maximum.accumulate(lower_band.lo)
    hi = np.minimum.accumulate(upper_band.hi[::-1])[::-1]
    return Band(
        grid=lower_band.grid,
        lo=lo,
        hi=hi,
        center=0.5 * (lower_band.center + upper_band.center),
        alpha=2.0 * lower_band.alpha,  # not config.alpha: halving a subnormal alpha rounds
        c_star=max(lower_band.c_star, upper_band.c_star),
        r_n=lower_band.r_n,
    )


def dominance_test(X0: Sample, XA: Sample, XB: Sample,
                   config: BootstrapConfig = BootstrapConfig(), grid: Grid | None = None,
                   step: float | None = None, tuning: Tuning | None = None,
                   orientation: str = "necessary") -> TestResult:
    """Bootstrap test of distributional dominance of treatment A over B
    against a common control.

    orientation 'necessary' tests the refutable implication L_A <= U_B;
    'sufficient' tests U_A <= L_B, whose failure leaves dominance
    undetermined but which is the breakdown-frontier quantity.  The level
    is ``config.alpha``; ``grid`` and ``step`` are as for ``uniform_band``.
    """
    if orientation not in ("necessary", "sufficient"):
        raise ValueError(f"unknown orientation {orientation!r}")
    tuning = tuning or Tuning(n=len(X0) + len(XA) + len(XB))
    F0, FA, FB = ecdf_build(X0), ecdf_build(XA), ecdf_build(XB)
    grid = _resolve_grid(grid, step, X0, (XA, XB))  # the union of both pairs' ranges
    if orientation == "necessary":
        orientA, orientB, integrand_sign = "lower", "upper", 1.0
    else:
        orientA, orientB, integrand_sign = "upper", "lower", -1.0
    sA = MakarovStructure(FA, F0, grid, tuning.a_n, (orientA,), config.threads)
    sB = MakarovStructure(FB, F0, grid, tuning.a_n, (orientB,), config.threads)
    lv, rv = sA.bound(orientA), sB.bound(orientB)
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
        alpha=config.alpha,
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
