"""Monte Carlo experiments producing power curves for the two procedures.

Two designs: a normal location family testing the lower-bound function
against its known closed form, and a uniform three-sample design for the
dominance test where the local parameter walks across the breakdown point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import BootstrapConfig, _require_ints, derive_seed, stream
from .empirical import Sample
from .inference import dominance_test, uniform_band
from .stats import ks_band_stat
from .valuemap import ValueFunction

__all__ = ["ExperimentConfig", "PowerCurve", "run_normal_location", "run_uniform_dominance"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of a Monte Carlo experiment; the runner it is passed to is
    the design.  ``grid_step`` None takes that runner's default step.  Every
    problem copies ``bootstrap`` with its own seed, derived from
    ``bootstrap.seed``, which also seeds the data draws."""

    n: int = 100
    reps: int = 300
    deltas: tuple = (-5.0, -2.5, 0.0, 2.5, 5.0)
    grid_step: float | None = None
    bootstrap: BootstrapConfig = BootstrapConfig()

    def __post_init__(self):
        _require_ints(self, "n", "reps")
        if self.n < 16:
            raise ValueError("per-sample n must be at least 16")
        if self.reps < 1:
            raise ValueError("need at least one Monte Carlo repetition")
        if len(self.deltas) == 0:
            raise ValueError("delta grid must be nonempty")
        if not np.isfinite(np.asarray(self.deltas, dtype=float)).all():
            raise ValueError("deltas must be finite numbers")


@dataclass(frozen=True)
class PowerCurve:
    deltas: np.ndarray
    reject_rate: np.ndarray
    se: np.ndarray


def _normal_lower_bound(x: np.ndarray) -> np.ndarray:
    # closed form of the lower bound when both marginals are standard normal;
    # ndtr is the standard normal CDF that scipy.stats.norm.cdf calls, and
    # scipy.special imports in a fraction of scipy.stats' time
    from scipy.special import ndtr

    return np.maximum(2.0 * ndtr(x / 2.0) - 1.0, 0.0)


def _collect(config: ExperimentConfig, one_rep) -> PowerCurve:
    """Rejection rates over the delta grid, the problems run in order on the
    calling thread.  At the paper's n = 100 a problem's numpy calls are too
    small to release the GIL, so a pool of problems would only pass it back
    and forth; ``config.bootstrap.threads`` sizes each problem's candidate
    pass."""
    deltas = np.asarray(config.deltas, dtype=float)
    hits = [sum(one_rep(d, i, m) for m in range(config.reps)) for i, d in enumerate(deltas)]
    rates = np.asarray(hits) / config.reps
    se = np.sqrt(rates * (1.0 - rates) / config.reps)
    return PowerCurve(deltas=deltas, reject_rate=rates, se=se)


def run_normal_location(config: ExperimentConfig) -> PowerCurve:
    """Size and power of the band-based test of the lower bound against
    the two-standard-normal closed form, under mean shifts delta/sqrt(n)."""
    n = config.n
    step = 0.05 if config.grid_step is None else config.grid_step
    boot = config.bootstrap

    def one_rep(delta: float, i: int, m: int) -> bool:
        rng = stream(boot.seed, 7001, i, m)
        X0 = Sample(rng.normal(0.0, 1.0, n), label="control")
        X1 = Sample(rng.normal(delta / np.sqrt(n), 1.0, n), label="treated")
        bconf = replace(boot, seed=derive_seed(boot.seed, 7001, i, m))
        band = uniform_band("lower", X1, X0, config=bconf, step=step)
        L0 = ValueFunction(grid=band.grid, values=_normal_lower_bound(band.grid.points))
        stat = ks_band_stat(ValueFunction(grid=band.grid, values=band.center), L0, band.r_n)
        return stat.value > band.c_star

    return _collect(config, one_rep)


def run_uniform_dominance(config: ExperimentConfig) -> PowerCurve:
    """Rejection rates of the dominance test in the uniform design where
    treatment A sits at mu = 1 + delta/sqrt(n); delta = 0 is the boundary."""
    n = config.n
    step = 0.02 if config.grid_step is None else config.grid_step
    boot = config.bootstrap

    def one_rep(delta: float, i: int, m: int) -> bool:
        mu = 1.0 + delta / np.sqrt(n)
        rng = stream(boot.seed, 7002, i, m)
        X0 = Sample(rng.uniform(0.0, 1.0, n), label="control")
        XB = Sample(rng.uniform(0.0, 1.0, n), label="B")
        XA = Sample(rng.uniform(mu, mu + 1.0, n), label="A")
        bconf = replace(boot, seed=derive_seed(boot.seed, 7002, i, m))
        res = dominance_test(X0, XA, XB, config=bconf, step=step, orientation="sufficient")
        return res.reject

    return _collect(config, one_rep)
