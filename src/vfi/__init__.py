"""Uniform inference for optimal value functions, specialized to bound
functions for treatment-effect distributions."""

from .empirical import Sample, StepCDF, ecdf_build, load_sample_csv, weighted_ecdf
from .valuemap import Grid, GriddedObjective, ValueFunction, negate, psi
from .makarov import (
    BoundPair,
    SupportInfo,
    compute_bounds,
    default_grid,
    lower_bound,
    quantile_bounds,
    support_bounds,
    upper_bound,
)
from .stats import StatKind, StatValue, dominance_stat, ks_band_stat, lambda_stat
from .derivative import ArgmaxSets, Tuning, derivative_estimate, eps_argmax
from .bootstrap import BootstrapConfig, BootstrapRun, bootstrap_statistic_distribution, critical_value
from .inference import Band, TestResult, bound_bands, cdf_band, constant_effect_check, dominance_test, uniform_band
from .simulate import ExperimentConfig, PowerCurve, run_normal_location, run_uniform_dominance

__version__ = "0.1.0"
