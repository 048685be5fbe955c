"""Uniform inference for optimal value functions, specialized to bound
functions for treatment-effect distributions."""

import importlib
import os
import sys

# numpy's OpenBLAS starts a worker thread per core as numpy is imported, and
# each spins on a core for a while.  vfi makes no BLAS call (a test in
# tests/test_startup.py scans for one), so one thread is enough.  OpenBLAS
# reads the variable only as it loads, so it is removed again once numpy is
# in and child processes do not inherit it.  A value the user set wins; a
# program that imported numpy first keeps its pool.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .empirical import Sample, StepCDF, ecdf_build, load_sample_csv, weighted_ecdf
from .valuemap import Grid, GriddedObjective, ValueFunction, psi
from .makarov import (
    BoundPair,
    SupportInfo,
    compute_bounds,
    default_grid,
    quantile_bounds,
    support_bounds,
)
from .stats import StatKind, StatValue, dominance_stat, ks_band_stat, lambda_stat
from .derivative import ArgmaxSets, Tuning, eps_argmax
from .bootstrap import BootstrapConfig, BootstrapRun, bootstrap_statistic_distribution, critical_value
from .inference import Band, TestResult, cdf_band, constant_effect_check, dominance_test, uniform_band
from .simulate import ExperimentConfig, PowerCurve, run_normal_location, run_uniform_dominance

__version__ = "0.1.0"
