"""Acceptance suite: one test per criterion, with a printed PASS line and
the pinned tolerance for each.  These are end-to-end checks against
independent oracles, closed forms, and Monte Carlo error bands."""

import json
import os
import subprocess
import sys
import time

import numpy as np
from numpy.testing import assert_array_equal
from scipy.stats import norm

from vfi.bootstrap import BootstrapConfig
from vfi.derivative import Tuning, derivative_estimates, eps_argmax
from vfi.empirical import Sample, ecdf_build
from vfi.inference import Band
from vfi.makarov import compute_bounds, support_bounds
from vfi.simulate import ExperimentConfig, run_normal_location, run_uniform_dominance
from vfi.stats import StatKind, ks_band_stat
from vfi.valuemap import Grid, GriddedObjective, ValueFunction

from dense_reference import dense_joint

CLI = [sys.executable, "-m", "vfi.cli"]


def report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})", flush=True)


def estimate(kind, sets, h):
    """derivative_estimates of h, given on every candidate, as a one-row block."""
    return float(derivative_estimates(kind, sets, h.ravel()[sets.cells][None])[0])


def brute_lower(F1, X0, x):
    # enumeration over the events of F1 and of the shifted control ECDF,
    # taking both one-sided limits at every event
    G = ecdf_build(Sample(X0.values + x))
    best = 0.0
    for u in np.concatenate((F1.jump_points, G.jump_points)):
        best = max(best, F1(u) - G(u), F1.left_limit(u) - G.left_limit(u))
    return min(best, 1.0)


def brute_upper(F1, X0, x):
    G = ecdf_build(Sample(X0.values + x))
    worst = 0.0
    for u in np.concatenate((F1.jump_points, G.jump_points)):
        worst = min(worst, F1(u) - G(u), F1.left_limit(u) - G.left_limit(u))
    return max(1.0 + worst, 0.0)


def test_c01_bounds_match_brute_force_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        X1 = Sample(rng.normal(0, 1, rng.integers(2, 21)))
        X0 = Sample(rng.normal(0.2, 1.3, rng.integers(2, 21)))
        F1 = ecdf_build(X1)
        pair = compute_bounds(X1, X0, step=0.31)
        L, U = pair.lower.values, pair.upper.values
        for k, x in enumerate(pair.grid.points):
            worst = max(worst, abs(L[k] - brute_lower(F1, X0, x)))
            worst = max(worst, abs(U[k] - brute_upper(F1, X0, x)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(1, "bounds-oracle", f"200 pairs, max err {worst:.2e}, {elapsed:.1f}s")


def test_c02_closed_form_bound_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    n = 10**5
    X1 = Sample(rng.normal(0, 1, n))
    X0 = Sample(rng.normal(0, 1, n))
    grid = Grid(points=np.arange(-600, 601) * 0.01, step=0.01)
    L = compute_bounds(X1, X0, grid=grid).lower.values
    truth = np.maximum(2.0 * norm.cdf(grid.points / 2.0) - 1.0, 0.0)
    err = float(np.max(np.abs(L - truth)))
    elapsed = time.perf_counter() - t0
    assert err <= 0.02
    assert elapsed < 60.0
    report(2, "closed-form-recovery", f"sup err {err:.4f} <= 0.02, {elapsed:.1f}s")


def test_c03_support_formulas_exact():
    rng = np.random.default_rng(103)
    for _ in range(100):
        X1 = Sample(rng.normal(0, 2, rng.integers(2, 8)))
        X0 = Sample(rng.normal(1, 1, rng.integers(2, 8)))
        info = support_bounds(X1, X0)
        assert info.global_range == (X1.min - X0.max, X1.max - X0.min)
        n1, n0 = len(X1), len(X0)
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        levels = np.unique(np.r_[np.arange(1, n1 + 1) / n1, np.arange(1, n0 + 1) / n0])
        diffs = F1.quantile(levels) - F0.quantile(levels)
        assert info.lower_support == (float(diffs.min()), X1.max - X0.min)
        assert info.upper_support == (X1.min - X0.max, float(diffs.max()))
    report(3, "support-formulas", "100 pairs, exact equality")


def test_c04_degenerate_control_identity():
    rng = np.random.default_rng(104)
    for _ in range(50):
        c = float(rng.normal())
        X0 = Sample(np.full(rng.integers(1, 5), c))
        X1 = Sample(rng.normal(0, 1, rng.integers(2, 12)))
        F1 = ecdf_build(X1)
        pair = compute_bounds(X1, X0, step=0.17)
        grid = pair.grid
        assert_array_equal(pair.lower.values, F1.left_limit(grid.points + c))
        assert_array_equal(pair.upper.values, F1(grid.points + c))
    report(4, "degenerate-identity", "50 cases, exact")


def test_c05_null_size_ks_band():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(n=100, reps=300, deltas=(0.0,),
                           bootstrap=BootstrapConfig(R=199, alpha=0.05, seed=1005))
    rate = float(run_normal_location(cfg).reject_rate[0])
    elapsed = time.perf_counter() - t0
    assert 0.02 <= rate <= 0.09
    assert elapsed < 15 * 60
    report(5, "null-size-ks-band", f"rejection {rate:.3f} in [0.02, 0.09], {elapsed:.0f}s")


def test_c06_dominance_boundary_size_and_power():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(n=100, reps=300, deltas=(-5.0, 0.0, 5.0),
                           bootstrap=BootstrapConfig(R=199, alpha=0.05, seed=1006))
    curve = run_uniform_dominance(cfg)
    p_minus, p_bound, p_plus = (float(v) for v in curve.reject_rate)
    elapsed = time.perf_counter() - t0
    assert p_bound <= 0.09
    assert p_plus <= p_bound
    assert p_minus >= 2.0 * p_bound
    report(6, "dominance-size-power",
           f"boundary {p_bound:.3f} <= 0.09, interior {p_plus:.3f}, "
           f"power {p_minus:.3f}, {elapsed:.0f}s")


def test_c07_derivative_lipschitz_and_monotonicity():
    rng = np.random.default_rng(107)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        c = int(rng.integers(2, 7))
        grid = Grid(points=np.sort(rng.uniform(-1, 1, k)), step=float(rng.uniform(0.05, 0.4)))
        f = GriddedObjective(grid=grid, values=rng.normal(0, 1, (k, c)))
        h = rng.normal(0, 1, (k, c))
        kk = h + rng.normal(0, 0.5, (k, c))
        gap = float(np.max(np.abs(h - kk)))
        mX = float(grid.rect_weights().sum())
        t_small = Tuning(n=int(rng.integers(20, 5000)))
        sets = eps_argmax(f, t_small)
        for j, C in ((1, 1.0), (2, 1.0), (3, mX**0.5), (4, mX**0.5)):
            d = abs(estimate(StatKind(j), sets, h) - estimate(StatKind(j), sets, kk))
            if d > C * gap + 1e-12:
                violations += 1
        # grow only a_n; the contact set must stay fixed for the one-sided
        # L_p estimate to be monotone (the empty-contact fallback is not)
        big = eps_argmax(f, Tuning(n=t_small.n, a_const=5 * t_small.a_const,
                                   b_const=t_small.b_const))
        if not (np.all(big.per_x >= sets.per_x)
                and np.all(dense_joint(big) >= dense_joint(sets))):
            violations += 1
        for j in (2, 4):
            if estimate(StatKind(j), big, h) < estimate(StatKind(j), sets, h) - 1e-12:
                violations += 1
        hp = np.abs(h)
        if estimate(StatKind(3), big, hp) < estimate(StatKind(3), sets, hp) - 1e-12:
            violations += 1
    assert violations == 0
    report(7, "derivative-properties", "1000 triples, 0 violations beyond 1e-12")


def test_c08_eps_argmax_consistency():
    k, c = 5, 10
    base = np.zeros((k, c))
    base[:, :2] = 1.0  # tied argmax pair, gap 0.1 to the runners-up
    base[:, 2:] = 0.9
    truth = base >= 1.0
    grid = Grid(points=np.arange(k) / k, step=1.0 / k)
    failures = 0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        for n in (10**2, 10**4, 10**6):
            noisy = base + rng.uniform(-1, 1, (k, c)) * 0.1 / np.sqrt(n)
            est = eps_argmax(GriddedObjective(grid=grid, values=noisy), Tuning(n=n)).per_x
            if not np.all(est >= truth):
                failures += 1
            if n == 10**6 and not np.array_equal(est, truth):
                failures += 1
    assert failures == 0
    report(8, "eps-argmax-consistency", "50 seeds x n in {1e2,1e4,1e6}, 0 failures")


def test_c09_cli_determinism(tmp_path):
    rng = np.random.default_rng(109)
    files = {}
    for name, vals in (("t", rng.normal(0.4, 1, 30)),
                       ("c", rng.normal(0, 1, 30)),
                       ("b", rng.normal(0.1, 1, 30))):
        p = tmp_path / f"{name}.csv"
        p.write_text("".join(f"{float(v)!r}\n" for v in vals))
        files[name] = str(p)
    commands = {
        "bounds": ["bounds", "--treated", files["t"], "--control", files["c"],
                   "--grid-step", "0.25"],
        "band": ["band", "--treated", files["t"], "--control", files["c"],
                 "--R", "49", "--seed", "7", "--grid-step", "0.25"],
        "cdf-band": ["cdf-band", "--treated", files["t"], "--control", files["c"],
                     "--R", "49", "--seed", "7", "--grid-step", "0.25"],
        "dominance-test": ["dominance-test", "--control", files["c"],
                           "--treatment-a", files["t"], "--treatment-b", files["b"],
                           "--R", "49", "--seed", "7", "--grid-step", "0.25"],
        "quantile-bounds": ["quantile-bounds", "--treated", files["t"],
                            "--control", files["c"], "--taus", "0.25,0.5,0.75"],
        "simulate": ["simulate", "normal", "--n", "40", "--R", "19", "--reps", "2",
                     "--deltas", "0", "--seed", "3"],
    }
    threaded = {"band", "cdf-band", "dominance-test", "simulate"}
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}  # as in-process tests
    for name, argv in commands.items():
        outs = set()
        for threads in ("1", "4"):
            full = CLI + argv + (["--threads", threads] if name in threaded else [])
            for _ in range(3):
                r = subprocess.run(full, capture_output=True, text=True, env=env)
                assert r.returncode == 0, (name, r.stderr)
                outs.add(r.stdout)
        assert len(outs) == 1, f"{name} output not deterministic"
    report(9, "cli-determinism", "6 commands x 3 runs x threads {1,4} where taken, byte-identical")


def test_c10_band_duality():
    rng = np.random.default_rng(110)
    discrepancies = 0
    for _ in range(1000):
        k = int(rng.integers(3, 25))
        grid = Grid(points=np.sort(rng.uniform(-2, 2, k)), step=0.1)
        center = np.sort(rng.uniform(0, 1, k))
        c_star = float(rng.uniform(0.0, 2.0))
        r_n = float(rng.uniform(1, 30))
        half = c_star / r_n
        band = Band(grid=grid, lo=np.maximum(center - half, 0.0),
                    hi=np.minimum(center + half, 1.0), center=center,
                    alpha=0.05, c_star=c_star, r_n=r_n)
        cand = np.clip(center + rng.uniform(-2 * half - 0.01, 2 * half + 0.01, k), 0, 1)
        stat = ks_band_stat(ValueFunction(grid=grid, values=center),
                            ValueFunction(grid=grid, values=cand), r_n)
        inside = bool(np.all((band.lo <= cand) & (cand <= band.hi)))
        if (stat.value <= c_star) != inside:
            discrepancies += 1
    assert discrepancies == 0
    report(10, "band-duality", "1000 trials, 0 discrepancies")
