import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vfi import inference, makarov
from vfi.bootstrap import BootstrapConfig
from vfi.derivative import Tuning, derivative_estimates, eps_argmax
from vfi.empirical import Sample, ecdf_build
from vfi.inference import (
    Band,
    _BootstrapProblem,
    bound_bands,
    cdf_band,
    constant_effect_check,
    dominance_test,
    uniform_band,
)
from vfi.makarov import MakarovStructure, default_grid, lower_bound, support_bounds, upper_bound
from vfi.stats import StatKind, ks_band_stat
from vfi.valuemap import Grid, ValueFunction


def normal_samples(seed, n=60, shift=0.0):
    rng = np.random.default_rng(seed)
    return Sample(rng.normal(shift, 1, n)), Sample(rng.normal(0, 1, n))


class TestUniformBand:
    def test_center_matches_plugin_bound(self):
        X1, X0 = normal_samples(1)
        band = uniform_band("lower", X1, X0, config=BootstrapConfig(R=19, seed=1), step=0.1)
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        assert_array_equal(band.center, lower_bound(F1, F0, band.grid).values)
        bu = uniform_band("upper", X1, X0, config=BootstrapConfig(R=19, seed=1),
                          grid=band.grid)
        assert_array_equal(bu.center, upper_bound(F1, F0, band.grid).values)

    def test_band_invariants(self):
        X1, X0 = normal_samples(2)
        band = uniform_band("lower", X1, X0, config=BootstrapConfig(R=99, seed=2), step=0.1)
        half = band.c_star / band.r_n
        assert_array_equal(band.lo, np.maximum(band.center - half, 0.0))
        assert_array_equal(band.hi, np.minimum(band.center + half, 1.0))
        assert np.all(band.lo <= band.center) and np.all(band.center <= band.hi)

    def test_band_narrows_as_alpha_grows(self):
        X1, X0 = normal_samples(3)
        cfg = BootstrapConfig(R=99, seed=3)
        tight = uniform_band("lower", X1, X0, alpha=0.5, config=cfg, step=0.1)
        wide = uniform_band("lower", X1, X0, alpha=0.05, config=cfg, step=0.1)
        assert tight.c_star <= wide.c_star

    def test_all_one_weights_give_zero_replicate(self):
        X1, X0 = normal_samples(4, n=30)
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        grid = default_grid(support_bounds(X1, X0), 0.2)
        tuning = Tuning(n=60)
        s = MakarovStructure(F1, F0, grid, tuning.a_n, ("lower",))
        sets = eps_argmax(s.near_argmax("lower"), tuning)
        problem = _BootstrapProblem((X1, X0), [(s, "lower", 0, 1)],
                                    partial(derivative_estimates, StatKind(j=1), sets),
                                    tuning.r_n, block_rows=1)
        assert problem.replicate_stat([np.ones((1, 30)), np.ones((1, 30))]) == 0.0

    def test_rejects_unknown_target(self):
        X1, X0 = normal_samples(5)
        with pytest.raises(ValueError, match="lower"):
            uniform_band("middle", X1, X0)


class TestMemory:
    def test_bound_bands_peak_at_n_1e3(self):
        # the dense candidate path held ia, ib and the objective (K x 2M each,
        # K = 515 grid rows, 2M = 4000 candidates): a 67 MB peak here; the
        # streamed pass holds one chunk of rows and the kept cells (9 MB)
        X1, X0 = normal_samples(12, n=1000, shift=0.5)
        tracemalloc.start()
        try:
            bound_bands(X1, X0, alpha=0.025, config=BootstrapConfig(R=9, seed=1, alpha=0.025))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_dominance_test_peak_at_n_1e3(self):
        # replicates run in blocks of at most bootstrap.BLOCK_CELLS cells per
        # work array (a 16 MB peak here, set by the candidate pass); all
        # R = 199 replicates in one block would peak at about 210 MB
        rng = np.random.default_rng(12)
        X0, XB = Sample(rng.uniform(0, 1, 1000)), Sample(rng.uniform(0, 1, 1000))
        XA = Sample(rng.uniform(1, 2, 1000))
        tracemalloc.start()
        try:
            dominance_test(X0, XA, XB, config=BootstrapConfig(R=199, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


class TestBandDuality:
    def test_ks_below_critical_iff_inside_band(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = rng.integers(3, 20)
            grid = Grid(points=np.sort(rng.uniform(-1, 1, k)), step=0.1)
            center = np.sort(rng.uniform(0, 1, k))
            c_star, r_n = float(rng.uniform(0.01, 2)), float(rng.uniform(1, 20))
            half = c_star / r_n
            band = Band(grid=grid, lo=np.maximum(center - half, 0.0),
                        hi=np.minimum(center + half, 1.0), center=center,
                        alpha=0.05, c_star=c_star, r_n=r_n)
            cand = np.clip(center + rng.uniform(-2 * half, 2 * half, k), 0, 1)
            stat = ks_band_stat(ValueFunction(grid=grid, values=center),
                                ValueFunction(grid=grid, values=cand), r_n)
            inside = bool(np.all((band.lo <= cand) & (cand <= band.hi)))
            assert (stat.value <= c_star) == inside


class TestCdfBand:
    def make(self, seed):
        X1, X0 = normal_samples(seed)
        cfg = BootstrapConfig(R=49, seed=seed, alpha=0.025)
        lo = uniform_band("lower", X1, X0, alpha=0.025, config=cfg, step=0.1)
        hi = uniform_band("upper", X1, X0, alpha=0.025, config=cfg, grid=lo.grid)
        return X1, X0, lo, hi

    def test_contains_plugin_bounds_and_monotone(self):
        X1, X0, lo_band, hi_band = self.make(7)
        combined = cdf_band(lo_band, hi_band)
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        L = lower_bound(F1, F0, combined.grid).values
        U = upper_bound(F1, F0, combined.grid).values
        assert np.all(combined.lo <= L) and np.all(U <= combined.hi)
        assert np.all(np.diff(combined.lo) >= 0) and np.all(np.diff(combined.hi) >= 0)
        assert combined.alpha == pytest.approx(0.05)

    def test_hi_above_lo(self):
        _, _, lo_band, hi_band = self.make(8)
        combined = cdf_band(lo_band, hi_band)
        assert np.all(combined.lo <= combined.hi)

    def test_bound_bands_share_one_structure_and_scan(self, monkeypatch):
        X1, X0, lo_band, hi_band = self.make(10)
        calls = []

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(inference, "_scan", counted(makarov._scan, "scan"))
        monkeypatch.setattr(inference, "MakarovStructure",
                            counted(MakarovStructure, "structure"))
        cfg = BootstrapConfig(R=49, seed=10, alpha=0.025)
        pair = bound_bands(X1, X0, alpha=0.025, config=cfg, step=0.1)
        assert sorted(calls) == ["scan", "structure"]
        for got, want in zip(pair, (lo_band, hi_band)):
            assert got.grid.same_as(want.grid)
            for field in ("lo", "hi", "center"):
                assert_array_equal(getattr(got, field), getattr(want, field))
            assert_array_equal(got.run.replicates, want.run.replicates)
            assert (got.c_star, got.alpha, got.r_n) == (want.c_star, want.alpha, want.r_n)

    def test_alpha_mismatch_rejected(self):
        X1, X0 = normal_samples(9)
        a = uniform_band("lower", X1, X0, alpha=0.05, config=BootstrapConfig(R=19, seed=9), step=0.2)
        b = uniform_band("upper", X1, X0, alpha=0.1,
                         config=BootstrapConfig(R=19, seed=9, alpha=0.1), grid=a.grid)
        with pytest.raises(ValueError, match="level"):
            cdf_band(a, b)


class TestDominanceTest:
    def test_zero_statistic_when_strongly_separated(self):
        rng = np.random.default_rng(10)
        X0 = Sample(rng.uniform(0, 1, 40))
        XB = Sample(rng.uniform(0, 1, 40))
        XA = Sample(rng.uniform(5, 6, 40))  # A far above B
        res = dominance_test(X0, XA, XB, config=BootstrapConfig(R=49, seed=10), step=0.1)
        assert res.statistic == 0.0
        assert not res.reject

    def test_reject_flag_consistent(self):
        rng = np.random.default_rng(11)
        X0 = Sample(rng.uniform(0, 1, 40))
        XB = Sample(rng.uniform(0.8, 1.8, 40))
        XA = Sample(rng.uniform(0, 1, 40))  # A far below B: should reject
        res = dominance_test(X0, XA, XB, config=BootstrapConfig(R=99, seed=11), step=0.05)
        assert res.reject == (res.statistic > res.critical_value)
        assert res.statistic > 0
        assert res.rep_count == 99
        assert res.rep_max >= res.rep_mean >= 0

    def test_orientations_differ(self):
        rng = np.random.default_rng(12)
        X0 = Sample(rng.uniform(0, 1, 40))
        XB = Sample(rng.uniform(0, 1, 40))
        XA = Sample(rng.uniform(0.5, 1.5, 40))
        nec = dominance_test(X0, XA, XB, config=BootstrapConfig(R=49, seed=12),
                             step=0.05, orientation="necessary")
        suf = dominance_test(X0, XA, XB, config=BootstrapConfig(R=49, seed=12),
                             step=0.05, orientation="sufficient")
        # the sufficient-condition statistic dominates the necessary one:
        # U_A - L_B >= L_A - U_B pointwise
        assert suf.statistic >= nec.statistic

    def test_unknown_orientation(self):
        X1, X0 = normal_samples(13)
        with pytest.raises(ValueError, match="orientation"):
            dominance_test(X0, X1, X1, orientation="both")


class TestConstantEffectCheck:
    def band(self, lo, hi, pts=None):
        pts = np.asarray(pts if pts is not None else np.linspace(-1, 1, len(lo)), dtype=float)
        grid = Grid(points=pts, step=float(pts[1] - pts[0]))
        lo, hi = np.asarray(lo, float), np.asarray(hi, float)
        return Band(grid=grid, lo=lo, hi=hi, center=(lo + hi) / 2,
                    alpha=0.05, c_star=1.0, r_n=10.0)

    def test_vacuous_band(self):
        b = self.band(np.zeros(5), np.ones(5))
        for x in (-1.0, 0.0, 0.7):
            assert constant_effect_check(b, x)

    def test_violation_below_x_star(self):
        b = self.band([0.0, 0.3, 0.3, 0.3, 0.3], [1.0, 1.0, 1.0, 1.0, 1.0])
        assert not constant_effect_check(b, 0.9)  # lo > 0 left of the step
        assert constant_effect_check(b, -1.0)

    def test_violation_above_x_star(self):
        b = self.band([0.0] * 5, [1.0, 1.0, 0.6, 1.0, 1.0])
        assert not constant_effect_check(b, -0.8)  # hi < 1 right of the step

    def test_outside_grid(self):
        b = self.band(np.zeros(5), np.ones(5))
        with pytest.raises(ValueError, match="outside"):
            constant_effect_check(b, 2.0)
