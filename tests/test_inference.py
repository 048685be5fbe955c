import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from vfi import inference, makarov
from vfi.bootstrap import BootstrapConfig
from vfi.derivative import Tuning, derivative_estimates, eps_argmax
from vfi.empirical import Sample, _cum_from_weights, ecdf_build
from vfi.inference import (
    Band,
    _BootstrapProblem,
    cdf_band,
    constant_effect_check,
    dominance_test,
    uniform_band,
)
from vfi.makarov import MakarovStructure, compute_bounds, default_grid
from vfi.stats import StatKind, ks_band_stat
from vfi.valuemap import Grid, ValueFunction


def normal_samples(seed, n=60, shift=0.0):
    rng = np.random.default_rng(seed)
    return Sample(rng.normal(shift, 1, n)), Sample(rng.normal(0, 1, n))


class TestUniformBand:
    def test_center_matches_plugin_bound(self):
        X1, X0 = normal_samples(1)
        band = uniform_band("lower", X1, X0, config=BootstrapConfig(R=19, seed=1), step=0.1)
        pair = compute_bounds(X1, X0, grid=band.grid)
        assert_array_equal(band.center, pair.lower.values)
        bu = uniform_band("upper", X1, X0, config=BootstrapConfig(R=19, seed=1),
                          grid=band.grid)
        assert_array_equal(bu.center, pair.upper.values)

    def test_band_invariants(self):
        X1, X0 = normal_samples(2)
        band = uniform_band("lower", X1, X0, config=BootstrapConfig(R=99, seed=2), step=0.1)
        half = band.c_star / band.r_n
        assert_array_equal(band.lo, np.maximum(band.center - half, 0.0))
        assert_array_equal(band.hi, np.minimum(band.center + half, 1.0))
        assert np.all(band.lo <= band.center) and np.all(band.center <= band.hi)

    def test_band_narrows_as_alpha_grows(self):
        # the level is the config's: the procedures used to take an alpha of
        # their own, 0.05 by default, and overwrite the config's with it
        X1, X0 = normal_samples(3)
        cfg = BootstrapConfig(R=99, seed=3)
        tight = uniform_band("lower", X1, X0, config=replace(cfg, alpha=0.5), step=0.1)
        wide = uniform_band("lower", X1, X0, config=cfg, step=0.1)
        assert tight.c_star < wide.c_star
        upper = uniform_band("upper", X1, X0, config=replace(cfg, alpha=0.5), step=0.1)
        for band in (tight, upper):
            assert band.alpha == 0.5 and band.run.config.alpha == 0.5
        assert cdf_band(X1, X0, config=replace(cfg, alpha=0.5), step=0.1).alpha == 0.5

    def test_grid_and_step_are_not_both_taken(self):
        # the step was dropped in silence when a grid was given
        X1, X0 = normal_samples(14, n=30)
        grid = default_grid(X0, (X1,), 0.2)
        cfg = BootstrapConfig(R=9)
        calls = [lambda **kw: uniform_band("lower", X1, X0, config=cfg, **kw),
                 lambda **kw: cdf_band(X1, X0, config=cfg, **kw),
                 lambda **kw: dominance_test(X0, X1, X1, config=cfg, **kw),
                 lambda **kw: compute_bounds(X1, X0, **kw)]
        for call in calls:
            with pytest.raises(ValueError, match="grid or step"):
                call(grid=grid, step=0.01)
            call(grid=grid)

    def test_all_one_weights_give_zero_replicate(self):
        X1, X0 = normal_samples(4, n=30)
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        grid = default_grid(X0, (X1,), 0.2)
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


# few distinct values, so samples are mostly ties; both signs of zero
_tied = st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.5, 2.0, 1e-300]), min_size=1, max_size=25)


class TestTieBlocks:
    """The plug-in ECDF and every bootstrap cumulative array sum over the
    same tie blocks, found once by ``Sample``."""

    @settings(max_examples=60, deadline=None)
    @given(_tied, _tied)
    @example([0.0], [-0.0])
    @example([-0.0, 0.0, -0.0], [2.0, 2.0, 2.0, 2.0])
    def test_one_rule_on_heavy_ties(self, v1, v0):
        X1, X0 = Sample(np.array(v1)), Sample(np.array(v0))
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        for X, F in ((X1, F1), (X0, F0)):
            uniq, counts = np.unique(X.values, return_counts=True)
            cum = np.cumsum(counts) / len(X)
            cum[-1] = 1.0
            # bytes, so the sign of a zero jump point counts
            assert F.jump_points.tobytes() == uniq.tobytes()
            assert F.cum_probs.tobytes() == cum.tobytes()
            ones = np.ones((2, len(X)))
            for d in (_cum_from_weights(ones[0], X.block_starts),
                      *_cum_from_weights(ones, X.block_starts)):
                assert d.tobytes() == F.cum0.tobytes()
        tuning = Tuning(n=100)  # the tuning's floor is above n = 2; any slack will do
        grid = default_grid(X0, (X1,))
        s = MakarovStructure(F1, F0, grid, tuning.a_n, ("lower", "upper"))
        for which in ("lower", "upper"):
            sets = eps_argmax(s.near_argmax(which), tuning)
            problem = _BootstrapProblem((X1, X0), [(s, which, 0, 1)],
                                        partial(derivative_estimates, StatKind(j=1), sets),
                                        tuning.r_n, block_rows=2)
            reps = problem.replicate_stat([np.ones((2, len(X1))), np.ones((2, len(X0)))])
            assert_array_equal(reps, 0.0)


class TestMemory:
    def test_bound_bands_peak_at_n_1e3(self):
        # the dense candidate path held ia, ib and the objective (K x 2M each,
        # K = 515 grid rows, 2M = 4000 candidates): a 67 MB peak here; the
        # streamed pass holds one chunk of rows and the kept cells (9 MB)
        X1, X0 = normal_samples(12, n=1000, shift=0.5)
        tracemalloc.start()
        try:
            cdf_band(X1, X0, config=BootstrapConfig(R=9, seed=1))
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
        """Two samples, a config and its two bound bands at alpha/2."""
        X1, X0 = normal_samples(seed)
        cfg = BootstrapConfig(R=49, seed=seed, alpha=0.05)
        half = replace(cfg, alpha=0.025)
        lo = uniform_band("lower", X1, X0, config=half, step=0.1)
        hi = uniform_band("upper", X1, X0, config=half, grid=lo.grid)
        return X1, X0, cfg, lo, hi

    @staticmethod
    def count_calls(monkeypatch):
        """The names of the bound scans and structures built, as they run."""
        calls = []

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(makarov, "_scan", counted(makarov._scan, "scan"))
        monkeypatch.setattr(inference, "MakarovStructure",
                            counted(MakarovStructure, "structure"))
        return calls

    def test_contains_plugin_bounds_and_monotone(self):
        X1, X0 = normal_samples(7)
        combined = cdf_band(X1, X0, config=BootstrapConfig(R=49, seed=7), step=0.1)
        pair = compute_bounds(X1, X0, grid=combined.grid)
        assert np.all(combined.lo <= pair.lower.values)
        assert np.all(pair.upper.values <= combined.hi)
        assert np.all(np.diff(combined.lo) >= 0) and np.all(np.diff(combined.hi) >= 0)
        assert combined.alpha == 0.05

    def test_hi_above_lo(self):
        X1, X0 = normal_samples(8)
        combined = cdf_band(X1, X0, config=BootstrapConfig(R=49, seed=8), step=0.1)
        assert np.all(combined.lo <= combined.hi)

    def test_equals_the_combined_uniform_bands(self, monkeypatch):
        # one structure and no scan, then the monotone combination of the
        # lower and upper uniform bands at alpha/2, bit for bit
        X1, X0, cfg, lo_band, hi_band = self.make(9)
        calls = self.count_calls(monkeypatch)
        combined = cdf_band(X1, X0, config=cfg, step=0.1)
        assert calls == ["structure"]
        assert combined.grid.same_as(lo_band.grid)
        assert combined.lo.tobytes() == np.maximum.accumulate(lo_band.lo).tobytes()
        want_hi = np.minimum.accumulate(hi_band.hi[::-1])[::-1]
        assert combined.hi.tobytes() == want_hi.tobytes()
        want_center = 0.5 * (lo_band.center + hi_band.center)
        assert combined.center.tobytes() == want_center.tobytes()
        assert combined.c_star == max(lo_band.c_star, hi_band.c_star)
        assert (combined.alpha, combined.r_n) == (cfg.alpha, lo_band.r_n)

    def test_bound_bands_share_one_structure_and_scan(self, monkeypatch):
        X1, X0, cfg, lo_band, hi_band = self.make(10)
        calls = self.count_calls(monkeypatch)
        pair = inference._bands(("lower", "upper"), X1, X0, replace(cfg, alpha=0.025),
                                None, 0.1, None)
        assert calls == ["structure"]
        for got, want in zip(pair, (lo_band, hi_band)):
            assert got.grid.same_as(want.grid)
            for field in ("lo", "hi", "center"):
                assert_array_equal(getattr(got, field), getattr(want, field))
            assert_array_equal(got.run.replicates, want.run.replicates)
            assert (got.c_star, got.alpha, got.r_n) == (want.c_star, want.alpha, want.r_n)
        # both centers and both dominance bounds are read from the kept
        # cells: no band or test runs a scan
        cfg = BootstrapConfig(R=9, seed=10)
        for run in (partial(uniform_band, "lower", X1, X0),
                    partial(uniform_band, "upper", X1, X0),
                    partial(dominance_test, X0, X1, X0, orientation="necessary"),
                    partial(dominance_test, X0, X1, X0, orientation="sufficient")):
            calls.clear()
            run(config=cfg, step=0.2)
            assert "scan" not in calls, run


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
        cfg = BootstrapConfig(R=99, seed=11)
        res = dominance_test(X0, XA, XB, config=cfg, step=0.05)
        assert res.reject == (res.statistic > res.critical_value)
        assert res.statistic > 0
        assert res.rep_count == 99
        assert res.rep_max >= res.rep_mean >= 0
        # the level is the config's alpha, which an alpha of the test's own
        # used to overwrite
        half = dominance_test(X0, XA, XB, config=replace(cfg, alpha=0.5), step=0.05)
        assert half.alpha == 0.5 and half.run.config.alpha == 0.5
        assert half.critical_value < res.critical_value

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
