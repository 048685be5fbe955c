import concurrent.futures

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vfi import simulate
from vfi.bootstrap import BootstrapConfig, derive_seed
from vfi.simulate import ExperimentConfig, run_normal_location, run_uniform_dominance


def small(**kw):
    """A small ExperimentConfig; R, alpha, seed, scheme and threads go to
    its BootstrapConfig."""
    base = dict(n=40, R=49, reps=10, deltas=(0.0,), seed=5)
    base.update(kw)
    boot = {k: base.pop(k) for k in ("R", "alpha", "seed", "scheme", "threads") if k in base}
    return ExperimentConfig(bootstrap=BootstrapConfig(**boot), **base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small(n=10)
        with pytest.raises(ValueError):
            small(reps=0)
        with pytest.raises(ValueError):
            small(deltas=())

    @pytest.mark.parametrize("setting, message", [
        ({"R": 0}, "replicate count"), ({"alpha": 2.0}, "alpha"), ({"scheme": "x"}, "scheme"),
        ({"threads": 0}, "thread count")])
    def test_bootstrap_settings_checked_at_construction(self, setting, message):
        # they used to fail only when the first Monte Carlo problem ran
        with pytest.raises(ValueError, match=message):
            small(**setting)

    # a float n or reps used to construct, and the first problem failed with
    # "'float' object cannot be interpreted as an integer", naming no field
    @pytest.mark.parametrize("field", ["R", "seed", "threads", "n", "reps"])
    def test_bootstrap_integers_checked_at_construction(self, field):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            small(**{field: 1.5})

    @pytest.mark.parametrize("deltas", [(float("nan"),), (0.0, float("inf")), (-np.inf,)])
    def test_non_finite_deltas(self, deltas):
        # a library caller used to get "sample 'treated' contains non-finite values"
        with pytest.raises(ValueError, match="deltas"):
            small(deltas=deltas)

    def test_default_steps(self, monkeypatch):
        # each runner passes its own default step; grid_step overrides both
        steps = []

        def recording(real):
            def wrapper(*args, **kwargs):
                steps.append(kwargs["step"])
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulate, "uniform_band", recording(simulate.uniform_band))
        monkeypatch.setattr(simulate, "dominance_test", recording(simulate.dominance_test))
        for grid_step in (None, 0.5):
            cfg = small(n=16, R=3, reps=1, grid_step=grid_step)
            run_normal_location(cfg)
            run_uniform_dominance(cfg)
        assert steps == [0.05, 0.02, 0.5, 0.5]


class TestSeeds:
    def test_bootstrap_seeds_are_derived_per_problem(self, monkeypatch):
        seeds = []

        def recording(real):
            def wrapper(*args, **kwargs):
                seeds.append(kwargs["config"].seed)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulate, "uniform_band", recording(simulate.uniform_band))
        monkeypatch.setattr(simulate, "dominance_test", recording(simulate.dominance_test))
        run_normal_location(small(n=16, R=3, reps=2, deltas=(0.0, 1.0)))
        run_uniform_dominance(small(n=16, R=3, reps=2, deltas=(0.0, 1.0)))
        assert seeds == [derive_seed(5, e, i, m) for e in (7001, 7002)
                         for i in range(2) for m in range(2)]


class TestNormalLocation:
    def test_reproducible_and_well_formed(self):
        cfg = small(deltas=(0.0, 4.0))
        a = run_normal_location(cfg)
        b = run_normal_location(cfg)
        assert_array_equal(a.reject_rate, b.reject_rate)
        assert np.all((0 <= a.reject_rate) & (a.reject_rate <= 1))
        assert_array_equal(a.se, np.sqrt(a.reject_rate * (1 - a.reject_rate) / cfg.reps))

    def test_single_rep_is_binary(self):
        curve = run_normal_location(small(reps=1))
        assert curve.reject_rate[0] in (0.0, 1.0)

    def test_threads_do_not_change_results(self):
        cfg1 = small(deltas=(0.0, 4.0), threads=1)
        cfg4 = small(deltas=(0.0, 4.0), threads=4)
        assert_array_equal(run_normal_location(cfg1).reject_rate,
                           run_normal_location(cfg4).reject_rate)


class TestNormalLowerBound:
    def test_bit_equal_to_scipy_stats_form(self):
        from scipy.stats import norm

        x = np.linspace(-10.0, 10.0, 100_001)
        want = np.maximum(2.0 * norm.cdf(x / 2.0) - 1.0, 0.0)
        assert simulate._normal_lower_bound(x).tobytes() == want.tobytes()


class TestUniformDominance:
    def test_power_direction(self):
        # delta < 0 puts A's distribution below the breakdown point: power;
        # delta > 0 is an interior null: conservative
        cfg = small(n=100, reps=15, deltas=(-5.0, 5.0), seed=9)
        curve = run_uniform_dominance(cfg)
        assert curve.reject_rate[0] > curve.reject_rate[1]
        assert curve.reject_rate[1] <= 0.2

    def test_runs_on_the_calling_thread(self, monkeypatch):
        # at n = 100 problems run in order and each candidate pass fits one
        # chunk, so threads > 1 starts no pool and gives the same bytes
        cfg = dict(n=100, R=19, reps=2, deltas=(-2.5, 2.5), seed=3)
        want = run_uniform_dominance(small(threads=1, **cfg))

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        # on the class, so every name bound to it raises
        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", no_pool)
        got = run_uniform_dominance(small(threads=4, **cfg))
        assert got.reject_rate.tobytes() == want.reject_rate.tobytes()
        assert got.se.tobytes() == want.se.tobytes()
