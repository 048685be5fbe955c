import numpy as np
import pytest
from numpy.testing import assert_allclose

from vfi.stats import StatKind, StatValue, dominance_stat, ks_band_stat, lambda_stat
from vfi.valuemap import Grid, GriddedObjective, ValueFunction, psi


def unit_grid(k=10):
    return Grid(points=np.arange(k) / k, step=1.0 / k)


def constant_objective(c, k=10):
    g = unit_grid(k)
    return GriddedObjective(grid=g, values=np.full((k, 3), c))


def random_objective(rng, k=None, c=None):
    k = k or rng.integers(3, 12)
    c = c or rng.integers(1, 6)
    g = Grid(points=np.sort(rng.uniform(-2, 2, k)), step=float(rng.uniform(0.05, 0.5)))
    return GriddedObjective(grid=g, values=rng.normal(0, 1, (k, c)))


class TestKindValidation:
    def test_bad_j(self):
        with pytest.raises(ValueError):
            StatKind(j=5)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            StatKind(j=3, p=0.5)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            StatValue(value=-0.1)


class TestLambdaExamples:
    def test_positive_constant(self):
        f = constant_objective(0.7)
        for j in (1, 2, 3, 4):
            assert lambda_stat(f, StatKind(j=j)).value == pytest.approx(0.7)

    def test_negative_constant(self):
        f = constant_objective(-0.4)
        assert lambda_stat(f, StatKind(j=1)).value == pytest.approx(0.4)
        assert lambda_stat(f, StatKind(j=2)).value == 0.0
        assert lambda_stat(f, StatKind(j=4)).value == 0.0

    def test_half_positive_lp(self):
        # psi = 0.3 on the first half of a unit grid, -0.1 on the rest
        g = unit_grid(10)
        vals = np.where(np.arange(10)[:, None] < 5, 0.3, -0.1) * np.ones((10, 2))
        f = GriddedObjective(grid=g, values=vals)
        got = lambda_stat(f, StatKind(j=4, p=2.0)).value
        assert got == pytest.approx(0.3 * np.sqrt(0.5), abs=1e-12)
        # oracle by direct rectangle sum
        v = psi(f).values
        oracle = (np.sum(np.maximum(v, 0) ** 2 * g.rect_weights())) ** 0.5
        assert got == pytest.approx(oracle, abs=1e-15)


class TestLambdaProperties:
    def test_one_sided_below_two_sided(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            f = random_objective(rng)
            assert lambda_stat(f, StatKind(2)).value <= lambda_stat(f, StatKind(1)).value + 1e-15
            assert (
                lambda_stat(f, StatKind(4)).value
                <= lambda_stat(f, StatKind(3)).value + 1e-15
            )

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            f = random_objective(rng)
            t = float(rng.uniform(0.1, 10))
            ft = GriddedObjective(grid=f.grid, values=t * f.values)
            for j in (1, 2, 3, 4):
                assert lambda_stat(ft, StatKind(j)).value == pytest.approx(
                    t * lambda_stat(f, StatKind(j)).value, rel=1e-12
                )

    def test_lipschitz(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            f = random_objective(rng)
            g = GriddedObjective(grid=f.grid, values=f.values + rng.normal(0, 0.5, f.values.shape))
            gap = np.max(np.abs(f.values - g.values))
            mX = f.grid.rect_weights().sum()
            for j, C in ((1, 1.0), (2, 1.0), (3, mX**0.5), (4, mX**0.5)):
                d = abs(
                    lambda_stat(f, StatKind(j)).value - lambda_stat(g, StatKind(j)).value
                )
                assert d <= C * gap + 1e-12


class TestAppliedStats:
    def test_ks_zero_and_shift(self):
        g = unit_grid(5)
        a = ValueFunction(grid=g, values=np.linspace(0, 1, 5))
        assert ks_band_stat(a, a, 10.0).value == 0.0
        b = ValueFunction(grid=g, values=a.values + 0.1)
        assert ks_band_stat(b, a, 10.0).value == pytest.approx(1.0)

    def test_ks_matches_scan(self):
        rng = np.random.default_rng(23)
        g = unit_grid(12)
        for _ in range(50):
            a = ValueFunction(grid=g, values=rng.uniform(0, 1, 12))
            b = ValueFunction(grid=g, values=rng.uniform(0, 1, 12))
            expect = 7.0 * max(abs(x - y) for x, y in zip(a.values, b.values))
            assert ks_band_stat(a, b, 7.0).value == pytest.approx(expect, abs=1e-15)

    def test_ks_grid_mismatch(self):
        a = ValueFunction(grid=unit_grid(5), values=np.zeros(5))
        b = ValueFunction(grid=unit_grid(6), values=np.zeros(6))
        with pytest.raises(ValueError):
            ks_band_stat(a, b, 1.0)

    def test_dominance_zero_when_ordered(self):
        g = unit_grid(8)
        la = ValueFunction(grid=g, values=np.linspace(0, 0.5, 8))
        ub = ValueFunction(grid=g, values=np.linspace(0.2, 0.9, 8))
        assert dominance_stat(la, ub, 10.0).value == 0.0

    def test_dominance_constant_gap(self):
        g = unit_grid(10)
        la = ValueFunction(grid=g, values=np.full(10, 0.6))
        ub = ValueFunction(grid=g, values=np.full(10, 0.5))
        assert dominance_stat(la, ub, 3.0).value == pytest.approx(0.3, abs=1e-12)

    def test_dominance_mixed_sign_oracle(self):
        rng = np.random.default_rng(24)
        g = unit_grid(9)
        for _ in range(50):
            la = ValueFunction(grid=g, values=rng.uniform(0, 1, 9))
            ub = ValueFunction(grid=g, values=rng.uniform(0, 1, 9))
            expect = 2.0 * np.sqrt(
                np.sum(np.maximum(la.values - ub.values, 0) ** 2 * g.rect_weights())
            )
            assert dominance_stat(la, ub, 2.0).value == pytest.approx(expect, abs=1e-15)
