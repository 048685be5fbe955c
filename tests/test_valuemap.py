import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vfi.valuemap import Grid, GriddedObjective, ValueFunction, psi


def unit_grid(k=10):
    return Grid(points=np.arange(k) / k, step=1.0 / k)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(points=np.array([0.0]), step=1.0)
        with pytest.raises(ValueError):
            Grid(points=np.array([0.0, 0.0]), step=1.0)
        with pytest.raises(ValueError):
            Grid(points=np.array([0.0, 1.0]), step=-1.0)

    @pytest.mark.parametrize("step", [np.inf, np.nan, 0.0])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="grid step must be positive and finite"):
            Grid(points=np.array([0.0, 1.0]), step=step)

    def test_rect_weights_uniform(self):
        g = unit_grid(4)
        assert_allclose(g.rect_weights(), [0.25, 0.25, 0.25, 0.25])
        assert g.rect_weights().sum() == pytest.approx(1.0)

    def test_rect_weights_ragged(self):
        g = Grid(points=np.array([0.0, 0.5, 2.0]), step=0.5)
        assert_allclose(g.rect_weights(), [0.5, 1.5, 0.5])

    def test_same_as(self):
        assert unit_grid().same_as(unit_grid())
        assert not unit_grid(10).same_as(unit_grid(11))


class TestPsi:
    def test_row_maximum(self):
        g = unit_grid(3)
        f = GriddedObjective(grid=g, values=np.array([[1.0, 3.0], [0.0, -1.0], [2.0, 2.0]]))
        v = psi(f)
        assert_array_equal(v.values, [3.0, 0.0, 2.0])

    def test_zero_candidate_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one candidate column"):
            GriddedObjective(grid=unit_grid(2), values=np.zeros((2, 0)))

    def test_infinite_value_rejected(self):
        g = unit_grid(2)
        with pytest.raises(ValueError, match="finite"):
            GriddedObjective(grid=g, values=np.array([[np.inf], [0.0]]))


class TestValueFunction:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            ValueFunction(grid=unit_grid(3), values=np.zeros(4))
