import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vfi.valuemap import Grid, GriddedObjective, ValueFunction, negate, psi


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

    def test_ragged_candidates(self):
        g = Grid(points=np.array([0.0, 1.0]), step=1.0)
        f = GriddedObjective.from_candidates(
            g, [[(0.0, 1.0), (0.5, 4.0), (1.0, 2.0)], [(0.0, -1.0)]]
        )
        assert_array_equal(psi(f).values, [4.0, -1.0])

    def test_empty_candidate_row_names_grid_point(self):
        g = Grid(points=np.array([0.0, 2.5]), step=2.5)
        with pytest.raises(ValueError, match="x=2.5"):
            GriddedObjective.from_candidates(g, [[(0.0, 1.0)], []])

    def test_infinite_value_rejected(self):
        g = unit_grid(2)
        with pytest.raises(ValueError, match="finite"):
            GriddedObjective(grid=g, values=np.array([[np.inf], [0.0]]))

    def test_negate_flips_inf_to_sup(self):
        g = unit_grid(2)
        vals = np.array([[1.0, -2.0], [3.0, 0.5]])
        f = GriddedObjective(grid=g, values=vals)
        assert_array_equal(-psi(negate(f)).values, vals.min(axis=1))

    def test_masked_padding_ignored(self):
        g = unit_grid(2)
        f = GriddedObjective(
            grid=g,
            values=np.array([[1.0, 99.0], [2.0, 0.0]]),
            valid=np.array([[True, False], [True, True]]),
        )
        assert_array_equal(psi(f).values, [1.0, 2.0])


class TestValueFunction:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            ValueFunction(grid=unit_grid(3), values=np.zeros(4))
