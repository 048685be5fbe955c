"""The dense Makarov candidate structure, kept for the tests as a reference.

``MakarovStructure`` keeps only the near-argmax cells of one pass over
chunks of grid rows; this holds the index pairs of every candidate (two
K x (M + 1) arrays) and builds the whole objective, as the package did before.
"""

import numpy as np
from numpy.testing import assert_array_equal

from vfi.makarov import MakarovStructure, _index_pairs
from vfi.valuemap import GriddedObjective, NearArgmax


class DenseStructure:
    """Index pairs (ia, ib) of every candidate of Pi(F)(u, x) = F1(u) - F0(u - x)."""

    def __init__(self, F1, F0, grid):
        self.grid = grid
        self.ia, self.ib = _index_pairs(F1.jump_points, F0.jump_points, grid.points)
        self.c1 = np.concatenate(([0.0], F1.cum_probs))
        self.c0 = np.concatenate(([0.0], F0.cum_probs))

    def evaluate(self, d1, d0):
        """g1(u) - g0(u - x) over all candidates (K x (M + 1))."""
        out = d1[self.ia]
        out -= d0[self.ib]
        return out

    def base_values(self):
        return self.evaluate(self.c1, self.c0)

    def objective(self, orientation="lower"):
        """psi of it recovers the bound: the lower bound is psi(.) and the
        upper bound 1 - psi(.) for 'upper'."""
        if orientation not in ("lower", "upper"):
            raise ValueError(f"unknown orientation {orientation!r}")
        values = self.base_values()
        if orientation == "upper":
            np.negative(values, out=values)
        return GriddedObjective(grid=self.grid, values=values)


def dense_joint(sets):
    """The joint argmax set of ``sets`` as a dense (n_grid, width) mask."""
    mask = np.zeros(sets.per_x.size, dtype=bool)
    mask[sets.cells[sets.joint]] = True
    return mask.reshape(sets.per_x.shape)


def assert_streamed_matches_dense(F1, F0, grid, a_n, orientations=("lower", "upper"), threads=1):
    """The cells ``MakarovStructure`` keeps, their values, row maxima and
    index pairs equal those of the dense objective, bit for bit."""
    dense = DenseStructure(F1, F0, grid)
    streamed = MakarovStructure(F1, F0, grid, a_n, orientations, threads)
    for o in orientations:
        want = NearArgmax.of(dense.objective(o), a_n)
        got = streamed.near_argmax(o)
        assert got.width == want.width and got.slack == want.slack
        for field in ("cells", "starts", "values", "row_max"):
            assert_array_equal(getattr(got, field), getattr(want, field), err_msg=f"{o} {field}")
        ia, ib = streamed.cell_indices(o)
        assert_array_equal(ia, dense.ia.ravel()[want.cells], err_msg=f"{o} ia")
        assert_array_equal(ib, dense.ib.ravel()[want.cells], err_msg=f"{o} ib")
