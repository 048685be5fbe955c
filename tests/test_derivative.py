import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from vfi.derivative import (
    ArgmaxSets,
    Tuning,
    derivative_estimates,
    dominance_derivative_estimates,
    eps_argmax,
)
from vfi.empirical import Sample, ecdf_build
from vfi.stats import StatKind, lambda_stat
from vfi.valuemap import Grid, GriddedObjective, psi

from dense_reference import DenseStructure, dense_joint


def unit_grid(k=10):
    return Grid(points=np.arange(k) / k, step=1.0 / k)


def make_obj(values):
    values = np.asarray(values, dtype=float)
    k = values.shape[0]
    return GriddedObjective(grid=unit_grid(k), values=values)


def estimate(kind, sets, h):
    """derivative_estimates of h, given on every candidate, as a one-row block."""
    return float(derivative_estimates(kind, sets, h.ravel()[sets.cells][None])[0])


def dominance_estimate(setsA, setsB, contact, hA, hB, sign=1.0):
    """dominance_derivative_estimates of one pair of directions, each given
    on every candidate, as one-row blocks."""
    HA, HB = hA.ravel()[setsA.cells][None], hB.ravel()[setsB.cells][None]
    return float(dominance_derivative_estimates(setsA, setsB, contact, HA, HB, sign)[0])


class TestTuning:
    def test_values(self):
        t = Tuning(n=200)
        r = np.sqrt(200)
        ll = np.log(np.log(200))
        assert t.r_n == pytest.approx(r)
        assert t.a_n == pytest.approx(0.2 * ll / r)
        assert t.b_n == pytest.approx(3.0 * ll / r)
        assert t.a_n > 0 and t.b_n > 0

    def test_minimum_n(self):
        with pytest.raises(ValueError, match="minimum"):
            Tuning(n=15)
        Tuning(n=16)  # boundary is allowed

    def test_constants_override(self):
        t = Tuning(n=100, a_const=0.4, b_const=6.0)
        assert t.a_n == pytest.approx(2 * Tuning(n=100).a_n)
        assert t.b_n == pytest.approx(2 * Tuning(n=100).b_n)

    @pytest.mark.parametrize("const", ["a_const", "b_const"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
    def test_constants_must_be_positive_and_finite(self, const, value):
        # with a_const = inf every candidate counted as near-argmax
        with pytest.raises(ValueError, match="positive finite"):
            Tuning(n=200, **{const: value})


class FixedTuning(Tuning):
    """Tuning with directly pinned slack values, for targeted set tests."""

    def __init__(self, a_n, b_n):
        object.__setattr__(self, "n", 10**6)
        object.__setattr__(self, "a_const", 0.2)
        object.__setattr__(self, "b_const", 3.0)
        object.__setattr__(self, "_a", a_n)
        object.__setattr__(self, "_b", b_n)

    @property
    def a_n(self):
        return self._a

    @property
    def b_n(self):
        return self._b


class TestEpsArgmax:
    def test_huge_slack_keeps_everything(self):
        f = make_obj(np.random.default_rng(0).normal(0, 1, (5, 4)))
        sets = eps_argmax(f, FixedTuning(a_n=100.0, b_n=100.0))
        assert sets.per_x.all() and dense_joint(sets).all() and sets.contact.all()

    def test_strict_maximizer_singleton(self):
        f = make_obj([[0.0, 1.0, 0.2], [0.5, 0.0, 0.0]])
        sets = eps_argmax(f, FixedTuning(a_n=0.05, b_n=0.1))
        assert_array_equal(sets.per_x, [[False, True, False], [True, False, False]])
        assert_array_equal(dense_joint(sets), [[False, True, False], [False, False, False]])

    def test_threshold_example(self):
        f = make_obj([[0.9, 1.0, 0.99], [0.0, 0.0, 0.0]])
        sets = eps_argmax(f, FixedTuning(a_n=0.05, b_n=0.5))
        assert_array_equal(sets.per_x[0], [False, True, True])

    def test_contact_thresholding_and_fallback(self):
        f = make_obj([[0.01], [0.5], [-0.02]])
        sets = eps_argmax(f, FixedTuning(a_n=0.1, b_n=0.05))
        assert_array_equal(sets.contact, [True, False, True])
        assert not sets.contact_fallback
        sets = eps_argmax(f, FixedTuning(a_n=0.1, b_n=0.001))
        assert sets.contact.all() and sets.contact_fallback

    def test_monotone_in_slack(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            f = make_obj(rng.normal(0, 1, (rng.integers(2, 8), rng.integers(2, 6))))
            small = eps_argmax(f, FixedTuning(a_n=0.1, b_n=0.1))
            big = eps_argmax(f, FixedTuning(a_n=0.7, b_n=0.7))
            assert np.all(big.per_x >= small.per_x)
            assert np.all(dense_joint(big) >= dense_joint(small))

    def test_consistency_under_vanishing_noise(self):
        # noisy objective recovers the true argmax sets as n grows
        rng = np.random.default_rng(31)
        k, c = 5, 8
        base = np.zeros((k, c))
        base[:, 0] = 1.0
        base[:, 1] = 1.0  # tied argmax {0, 1}, gap 0.3 to the rest
        base[:, 2:] = 0.7
        truth = base >= 1.0
        for n in (10**2, 10**4, 10**6):
            t = Tuning(n=n)
            noisy = base + rng.uniform(-1, 1, (k, c)) * 0.1 / np.sqrt(n)
            est = eps_argmax(make_obj(noisy), t).per_x
            assert np.all(est >= truth)  # always a superset
            if n == 10**6:
                assert_array_equal(est, truth)


class TestDerivativeEstimate:
    def setup_method(self):
        rng = np.random.default_rng(32)
        self.f = make_obj(rng.normal(0, 1, (6, 5)))
        self.sets = eps_argmax(self.f, FixedTuning(a_n=0.5, b_n=0.5))

    def test_zero_direction(self):
        h = np.zeros_like(self.f.values)
        for j in (1, 2, 3, 4):
            assert estimate(StatKind(j), self.sets, h) == 0.0

    def test_negative_constant_direction(self):
        h = np.full_like(self.f.values, -0.3)
        assert estimate(StatKind(2), self.sets, h) == 0.0
        assert estimate(StatKind(4), self.sets, h) == 0.0
        # two-sided sup: the maximin branch attains +0.3
        assert estimate(StatKind(1), self.sets, h) == pytest.approx(0.3)

    def test_contact_measure_example(self):
        f = make_obj(np.concatenate([np.zeros((5, 2)), np.ones((5, 2))]))
        sets = eps_argmax(f, FixedTuning(a_n=0.01, b_n=0.01))
        assert_array_equal(sets.contact, [True] * 5 + [False] * 5)
        h = np.full((10, 2), 0.4)
        got = estimate(StatKind(4, p=2.0), sets, h)
        assert got == pytest.approx(0.4 * np.sqrt(0.5), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="block"):
            derivative_estimates(StatKind(1), self.sets,
                                 np.zeros((1, self.sets.cells.size + 1)))

    def test_block_rows_equal_single_directions(self):
        rng = np.random.default_rng(34)
        H = rng.normal(size=(5, self.sets.cells.size))
        for j in (1, 2, 3, 4):
            got = derivative_estimates(StatKind(j), self.sets, H)
            assert got.tolist() == [derivative_estimates(StatKind(j), self.sets, h[None])[0]
                                    for h in H]
        with pytest.raises(ValueError, match="block"):
            derivative_estimates(StatKind(1), self.sets, H[0])

    def test_lipschitz_in_direction(self):
        rng = np.random.default_rng(33)
        mX = self.f.grid.rect_weights().sum()
        for _ in range(200):
            h = rng.normal(0, 1, self.f.values.shape)
            k = h + rng.normal(0, 0.3, h.shape)
            gap = np.max(np.abs(h - k))
            for j, C in ((1, 1.0), (2, 1.0), (3, np.sqrt(mX)), (4, np.sqrt(mX))):
                d = abs(estimate(StatKind(j), self.sets, h) - estimate(StatKind(j), self.sets, k))
                assert d <= C * gap + 1e-12

    def test_cells_match_dense_masks(self):
        # h on sets.cells and the masked dense reductions give the same bits
        rng = np.random.default_rng(36)
        for _ in range(50):
            k, c = rng.integers(2, 8), rng.integers(2, 6)
            f = GriddedObjective(grid=unit_grid(k), values=np.round(rng.normal(0, 1, (k, c)), 1))
            sets = eps_argmax(f, FixedTuning(a_n=0.3, b_n=0.5))
            assert_array_equal(sets.cells, np.flatnonzero(sets.per_x))
            h = np.round(rng.normal(0, 1, (k, c)), 1)
            row = np.where(sets.per_x, h, -np.inf).max(axis=1)
            w = f.grid.rect_weights()
            dense = {
                1: max(row.max(), -row.min()),
                2: max(np.where(dense_joint(sets), h, -np.inf).max(), 0.0),
                3: np.sum(np.abs(row) ** 2.0 * w) ** 0.5,
                4: np.sum(np.maximum(row, 0.0)[sets.contact] ** 2.0 * w[sets.contact]) ** 0.5,
            }
            for j, want in dense.items():
                kind = StatKind(j, p=2.0)
                assert estimate(kind, sets, h) == float(want)

    def test_joint_mask_must_cover_the_cells(self):
        # the joint set is a mask over the per-x cells, so it cannot leave them
        with pytest.raises(ValueError, match="mask over the per-x cells"):
            ArgmaxSets(grid=unit_grid(2), width=2, cells=np.array([0, 2]),
                       starts=np.array([0, 1]), joint=np.array([False, True, False]),
                       contact=np.ones(2, dtype=bool))
        with pytest.raises(ValueError, match="nonempty"):
            ArgmaxSets(grid=unit_grid(2), width=2, cells=np.array([0, 1]),
                       starts=np.array([0, 2]), joint=np.array([True, False]),
                       contact=np.ones(2, dtype=bool))

    def test_monotone_in_slack_for_positive_directions(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            f = make_obj(rng.normal(0, 1, (5, 4)))
            h = rng.uniform(0, 1, (5, 4))
            small = eps_argmax(f, FixedTuning(a_n=0.1, b_n=10.0))
            big = eps_argmax(f, FixedTuning(a_n=1.0, b_n=10.0))
            for j in (2, 3, 4):
                assert estimate(StatKind(j), big, h) >= estimate(StatKind(j), small, h) - 1e-12


class TestDominanceDerivative:
    def setup_method(self):
        rng = np.random.default_rng(35)
        self.fA = make_obj(rng.normal(0, 1, (6, 4)))
        self.fB = make_obj(rng.normal(0, 1, (6, 3)))
        self.setsA = eps_argmax(self.fA, FixedTuning(a_n=0.4, b_n=0.4))
        self.setsB = eps_argmax(self.fB, FixedTuning(a_n=0.4, b_n=0.4))

    def test_zero_directions(self):
        z = np.zeros((6, 4)), np.zeros((6, 3))
        got = dominance_estimate(self.setsA, self.setsB, np.ones(6, dtype=bool), z[0], z[1])
        assert got == 0.0

    def test_empty_contact_falls_back_to_full_grid(self):
        hA = np.full((6, 4), 0.2)
        hB = np.full((6, 3), 0.3)
        full = dominance_estimate(self.setsA, self.setsB, np.ones(6, dtype=bool), hA, hB)
        empty = dominance_estimate(self.setsA, self.setsB, np.zeros(6, dtype=bool), hA, hB)
        assert empty == full

    def test_constant_directions_closed_form(self):
        hA = np.full((6, 4), 0.2)
        hB = np.full((6, 3), 0.3)
        contact = np.array([True, True, False, False, True, False])
        got = dominance_estimate(self.setsA, self.setsB, contact, hA, hB)
        w = self.fA.grid.rect_weights()
        expect = np.sqrt(np.sum(0.5**2 * w[contact]))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_sign_flip(self):
        hA = np.full((6, 4), 0.2)
        hB = np.full((6, 3), 0.3)
        contact = np.ones(6, dtype=bool)
        pos = dominance_estimate(self.setsA, self.setsB, contact, hA, hB, sign=1.0)
        neg = dominance_estimate(self.setsA, self.setsB, contact, hA, hB, sign=-1.0)
        assert pos > 0 and neg == 0.0


# Step CDFs on a 0.25 lattice, so that shifted control jumps meet treated
# jumps and rows of the Makarov objective have tied maxima.
lattice_samples = st.lists(st.integers(0, 8), min_size=1, max_size=6).map(
    lambda v: Sample(0.25 * np.array(v, dtype=float)))
ORACLE_GRID = Grid(points=np.arange(-9, 10) * 0.25, step=0.25)


def makarov_objective(X1, X0, orientation):
    return DenseStructure(ecdf_build(X1), ecdf_build(X0), ORACLE_GRID).objective(orientation).values


def row_gaps(values):
    """Per row, its maximum minus its next distinct value (inf if none)."""
    top = values.max(axis=1)
    return top - np.where(values < top[:, None], values, -np.inf).max(axis=1)


def below_zero_gap(values):
    """Distance from 0 to the largest negative entry (inf if none)."""
    neg = values[values < 0]
    return -neg.max() if neg.size else np.inf


def psi_of(values):
    return psi(GriddedObjective(grid=ORACLE_GRID, values=values)).values


class TestNumericalDelta:
    """The analytic estimates against the numerical derivative of Hong & Li
    (2018), [lambda(psi(f + s h)) - lambda(psi(f))] / s.  They agree when a_n
    and s max|h| sit below each row's gap between its maximum and its next
    distinct value, for then psi(f + s h) = psi(f) + s max_{argmax} h row by
    row and the eps-argmax sets are the exact argmax sets.  The statistics
    are evaluated at their null configurations: psi(f) = 0 on every row for
    the two-sided j = 1, 3 (the band's centred process) and psi(f) <= 0 with
    equality on the contact rows for the one-sided j = 2, 4 and the
    dominance statistic; b_n and s max|h| then also sit below the gap
    between 0 and the other values.  Values an ulp apart, tied in exact
    arithmetic, leave no room for s above rounding and are skipped."""

    @settings(max_examples=80, deadline=None)
    @given(X1=lattice_samples, X0=lattice_samples, seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([1.0, 2.0, 3.0]))
    def test_lambda_estimators(self, X1, X0, seed, p):
        f = makarov_objective(X1, X0, "lower")
        h = np.random.default_rng(seed).normal(0, 1, f.shape)
        centred = f - f.max(axis=1)[:, None]  # psi = 0 on every row
        shifted = f - f.max()  # psi <= 0, = 0 on the top rows
        for values, kinds in ((centred, (1, 3)), (shifted, (2, 4))):
            margin = min(row_gaps(values).min(), below_zero_gap(values), 1.0)
            assume(margin > 1e-6)  # not two values an ulp apart
            slack = margin / 4
            s = margin / (4 * np.abs(h).max())
            sets = eps_argmax(GriddedObjective(grid=ORACLE_GRID, values=values),
                              FixedTuning(a_n=slack, b_n=slack))
            for j in kinds:
                kind = StatKind(j, p=p)
                base = lambda_stat(GriddedObjective(grid=ORACLE_GRID, values=values), kind)
                moved = lambda_stat(GriddedObjective(grid=ORACLE_GRID, values=values + s * h), kind)
                assert base.value == 0.0
                numerical = (moved.value - base.value) / s
                assert estimate(kind, sets, h) == pytest.approx(
                    numerical, rel=1e-9, abs=1e-9), j

    @settings(max_examples=80, deadline=None)
    @given(X0=lattice_samples, XA=lattice_samples, XB=lattice_samples,
           seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1.0, -1.0]))
    def test_dominance_estimator(self, X0, XA, XB, seed, sign):
        fA = makarov_objective(XA, X0, "lower")
        fB = makarov_objective(XB, X0, "upper")
        rng = np.random.default_rng(seed)
        hA, hB = rng.normal(0, 1, fA.shape), rng.normal(0, 1, fB.shape)
        w = ORACLE_GRID.rect_weights()
        top = (sign * (psi_of(fA) + psi_of(fB))).max()

        def stat(a, b):  # one-sided L2 statistic, 0 at the base point
            gap = np.maximum(sign * (psi_of(a) + psi_of(b)) - top, 0.0)
            return float(np.sqrt(np.sum(gap ** 2 * w)))

        level = sign * (psi_of(fA) + psi_of(fB)) - top
        margin = min(row_gaps(fA).min(), row_gaps(fB).min(), below_zero_gap(level), 1.0)
        assume(margin > 1e-6)  # not two values an ulp apart
        slack = margin / 4
        s = margin / (4 * (np.abs(hA).max() + np.abs(hB).max()))
        tuning = FixedTuning(a_n=slack, b_n=slack)
        setsA = eps_argmax(GriddedObjective(grid=ORACLE_GRID, values=fA), tuning)
        setsB = eps_argmax(GriddedObjective(grid=ORACLE_GRID, values=fB), tuning)
        contact = np.abs(level) <= slack
        assert stat(fA, fB) == 0.0 and contact.any()
        numerical = (stat(fA + s * hA, fB + s * hB) - stat(fA, fB)) / s
        got = dominance_estimate(setsA, setsB, contact, hA, hB, sign=sign)
        assert got == pytest.approx(numerical, rel=1e-9, abs=1e-9)
