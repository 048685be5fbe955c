import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from vfi import cli, makarov
from vfi.derivative import Tuning
from vfi.empirical import Sample, ecdf_build
from vfi.makarov import (
    MIN_SLACK,
    ORIENTATIONS,
    ArgmaxBudgetError,
    GridBudgetError,
    MakarovStructure,
    compute_bounds,
    default_grid,
    quantile_bounds,
    support_bounds,
)
from vfi.valuemap import Grid

from dense_reference import DenseStructure, assert_streamed_matches_dense


def brute_lower(F1, X0, x):
    """Independent enumeration on the shifted control sample: both
    one-sided limits at every event of F1 and of ecdf(X0 + x)."""
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


def brute_extremes(F1, X0, x):
    """Unclipped max of F1 - G and min of (1 - G) + F1, with G the ECDF of
    X0 + x, evaluated at every event of F1 and G, their left limits, the
    midpoints between consecutive events and a point in each tail."""
    G = ecdf_build(Sample(X0.values + x))
    ev = np.union1d(F1.jump_points, G.jump_points)
    u = np.concatenate((ev, (ev[1:] + ev[:-1]) / 2, [ev[0] - 1.0, ev[-1] + 1.0]))
    a = np.concatenate((F1(u), F1.left_limit(ev)))
    b = np.concatenate((G(u), G.left_limit(ev)))
    return (a - b).max(), ((1.0 - b) + a).min()


def reference_scan(F1, F0, grid, combine, reduce):
    """The scan before the shared index kernel: four searchsorted calls per
    grid row, each against the shifted control jumps in u-space, and one
    reduce over the concatenated candidate blocks."""
    j1, j0 = F1.jump_points, F0.jump_points
    c1 = np.concatenate(([0.0], F1.cum_probs))
    c0 = np.concatenate(([0.0], F0.cum_probs))
    out = np.empty(len(grid))
    for k, x in enumerate(grid.points):
        row = j0 + x
        blocks = (
            combine(c1[1:], c0[np.searchsorted(row, j1, side="right")]),
            combine(c1[:-1], c0[np.searchsorted(row, j1, side="left")]),
            combine(c1[np.searchsorted(j1, row, side="right")],
                    c0[np.searchsorted(row, row, side="right")]),
            combine(c1[np.searchsorted(j1, row, side="left")],
                    c0[np.searchsorted(row, row, side="left")]),
        )
        out[k] = reduce(np.concatenate(blocks))
    return out


def reference_structure(F1, F0, grid):
    """i1r, i1l, i0r, i0l by searchsorted of every candidate event."""
    j1, j0 = F1.jump_points, F0.jump_points
    x = grid.points[:, None]
    events = np.concatenate((np.broadcast_to(j1, (len(grid), j1.size)), j0[None, :] + x), axis=1)
    i0r = np.stack([np.searchsorted(ev[j1.size:], ev, side="right") for ev in events])
    i0l = np.stack([np.searchsorted(ev[j1.size:], ev, side="left") for ev in events])
    return (np.searchsorted(j1, events, side="right"), np.searchsorted(j1, events, side="left"),
            i0r, i0l)


# stride ladders of the bound scan: every jump ranked at level 0 (1,); one
# pruned level with a short last block on most samples (2, 1), (3, 1); the
# two-pass scan's (64, 1); two pruned levels (4, 2, 1), (9, 3, 1); and the
# default
LADDERS = ((1,), (2, 1), (3, 1), (64, 1), (4, 2, 1), (9, 3, 1), makarov._STRIDES)


@pytest.fixture
def strides(monkeypatch):
    """An iterator that sets the bound scan's stride ladder to each of
    LADDERS in turn, yielding each."""
    def each():
        for ladder in LADDERS:
            monkeypatch.setattr(makarov, "_STRIDES", ladder)
            yield ladder
    return each


def scan_width(F0):
    """Keys a grid row of the scan's level 0 ranks at the current ladder:
    one per block of its first stride, and the end key."""
    m = F0.jump_points.size
    return -(-m // makarov._ladder(m)[0]) + 1


def ranked_keys(monkeypatch):
    """A list that collects the size of every ``_ranks`` call from here on."""
    ranked = []
    ranks = makarov._ranks

    def counted(j1, rows):
        ranked.append(rows.size)
        return ranks(j1, rows)

    monkeypatch.setattr(makarov, "_ranks", counted)
    return ranked


def pass_width(F1, F0):
    """Cells a grid row of the candidate pass holds: M + 1."""
    return F1.jump_points.size + F0.jump_points.size + 1


def assert_kernel_matches_reference(F1, F0, grid, strides):
    lower = reference_scan(F1, F0, grid, lambda a, b: a - b, np.max)
    upper = reference_scan(F1, F0, grid, lambda a, b: (1.0 - b) + a, np.min)
    for ladder in strides():
        got = makarov._scan(F1, F0, grid)
        assert_array_equal(got[0], lower, err_msg=f"lower, ladder {ladder}")
        assert_array_equal(got[1], upper, err_msg=f"upper, ladder {ladder}")
    s = DenseStructure(F1, F0, grid)
    i1r, i1l, i0r, i0l = reference_structure(F1, F0, grid)
    tail = np.zeros((len(grid), 1), dtype=np.intp)
    assert_array_equal(s.ia, np.concatenate((i1r, tail), axis=1), err_msg="ia")
    assert_array_equal(s.ib, np.concatenate((i0r, tail), axis=1), err_msg="ib")
    # the right values and (0, 0) reach the max of all four blocks, bit for bit
    family = s.c1[np.concatenate((i1r, i1l), axis=1)] - s.c0[np.concatenate((i0r, i0l), axis=1)]
    streamed = MakarovStructure(F1, F0, grid, a_n=0.15)
    for o, values in (("lower", family), ("upper", -family)):
        got = streamed.near_argmax(o).row_max
        assert got.tobytes() == values.max(axis=1).tobytes(), f"{o} row max"
    # the streamed pass, chunk by chunk, keeps the dense structure's cells
    assert_streamed_matches_dense(F1, F0, grid, a_n=0.15)


def random_pair(rng, nmax=15):
    X1 = Sample(rng.normal(0, 1, rng.integers(2, nmax)))
    X0 = Sample(rng.normal(0.3, 1.2, rng.integers(2, nmax)))
    return X1, X0


class TestBoundsOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            X1, X0 = random_pair(rng)
            F1, F0 = ecdf_build(X1), ecdf_build(X0)
            pair = compute_bounds(X1, X0, step=0.21)
            L, U = pair.lower.values, pair.upper.values
            for k, x in enumerate(pair.grid.points):
                assert L[k] == pytest.approx(brute_lower(F1, X0, x), abs=1e-12)
                assert U[k] == pytest.approx(brute_upper(F1, X0, x), abs=1e-12)

    def test_hand_case(self):
        X1 = Sample(np.array([1.0, 2.0]))
        X0 = Sample(np.array([0.0, 1.0]))
        g = Grid(points=np.array([1.0, 1.5, 2.5]), step=0.5)
        assert_array_equal(compute_bounds(X1, X0, grid=g).lower.values, [0.0, 0.5, 1.0])

    def test_bounds_are_cdf_like(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            X1, X0 = random_pair(rng)
            pair = compute_bounds(X1, X0, step=0.17)
            L, U = pair.lower.values, pair.upper.values
            assert np.all(L <= U + 1e-15)
            assert np.all(np.diff(L) >= -1e-15) and np.all(np.diff(U) >= -1e-15)
            assert np.all((0 <= L) & (U <= 1))
            # padded grid reaches both tails
            assert L[0] == 0.0 and U[-1] == 1.0

    def test_degenerate_control_identity(self):
        # constant control: bounds collapse to one-sided limits of F1
        X1 = Sample(np.array([1.0, 3.0]))
        X0 = Sample(np.array([0.0, 0.0]))
        F1 = ecdf_build(X1)
        g = Grid(points=np.array([0.5, 1.0, 2.0, 3.0, 3.5]), step=0.5)
        pair = compute_bounds(X1, X0, grid=g)
        assert_array_equal(pair.lower.values, F1.left_limit(g.points))
        assert_array_equal(pair.upper.values, F1(g.points))


lattice_sample = st.lists(st.integers(-12, 12), min_size=1, max_size=12).map(
    lambda ks: Sample(np.array(ks) * 0.1))


class TestScanOracle:
    """``_scan`` against direct evaluation of D_x, bit for bit and before
    clipping, on tie-heavy samples where shifted control jumps collide with
    treated jumps and with each other, at several stride ladders."""

    # `strides` sets a module constant each example sets again in full
    @given(lattice_sample, lattice_sample, st.sampled_from([0.1, 0.05, 0.3]))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_direct_evaluation(self, strides, X1, X0, step):
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        grid = default_grid(X0, (X1,), step)
        expect = [brute_extremes(F1, X0, x) for x in grid.points]
        for ladder in strides():
            lower, upper = makarov._scan(F1, F0, grid)
            assert list(zip(lower, upper)) == expect, ladder

    def test_ulp_spaced_control(self, strides):
        X0 = Sample(1.0 + np.arange(12) * np.spacing(1.0))
        X1 = Sample(8.0 + np.arange(-4, 8) * np.spacing(8.0))
        grid = Grid(points=7.0 + np.arange(-6, 7) * np.spacing(7.0), step=float(np.spacing(7.0)))
        expect = [brute_extremes(ecdf_build(X1), X0, x) for x in grid.points]
        for ladder in strides():
            lower, upper = makarov._scan(ecdf_build(X1), ecdf_build(X0), grid)
            assert list(zip(lower, upper)) == expect, ladder


def tie_heavy_lattice_cases(count):
    """(F1, F0, grid) on the 0.1 lattice, where shifted control jumps
    collide with treated jumps and with each other."""
    rng = np.random.default_rng(20)
    for _ in range(count):
        X1 = Sample(np.round(rng.normal(0, 1, rng.integers(1, 25)), 1))
        X0 = Sample(np.round(rng.normal(0.2, 1, rng.integers(1, 25)), 1))
        yield ecdf_build(X1), ecdf_build(X0), default_grid(X0, (X1,), 0.1)


def ulp_spaced_case():
    """Control jumps 1 ulp apart at 1.0 become ties at 8.0 (ulp eight times
    as large) once shifted by x = 7.0; treated jumps sit among them."""
    X0 = Sample(1.0 + np.arange(40) * np.spacing(1.0))
    X1 = Sample(np.concatenate((8.0 + np.arange(-10, 30) * np.spacing(8.0),
                                np.random.default_rng(21).normal(8.0, 1.0, 10))))
    xs = 7.0 + np.arange(-20, 21) * np.spacing(7.0)
    return ecdf_build(X1), ecdf_build(X0), Grid(points=xs, step=float(np.spacing(7.0)))


@st.composite
def pair_family_cases(draw):
    """(F1, F0, grid) on which shifted control jumps tie with each other or
    with treated jumps: a 0.05 lattice, control jumps 1 ulp apart that
    collide once shifted, and treated jumps placed on shifted control
    jumps; often one of the samples has a single point."""
    size = st.one_of(st.just(1), st.integers(1, 40))
    n1, n0 = draw(size), draw(size)
    kind = draw(st.sampled_from(["lattice", "ulp", "coincide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ulp":
        X0 = Sample(1.0 + np.arange(n0) * np.spacing(1.0))
        X1 = Sample(8.0 + rng.integers(-n0, 2 * n0, n1) * np.spacing(8.0))
        xs = 7.0 + np.arange(-20, 21) * np.spacing(7.0)
        return ecdf_build(X1), ecdf_build(X0), Grid(points=xs, step=float(np.spacing(7.0)))
    X0 = Sample(rng.integers(-40, 41, n0) * 0.05)
    X1 = Sample(rng.integers(-40, 41, n1) * 0.05)
    grid = default_grid(X0, (X1,), 0.05)
    if kind == "coincide":
        # treated jumps at j0 + x for a few grid x, as the kernel computes them
        x = rng.choice(grid.points, 3)
        shifted = (np.unique(X0.values)[None, :] + x[:, None]).ravel()
        X1 = Sample(np.concatenate((X1.values[:-1], rng.choice(shifted, n1))))
    return ecdf_build(X1), ecdf_build(X0), grid


class TestRowKernel:
    """The shared candidate-index kernel against the per-row searchsorted
    reference, bit for bit: ``_scan`` directly, at several stride ladders,
    and ``_index_pairs`` through its two index arrays, both built on
    ``_ranks``; and the cells ``MakarovStructure`` keeps, chunk by chunk,
    against the dense ones."""

    def test_tie_heavy_lattice(self, strides):
        for F1, F0, grid in tie_heavy_lattice_cases(60):
            assert_kernel_matches_reference(F1, F0, grid, strides)

    def test_ulp_spaced_control_collides_after_shift(self, strides):
        F1, F0, grid = ulp_spaced_case()
        rows = F0.jump_points[None, :] + grid.points[:, None]
        assert np.all(np.any(np.diff(rows, axis=1) == 0, axis=1))
        assert np.any(np.isin(rows, F1.jump_points))
        assert_kernel_matches_reference(F1, F0, grid, strides)

    def test_one_point_samples(self, strides):
        cases = [([0.0], [0.0]), ([1.5], [-2.0, 0.3, 4.0]), ([-1.0, 0.2, 2.0], [0.7])]
        for x1, x0 in cases:
            X1, X0 = Sample(np.array(x1)), Sample(np.array(x0))
            grid = default_grid(X0, (X1,), 0.25)
            assert_kernel_matches_reference(ecdf_build(X1), ecdf_build(X0), grid, strides)

    @given(pair_family_cases())
    @settings(max_examples=200, deadline=None)
    def test_pairs_equal_four_block_family(self, case):
        # the left limits repeat right-value pairs or (0, 0), so no pair is lost
        F1, F0, grid = case
        ia, ib = makarov._index_pairs(F1.jump_points, F0.jump_points, grid.points)
        assert ia.shape == ib.shape == (len(grid), F1.jump_points.size + F0.jump_points.size + 1)
        i1r, i1l, i0r, i0l = reference_structure(F1, F0, grid)
        ra, rb = np.concatenate((i1r, i1l), axis=1), np.concatenate((i0r, i0l), axis=1)
        for k in range(len(grid)):
            assert set(zip(ia[k], ib[k])) == set(zip(ra[k], rb[k])), grid.points[k]

    def test_grid_not_a_multiple_of_the_chunk(self, monkeypatch, strides):
        rng = np.random.default_rng(22)
        X1, X0 = Sample(np.round(rng.normal(0, 1, 17), 1)), Sample(rng.normal(0, 1, 12))
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        grid = default_grid(X0, (X1,), 0.13)
        for rows in (1, 3, 7):
            assert rows == 1 or len(grid) % rows, "the last chunk should be short"
            # chunks of `rows` grid rows in the candidate pass
            monkeypatch.setattr(makarov, "_CHUNK", rows * pass_width(F1, F0))
            assert_kernel_matches_reference(F1, F0, grid, strides)


class TestThreadedChunks:
    """The row-chunk passes against one chunk, bit for bit, for several
    chunk sizes (1, 3 and 7 rows; the last chunk is short), and the
    candidate pass also on a thread pool of several sizes, on the
    tie-heavy samples of TestRowKernel."""

    @pytest.fixture(params=["lattice", "ulp"])
    def case(self, request):
        if request.param == "ulp":
            return ulp_spaced_case()
        return list(tie_heavy_lattice_cases(3))[-1]

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_scan(self, case, rows, monkeypatch, strides):
        F1, F0, grid = case
        lower, upper = makarov._scan(F1, F0, grid)
        for ladder in strides():
            # slices of `rows` grid rows at level 0, whose keys per row
            # depend on the ladder
            monkeypatch.setattr(makarov, "_CHUNK", rows * scan_width(F0))
            assert len(list(makarov._chunks(grid, scan_width(F0)))) > 3
            got = makarov._scan(F1, F0, grid)
            assert_array_equal(got[0], lower, err_msg=f"lower, ladder {ladder}")
            assert_array_equal(got[1], upper, err_msg=f"upper, ladder {ladder}")

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_structure(self, case, rows, threads, monkeypatch):
        F1, F0, grid = case
        serial = MakarovStructure(F1, F0, grid, a_n=0.15)
        monkeypatch.setattr(makarov, "_CHUNK", rows * pass_width(F1, F0))
        assert len(list(makarov._chunks(grid, pass_width(F1, F0)))) > 3
        got = MakarovStructure(F1, F0, grid, a_n=0.15, threads=threads)
        for o in ORIENTATIONS:
            for field in ("cells", "starts", "values", "row_max"):
                assert_array_equal(getattr(got.near_argmax(o), field),
                                   getattr(serial.near_argmax(o), field), err_msg=f"{o} {field}")
            for name, a, b in zip("ia ib".split(), got.cell_indices(o), serial.cell_indices(o)):
                assert_array_equal(a, b, err_msg=f"{o} {name}")
        assert_streamed_matches_dense(F1, F0, grid, a_n=0.15, threads=threads)

    def test_thread_count_checked(self):
        F1, F0, grid = ulp_spaced_case()
        with pytest.raises(ValueError, match="thread count"):
            MakarovStructure(F1, F0, grid, a_n=0.15, threads=0)


# a random stride ladder: up to three factors of 2 to 8, each stride the
# product of the factors from it on, ending at 1
random_ladders = st.lists(st.integers(2, 8), max_size=3).map(
    lambda fs: tuple(int(np.prod(fs[i:])) for i in range(len(fs))) + (1,))


@st.composite
def pruning_cases(draw):
    """(ladder, F1, F0, grid) with up to 400 distinct control jumps, or a
    count at a block edge of the ladder's first stride: a 0.05 lattice
    (shifted jumps collide), control jumps 1 ulp apart (they tie once
    shifted), normal samples, and interleaved lattices whose objective is
    flat, so that most blocks reach the row's max or min.  The ladder is
    one of LADDERS or a random one."""
    ladder = draw(st.one_of(st.sampled_from(LADDERS), random_ladders))
    S = ladder[0]
    n0 = draw(st.one_of(st.sampled_from([1, S - 1 or 1, S, S + 1, 2 * S]), st.integers(1, 400)))
    n1 = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["lattice", "ulp", "normal", "flat"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ulp":
        X0 = Sample(1.0 + np.arange(n0) * np.spacing(1.0))
        X1 = Sample(np.concatenate((8.0 + rng.integers(-n0, 2 * n0, n1) * np.spacing(8.0),
                                    rng.normal(8.0, 1.0, 3))))
        xs = 7.0 + np.arange(-20, 21) * np.spacing(7.0)
        return ladder, ecdf_build(X1), ecdf_build(X0), Grid(points=xs, step=float(np.spacing(7.0)))
    if kind == "lattice":
        X0 = Sample((rng.choice(max(401, n0), n0, replace=False) - 200) * 0.05)
        X1 = Sample(rng.integers(-200, 201, n1) * 0.05)
    elif kind == "normal":
        X0, X1 = Sample(rng.normal(0.3, 1.2, n0)), Sample(rng.normal(0.0, 1.0, n1))
    else:
        X0, X1 = Sample((np.arange(n0) + 0.5) / n1), Sample(np.arange(n1) / n1)
    lo, hi = X1.min - X0.max, X1.max - X0.min
    step = 0.1 if kind == "lattice" else (hi - lo) / 40 or None
    return ladder, ecdf_build(X1), ecdf_build(X0), default_grid(X0, (X1,), step)


def normal_pair(n, seed):
    rng = np.random.default_rng(seed)
    X1, X0 = Sample(rng.normal(0.5, 1.0, n)), Sample(rng.normal(0.0, 1.0, n))
    return ecdf_build(X1), ecdf_build(X0), default_grid(X0, (X1,))


def interleaved_lattices(n):
    """Treated k/n and control (k + 1/2)/n: the objective is flat where the
    shifted control overlaps the treated, so the scan keeps nearly every
    block there."""
    X1, X0 = Sample(np.arange(n) / n), Sample((np.arange(n) + 0.5) / n)
    return ecdf_build(X1), ecdf_build(X0), default_grid(X0, (X1,))


class TestPrunedScan:
    """The level-by-level scan on samples of many blocks, against the
    per-row reference; and the keys it ranks and the memory it holds at
    large n."""

    @given(pruning_cases())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference(self, monkeypatch, case):
        ladder, F1, F0, grid = case
        monkeypatch.setattr(makarov, "_STRIDES", ladder)
        lower, upper = makarov._scan(F1, F0, grid)
        assert_array_equal(lower, reference_scan(F1, F0, grid, lambda a, b: a - b, np.max))
        assert_array_equal(upper, reference_scan(F1, F0, grid, lambda a, b: (1.0 - b) + a, np.min))

    def test_ranks_under_three_percent_of_the_candidates(self, monkeypatch):
        # the two-pass scan (one key per 64 jumps, then every kept block)
        # ranked 549,166 keys here, 5.3 %
        F1, F0, grid = normal_pair(20_000, seed=3)
        ranked = ranked_keys(monkeypatch)
        makarov._scan(F1, F0, grid)
        assert sum(ranked) < 0.03 * len(grid) * F0.jump_points.size

    @pytest.mark.parametrize("n, two_pass", [(120, 50_761), (10_000, 2_669_786)])
    def test_flat_rows_rank_no_more_than_the_two_pass_scan(self, monkeypatch, n, two_pass):
        # most blocks are kept on a flat row, where each level of the ladder
        # would rank keys the next one ranks again; the two-pass scan ranked
        # `two_pass` keys here
        F1, F0, grid = interleaved_lattices(n)
        ranked = ranked_keys(monkeypatch)
        makarov._scan(F1, F0, grid)
        assert sum(ranked) <= 1.1 * two_pass

    def test_fine_pass_in_slices(self, monkeypatch):
        # level 0 ranks every grid row in one slice; the kept blocks of
        # stride 8, nearly all on this flat objective, are ranked at
        # stride 1 in slices of at most as many keys
        F1, F0, grid = interleaved_lattices(120)
        monkeypatch.setattr(makarov, "_STRIDES", (8, 1))
        lower = reference_scan(F1, F0, grid, lambda a, b: a - b, np.max)
        upper = reference_scan(F1, F0, grid, lambda a, b: (1.0 - b) + a, np.min)
        ranked = ranked_keys(monkeypatch)
        monkeypatch.setattr(makarov, "_CHUNK", len(grid) * scan_width(F0))
        got = makarov._scan(F1, F0, grid)
        slices = ranked[1:]
        assert ranked[0] == makarov._CHUNK and len(slices) > 3
        assert max(slices) <= makarov._CHUNK
        assert_array_equal(got[0], lower)
        assert_array_equal(got[1], upper)

    def test_peak_at_n_1e5(self):
        # the one-pass scan held two float and one bool row-by-sample work
        # arrays per thread: a 12 MB peak here on two threads, 7 MB on one
        F1, F0, grid = normal_pair(100_000, seed=4)
        tracemalloc.start()
        try:
            makarov._scan(F1, F0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


# eight float64 work arrays of the row-chunk passes' 65,536-cell budget
WORK_BOUND = 8 * 8 * 65_536


class TestWorkingMemory:
    """The tracemalloc peak of each row-chunk pass beyond what it returns
    stays under one bound set by the chunk budget, whatever n is."""

    @pytest.mark.parametrize("n", [1_000, 10_000])
    def test_candidate_pass(self, n):
        F1, F0, grid = normal_pair(n, seed=5)
        tracemalloc.start()
        try:
            s = MakarovStructure(F1, F0, grid, Tuning(n=2 * n).a_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = 0
        for o in ORIENTATIONS:
            near = s.near_argmax(o)
            kept += sum(a.nbytes for a in (near.cells, near.starts, near.values, near.row_max,
                                           *s.cell_indices(o)))
        assert peak - kept < WORK_BOUND, f"{(peak - kept) / 2**20:.2f} MiB beyond the kept cells"

    def test_scan_on_interleaved_lattices(self):
        F1, F0, grid = interleaved_lattices(10_000)
        tracemalloc.start()
        try:
            makarov._scan(F1, F0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < WORK_BOUND, f"{peak / 2**20:.2f} MiB"


@st.composite
def upper_bound_cases(draw):
    """(X1, X0) of 1 to 60 points per arm: normal, heavy ties
    on the 0.1 lattice, points 1 ulp apart near 1.0, and a treated sample
    far from the control."""
    n1, n0 = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["normal", "lattice", "ulp", "far"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ulp":
        x1, x0 = (1.0 + rng.integers(0, 8, n) * np.spacing(1.0) for n in (n1, n0))
    else:
        x1, x0 = rng.normal(0.3, 1.0, n1), rng.normal(0.0, 1.0, n0)
        if kind == "lattice":
            x1, x0 = np.round(x1, 1), np.round(x0, 1)
        elif kind == "far":
            x1 += 1e6
    return Sample(x1), Sample(x0)


class TestStructure:
    @given(upper_bound_cases())
    @settings(max_examples=200, deadline=None)
    def test_upper_bound_from_kept_cells_is_the_scans(self, case):
        # the row minima of the scan's min-side form over the kept cells,
        # bit for bit and sign of zero included, at the tuning's slack and
        # at the floor
        X1, X0 = case
        F1, F0, grid = ecdf_build(X1), ecdf_build(X0), default_grid(X0, (X1,))
        want = compute_bounds(X1, X0, grid=grid).upper.values
        n = F1.jump_points.size + F0.jump_points.size
        for a_n in (Tuning(n=max(n, 16)).a_n, MIN_SLACK):
            got = MakarovStructure(F1, F0, grid, a_n, ("upper",)).bound("upper")
            assert got.tobytes() == want.tobytes(), a_n

    def test_psi_of_structure_equals_direct_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            X1, X0 = random_pair(rng)
            F1, F0 = ecdf_build(X1), ecdf_build(X0)
            grid = default_grid(X0, (X1,), 0.19)
            s = MakarovStructure(F1, F0, grid, a_n=0.1)
            Lv = np.clip(s.near_argmax("lower").row_max, 0.0, 1.0)
            Uv = np.clip(1.0 - np.maximum(s.near_argmax("upper").row_max, 0.0), 0.0, 1.0)
            pair = compute_bounds(X1, X0, grid=grid)
            assert_array_equal(Lv, pair.lower.values)
            # the direct path arranges the arithmetic differently; agreement
            # is up to one rounding step
            assert_allclose(Uv, pair.upper.values, atol=1e-15, rtol=0)
            # bound() reads each as the plug-in path does, bit for bit
            assert_array_equal(s.bound("lower"), pair.lower.values)
            assert_array_equal(s.bound("upper"), pair.upper.values)

    def test_base_weights_reproduce_plugin(self):
        rng = np.random.default_rng(10)
        X1, X0 = random_pair(rng)
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        grid = default_grid(X0, (X1,), 0.3)
        s = MakarovStructure(F1, F0, grid, a_n=0.1)
        for o, sign in (("lower", 1.0), ("upper", -1.0)):
            cells = s.cell_indices(o)
            assert_array_equal(s.evaluate(s.c1, s.c0, cells), sign * s.near_argmax(o).values)
            # the plug-in arrays, as a B = 2 block, are replicates with no
            # direction on any kept cell
            h = s.directions(o, np.stack([s.c1, s.c1]), np.stack([s.c0, s.c0]), 7.5)
            assert h.shape == (2, s.near_argmax(o).cells.size)
            assert not h.any()
        for kept in ORIENTATIONS:
            one = MakarovStructure(F1, F0, grid, a_n=0.1, orientations=(kept,))
            other, = set(ORIENTATIONS) - {kept}
            with pytest.raises(KeyError):
                one.bound(other)

    @staticmethod
    def _budget_case(monkeypatch):
        """A grid of one-row chunks, a limit of three rows' worth of cells
        and ``_index_pairs`` counting the rows it builds."""
        X1, X0 = random_pair(np.random.default_rng(13))
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        grid = default_grid(X0, (X1,), 0.1)
        width = F1.jump_points.size + F0.jump_points.size
        monkeypatch.setattr(makarov, "_CHUNK", pass_width(F1, F0))  # one grid row per chunk
        # a slack this large keeps all M + 1 = width + 1 cells of a row,
        # for each orientation: the fourth row passes three rows' worth
        limit = 3 * 2 * (width + 1)
        monkeypatch.setattr(makarov, "MAX_ARGMAX_CELLS", limit)
        rows = []

        def counted(j1, j0, xs):
            rows.append(xs.size)
            return index_pairs(j1, j0, xs)

        index_pairs = makarov._index_pairs
        monkeypatch.setattr(makarov, "_index_pairs", counted)
        return F1, F0, grid, width, limit, rows

    def test_argmax_cell_budget_is_checked_per_chunk(self, monkeypatch):
        F1, F0, grid, width, limit, rows = self._budget_case(monkeypatch)
        with pytest.raises(ArgmaxBudgetError, match=f"{limit} near-argmax"):
            MakarovStructure(F1, F0, grid, a_n=10.0)
        assert len(rows) == 4 < len(grid)
        # the limit itself is allowed: one orientation keeps M + 1 cells a row
        monkeypatch.setattr(makarov, "MAX_ARGMAX_CELLS", len(grid) * (width + 1))
        MakarovStructure(F1, F0, grid, a_n=10.0, orientations=("lower",))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_argmax_cell_budget_under_threads(self, monkeypatch, threads):
        # the pool runs at most `threads` chunks past the one that trips the limit
        F1, F0, grid, width, limit, rows = self._budget_case(monkeypatch)
        with pytest.raises(ArgmaxBudgetError, match=f"{limit} near-argmax"):
            MakarovStructure(F1, F0, grid, a_n=10.0, threads=threads)
        assert 4 <= len(rows) <= 4 + threads < len(grid)

    @pytest.mark.parametrize("a_n", [-0.1, float("nan"), float("inf")])
    def test_slack_must_be_finite_and_nonnegative(self, a_n):
        # a NaN or negative slack kept no cell, and eps_argmax failed on
        # empty argmax sets; an infinite one kept every candidate
        F1, F0, grid = ulp_spaced_case()
        with pytest.raises(ValueError, match="a_n"):
            MakarovStructure(F1, F0, grid, a_n)

    @pytest.mark.parametrize("a_n", [0.0, float(np.nextafter(MIN_SLACK, 0.0))])
    def test_slack_below_the_floor_is_refused(self, a_n):
        # below it the "upper" bound's row minimum could miss the kept cells
        F1, F0, grid = ulp_spaced_case()
        with pytest.raises(ArgmaxBudgetError, match="a_n"):
            MakarovStructure(F1, F0, grid, a_n)
        MakarovStructure(F1, F0, grid, MIN_SLACK)

    def test_objective_rejects_unknown_orientation(self):
        X1, X0 = random_pair(np.random.default_rng(11))
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        grid = default_grid(X0, (X1,), 0.5)
        with pytest.raises(ValueError, match="orientation"):
            MakarovStructure(F1, F0, grid, 0.1, ("lower", "sideways"))


class TestSupport:
    def test_formulas(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            X1, X0 = random_pair(rng, nmax=9)
            info = support_bounds(X1, X0)
            assert info.global_range == (X1.min - X0.max, X1.max - X0.min)
            n1, n0 = len(X1), len(X0)
            F1, F0 = ecdf_build(X1), ecdf_build(X0)
            levels = np.unique(np.r_[np.arange(1, n1 + 1) / n1, np.arange(1, n0 + 1) / n0])
            diffs = np.array([F1.quantile(t) - F0.quantile(t) for t in levels])
            assert info.lower_support == (diffs.min(), X1.max - X0.min)
            assert info.upper_support == (X1.min - X0.max, diffs.max())

    def test_hand_case(self):
        info = support_bounds(Sample(np.array([1.0, 2.0])), Sample(np.array([0.0, 1.0])))
        assert info.lower_support == (1.0, 2.0)
        assert info.upper_support == (0.0, 1.0)

    def test_gap_past_the_float_range_is_infinite(self):
        # the quantile gaps 3.3e308 and 3.4e308 overflow to inf, which must
        # raise no "overflow encountered in subtract" warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            info = support_bounds(Sample(np.array([1.7e308, 1.6e308])),
                                  Sample(np.array([-1.7e308, -1.6e308])))
        inf = float("inf")
        assert info.lower_support == info.upper_support == info.global_range == (inf, inf)


def ranged(lo, hi):
    """(X0, treated samples) whose effect range is [lo, hi]."""
    return Sample(np.array([0.0])), (Sample(np.array([lo, hi])),)


class TestDefaultGrid:
    def test_pads_one_step(self):
        g = default_grid(*ranged(0.0, 1.0), 0.5)
        assert_allclose(g.points, [-0.5, 0.0, 0.5, 1.0, 1.5])

    def test_degenerate_range(self):
        g = default_grid(*ranged(2.0, 2.0))
        assert len(g) == 3 and g.points[1] == 2.0

    def test_budget_checked_before_allocating(self):
        span = ranged(0.0, 8.5)
        with pytest.raises(GridBudgetError, match="1000000"):
            default_grid(*span, 1e-9)  # would be 8.5e9 points, 63 GiB
        with pytest.raises(GridBudgetError):
            default_grid(*span, 5e-324)
        assert len(default_grid(*span, 8.5 / (makarov.MAX_GRID_POINTS - 3))) == makarov.MAX_GRID_POINTS

    def test_rejects_non_finite_range_and_step(self):
        with pytest.raises(ValueError, match="too wide"):
            default_grid(*ranged(-1e308, 1e308))
        for step in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                default_grid(*ranged(0.0, 1.0), step)

    def test_spans_every_treated_sample(self):
        # with two treated samples, the range of x1 - x0 over both
        rng = np.random.default_rng(17)
        for _ in range(30):
            X1, X0 = random_pair(rng)
            XB = Sample(rng.normal(1.0, 2.0, 5))
            for step in (None, 0.07):
                lo = min(X1.min, XB.min) - X0.max
                hi = max(X1.max, XB.max) - X0.min
                want = default_grid(*ranged(lo, hi), step)
                got = default_grid(X0, (X1, XB), step)
                assert got.points.tobytes() == want.points.tobytes() and got.step == want.step

    def test_covers_range(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            lo = rng.normal()
            hi = lo + rng.uniform(0.1, 5)
            step = rng.uniform(0.01, 1)
            g = default_grid(*ranged(lo, hi), step)
            assert g.points[0] <= lo and g.points[-1] >= hi


class TestQuantileBounds:
    def test_against_dense_scan(self):
        rng = np.random.default_rng(14)
        u_dense = np.linspace(1e-9, 1 - 1e-9, 200_001)
        for _ in range(15):
            X1, X0 = random_pair(rng, nmax=9)
            F1, F0 = ecdf_build(X1), ecdf_build(X0)
            for tau in (0.2, 0.5, 0.8):
                lo, hi = quantile_bounds(F1, F0, tau)
                us = u_dense[(u_dense > 0) & (u_dense < tau)]
                expect_lo = np.max(F1.quantile(us) - F0.quantile(us + 1 - tau))
                us = u_dense[(u_dense > tau) & (u_dense < 1)]
                expect_hi = np.min(F1.quantile(us) - F0.quantile(us - tau))
                assert lo[0] == expect_lo
                assert hi[0] == expect_hi

    def test_degenerate_control(self):
        # constant control: bounds are the one-sided quantiles of X1
        F1 = ecdf_build(Sample(np.array([1.0, 2.0, 3.0, 4.0])))
        F0 = ecdf_build(Sample(np.array([0.0, 0.0])))
        lo, hi = quantile_bounds(F1, F0, 0.5)
        assert lo[0] == 2.0  # Q1 just below 0.5
        assert hi[0] == 3.0  # Q1 just above 0.5

    def test_ordering_and_validation(self):
        rng = np.random.default_rng(15)
        X1, X0 = random_pair(rng)
        F1, F0 = ecdf_build(X1), ecdf_build(X0)
        lo, hi = quantile_bounds(F1, F0, [0.25, 0.5, 0.75])
        assert np.all(lo <= hi)
        with pytest.raises(ValueError):
            quantile_bounds(F1, F0, 0.0)
        with pytest.raises(ValueError):
            quantile_bounds(F1, F0, 1.0)
        with pytest.raises(ValueError):
            quantile_bounds(F1, F0, [0.5, np.nan])


class TestSerialization:
    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        X1, X0 = random_pair(rng)
        pair = compute_bounds(X1, X0, step=0.23)
        out = tmp_path / "bounds.csv"
        cli._write(str(out), {"x": pair.grid.points, "lower": pair.lower.values,
                              "upper": pair.upper.values})
        header, *rows = out.read_text().splitlines()
        assert header == "x,lower,upper"
        x, lo, hi = np.array([[float(c) for c in row.split(",")] for row in rows]).T
        assert_array_equal(x, pair.grid.points)
        assert_array_equal(lo, pair.lower.values)
        assert_array_equal(hi, pair.upper.values)
