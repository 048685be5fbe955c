"""Makarov dependency bounds for treatment-effect CDFs and quantiles.

The lower/upper bound functions are suprema/infima of a difference of two
step CDFs, piecewise constant in u with jumps only at the event set
{treated points} union {control points + x}.  It is constant between
consecutive events, so the right values at every event and the pair
(0, 0), the left limit at the first event, hold every left limit too.
The bootstrap structure reads those and keeps the near-argmax ones; the
plug-in bounds need only the left limits (sup) and right values (inf) at
shifted control points.  Both read where the shifted control points fall
among the treated points from one rank primitive, ``_ranks``."""

from __future__ import annotations

from collections import deque
from contextlib import closing
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .empirical import Sample, StepCDF, ecdf_build
from .valuemap import Grid, NearArgmax, ValueFunction

__all__ = [
    "ArgmaxBudgetError",
    "BoundPair",
    "GridBudgetError",
    "SupportInfo",
    "MakarovStructure",
    "quantile_bounds",
    "support_bounds",
    "default_grid",
    "compute_bounds",
]

DEFAULT_GRID_POINTS = 512
MAX_GRID_POINTS = 1_000_000
MAX_ARGMAX_CELLS = 16_000_000
MIN_SLACK = 1e-12  # far above the few-ulp gap between the scan's two combine forms
_CHUNK = 65_536  # cap on the cells of one chunk's work arrays: 512 KiB per float64 array
_STRIDES = (1024, 64, 4, 1)  # block strides of the bound scan, each a multiple of the next
ORIENTATIONS = ("lower", "upper")


class GridBudgetError(ValueError):
    """A requested grid step would give more than MAX_GRID_POINTS points."""


class ArgmaxBudgetError(ValueError):
    """A slack outside what a ``MakarovStructure`` takes: below MIN_SLACK,
    or keeping more than MAX_ARGMAX_CELLS near-argmax cells."""


@dataclass(frozen=True)
class SupportInfo:
    """Support intervals of the two bound functions and their common range."""

    lower_support: tuple[float, float]
    upper_support: tuple[float, float]
    global_range: tuple[float, float]


@dataclass(frozen=True)
class BoundPair:
    lower: ValueFunction
    upper: ValueFunction
    grid: Grid


def _chunks(grid: Grid, width: int):
    """Slices of grid rows whose row-by-width work arrays stay near _CHUNK
    cells, ``width`` being the cells a pass holds per grid row."""
    rows = max(1, _CHUNK // max(1, width))
    for s in range(0, len(grid), rows):
        yield slice(s, s + rows)


def _map_chunks(work, grid: Grid, width: int, threads: int):
    """``work(s)`` for each slice ``s`` of ``_chunks(grid, width)``, yielded
    in chunk order.  With more than one thread and more than one chunk they
    run on a pool of ``threads`` threads, submitted at most ``threads`` ahead
    of the one yielded, so a consumer that stops early has started at most
    ``threads`` chunks past the last it read.  ``work`` may write only its
    own rows of shared arrays; numpy's searchsorted, takes and reductions
    release the GIL, so the chunks overlap.  The pool's module, and the
    logging it imports, load only when a pool starts."""
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    chunks = list(_chunks(grid, width))
    if threads == 1 or len(chunks) == 1:
        yield from map(work, chunks)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        ahead = deque()
        for s in chunks:
            ahead.append(pool.submit(work, s))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _ranks(j1: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """#j1 < row and a mask of the rows that equal a j1 value, for every
    entry of ``rows``; #j1 <= row is their sum.  One searchsorted, then a
    tie test, since j1 is strictly increasing and so holds at most one value
    equal to a row entry, at position #j1 < row.  Where that position is
    past the end, every j1 is below the row, so the clipped take finds no
    tie."""
    lt = np.searchsorted(j1, rows)
    return lt, np.equal(j1.take(lt, mode="clip"), rows)


def _shifted(j0: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Control jumps ``j0`` shifted into u-space, j0 + x, for the grid
    points ``xs`` (broadcast).  A sum past the float range is +-inf, which
    orders against every finite treated jump as the exact sum would; shifts
    that overflow together form a tie run, as shifts that round together
    do, and both readers of the shifts (``_scan``, ``_index_pairs``) take
    tie runs.  So the overflow is no error, and it raises no warning."""
    with np.errstate(over="ignore"):
        return j0 + xs


def _ladder(m: int) -> list[int]:
    """The strides of ``_STRIDES`` below ``m`` control jumps, or [1]: a
    level whose blocks are no shorter than the sample would rank padding."""
    return [S for S in _STRIDES if S < m] or [1]


def _scan(F1: StepCDF, F0: StepCDF, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per grid x, the max of F1-part - F0-part and the min of (1 - F0-part)
    + F1-part over the candidates that dominate the rest of the family of
    ``MakarovStructure`` (every event's right value, and (0, 0)), read
    through the same ``_ranks``.

    With the control jumps at row = j0 + x (u-space), D_x(u) = F1(u) -
    F0(u - x) rises only at treated jumps and falls only at control jumps,
    so its max is a left limit at a control jump and its min a right value
    at one; the tails, where D_x is 0, are matched by the first left limit
    and the last right value.  In a tie run of ``row``, c0[p] and c0[p + 1]
    stand in for c0 at the run's start and end.  Both combine forms are
    monotone in each part in floating point, so every dropped value is
    dominated by a kept one: the result is bit-identical to a reduce over
    the whole family, and to the ECDF of the shifted sample X0 + x.
    Comparing j1 - x against j0 instead can flip an ordering at rounding
    scale and pick up a different piece.

    Few control jumps can hold a row's max or min, so each row is read by
    one refine step applied down the stride ladder ``_ladder``.  The jumps
    are padded with the last jump (a repeated candidate changes no max or
    min) to a whole block of every jump, plus one end key; that block is
    level 0 of each row.  The step ranks each (row, block) pair's sub-block
    starts at the next stride and the next block's start.  They are
    candidates, so they raise the row max and lower the row min.  Within a
    sub-block, row rises with p, and so do #j1 < row, #j1 <= row and c0;
    rounding is monotone.  So each max-side value c1[#j1 < row] - before is
    at most c1[#j1 < row at the next sub-block's start] - before[the
    sub-block's start], and each min-side value c1[#j1 <= row] + after is
    at least c1[#j1 <= row at its start] + after[its last jump].  The step
    keeps the sub-blocks whose bound beats the row's max or min and refines
    them at the next stride, or at stride 1 if most of them were kept (a
    flat row); at stride 1 every jump is ranked.  Equal parts give +0.0 in
    both forms, never -0.0, so the max and min have the same bits whichever
    candidates reach them.

    Each step ranks its pairs in slices of at most _CHUNK keys (or of one
    pair, if a pair holds more), and refines a slice's kept sub-blocks
    before the next slice, so a flat objective, where most blocks are kept,
    does not grow the work arrays.
    """
    j1, j0 = F1.jump_points, F0.jump_points
    c1, c0 = F1.cum0, F0.cum0
    ladder = _ladder(j0.size)
    width = ladder[0] * -(-j0.size // ladder[0])
    pad = (0, width + 1 - j0.size)
    jumps = np.pad(j0, pad, mode="edge")
    before = np.pad(c0[:-1], pad, mode="edge")  # F0-part just before each control jump
    after = np.pad(1.0 - c0[1:], pad, mode="edge")  # 1 - F0-part just after each control jump
    xs = grid.points
    top, bottom = np.full(len(grid), -np.inf), np.full(len(grid), np.inf)

    def step(r, p, size, stride):
        # ranks the (row, start) pairs of blocks of `size` jumps at `stride`,
        # and returns the sub-blocks they keep, with whether most were kept;
        # a block's keys (its sub-block starts and the next block's start)
        # are a window of the padded arrays, and `ends` is `after` at the
        # last jump of each sub-block
        keys, lefts, rights = (sliding_window_view(a, size + 1)[:, ::stride]
                               for a in (jumps, before, after))
        lt, ties = _ranks(j1, _shifted(keys[p], xs.take(r)[:, None]))
        hi, lo, b = c1.take(lt), c1.take(lt + ties), lefts[p]
        np.maximum.at(top, r, (hi - b).max(axis=1))
        np.minimum.at(bottom, r, (lo + rights[p]).min(axis=1))
        if stride == 1:
            return r[:0], p[:0], False
        ends = sliding_window_view(after[stride - 1:], size - stride + 1)[:, ::stride]
        # a sub-block is kept where its max-side or min-side bound beats the row's
        kept = hi[:, 1:] - b[:, :-1] > top[r, None]
        kept |= lo[:, :-1] + ends[p] < bottom[r, None]
        i, j = np.divmod(np.flatnonzero(kept), size // stride)
        return r[i], p[i] + stride * j, 2 * i.size > kept.size

    def refine(rows, starts, size, ladder):
        # (row, start) pairs of blocks of `size` jumps, refined down `ladder`
        per = max(1, _CHUNK * ladder[0] // (size + ladder[0]))
        for f in range(0, rows.size, per):
            r, p, flat = step(rows[f:f + per], starts[f:f + per], size, ladder[0])
            if r.size:
                refine(r, p, ladder[0], [1] if flat else ladder[1:])

    refine(np.arange(len(grid)), np.zeros(len(grid), dtype=np.intp), width, ladder)
    return top, bottom


def _index_pairs(j1: np.ndarray, j0: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (ia, ib) of every candidate on the grid rows ``xs``, as
    two rows x (M + 1) arrays in the objective's column order: right values
    of [treated | control], then (0, 0).  ``ia`` indexes the F1 cumulative
    array and ``ib`` the F0 one.  The left limit at an event is the pair of
    the right value at the event before it, or (0, 0) at the first event,
    and a reweighting jumps at the same events, so the left limits would
    repeat pairs, and their values in every bootstrap replicate."""
    n1, n0 = j1.size, j0.size
    M, m = n1 + n0, xs.size
    ia = np.zeros((m, M + 1), dtype=np.intp)
    ib = np.zeros_like(ia)
    # treated candidate i: #j1 <= j1[i] is i + 1
    ia[:, :n1] = np.arange(1, n1 + 1)
    # compared in u-space, where the control jumps sit at row = j0 + x;
    # row is non-decreasing (j0 is increasing and rounding monotone),
    # so its ties come only from rounding in the shift
    rows = _shifted(j0, xs[:, None])
    lt_j, ties = _ranks(j1, rows)
    np.add(lt_j, ties, out=ia[:, n1:M])
    # #row <= row[p] is one past the end of p's run of equal values,
    # found from the right
    ends = np.ones((m, n0), dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=ends[:, :-1])
    le_c = np.where(ends[:, ::-1], n0 - np.arange(n0), n0)
    np.minimum.accumulate(le_c, axis=1, out=le_c)
    ib[:, n1:M] = le_c[:, ::-1]
    # row[p] <= j1[i] iff #j1 < row[p] is at most i, so #row <= j1[i]
    # is a cumulative count of the control ranks
    off = (n1 + 1) * np.arange(m)[:, None]
    hist = np.bincount((lt_j + off).ravel(), minlength=m * (n1 + 1))
    np.cumsum(hist.reshape(m, n1 + 1)[:, :n1], axis=1, out=ib[:, :n1])
    return ia, ib


class MakarovStructure:
    """Near-argmax candidates of the objective Pi(F)(u, x) = F1(u) - F0(u - x).

    Candidates for each grid x are the right values at the event points
    {F1 jumps} union {F0 jumps + x} and the pair (0, 0), which hold every
    left limit too (``_index_pairs``); a candidate's value is c1[ia] -
    c0[ib] for its index pair.  One pass over chunks of grid rows builds
    each chunk's index pairs and values and keeps, per orientation
    ("lower": the objective, "upper": its negation), only the cells within
    ``a_n`` of their row's maximum, with their index pairs.  Memory is
    O(chunk + kept cells), a chunk holding about _CHUNK candidates; the
    whole K x (M + 1) candidate matrix is never held.  With ``threads`` > 1
    the chunks run on a thread pool and their cells are concatenated in
    chunk order, so the result does not depend on the thread count.
    Bootstrap directions jump at the same event points, so any reweighting
    of the same observations is evaluated exactly through the kept index
    pairs, through which ``directions`` reads the bootstrap directions.
    ``bound`` reads a kept orientation's clipped plug-in bound from its kept
    cells, so no bound scan runs.
    """

    def __init__(self, F1: StepCDF, F0: StepCDF, grid: Grid, a_n: float,
                 orientations=ORIENTATIONS, threads: int = 1):
        unknown = set(orientations) - set(ORIENTATIONS)
        if unknown:
            raise ValueError(f"unknown orientation {unknown.pop()!r}")
        if not MIN_SLACK <= a_n < np.inf:
            raise ArgmaxBudgetError(f"slack a_n={a_n!r} must be finite and at least {MIN_SLACK!r}")
        self.grid = grid
        self.c1, self.c0 = F1.cum0, F0.cum0
        j1, j0 = F1.jump_points, F0.jump_points
        M = j1.size + j0.size
        width = M + 1
        wanted = [o for o in ORIENTATIONS if o in orientations]
        row_max = {o: np.empty(len(grid)) for o in wanted}

        def keep_chunk(s):
            ia, ib = _index_pairs(j1, j0, grid.points[s])
            values = self.c1[ia]
            values -= self.c0[ib]
            out = []
            for o in wanted:  # "lower" first: "upper" negates the values in place
                if o == "upper":
                    np.negative(values, out=values)
                top = row_max[o][s] = values.max(axis=1)
                pos = np.flatnonzero(values >= (top - a_n)[:, None])
                out.append((pos + s.start * width, values.take(pos), ia.take(pos), ib.take(pos)))
            return out

        parts = {o: [] for o in wanted}
        kept = 0
        with closing(_map_chunks(keep_chunk, grid, width, threads)) as chunks:
            for chunk in chunks:  # in chunk order, whatever the thread count
                for o, part in zip(wanted, chunk):
                    parts[o].append(part)
                    kept += part[0].size
                if kept > MAX_ARGMAX_CELLS:
                    raise ArgmaxBudgetError(
                        f"slack a_n={a_n!r} keeps more than {MAX_ARGMAX_CELLS} "
                        "near-argmax candidate cells, the limit")
        self._kept = {}
        for o in wanted:
            # joined one field at a time, each field's chunk parts dropped as
            # it goes, so the kept cells are never held twice
            fields = list(zip(*parts.pop(o)))
            cells, vals, ia, ib = (np.concatenate(fields.pop(0)) for _ in range(4))
            near = NearArgmax(grid=grid, width=width, slack=a_n, row_max=row_max[o],
                              cells=cells, values=vals)
            self._kept[o] = (near, (ia, ib))

    def near_argmax(self, orientation: str) -> NearArgmax:
        """The kept cells of one orientation, for ``eps_argmax``."""
        return self._kept[orientation][0]

    def cell_indices(self, orientation: str) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs into (d1, d0) of the kept cells of one orientation,
        in the order of their ``near_argmax`` cells, for ``evaluate``."""
        return self._kept[orientation][1]

    def bound(self, orientation: str) -> np.ndarray:
        """The clipped plug-in bound of a kept orientation on the grid, bit
        for bit that of ``compute_bounds``: for "lower" the clipped row
        maxima; for "upper" the clipped row minima over the kept cells of
        (1 - c0[ib]) + c1[ia], the scan's min-side form, since 1 minus the
        row maxima can differ in the last bit.  That form's row
        minimum is at a candidate within a few ulps of the objective's row
        minimum, so any slack of at least MIN_SLACK keeps it."""
        near, (ia, ib) = self._kept[orientation]  # a KeyError if not kept
        if orientation == "lower":
            return np.clip(near.row_max, 0.0, 1.0)
        # every row keeps a cell, so near.starts splits the cells into rows
        low = np.minimum.reduceat((1.0 - self.c0[ib]) + self.c1[ia], near.starts)
        return np.clip(low, 0.0, 1.0, out=low)

    def directions(self, orientation: str, d1: np.ndarray, d0: np.ndarray, r_n: float):
        """Bootstrap directions r_n(G* - G) of one orientation's objective
        on its kept cells, G* read by ``evaluate`` from d1, d0; the "upper"
        objective is the negation, so its kept values are -G and its
        directions -r_n(G* + values)."""
        near, cells = self._kept[orientation]
        h = self.evaluate(d1, d0, cells)
        if orientation == "lower":
            h -= near.values
            h *= r_n
        else:
            h += near.values
            h *= -r_n
        return h

    def evaluate(self, d1: np.ndarray, d0: np.ndarray, cells) -> np.ndarray:
        """g1(u) - g0(u - x) at the candidates ``cells`` (from
        ``cell_indices``), for step functions with the same jump points as
        (F1, F0) and cumulative arrays d1, d0 (leading zero included); for
        (B, n + 1) blocks of cumulative arrays, one row of values per row."""
        ia, ib = cells
        out = np.take(d1, ia, axis=-1)
        out -= np.take(d0, ib, axis=-1)
        return out


def _inside(cands: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The candidates inside (lo, hi), or else its midpoint: a level within
    1e-9 of 0 or 1 can leave no breakpoint or end point inside.  Where no
    float lies inside (the midpoint rounds to an end, as for a subnormal
    level), ``hi``: both quantile functions are left-continuous, so it reads
    the same piece as the points just below it."""
    cands = cands[(cands > lo) & (cands < hi)]
    if cands.size:
        return cands
    mid = (lo + hi) / 2.0
    return np.array([mid if lo < mid < hi else hi])


def quantile_bounds(F1: StepCDF, F0: StepCDF, taus) -> tuple[np.ndarray, np.ndarray]:
    """Inverted bounds (U^{-1}(tau), L^{-1}(tau)) for the quantile function.

    U^{-1}(tau) = sup_{u in (0, tau)} Q1(u) - Q0(u + 1 - tau) and
    L^{-1}(tau) = inf_{u in (tau, 1)} Q1(u) - Q0(u - tau), evaluated over
    the quantile-level breakpoints of both samples inside the open interval
    plus points 1e-9 inside each endpoint, or at its midpoint if none of
    those is inside (at its upper end if no float is).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.all((taus > 0.0) & (taus < 1.0)):
        raise ValueError("quantile level must lie in (0, 1)")
    eps = 1e-9
    b1 = F1.cum_probs
    b0 = F0.cum_probs
    lower_q = np.empty(taus.size)
    upper_q = np.empty(taus.size)
    # only Q1 - Q0 can pass the float range, and it then reads +-inf
    with np.errstate(over="ignore"):
        for k, tau in enumerate(taus):
            # sup over (0, tau) of Q1(u) - Q0(u + 1 - tau)
            cands = _inside(np.concatenate((b1, b0 - (1.0 - tau), [eps, tau - eps])), 0.0, tau)
            lower_q[k] = np.max(F1.quantile(cands) - F0.quantile(cands + (1.0 - tau)))
            # inf over (tau, 1) of Q1(u) - Q0(u - tau)
            cands = _inside(np.concatenate((b1, b0 + tau, [tau + eps, 1.0 - eps])), tau, 1.0)
            upper_q[k] = np.min(F1.quantile(cands) - F0.quantile(cands - tau))
    return lower_q, upper_q


def support_bounds(X1: Sample, X0: Sample) -> SupportInfo:
    """Support endpoints of both bound functions from the sample extremes
    and the min/max vertical quantile-function gap over pooled levels."""
    n1, n0 = len(X1), len(X0)
    levels = np.unique(
        np.concatenate((np.arange(1, n1 + 1) / n1, np.arange(1, n0 + 1) / n0))
    )
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    with np.errstate(over="ignore"):  # a gap past the float range reads +-inf
        qdiff = F1.quantile(levels) - F0.quantile(levels)
    lo_all = X1.min - X0.max
    hi_all = X1.max - X0.min
    return SupportInfo(
        lower_support=(float(qdiff.min()), hi_all),
        upper_support=(lo_all, float(qdiff.max())),
        global_range=(lo_all, hi_all),
    )


def _range_grid(lo: float, hi: float, step: float | None) -> Grid:
    """Uniform grid covering [lo, hi], padded one step each side, with
    spacing ``step`` (by default the range over DEFAULT_GRID_POINTS).

    Raises GridBudgetError, before allocating, when the grid would have more
    than MAX_GRID_POINTS points, and ValueError naming the step and range
    when the points would not be finite and strictly increasing: a step
    below the float spacing in the range (a default step can underflow to
    0), or a padded end past the float range."""
    if not np.isfinite(hi - lo):
        raise ValueError(f"effect range [{lo!r}, {hi!r}] is too wide to grid: "
                         "its width is not a finite float")
    if step is None:
        step = (hi - lo) / DEFAULT_GRID_POINTS if hi > lo else 1.0
    over = f"grid step {step!r} over effect range [{lo!r}, {hi!r}]"
    if not (0 < step < np.inf):
        raise ValueError(f"{over} must be positive and finite")
    steps = (hi - lo) / step
    # capped before int(), which fails on an infinite count
    n_inner = int(np.ceil(steps - 1e-12)) if steps < MAX_GRID_POINTS else MAX_GRID_POINTS
    if n_inner + 3 > MAX_GRID_POINTS:
        raise GridBudgetError(f"{over} gives more than {MAX_GRID_POINTS} grid points, the limit")
    with np.errstate(over="ignore"):  # a point past the float range is inf, refused below
        points = lo + step * np.arange(-1, n_inner + 2)
    if not (np.isfinite(points).all() and (points[1:] > points[:-1]).all()):
        raise ValueError(f"{over} gives points that are not finite and strictly increasing")
    return Grid(points=points, step=float(step))


def default_grid(X0: Sample, treated, step: float | None = None) -> Grid:
    """``_range_grid`` over the range of x1 - x0 for x1 in any of the
    ``treated`` samples and x0 in X0, from the sample extremes alone."""
    return _range_grid(min(X.min for X in treated) - X0.max,
                       max(X.max for X in treated) - X0.min, step)


def _resolve_grid(grid: Grid | None, step: float | None, X0: Sample, treated) -> Grid:
    """``grid``, or else ``default_grid`` with spacing ``step``; a step
    given with a grid would be dropped, so giving both is an error."""
    if grid is None:
        return default_grid(X0, treated, step)
    if step is not None:
        raise ValueError("give grid or step, not both")
    return grid


def compute_bounds(X1: Sample, X0: Sample, grid: Grid | None = None,
                   step: float | None = None) -> BoundPair:
    """Plug-in bounds on ``grid`` (by default the padded ``default_grid``
    with spacing ``step``; not both), each clamped to [0, 1]: the lower
    bound sup_u F1(u) - F0(u - x) and the upper bound 1 + inf_u F1(u) -
    F0(u - x), whose candidates evaluate as (1 - F0-part) + F1-part so the
    degenerate case (F0-part equal to 1) reproduces F1 values bit for bit.
    The bound scan runs on one thread: its slices are small (at n = 1e5 per
    arm on normal data it ranks 0.6 % of the candidates, 302k keys in 11
    slices of at most _CHUNK), and a second thread did not speed it up on
    two cores."""
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    grid = _resolve_grid(grid, step, X0, (X1,))
    lower, upper = (ValueFunction(grid=grid, values=np.clip(v, 0.0, 1.0, out=v))
                    for v in _scan(F1, F0, grid))
    return BoundPair(lower=lower, upper=upper, grid=grid)

