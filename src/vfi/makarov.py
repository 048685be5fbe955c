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

import io
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .empirical import Sample, StepCDF, ecdf_build
from .valuemap import Grid, NearArgmax, ValueFunction

__all__ = [
    "ArgmaxBudgetError",
    "BoundPair",
    "GridBudgetError",
    "SupportInfo",
    "MakarovStructure",
    "lower_bound",
    "upper_bound",
    "quantile_bounds",
    "support_bounds",
    "default_grid",
    "compute_bounds",
    "bounds_to_csv",
    "bounds_from_csv",
]

DEFAULT_GRID_POINTS = 512
MAX_GRID_POINTS = 1_000_000
MAX_ARGMAX_CELLS = 16_000_000
_CHUNK = 200_000  # cap on grid-by-sample work arrays
_STRIDE = 64  # control jumps per block of the bound scan's coarse pass
ORIENTATIONS = ("lower", "upper")


class GridBudgetError(ValueError):
    """A requested grid step would give more than MAX_GRID_POINTS points."""


class ArgmaxBudgetError(ValueError):
    """A slack would keep more than MAX_ARGMAX_CELLS near-argmax cells."""


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
    """Slices of grid rows whose row-by-width work arrays stay near _CHUNK cells."""
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
    release the GIL, so the chunks overlap."""
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    chunks = list(_chunks(grid, width))
    if threads == 1 or len(chunks) == 1:
        yield from map(work, chunks)
        return
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


def _blocks(a: np.ndarray) -> np.ndarray:
    """``a`` as a (blocks, _STRIDE) array, the last block padded with a's
    last entry."""
    nb = -(-a.size // _STRIDE)
    return np.concatenate((a, np.repeat(a[-1:], nb * _STRIDE - a.size))).reshape(nb, _STRIDE)


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

    Few control jumps can hold a row's max or min, so each row is read in
    two passes over blocks of _STRIDE consecutive control jumps, the last
    block padded with the last jump (a repeated candidate changes no max or
    min).  The coarse pass ranks only the block starts and the last jump.
    They are candidates, so their max and min bound the row's result from
    inside.  Within a block, row rises with p, and so do #j1 < row, #j1 <=
    row and c0; rounding is monotone.  So each max-side value c1[#j1 < row]
    - before is at most c1[#j1 < row at the next coarse key] - before[the
    block's first jump], and each min-side value c1[#j1 <= row] + after is
    at least c1[#j1 <= row at the first jump] + after[the last jump].  The
    fine pass ranks in full only the blocks whose bound beats the coarse
    max or min, and reduces them into it.  Equal parts give +0.0 in both
    forms, never -0.0, so the max and min have the same bits whichever
    candidates reach them.
    """
    j1, j0 = F1.jump_points, F0.jump_points
    c1 = np.concatenate(([0.0], F1.cum_probs))
    c0 = np.concatenate(([0.0], F0.cum_probs))
    before = _blocks(c0[:-1])  # F0-part just before each control jump
    after = _blocks(1.0 - c0[1:])  # 1 - F0-part just after each control jump
    jumps = _blocks(j0)
    # coarse keys: each block's start, then the last control jump
    keys = np.append(jumps[:, 0], j0[-1])
    key_before = np.append(before[:, 0], before[-1, -1])
    key_after = np.append(after[:, 0], after[-1, -1])
    lower, upper = np.empty((2, len(grid)))
    for s in _chunks(grid, j0.size):
        xs = grid.points[s]
        lt, ties = _ranks(j1, keys + xs[:, None])
        top = c1.take(lt)
        cap = top[:, 1:] - before[:, 0]  # max-side bound of each block
        top -= key_before
        lt += ties
        bottom = c1.take(lt)
        floor = bottom[:, :-1] + after[:, -1]  # min-side bound of each block
        bottom += key_after
        top, bottom = top.max(axis=1), bottom.min(axis=1)
        row, block = np.nonzero((cap > top[:, None]) | (floor < bottom[:, None]))
        lt, ties = _ranks(j1, jumps[block] + xs[row, None])
        hi = (c1.take(lt) - before[block]).max(axis=1)
        lt += ties
        lo = (c1.take(lt) + after[block]).min(axis=1)
        first = np.flatnonzero(np.diff(row, prepend=-1))
        row = row[first]
        top[row] = np.maximum(top[row], np.maximum.reduceat(hi, first))
        bottom[row] = np.minimum(bottom[row], np.minimum.reduceat(lo, first))
        lower[s], upper[s] = top, bottom
    return lower, upper


def _clamped(values: np.ndarray, grid: Grid) -> ValueFunction:
    return ValueFunction(grid=grid, values=np.clip(values, 0.0, 1.0, out=values))


def lower_bound(F1: StepCDF, F0: StepCDF, grid: Grid) -> ValueFunction:
    """sup_u F1(u) - F0(u - x) at each grid x, clamped to [0, 1].  The
    supremum over all of R is attained on the candidate family (or in a
    tail, where the difference is 0)."""
    return _clamped(_scan(F1, F0, grid)[0], grid)


def upper_bound(F1: StepCDF, F0: StepCDF, grid: Grid) -> ValueFunction:
    """1 + inf_u F1(u) - F0(u - x) at each grid x, clamped to [0, 1].

    Candidates evaluate as (1 - F0-part) + F1-part so the degenerate case
    (F0-part equal to 1) reproduces F1 values bit for bit.
    """
    return _clamped(_scan(F1, F0, grid)[1], grid)


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
    rows = j0[None, :] + xs[:, None]
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
    O(chunk + kept cells); the whole K x (M + 1) candidate matrix is never
    held.  With ``threads`` > 1 the chunks run on a thread pool and their
    cells are concatenated in chunk order, so the result does not depend
    on the thread count.  Bootstrap directions jump at the same event
    points, so any reweighting of the same observations is evaluated
    exactly through the kept index pairs.
    """

    def __init__(self, F1: StepCDF, F0: StepCDF, grid: Grid, a_n: float,
                 orientations=ORIENTATIONS, threads: int = 1):
        unknown = set(orientations) - set(ORIENTATIONS)
        if unknown:
            raise ValueError(f"unknown orientation {unknown.pop()!r}")
        self.grid = grid
        self.c1 = np.concatenate(([0.0], F1.cum_probs))
        self.c0 = np.concatenate(([0.0], F0.cum_probs))
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
                keep = values >= (top - a_n)[:, None]
                pos = np.flatnonzero(keep)
                out.append((pos + s.start * width, keep.sum(axis=1),
                            values.take(pos), ia.take(pos), ib.take(pos)))
            return out

        parts = {o: [] for o in wanted}
        kept = 0
        with closing(_map_chunks(keep_chunk, grid, M, threads)) as chunks:
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
            cells, counts, vals, ia, ib = (np.concatenate(p) for p in zip(*parts.pop(o)))
            near = NearArgmax(grid=grid, width=width, slack=a_n, row_max=row_max[o],
                              cells=cells, counts=counts, values=vals)
            self._kept[o] = (near, (ia, ib))

    def near_argmax(self, orientation: str) -> NearArgmax:
        """The kept cells of one orientation, for ``eps_argmax``."""
        return self._kept[orientation][0]

    def cell_indices(self, orientation: str) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs into (d1, d0) of the kept cells of one orientation,
        in the order of their ``near_argmax`` cells, for ``evaluate``."""
        return self._kept[orientation][1]

    def evaluate(self, d1: np.ndarray, d0: np.ndarray, cells) -> np.ndarray:
        """g1(u) - g0(u - x) at the candidates ``cells`` (from
        ``cell_indices``), for step functions with the same jump points as
        (F1, F0) and cumulative arrays d1, d0 (leading zero included); for
        (B, n + 1) blocks of cumulative arrays, one row of values per row."""
        ia, ib = cells
        out = np.take(d1, ia, axis=-1)
        out -= np.take(d0, ib, axis=-1)
        return out

    def base_values(self, cells) -> np.ndarray:
        return self.evaluate(self.c1, self.c0, cells)


def quantile_bounds(F1: StepCDF, F0: StepCDF, taus) -> tuple[np.ndarray, np.ndarray]:
    """Inverted bounds (U^{-1}(tau), L^{-1}(tau)) for the quantile function.

    U^{-1}(tau) = sup_{u in (0, tau)} Q1(u) - Q0(u + 1 - tau) and
    L^{-1}(tau) = inf_{u in (tau, 1)} Q1(u) - Q0(u - tau), evaluated over
    the quantile-level breakpoints of both samples inside the open interval
    plus points 1e-9 inside each endpoint.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.all((taus > 0.0) & (taus < 1.0)):
        raise ValueError("quantile level must lie in (0, 1)")
    eps = 1e-9
    b1 = F1.cum_probs
    b0 = F0.cum_probs
    lower_q = np.empty(taus.size)
    upper_q = np.empty(taus.size)
    for k, tau in enumerate(taus):
        # sup over (0, tau) of Q1(u) - Q0(u + 1 - tau)
        cands = np.concatenate((b1, b0 - (1.0 - tau), [eps, tau - eps]))
        cands = cands[(cands > 0.0) & (cands < tau)]
        lower_q[k] = np.max(F1.quantile(cands) - F0.quantile(cands + (1.0 - tau)))
        # inf over (tau, 1) of Q1(u) - Q0(u - tau)
        cands = np.concatenate((b1, b0 + tau, [tau + eps, 1.0 - eps]))
        cands = cands[(cands > tau) & (cands < 1.0)]
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
    qdiff = F1.quantile(levels) - F0.quantile(levels)
    lo_all = X1.min - X0.max
    hi_all = X1.max - X0.min
    return SupportInfo(
        lower_support=(float(qdiff.min()), hi_all),
        upper_support=(lo_all, float(qdiff.max())),
        global_range=(lo_all, hi_all),
    )


def default_grid(support: SupportInfo, step: float | None = None) -> Grid:
    """Uniform grid covering the global range, padded one step each side.

    Raises GridBudgetError, before allocating, when the grid would have more
    than MAX_GRID_POINTS points."""
    lo, hi = support.global_range
    if not np.isfinite(hi - lo):
        raise ValueError(f"effect range [{lo!r}, {hi!r}] is too wide to grid: "
                         "its width is not a finite float")
    if step is None:
        step = (hi - lo) / DEFAULT_GRID_POINTS if hi > lo else 1.0
    if not (0 < step < np.inf):
        raise ValueError("grid step must be positive and finite")
    steps = (hi - lo) / step
    # capped before int(), which fails on an infinite count
    n_inner = int(np.ceil(steps - 1e-12)) if steps < MAX_GRID_POINTS else MAX_GRID_POINTS
    if n_inner + 3 > MAX_GRID_POINTS:
        raise GridBudgetError(
            f"grid step {step!r} over [{lo!r}, {hi!r}] gives more than "
            f"{MAX_GRID_POINTS} grid points, the limit")
    points = lo + step * np.arange(-1, n_inner + 2)
    return Grid(points=points, step=float(step))


def _sample_grid(X0: Sample, treated, step: float | None) -> Grid:
    """``default_grid`` over the range of x1 - x0 for x1 in any of the
    ``treated`` samples and x0 in X0, from the sample extremes alone: the
    grid reads only the global range, so the quantile-gap supports of
    ``support_bounds`` are not computed; each is set to the range, which
    holds it."""
    lo = min(X.min for X in treated) - X0.max
    hi = max(X.max for X in treated) - X0.min
    return default_grid(SupportInfo((lo, hi), (lo, hi), (lo, hi)), step)


def compute_bounds(X1: Sample, X0: Sample, grid: Grid | None = None,
                   step: float | None = None) -> BoundPair:
    """Plug-in lower and upper bounds on ``grid`` (by default the padded
    ``default_grid``).  The bound scan runs on one thread: its chunks are
    small (2 grid rows of 1 key per _STRIDE control jumps at n = 1e5 per
    arm), and a second thread did not speed it up on two cores."""
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    if grid is None:
        grid = _sample_grid(X0, (X1,), step)
    lower, upper = _scan(F1, F0, grid)
    return BoundPair(lower=_clamped(lower, grid), upper=_clamped(upper, grid), grid=grid)


def bounds_to_csv(pair: BoundPair) -> str:
    """CSV rows (x, lower, upper) with shortest round-trip float formatting."""
    buf = io.StringIO()
    buf.write("x,lower,upper\n")
    for x, lo, hi in zip(pair.grid.points, pair.lower.values, pair.upper.values):
        buf.write(f"{float(x)!r},{float(lo)!r},{float(hi)!r}\n")
    return buf.getvalue()


def bounds_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]]
    arr = np.asarray(rows)
    return arr[:, 0], arr[:, 1], arr[:, 2]
