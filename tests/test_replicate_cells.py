"""Bootstrap replicates evaluated only on the per-x eps-argmax cells must
equal, bit for bit, a dense reference that evaluates the direction on every
candidate of the Makarov structure and masks the rest away; and the cells
the streamed pass keeps must be the dense objective's."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vfi.bootstrap import BootstrapConfig, bootstrap_statistic_distribution
from vfi.derivative import Tuning, eps_argmax
from vfi.empirical import Sample, _cum_from_weights, ecdf_build
from vfi.inference import dominance_test, uniform_band
from vfi import bootstrap, inference, makarov
from vfi.makarov import MIN_SLACK, compute_bounds, default_grid
from vfi.valuemap import Grid

from dense_reference import DenseStructure, assert_streamed_matches_dense


def _dense_row_sup(h, per_x):
    return np.where(per_x, h, -np.inf).max(axis=1)


class _DenseBand:
    """Sup-statistic replicates from h on all K x (M + 1) candidates."""

    def __init__(self, which, X1, X0, grid, tuning):
        self.sample_sizes = [len(X1), len(X0)]
        self.s = DenseStructure(ecdf_build(X1), ecdf_build(X0), grid)
        self.per_x = eps_argmax(self.s.objective(which), tuning).per_x
        self.scale = (1.0 if which == "lower" else -1.0) * tuning.r_n
        self.base = self.s.base_values()
        self.starts = (X1.block_starts, X0.block_starts)
        self.block_rows = 1

    def replicate_stat(self, ws):
        return np.array([self._one(row) for row in zip(*ws)])

    def _one(self, ws):
        d1, d0 = (_cum_from_weights(w, st) for w, st in zip(ws, self.starts))
        h = self.scale * (self.s.evaluate(d1, d0) - self.base)
        row = _dense_row_sup(h, self.per_x)
        return float(max(row.max(), -row.min()))


class _DenseDominance:
    """One-sided L2 dominance replicates from h on all candidates."""

    def __init__(self, X0, XA, XB, grid, tuning, orientation):
        F0, FA, FB = ecdf_build(X0), ecdf_build(XA), ecdf_build(XB)
        self.sample_sizes = [len(X0), len(XA), len(XB)]
        A, B = compute_bounds(XA, X0, grid=grid), compute_bounds(XB, X0, grid=grid)
        if orientation == "necessary":
            (oA, oB), self.sign = ("lower", "upper"), 1.0
            gap = A.lower.values - B.upper.values
        else:
            (oA, oB), self.sign = ("upper", "lower"), -1.0
            gap = A.upper.values - B.lower.values
        self.contact = np.abs(gap) <= tuning.b_n
        if not self.contact.any():
            self.contact = np.ones(len(grid), dtype=bool)
        self.parts = []
        for F, o in ((FA, oA), (FB, oB)):
            s = DenseStructure(F, F0, grid)
            per_x = eps_argmax(s.objective(o), tuning).per_x
            scale = (1.0 if o == "lower" else -1.0) * tuning.r_n
            self.parts.append((s, per_x, scale, s.base_values()))
        self.w = grid.rect_weights()
        self.starts = [X.block_starts for X in (X0, XA, XB)]
        self.block_rows = 1

    def replicate_stat(self, ws):
        return np.array([self._one(row) for row in zip(*ws)])

    def _one(self, ws):
        d0, dA, dB = (_cum_from_weights(w, st) for w, st in zip(ws, self.starts))
        rows = [
            _dense_row_sup(scale * (s.evaluate(d, d0) - base), per_x)
            for d, (s, per_x, scale, base) in zip((dA, dB), self.parts)
        ]
        integrand = np.maximum(self.sign * (rows[0] + rows[1]), 0.0)
        c = self.contact
        return float(np.sqrt(np.sum(integrand[c] ** 2 * self.w[c])))


def _sample(rng, loc, n, decimals=None):
    v = rng.normal(loc, 1.0, n)
    return Sample(v if decimals is None else np.round(v, decimals))


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("scheme", ["multinomial", "bayesian"])
@pytest.mark.parametrize("which", ["lower", "upper"])
def test_band_replicates_match_dense(which, scheme, ties):
    rng = np.random.default_rng([41, ties, scheme == "bayesian", which == "upper"])
    decimals = 1 if ties else None
    X1, X0 = _sample(rng, 0.4, 37, decimals), _sample(rng, 0.0, 29, decimals)
    grid = default_grid(X0, (X1,), 0.05)
    tuning = Tuning(n=len(X1) + len(X0))
    cfg = BootstrapConfig(R=29, scheme=scheme, seed=int(rng.integers(1000)))
    band = uniform_band(which, X1, X0, config=cfg, grid=grid, tuning=tuning)
    dense = bootstrap_statistic_distribution(_DenseBand(which, X1, X0, grid, tuning), cfg)
    assert_array_equal(band.run.replicates, dense.replicates)


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("scheme", ["multinomial", "bayesian"])
@pytest.mark.parametrize("orientation", ["necessary", "sufficient"])
def test_dominance_replicates_match_dense(orientation, scheme, ties):
    rng = np.random.default_rng([42, ties, scheme == "bayesian", orientation == "sufficient"])
    decimals = 1 if ties else None
    X0 = _sample(rng, 0.0, 31, decimals)
    XA = _sample(rng, 0.3, 27, decimals)
    XB = _sample(rng, 0.0, 34, decimals)
    grid = default_grid(X0, (XA,), 0.05)
    tuning = Tuning(n=len(X0) + len(XA) + len(XB))
    cfg = BootstrapConfig(R=29, scheme=scheme, seed=int(rng.integers(1000)))
    res = dominance_test(X0, XA, XB, config=cfg, grid=grid, tuning=tuning,
                         orientation=orientation)
    dense = _DenseDominance(X0, XA, XB, grid, tuning, orientation)
    assert not dense.contact.all()
    assert_array_equal(res.run.replicates,
                       bootstrap_statistic_distribution(dense, cfg).replicates)
    assert res.run.replicates.max() > 0


@pytest.mark.parametrize("orientation", ["necessary", "sufficient"])
def test_dominance_empty_contact_falls_back(orientation):
    # a grid strictly inside the range, where the bound gap is never within
    # a tiny b_n of zero, so the contact set is empty and the whole grid is used
    rng = np.random.default_rng(43)
    X0, XA, XB = _sample(rng, 0.0, 30), _sample(rng, 1.5, 30), _sample(rng, 0.0, 30)
    grid = Grid(points=np.linspace(-0.5, 1.5, 21), step=0.1)
    tuning = Tuning(n=90, b_const=1e-9)
    A, B = compute_bounds(XA, X0, grid=grid), compute_bounds(XB, X0, grid=grid)
    gaps = (A.lower.values - B.upper.values, A.upper.values - B.lower.values)
    assert all(np.all(np.abs(g) > tuning.b_n) for g in gaps)
    cfg = BootstrapConfig(R=29, seed=43)
    res = dominance_test(X0, XA, XB, config=cfg, grid=grid, tuning=tuning,
                         orientation=orientation)
    dense = _DenseDominance(X0, XA, XB, grid, tuning, orientation)
    assert dense.contact.all()
    assert_array_equal(res.run.replicates,
                       bootstrap_statistic_distribution(dense, cfg).replicates)
    assert res.run.replicates.max() > 0


def _in_blocks(monkeypatch, rows, seen):
    """Run the procedures' bootstraps in blocks of ``rows`` replicates (all
    R at once for None), appending each block's size to ``seen``."""
    real = bootstrap.bootstrap_statistic_distribution

    def run(problem, config):
        problem.block_rows = rows or config.R
        stat = problem.replicate_stat

        def counted(ws):
            seen.append(len(ws[0]))
            return stat(ws)

        problem.replicate_stat = counted
        return real(problem, config)

    monkeypatch.setattr(inference, "bootstrap_statistic_distribution", run)


def _on_pool(monkeypatch, grid, treated, control):
    """Split the candidate pass of each (treated, control) pair into chunks
    of at most 3 grid rows, so that a thread count above 1 runs it on a
    pool, and record the threads that build index pairs in the returned
    set."""
    F0 = ecdf_build(control)
    # the candidate pass holds M + 1 cells a grid row
    widths = [ecdf_build(X).jump_points.size + F0.jump_points.size + 1 for X in treated]
    monkeypatch.setattr(makarov, "_CHUNK", 3 * min(widths))
    assert all(len(list(makarov._chunks(grid, w))) > 3 for w in widths)
    ran_on, index_pairs = set(), makarov._index_pairs

    def recorded(*args):
        ran_on.add(threading.get_ident())
        return index_pairs(*args)

    monkeypatch.setattr(makarov, "_index_pairs", recorded)
    return ran_on


def _block_cases(R):
    for rows in (1, 3, 7, None):
        for threads in (1, 2, 3):
            sizes = [min(rows or R, R - start) for start in range(0, R, rows or R)]
            yield rows, threads, sizes


@pytest.mark.parametrize("scheme", ["multinomial", "bayesian"])
def test_band_replicates_do_not_depend_on_blocks_or_threads(scheme, monkeypatch):
    rng = np.random.default_rng([45, scheme == "bayesian"])
    X1, X0 = _sample(rng, 0.4, 37, 1), _sample(rng, 0.0, 29, 1)
    grid = default_grid(X0, (X1,), 0.05)
    tuning = Tuning(n=len(X1) + len(X0))
    cfg = BootstrapConfig(R=29, scheme=scheme, seed=int(rng.integers(1000)))
    dense = [bootstrap_statistic_distribution(_DenseBand(which, X1, X0, grid, tuning), cfg)
             for which in ("lower", "upper")]
    ran_on = _on_pool(monkeypatch, grid, (X1,), X0)
    for rows, threads, sizes in _block_cases(cfg.R):
        with monkeypatch.context() as m:
            seen = []
            _in_blocks(m, rows, seen)
            ran_on.clear()
            bands = inference._bands(("lower", "upper"), X1, X0,
                                     replace(cfg, threads=threads), grid, None, tuning)
            assert sorted(seen) == sorted(sizes * 2), (rows, threads)
            assert (threading.get_ident() not in ran_on) == (threads > 1), threads
            for band, want in zip(bands, dense):
                assert_array_equal(band.run.replicates, want.replicates,
                                   err_msg=f"rows={rows} threads={threads}")


@pytest.mark.parametrize("scheme", ["multinomial", "bayesian"])
@pytest.mark.parametrize("orientation", ["necessary", "sufficient"])
def test_dominance_replicates_do_not_depend_on_blocks_or_threads(orientation, scheme,
                                                                 monkeypatch):
    rng = np.random.default_rng([46, scheme == "bayesian", orientation == "sufficient"])
    X0, XA, XB = _sample(rng, 0.0, 31, 1), _sample(rng, 0.3, 27, 1), _sample(rng, 0.0, 34, 1)
    grid = default_grid(X0, (XA,), 0.05)
    tuning = Tuning(n=len(X0) + len(XA) + len(XB))
    cfg = BootstrapConfig(R=29, scheme=scheme, seed=int(rng.integers(1000)))
    dense = _DenseDominance(X0, XA, XB, grid, tuning, orientation)
    want = bootstrap_statistic_distribution(dense, cfg).replicates
    ran_on = _on_pool(monkeypatch, grid, (XA, XB), X0)
    for rows, threads, sizes in _block_cases(cfg.R):
        with monkeypatch.context() as m:
            seen = []
            _in_blocks(m, rows, seen)
            ran_on.clear()
            res = dominance_test(X0, XA, XB, config=replace(cfg, threads=threads), grid=grid,
                                 tuning=tuning, orientation=orientation)
            assert sorted(seen) == sorted(sizes), (rows, threads)
            assert (threading.get_ident() not in ran_on) == (threads > 1), threads
            assert_array_equal(res.run.replicates, want,
                               err_msg=f"rows={rows} threads={threads}")


@pytest.mark.parametrize("scheme", ["multinomial", "bayesian"])
def test_bound_bands_equal_two_uniform_bands(scheme):
    # both bands share one candidate pass and bound scan; each equals its band alone
    rng = np.random.default_rng([47, scheme == "bayesian"])
    X1, X0 = _sample(rng, 0.4, 41, 1), _sample(rng, 0.0, 33)
    cfg = BootstrapConfig(R=39, scheme=scheme, seed=int(rng.integers(1000)), alpha=0.1,
                          threads=2)
    both = inference._bands(("lower", "upper"), X1, X0, cfg, None, 0.05, None)
    for band, which in zip(both, ("lower", "upper")):
        alone = uniform_band(which, X1, X0, config=cfg, grid=band.grid)
        assert_array_equal(band.run.replicates, alone.run.replicates)
        assert band.run.critical_value == alone.run.critical_value
        assert band.run.config == alone.run.config
        for field in ("lo", "hi", "center"):
            assert_array_equal(getattr(band, field), getattr(alone, field))
        assert band.c_star == alone.c_star


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("ties", [False, True])
def test_streamed_cells_match_dense(ties, rows, monkeypatch):
    # chunks of 1, 3 and 7 grid rows, the last one short; both orientations
    rng = np.random.default_rng([44, ties, rows])
    decimals = 1 if ties else None
    X1, X0 = _sample(rng, 0.4, 23, decimals), _sample(rng, 0.0, 19, decimals)
    F1, F0 = ecdf_build(X1), ecdf_build(X0)
    grid = default_grid(X0, (X1,), 0.07)
    assert rows == 1 or len(grid) % rows, "the last chunk should be short"
    width = F1.jump_points.size + F0.jump_points.size + 1  # M + 1 cells a grid row
    monkeypatch.setattr(makarov, "_CHUNK", rows * width)
    for a_n in (MIN_SLACK, Tuning(n=len(X1) + len(X0)).a_n, 0.3):
        assert_streamed_matches_dense(F1, F0, grid, a_n)
        assert_streamed_matches_dense(F1, F0, grid, a_n, ("upper",))
