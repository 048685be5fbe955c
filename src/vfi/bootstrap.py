"""Exchangeable bootstrap with deterministic per-replicate RNG streams.

Replicate r of sample s always uses the counter-based stream keyed by
(seed, s, r), so results are bit-identical regardless of the block size.
Replicates are drawn and evaluated in blocks of consecutive r; a run keeps
one Philox generator and resets it to the start of every stream it draws.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BootstrapConfig",
    "BootstrapRun",
    "derive_seed",
    "stream",
    "draw_weights",
    "critical_value",
    "bootstrap_statistic_distribution",
]

SCHEMES = ("multinomial", "bayesian")
BLOCK_CELLS = 2**15  # cap on the cells of one block's work arrays


def _require_ints(config, *names) -> None:
    """A TypeError naming the first field in ``names`` that is not an integer."""
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class BootstrapConfig:
    R: int = 199
    scheme: str = "multinomial"
    seed: int = 0
    alpha: float = 0.05
    threads: int = 1  # for the candidate pass of each structure; replicates run serially

    def __post_init__(self):
        _require_ints(self, "R", "seed", "threads")
        if self.R < 1:
            raise ValueError("replicate count must be at least 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown weight scheme {self.scheme!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.threads < 1:
            raise ValueError("thread count must be at least 1")


@dataclass(frozen=True)
class BootstrapRun:
    replicates: np.ndarray
    critical_value: float
    config: BootstrapConfig


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of every word of a 1-D uint64 array, in wrapping
    uint64 arithmetic; spreads structured ids over 64 bits.  Arrays only: on
    a numpy scalar the wrap raises an overflow warning."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _as_uint64(i) -> np.ndarray:
    """An id as a 1-D uint64 array: an int mod 2**64, or an array's entries."""
    if np.ndim(i):
        return np.asarray(i).astype(np.uint64)
    return np.array([operator.index(i) % 2**64], dtype=np.uint64)


def derive_seed(seed: int, *ids):
    """64-bit seed keyed by (seed, *ids) through a splitmix64 chain, so that,
    unlike an arithmetic key, structured id tuples do not collide.  Int ids
    give an int; an array of ids (replicate indices r) as the last id gives
    the uint64 array of the seeds (seed, *ids[:-1], r)."""
    k = _mix(_as_uint64(seed))
    for i in ids:
        k = _mix(k ^ _mix(_as_uint64(i)))
    return k if ids and np.ndim(ids[-1]) else int(k[0])


def _keys(k: np.ndarray) -> np.ndarray:
    """The two Philox key words (k, _mix(k)) of the stream with 64-bit seed
    k, for every seed of the uint64 array k, as a (k.size, 2) array; except
    that when exactly one word is at least 2**63 both are rounded to float64
    first (53 significant bits; a word rounding to 2**64 wraps to 0).  That
    is what numpy's type inference made of the tuple of Python ints the
    streams were keyed with, and every recorded replicate depends on it."""
    words = np.stack((k, _mix(k)), axis=1)
    mixed = (words >> np.uint64(63)).sum(axis=1) == 1
    if mixed.any():
        rounded = words[mixed].astype(np.float64)
        rounded[rounded == 2.0**64] = 0.0
        words[mixed] = rounded.astype(np.uint64)
    return words


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, *ids)."""
    k = np.array([derive_seed(seed, *ids)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=_keys(k)[0]))


_ZEROS = np.zeros(4, dtype=np.uint64)


def _reset_stream(gen: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """The Philox generator ``gen``, reset to the start of the stream with
    Philox key ``key``: the state of a fresh ``Philox(key=key)`` (counter
    0, empty buffer, no spare 32-bit word), without building one."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def draw_weights(n: int, scheme: str, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """One weight vector of length n, written to ``out`` when given."""
    if n < 1:
        raise ValueError("cannot draw weights for an empty sample")
    if out is None:
        out = np.empty(n)
    if scheme == "multinomial":
        out[...] = rng.multinomial(n, np.full(n, 1.0 / n))
    elif scheme == "bayesian":
        rng.standard_exponential(n, out=out)
        out *= n / out.sum()
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    return out


def critical_value(replicates: np.ndarray, alpha: float) -> float:
    """Order statistic ceil((1 - alpha) * (R + 1)) of the replicates,
    1-based and capped at R."""
    reps = np.sort(np.asarray(replicates, dtype=float))
    if reps.size == 0:
        raise ValueError("no bootstrap replicates")
    k = int(np.ceil((1.0 - alpha) * (reps.size + 1)))
    k = min(max(k, 1), reps.size)
    return float(reps[k - 1])


def rows_per_block(cells: int, sizes) -> int:
    """Replicates per block for a problem whose replicate holds ``cells``
    cells in its largest work array and draws samples of ``sizes``: as
    many as fit in ``BLOCK_CELLS`` cells per work array, at least one."""
    return max(1, BLOCK_CELLS // max(cells, *sizes))


def bootstrap_statistic_distribution(problem, config: BootstrapConfig) -> BootstrapRun:
    """Evaluate the replicate statistic over R independent weight draws.

    ``problem`` exposes ``sample_sizes`` (one entry per underlying sample),
    ``block_rows`` (the replicates it evaluates per call) and
    ``replicate_stat(weights)``: given one (B, n_s) block of weights per
    sample, row b of each drawn for the same replicate, it returns the B
    replicate statistics.

    Replicates run in blocks of ``block_rows`` consecutive r, in order, on
    the calling thread.  Every row is drawn from its own stream, so the
    replicates do not depend on the block size.
    """
    sizes = list(problem.sample_sizes)
    R, rows = config.R, problem.block_rows
    r = np.arange(R, dtype=np.uint64)
    keys = [_keys(derive_seed(config.seed, s, r)) for s in range(len(sizes))]
    gen = np.random.Generator(np.random.Philox(key=keys[0][0]))

    def block(start: int) -> np.ndarray:
        rs = range(start, min(start + rows, R))
        ws = []
        for n, key in zip(sizes, keys):
            w = np.empty((len(rs), n))
            for row, r in zip(w, rs):
                draw_weights(n, config.scheme, _reset_stream(gen, key[r]), out=row)
            ws.append(w)
        return problem.replicate_stat(ws)

    reps = np.concatenate([block(start) for start in range(0, R, rows)])
    return BootstrapRun(
        replicates=reps,
        critical_value=critical_value(reps, config.alpha),
        config=config,
    )
