"""Exchangeable bootstrap with deterministic per-replicate RNG streams.

Replicate r of sample s always uses the counter-based stream keyed by
(seed, s, r), so results are bit-identical regardless of execution order
or worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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


@dataclass(frozen=True)
class BootstrapConfig:
    R: int = 199
    scheme: str = "multinomial"
    seed: int = 0
    alpha: float = 0.05
    threads: int = 1

    def __post_init__(self):
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

    @property
    def R(self) -> int:
        return self.replicates.size


def _mix(z: int) -> int:
    """splitmix64 finalizer; spreads structured ids over 64 bits."""
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(seed: int, *ids: int) -> int:
    """64-bit seed keyed by (seed, *ids) through a splitmix64 chain, so that,
    unlike an arithmetic key, structured id tuples do not collide."""
    k = _mix(seed & 0xFFFFFFFFFFFFFFFF)
    for i in ids:
        k = _mix(k ^ _mix(i & 0xFFFFFFFFFFFFFFFF))
    return k


def _key(k: int) -> np.ndarray:
    """The two Philox key words of the stream with 64-bit seed k: (k, _mix(k)),
    except that when exactly one word is at least 2**63 both are rounded to
    float64 first (53 significant bits; a word rounding to 2**64 wraps to 0).
    That is what numpy's type inference made of the tuple of Python ints
    the streams were keyed with, and every recorded replicate depends on it."""
    words = (k, _mix(k))
    if (words[0] >> 63) + (words[1] >> 63) == 1:
        words = tuple(int(float(w)) % 2**64 for w in words)
    return np.array(words, dtype=np.uint64)


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, *ids)."""
    return np.random.Generator(np.random.Philox(key=_key(derive_seed(seed, *ids))))


def draw_weights(n: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ValueError("cannot draw weights for an empty sample")
    if scheme == "multinomial":
        return rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
    if scheme == "bayesian":
        e = rng.standard_exponential(n)
        return e * (n / e.sum())
    raise ValueError(f"unknown weight scheme {scheme!r}")


def critical_value(replicates: np.ndarray, alpha: float) -> float:
    """Order statistic ceil((1 - alpha) * (R + 1)) of the replicates,
    1-based and capped at R."""
    reps = np.sort(np.asarray(replicates, dtype=float))
    if reps.size == 0:
        raise ValueError("no bootstrap replicates")
    k = int(np.ceil((1.0 - alpha) * (reps.size + 1)))
    k = min(max(k, 1), reps.size)
    return float(reps[k - 1])


def bootstrap_statistic_distribution(problem, config: BootstrapConfig) -> BootstrapRun:
    """Evaluate the replicate statistic over R independent weight draws.

    ``problem`` exposes ``sample_sizes`` (one entry per underlying sample)
    and ``replicate_stat(weights_list) -> float`` evaluating the derivative
    estimator at the bootstrap direction built from those weights.
    """
    sizes = list(problem.sample_sizes)

    def one(r: int) -> float:
        ws = [
            draw_weights(n, config.scheme, stream(config.seed, s, r))
            for s, n in enumerate(sizes)
        ]
        return problem.replicate_stat(ws)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            reps = np.fromiter(pool.map(one, range(config.R)), dtype=float, count=config.R)
    else:
        reps = np.fromiter((one(r) for r in range(config.R)), dtype=float, count=config.R)
    return BootstrapRun(
        replicates=reps,
        critical_value=critical_value(reps, config.alpha),
        config=config,
    )
