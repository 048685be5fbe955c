import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from vfi.bootstrap import (
    BLOCK_CELLS,
    SCHEMES,
    BootstrapConfig,
    _keys,
    _reset_stream,
    bootstrap_statistic_distribution,
    critical_value,
    derive_seed,
    draw_weights,
    rows_per_block,
    stream,
)
from vfi.empirical import Sample, ecdf_build, weighted_ecdf

# A pure-Python reference for the package's seed chain and key rule, in
# Python ints, one stream at a time.


def ref_mix(z: int) -> int:
    """splitmix64 finalizer."""
    z = (z + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def ref_seed(seed: int, *ids: int) -> int:
    """The splitmix64 chain over (seed, *ids), each taken mod 2**64."""
    k = ref_mix(seed % 2**64)
    for i in ids:
        k = ref_mix(k ^ ref_mix(i % 2**64))
    return k


def ref_key(k: int) -> list[int]:
    """Philox key words (k, mix(k)); both rounded to float64 (a word that
    rounds to 2**64 wraps to 0) when exactly one is at least 2**63."""
    words = [k, ref_mix(k)]
    if (words[0] >> 63) + (words[1] >> 63) == 1:
        words = [int(float(w)) % 2**64 for w in words]
    return words


def key_words(k: int) -> list[int]:
    """The package's Philox key words of the stream with 64-bit seed k."""
    key = _keys(np.array([k], dtype=np.uint64))[0]
    assert key.dtype == np.uint64
    return [int(w) for w in key]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(R=0)
        with pytest.raises(ValueError):
            BootstrapConfig(scheme="jackknife")
        with pytest.raises(ValueError):
            BootstrapConfig(alpha=1.0)

    @pytest.mark.parametrize("field", ["R", "seed", "threads"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "3", None])
    def test_integer_fields(self, field, value):
        # R=2.5 and seed=1.5 used to fail only when the run drew weights,
        # and threads=1.5 reached the thread pool
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            BootstrapConfig(**{field: value})

    def test_integer_like_values_accepted(self):
        config = BootstrapConfig(R=np.int64(9), seed=np.uint64(2**63), threads=np.int32(2))
        assert (config.R, config.seed, config.threads) == (9, 2**63, 2)


class TestStreams:
    def test_deterministic(self):
        a = stream(7, 1, 3).standard_normal(5)
        b = stream(7, 1, 3).standard_normal(5)
        assert_array_equal(a, b)

    def test_distinct_ids(self):
        a = stream(7, 1, 3).standard_normal(5)
        b = stream(7, 3, 1).standard_normal(5)
        c = stream(8, 1, 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derived_seeds_do_not_collide(self):
        # the arithmetic key 7001 * 100_000 + i * 10_000 + m gave
        # (i=0, m=10_000) and (i=1, m=0) the same seed
        assert derive_seed(0, 7001, 0, 10_000) != derive_seed(0, 7001, 1, 0)
        ids = [(e, i, m) for e in (7001, 7002) for i in range(12)
               for m in (0, 1, 9_999, 10_000, 10_001)]
        assert len({derive_seed(3, *key) for key in ids}) == len(ids)


class TestStreamKeys:
    """Philox keys of the streams (seed 0, sample 0, replicate r), pinned
    word for word: every recorded replicate depends on them."""

    @pytest.mark.parametrize("r, words, case", [
        # both words below 2**63: kept as they are (numpy used to infer int64)
        (3, (0x794DFD8909773E4F, 0x36725C79D67ED975), "int64"),
        # both words at least 2**63: kept as they are (inferred uint64)
        (0, (0xE220A8397B1DCDAF, 0xA706DD2F4D197E6F), "uint64"),
        # exactly one word at least 2**63: both rounded to 53 significant
        # bits (inferred float64); 0xd300120a5ea35cac and 0x43748baab21b16
        (1, (0xD300120A5EA36000, 0x43748BAAB21B18), "float64"),
    ])
    def test_pinned_key_words(self, r, words, case):
        k = derive_seed(0, 0, r)
        assert (k >> 63) + (ref_mix(k) >> 63) == {"int64": 0, "uint64": 2, "float64": 1}[case]
        assert key_words(k) == list(words)
        key = stream(0, 0, r).bit_generator.state["state"]["key"]
        assert [int(w) for w in key] == list(words)

    def test_word_rounding_to_two_to_the_64_wraps_to_zero(self):
        k = 2**64 - 5  # at least 2**63, and its mix is below it
        assert ref_mix(k) < 2**63
        assert key_words(k) == [0, 1635312068028924416]


# 64-bit words at the edges of the key rule: around 2**63, the top of the
# range, a word whose float64 rounding wraps to 0, and exact halfway cases
# between two float64 neighbours (ties round to even)
EDGE_WORDS = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64 - 5,
              2**63 + 2**10, 2**63 + 3 * 2**10, 2**64 - 2**10, 2**64 - 2**10 - 1]


class TestVectorisedStreams:
    """The package's seed chain and keys, for one stream and for all R
    replicates of a sample at once, and this thread's reset generator,
    against the pure-Python reference and one-stream ``stream``."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(-2**70, 2**70) | st.sampled_from(EDGE_WORDS + [-1, -2**63]),
           s=st.integers(0, 4) | st.sampled_from([-1, -2**66, 2**66]), R=st.integers(1, 40))
    @example(seed=-1, s=0, R=5)
    @example(seed=2**63 - 1, s=1, R=5)
    @example(seed=2**63 + 1, s=2, R=5)
    @example(seed=2**64 - 1, s=0, R=5)
    def test_seeds_and_keys_match_the_scalar_chain(self, seed, s, R):
        want = [ref_seed(seed, s, r) for r in range(R)]
        assert [derive_seed(seed, s, r) for r in range(R)] == want
        assert derive_seed(seed, s) == ref_seed(seed, s)
        seeds = derive_seed(seed, s, np.arange(R, dtype=np.uint64))
        assert seeds.dtype == np.uint64 and seeds.shape == (R,)
        assert [int(k) for k in seeds] == want
        keys = _keys(seeds)
        assert keys.dtype == np.uint64 and keys.shape == (R, 2)
        assert [[int(w) for w in key] for key in keys] == [ref_key(k) for k in want]

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_WORDS))
    @example(k=2**64 - 5)  # the float-rounding wrap case of TestStreamKeys
    def test_keys_match_scalar_key(self, k):
        assert key_words(k) == ref_key(k)

    def test_edge_words_reach_every_key_case(self):
        # no word, one word or both words of the key at least 2**63
        assert {(k >> 63) + (ref_mix(k) >> 63) for k in EDGE_WORDS} == {0, 1, 2}

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reset_generator_matches_a_fresh_stream(self, scheme):
        keys = _keys(derive_seed(9, 1, np.arange(6, dtype=np.uint64)))
        gen = stream(0)
        for r, key in enumerate(keys):
            _reset_stream(gen, keys[r - 1])
            gen.random(1)  # takes one word of a four-word Philox block
            gen.integers(0, 2**32, 1, dtype=np.uint32)  # keeps a spare 32-bit half
            state = gen.bit_generator.state
            assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
            got = draw_weights(33, scheme, _reset_stream(gen, key), out=np.empty(33))
            assert_array_equal(got, draw_weights(33, scheme, stream(9, 1, r)))
            assert _reset_stream(gen, key).bit_generator.state["state"]["counter"].tolist() == [0] * 4


class TestWeights:
    def test_multinomial_sums_to_n(self):
        for n in (1, 5, 100):
            w = draw_weights(n, "multinomial", stream(0, n))
            assert w.sum() == n
            assert np.all(w >= 0) and np.all(w == np.round(w))

    def test_bayesian_normalized(self):
        w = draw_weights(50, "bayesian", stream(1, 50))
        assert w.sum() == pytest.approx(50, abs=1e-9)
        assert np.all(w > 0)

    def test_same_stream_same_weights(self):
        a = draw_weights(30, "multinomial", stream(9, 2, 4))
        b = draw_weights(30, "multinomial", stream(9, 2, 4))
        assert_array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            draw_weights(0, "multinomial", stream(0))


class TestResample:
    def test_identity_weights(self):
        s = Sample(np.array([3.0, 1.0, 1.0, 5.0]))
        F = weighted_ecdf(s.values, np.ones(4))
        G = ecdf_build(s)
        assert_array_equal(F.jump_points, G.jump_points)
        assert_allclose(F.cum_probs, G.cum_probs)

    def test_degenerate_weights(self):
        s = Sample(np.array([3.0, 1.0, 5.0]))
        F = weighted_ecdf(s.values, np.array([0.0, 3.0, 0.0]))
        assert_array_equal(F.jump_points, [1.0])

    def test_mass_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = Sample(rng.normal(0, 1, 17))
            w = draw_weights(17, "bayesian", rng)
            F = weighted_ecdf(s.values, w)
            assert F.cum_probs[-1] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_ecdf(np.array([1.0]), np.ones(2))


class TestCriticalValue:
    def test_nineteen(self):
        assert critical_value(np.arange(1.0, 20.0), 0.05) == 19.0

    def test_four_ninety_nine(self):
        assert critical_value(np.arange(1.0, 500.0), 0.05) == 475.0

    def test_all_equal(self):
        assert critical_value(np.full(37, 2.5), 0.05) == 2.5

    def test_single_replicate(self):
        assert critical_value(np.array([1.3]), 0.05) == 1.3

    def test_empty(self):
        with pytest.raises(ValueError):
            critical_value(np.array([]), 0.05)


class _SumProblem:
    """Toy problem: statistic is the summed absolute deviation of the
    weights from 1, so it is zero iff every weight is one."""

    sample_sizes = [12, 8]
    block_rows = 7

    def replicate_stat(self, ws):
        return sum(np.abs(w - 1).sum(axis=1) for w in ws)


class TestDistribution:
    def test_rows_per_block_fill_the_cap(self):
        assert rows_per_block(100, [10, 20]) == BLOCK_CELLS // 100
        assert rows_per_block(10, [300, 20]) == BLOCK_CELLS // 300
        assert rows_per_block(BLOCK_CELLS + 1, [5]) == 1

    def test_single_replicate_is_critical_value(self):
        run = bootstrap_statistic_distribution(_SumProblem(), BootstrapConfig(R=1, seed=3))
        assert run.replicates.size == 1
        assert run.critical_value == run.replicates[0]

    def test_reproducible(self):
        cfg = BootstrapConfig(R=25, seed=11)
        a = bootstrap_statistic_distribution(_SumProblem(), cfg)
        b = bootstrap_statistic_distribution(_SumProblem(), cfg)
        assert_array_equal(a.replicates, b.replicates)

    def test_thread_count_irrelevant(self):
        a = bootstrap_statistic_distribution(_SumProblem(), BootstrapConfig(R=25, seed=11, threads=1))
        b = bootstrap_statistic_distribution(_SumProblem(), BootstrapConfig(R=25, seed=11, threads=4))
        assert_array_equal(a.replicates, b.replicates)

    def test_scheme_changes_draws(self):
        a = bootstrap_statistic_distribution(_SumProblem(), BootstrapConfig(R=10, seed=2))
        b = bootstrap_statistic_distribution(
            _SumProblem(), BootstrapConfig(R=10, seed=2, scheme="bayesian")
        )
        assert not np.array_equal(a.replicates, b.replicates)
