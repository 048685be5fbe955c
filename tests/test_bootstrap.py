import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vfi.bootstrap import (
    BootstrapConfig,
    _key,
    _mix,
    bootstrap_statistic_distribution,
    critical_value,
    derive_seed,
    draw_weights,
    stream,
)
from vfi.empirical import Sample, ecdf_build, weighted_ecdf


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(R=0)
        with pytest.raises(ValueError):
            BootstrapConfig(scheme="jackknife")
        with pytest.raises(ValueError):
            BootstrapConfig(alpha=1.0)


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
        assert (k >> 63) + (_mix(k) >> 63) == {"int64": 0, "uint64": 2, "float64": 1}[case]
        assert _key(k).dtype == np.uint64
        assert [int(w) for w in _key(k)] == list(words)
        key = stream(0, 0, r).bit_generator.state["state"]["key"]
        assert [int(w) for w in key] == list(words)

    def test_word_rounding_to_two_to_the_64_wraps_to_zero(self):
        k = 2**64 - 5  # at least 2**63, and _mix(k) is below it
        assert _mix(k) < 2**63
        assert [int(w) for w in _key(k)] == [0, 1635312068028924416]


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

    def replicate_stat(self, ws):
        return float(sum(np.abs(w - 1).sum() for w in ws))


class TestDistribution:
    def test_single_replicate_is_critical_value(self):
        run = bootstrap_statistic_distribution(_SumProblem(), BootstrapConfig(R=1, seed=3))
        assert run.R == 1
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
