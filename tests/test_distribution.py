import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks import distribution
from zipfks.distribution import (
    MIN_UNBOUNDED_GAMMA,
    UNBOUNDED_SAMPLE_LIMIT,
    RandomStream,
    Sample,
    Support,
    ZipfModel,
    finite_cdf,
    normalization,
    sample,
)
from zipfks.series import zeta_cdf

from oracles import mp_finite_norm, mp_zeta


class FixedStream:
    """Stand-in stream replaying preset uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def uniforms(self, count):
        out, self.values = self.values[:count], self.values[count:]
        return np.asarray(out, dtype=np.float64)


class TestSupport:
    def test_finite_bounds(self):
        assert Support.finite(2).k == 2
        assert Support.finite(32766).k == 32766
        for bad in (1, 0, -5, 32767, 2.5):
            with pytest.raises(ValueError):
                Support.finite(bad)

    def test_unbounded(self):
        support = Support.unbounded()
        assert support.k is None
        assert not support.is_finite
        assert str(support) == "inf"

    def test_contains(self):
        assert Support.finite(20).contains(np.array([1, 20]))
        assert not Support.finite(20).contains(np.array([1, 21]))
        assert Support.unbounded().contains(np.array([1, 10**9]))
        assert not Support.unbounded().contains(np.array([0, 5]))


class TestNormalization:
    def test_two_point_harmonic(self):
        assert normalization(1.0, Support.finite(2)) == pytest.approx(1.5, abs=1e-12)

    def test_basel_series(self):
        assert normalization(2.0, Support.unbounded()) == pytest.approx(
            math.pi**2 / 6.0, abs=1e-9
        )

    def test_small_exponent_truncated_sum(self):
        # independent oracle: 50-digit direct summation
        expected = float(mp_finite_norm(0.25, 20))
        assert normalization(0.25, Support.finite(20)) == pytest.approx(expected, rel=1e-12)

    def test_negative_exponent_is_admitted_for_finite_support(self):
        # re-fits of short-tailed samples land here; the finite sum is exact
        expected = float(mp_finite_norm(-0.75, 20))
        assert normalization(-0.75, Support.finite(20)) == pytest.approx(expected, rel=1e-12)

    def test_unbounded_needs_large_enough_gamma(self):
        with pytest.raises(ValueError):
            normalization(1.0, Support.unbounded())
        with pytest.raises(ValueError):
            normalization(MIN_UNBOUNDED_GAMMA - 0.01, Support.unbounded())
        with pytest.raises(ValueError):
            normalization(float("nan"), Support.finite(10))


def finite_cdf_of(gamma, k):
    """F(1..k) of the model over 1..k with this exponent."""
    return finite_cdf(np.array([gamma]), k, k)[0]


def zeta_cdf_at(gamma, values):
    """F(v) at each value v of the unbounded model with this exponent."""
    values = np.asarray(values, dtype=np.int64)
    return zeta_cdf(np.array([gamma]), np.zeros(values.size, dtype=np.int64), values)[1]


class TestPmfCdf:
    def test_two_point_values(self):
        assert 1.0 / normalization(1.0, Support.finite(2)) == pytest.approx(2.0 / 3.0, abs=1e-12)
        first, second = finite_cdf_of(1.0, 2)
        assert first == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert second == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_first_cell(self):
        assert 1.0 / normalization(2.0, Support.unbounded()) == pytest.approx(6.0 / math.pi**2, abs=1e-9)
        assert zeta_cdf_at(2.0, [1])[0] == pytest.approx(6.0 / math.pi**2, abs=1e-9)

    def test_pmf_against_direct_sum_oracle(self):
        expected = float(mpmath.power(5, -3.5) / mp_finite_norm(3.5, 100))
        got = math.exp(-3.5 * math.log(5)) / normalization(3.5, Support.finite(100))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_cdf_partial_sum_oracle(self):
        norm = float(mp_finite_norm(2.5, 50))
        partial = float(mp_finite_norm(2.5, 7))
        assert finite_cdf(np.array([2.5]), 50, 7)[0, -1] == pytest.approx(partial / norm, rel=1e-11)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("k", [20, 50, 100, 500, 1000])
    def test_pmf_sums_to_one(self, gamma, k):
        norm = normalization(gamma, Support.finite(k))
        total = float(np.exp(-gamma * np.log(np.arange(1.0, k + 1))).sum() / norm)
        assert abs(total - 1.0) < 1e-9
        assert finite_cdf_of(gamma, k)[-1] == pytest.approx(1.0, abs=1e-9)

    def test_cdf_monotone(self):
        assert (np.diff(finite_cdf_of(1.5, 60)) >= 0.0).all()

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 32766), gamma=st.floats(-20.0, 20.0), last=st.integers(1, 32766))
    def test_finite_cdf_monotone_and_reaching_one(self, k, gamma, last):
        # rounding must not make the cdf fall anywhere, not even between neighbours,
        # and a shorter row is the start of the whole one
        values = finite_cdf_of(gamma, k)
        assert (np.diff(values) >= 0.0).all()
        assert abs(values[-1] - 1.0) <= 1e-12
        last = min(last, k)
        assert finite_cdf(np.array([gamma]), k, last)[0].tolist() == values[:last].tolist()

    def test_unbounded_cdf_consistent_across_seam(self):
        # the dense-table and tail-sum representations must agree and stay monotone
        around_seam = zeta_cdf_at(1.25, np.arange(4090, 4105))
        assert (np.diff(around_seam) >= 0.0).all()
        direct = float(mp_finite_norm(1.25, 5000)) / normalization(1.25, Support.unbounded())
        assert zeta_cdf_at(1.25, [5000])[0] == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1.05, 1.25, 2.0, 6.0])
    def test_unbounded_cdf_across_head_seam(self, gamma):
        # running sums up to 32, normalized tails above: monotone across the
        # seam and equal to direct partial sums on both sides
        values = zeta_cdf_at(gamma, np.arange(1, 41))
        assert (np.diff(values) >= 0.0).all()
        for k in (31, 32, 33, 34, 40):
            want = float(mp_finite_norm(gamma, k) / mp_zeta(gamma))
            assert values[k - 1] == pytest.approx(want, abs=1e-15)

    def test_term_identity_exp_log_vs_power(self):
        ks = np.arange(1, 1001, dtype=np.float64)
        for gamma in (0.25, 1.0, 2.0, 4.0):
            via_logs = np.exp(-gamma * np.log(ks))
            direct = ks**-gamma
            np.testing.assert_allclose(via_logs, direct, rtol=1e-12)


class TestSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sample(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            Sample(np.array([1, 0]))
        with pytest.raises(ValueError):
            Sample(np.array([1.5]))
        assert Sample(np.array([3, 1])).n == 2

    @pytest.mark.parametrize("bad,message", [
        (np.inf, "finite"), (-np.inf, "finite"), (np.nan, "finite"),
        (1e19, "at most 9223372036854775807"), (2.0**63, "at most"),
        (-1e19, "positive integers"),
    ])
    def test_nonfinite_or_oversized_float_rejected_without_warning(self, bad, message):
        # the cast to int64 warned "invalid value encountered in cast" and
        # the wrapped value then failed as not positive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                Sample(np.array([1.0, bad]))

    def test_unsigned_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            Sample(np.array([1, 2**63], dtype=np.uint64))
        assert Sample(np.array([1.0, 2.0**62])).observations[1] == 2**62

    def test_accepts_lists(self):
        assert Sample([1, 2, 3]).observations.dtype == np.int64


def assert_distinct(obs, got):
    """got is np.unique's (values, counts) of obs: same values, counts and dtypes, read-only."""
    want = np.unique(np.asarray(obs), return_counts=True)
    for have, expect in zip(got, want):
        assert have.dtype == expect.dtype
        np.testing.assert_array_equal(have, expect)
        assert not have.flags.writeable


def both_branches(obs):
    """Sample(obs).distinct counted by np.unique, then by np.bincount (small values only)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distribution, "_BINCOUNT_SPREAD", 0)
        by_unique = Sample(obs).distinct
        patch.setattr(distribution, "_BINCOUNT_SPREAD", 1 << 20)
        by_bincount = Sample(obs).distinct
    return by_unique, by_bincount


class TestDistinct:
    """Sample.distinct: one np.bincount pass when the largest value is at most
    _BINCOUNT_SPREAD times n, else np.unique; both give np.unique's answer."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300), shift=st.integers(-3, 3), data=st.data())
    def test_branches_agree_at_below_and_above_the_switch(self, n, shift, data):
        top = max(1, distribution._BINCOUNT_SPREAD * n + shift)
        rest = data.draw(st.lists(st.integers(1, top), min_size=n - 1, max_size=n - 1))
        obs = data.draw(st.permutations(rest + [top]))
        assert_distinct(obs, Sample(obs).distinct)
        for got in both_branches(obs):
            assert_distinct(obs, got)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("value", [1, 2, 20, 32766])
    def test_all_observations_at_one_value(self, n, value):
        # all ones, and all at K for the supports the tests use
        obs = [value] * n
        for got in (Sample(obs).distinct, *both_branches(obs)):
            assert_distinct(obs, got)
            assert got[0].tolist() == [value] and got[1].tolist() == [n]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(10**10, 10**11), min_size=2, max_size=2))
    def test_two_huge_observations_are_not_bincounted(self, obs):
        # a bincount over values this large would need about 80 GB
        assert_distinct(obs, Sample(obs).distinct)

    def test_drawn_samples(self):
        for gamma, k, n in ((2.0, None, 10**5), (1.05, None, 3), (1.0, 32766, 50), (-1.0, 20, 400)):
            obs = sample(ZipfModel(gamma, Support(k=k)), n, RandomStream([n])).observations
            for got in (Sample(obs).distinct, *both_branches(obs)):
                assert_distinct(obs, got)


class TestFromCounts:
    """Sample.from_counts: the distinct values and counts as given, n their
    total, the sorted observations only when asked for."""

    def test_holds_the_counts_and_expands_on_demand(self):
        values, counts = np.array([2, 5, 2**63 - 1]), np.array([3, 1, 2])
        held = Sample.from_counts(values, counts)
        assert values.flags.writeable and counts.flags.writeable  # the caller's arrays
        assert "observations" not in vars(held)
        assert held.n == 6
        assert_distinct([2, 2, 2, 5, 2**63 - 1, 2**63 - 1], held.distinct)
        assert "observations" not in vars(held)
        assert held.observations.tolist() == [2, 2, 2, 5, 2**63 - 1, 2**63 - 1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=40))
    def test_same_distinct_and_n_as_the_sample_of_every_observation(self, obs):
        whole = Sample(obs)
        held = Sample.from_counts(*whole.distinct)
        assert held.n == whole.n
        for a, b in zip(held.distinct, whole.distinct):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(held.observations, np.sort(whole.observations))

    @pytest.mark.parametrize("values,counts", [
        ([], []), ([1, 2], [1]), ([2, 1], [1, 1]), ([1, 1], [1, 1]), ([0, 1], [1, 1]),
        ([1, 2], [1, 0]), ([[1]], [[1]]),
    ])
    def test_rejects_what_is_not_a_reduction(self, values, counts):
        with pytest.raises(ValueError):
            Sample.from_counts(np.array(values, dtype=np.int64), np.array(counts, dtype=np.int64))

    def test_samples_are_immutable(self):
        for held in (Sample([1, 2]), Sample.from_counts(np.array([1]), np.array([2]))):
            with pytest.raises(AttributeError, match="immutable"):
                held.observations = np.array([3])


class TestSampling:
    @pytest.mark.parametrize("support_k", [20, 1000, None])
    @pytest.mark.parametrize("rows", [0, -1])
    def test_batch_needs_a_row(self, support_k, rows):
        model = ZipfModel(2.0, Support(k=support_k))
        with pytest.raises(ValueError, match="row count must be >= 1"):
            sample(model, 10, RandomStream([1]), rows)

    def test_first_cell_draw(self):
        model = ZipfModel(1.7, Support.finite(30))
        u = 0.5 / normalization(1.7, Support.finite(30))
        drawn = sample(model, 1, FixedStream([u]))
        assert drawn.observations.tolist() == [1]

    def test_two_point_inverse_transform(self):
        model = ZipfModel(1.0, Support.finite(2))
        drawn = sample(model, 2, FixedStream([0.9, 0.5]))
        # 0.9 > cdf(1)=2/3 -> 2; 0.5 <= 2/3 -> 1
        assert drawn.observations.tolist() == [2, 1]

    def test_boundary_uniform_one_maps_to_last_cell(self):
        model = ZipfModel(1.0, Support.finite(5))
        drawn = sample(model, 1, FixedStream([1.0]))
        assert drawn.observations.tolist() == [5]

    def test_determinism(self):
        model = ZipfModel(2.0, Support.finite(100))
        a = sample(model, 1000, RandomStream.for_replicate(7, 0, 3)).observations
        b = sample(model, 1000, RandomStream.for_replicate(7, 0, 3)).observations
        np.testing.assert_array_equal(a, b)
        c = sample(model, 1000, RandomStream.for_replicate(7, 0, 4)).observations
        assert not np.array_equal(a, c)

    def test_uniforms_in_half_open_interval(self):
        u = RandomStream.for_replicate(1, 0, 0).uniforms(100000)
        assert u.min() > 0.0
        assert u.max() <= 1.0

    def test_uniforms_are_one_minus_the_generators(self):
        generator = np.random.Generator(np.random.Philox(np.random.SeedSequence([1, 0, 0])))
        want = 1.0 - generator.random(1000)
        np.testing.assert_array_equal(RandomStream.for_replicate(1, 0, 0).uniforms(1000), want)

    @pytest.mark.parametrize("gamma,k", [(0.25, 20), (2.0, 100), (4.0, 1000)])
    def test_draws_stay_in_support(self, gamma, k):
        model = ZipfModel(gamma, Support.finite(k))
        drawn = sample(model, 5000, RandomStream.for_replicate(11, 0, 0)).observations
        assert drawn.min() >= 1
        assert drawn.max() <= k

    def test_unbounded_draws_respect_cutoff(self):
        model = ZipfModel(1.25, Support.unbounded())
        drawn = sample(model, 20000, RandomStream.for_replicate(13, 0, 0)).observations
        assert drawn.min() >= 1
        assert drawn.max() <= UNBOUNDED_SAMPLE_LIMIT
        # the heavy tail must actually be exercised
        assert drawn.max() > 10000

    def test_frequencies_match_pmf_chi_square(self):
        model = ZipfModel(2.0, Support.finite(20))
        drawn = sample(model, 100000, RandomStream.for_replicate(5, 0, 0)).observations
        counts = np.bincount(drawn, minlength=21)[1:]
        weights = np.arange(1.0, 21.0) ** -2.0
        expected = weights / weights.sum() * 100000
        _, p_value = scipy.stats.chisquare(counts, expected)
        assert p_value > 0.001
