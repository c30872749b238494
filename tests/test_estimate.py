import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks import estimate
from zipfks.distribution import (
    MIN_UNBOUNDED_GAMMA,
    RandomStream,
    Sample,
    Support,
    ZipfModel,
    as_rows,
    sample,
)
from zipfks.estimate import (
    ABSOLUTE_TOLERANCE,
    _search_range,
    log_mean,
    mle_gamma,
)
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.montecarlo import SimulationConfig, _run_spans
from zipfks.series import finite_log_moments, zeta_moments

from oracles import (
    count_rows,
    expand_value_rows,
    golden_section_mle,
    log_likelihood,
    scalar_mle,
    scalar_score,
)


def draw(gamma, support_k, n, seed):
    model = ZipfModel(gamma, Support(k=support_k))
    return sample(model, n, RandomStream.for_replicate(seed, 0, 0))


def row_log_mean(values, support=Support.unbounded()):
    """log_mean of the sample as its batch of one row on the support."""
    return log_mean(as_rows(Sample(values), support), support)[0]


class TestLogMean:
    def test_exact_small_case(self):
        assert row_log_mean([1, 2, 4]) == pytest.approx(math.log(2.0), abs=1e-15)
        assert row_log_mean([1, 2, 4], Support.finite(4)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_all_ones_nudged_by_ln2(self):
        for support in (Support.unbounded(), Support.finite(2)):
            assert row_log_mean([1] * 10, support) == pytest.approx(math.log(2.0) / 10.0, abs=1e-15)
            assert row_log_mean([1], support) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_nudge_not_applied_otherwise(self):
        assert row_log_mean([2]) == pytest.approx(math.log(2.0), abs=1e-15)
        assert row_log_mean([2], Support.finite(2)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            Sample(np.array([], dtype=np.int64))

    def test_matches_compensated_summation(self):
        obs = draw(2.0, 1000, 1000, seed=3).observations
        expected = math.fsum(math.log(int(v)) for v in obs) / obs.size
        for support in (Support.finite(1000), Support.unbounded()):
            assert row_log_mean(obs, support) == pytest.approx(expected, rel=1e-12)

    def test_huge_values_use_direct_logs(self):
        obs = np.array([3, 10**7, 10**9])
        expected = math.fsum(math.log(v) for v in [3, 10**7, 10**9]) / 3
        assert row_log_mean(obs) == pytest.approx(expected, rel=1e-12)


class TestMleGamma:
    def test_two_point_closed_form(self):
        # mean log = ln2/3 forces 2^-g/(1+2^-g) = 1/3, i.e. g = 1
        got = mle_gamma(Sample([1, 1, 2]), Support.finite(2))
        assert got == pytest.approx(1.0, abs=1e-5)

    def test_matches_likelihood_maximizer_on_random_samples(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(60):
            support_k = int(rng.choice([2, 5, 20, 100, 1000]))
            gamma = float(rng.uniform(0.3, 3.5))
            n = int(rng.integers(5, 200))
            obs = draw(gamma, support_k, n, seed=int(rng.integers(1 << 30))).observations
            got = mle_gamma(Sample(obs), Support.finite(support_k))
            want = golden_section_mle(obs, support_k, got - 0.5, got + 0.5)
            assert abs(got - want) < 1e-4
            checked += 1
        assert checked == 60

    def test_matches_likelihood_maximizer_unbounded(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            gamma = float(rng.uniform(1.3, 3.5))
            n = int(rng.integers(20, 200))
            obs = draw(gamma, None, n, seed=int(rng.integers(1 << 30))).observations
            got = mle_gamma(Sample(obs), Support.unbounded())
            want = golden_section_mle(obs, None, max(got - 0.5, 1.06), got + 0.5)
            assert abs(got - want) < 1e-4

    def test_consistency_at_large_n(self):
        obs = draw(2.0, 1000, 50000, seed=8)
        got = mle_gamma(obs, Support.finite(1000))
        assert 1.95 <= got <= 2.05

    def test_likelihood_is_locally_maximal(self):
        for seed, gamma, k in [(1, 0.6, 20), (2, 1.5, 100), (3, 3.0, 50)]:
            obs = draw(gamma, k, 150, seed=seed).observations
            got = mle_gamma(Sample(obs), Support.finite(k))
            log_sum = float(np.log(obs.astype(float)).sum())
            center = log_likelihood(got, log_sum, obs.size, k)
            assert center >= log_likelihood(got - 0.01, log_sum, obs.size, k)
            assert center >= log_likelihood(got + 0.01, log_sum, obs.size, k)

    def test_heavier_tail_means_smaller_estimate(self):
        support = Support.finite(50)
        estimates = []
        for sample_values in ([1, 1, 1, 2], [1, 1, 2, 3], [1, 2, 5, 9], [2, 5, 20, 44]):
            estimates.append(mle_gamma(Sample(sample_values), support))
        assert all(b < a for a, b in zip(estimates, estimates[1:]))

    def test_estimate_depends_only_on_log_mean(self):
        # equal size and equal log-sum: {2,2} vs {4,1} (ln2+ln2 == ln4 exactly)
        support = Support.finite(10)
        a = mle_gamma(Sample([2, 2]), support)
        b = mle_gamma(Sample([4, 1]), support)
        assert a == b

    def test_short_tailed_sample_fits_negative_exponent(self):
        # mass piled at the top of the support: the likelihood peaks below zero
        got = mle_gamma(Sample([17, 19, 20, 20, 16]), Support.finite(20))
        assert got < 0.0
        want = golden_section_mle(
            np.array([17, 19, 20, 16, 20]), 20, got - 0.5, got + 0.5
        )
        assert abs(got - want) < 1e-4

    def test_all_ones_matches_degenerate_adjustment(self):
        got = mle_gamma(Sample([1] * 10), Support.finite(20))
        want = golden_section_mle(np.ones(10, dtype=np.int64), 20, 2.0, 6.0)
        assert abs(got - want) < 1e-4

    def test_bisection_agrees_with_newton(self, monkeypatch):
        # started at either end of the bracket, a fit bisects until Newton's
        # steps stay inside it, and stops on the same rule as a fit from the
        # tabulated start: within 1e-9 of it
        for seed, gamma, k in [(5, 0.8, 20), (6, 2.2, 200)]:
            obs = draw(gamma, k, 100, seed=seed)
            support = Support.finite(k)
            newton = mle_gamma(obs, support)
            for end in _search_range(support):
                force_start(monkeypatch, end)
                assert abs(mle_gamma(obs, support) - newton) < 1e-9
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "support_k,gamma,n",
        [(2, 0.5, 7), (20, 0.8, 100), (20, -3.0, 8), (1000, 2.2, 60), (32766, 1.0, 10),
         (None, 1.05, 200), (None, 1.6, 1), (None, 3.5, 40)],
    )
    def test_bisected_fits_match_likelihood_maximizer(self, monkeypatch, support_k, gamma, n):
        # every row of a batch started at a bracket end, so that its first
        # steps bisect: within Newton's stopping tolerance of the maximizer,
        # and within 1e-9 of the fit from the tabulated start
        support = Support(k=support_k)
        drawn = draw_rows(support_k, gamma, n, 6, seed=21)
        low, high = _search_range(support)
        plain = mle_gamma(drawn, support)
        for end in (low, high):
            force_start(monkeypatch, end)
            got = mle_gamma(drawn, support)
            monkeypatch.undo()
            np.testing.assert_allclose(got, plain, rtol=0, atol=1e-9)
            checked = 0
            for row, one in enumerate(expand_value_rows(drawn)):
                if support_k is not None and int(one.observations.min()) == support_k:
                    continue  # the all-at-K nudge is the estimator's, not the likelihood's
                want = golden_section_mle(one.observations, support_k, low, high)
                assert abs(got[row] - want) <= ABSOLUTE_TOLERANCE
                checked += 1
            assert checked >= 3

    def test_root_condition_holds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.choice([20, 100, 1000]))
            gamma = float(rng.uniform(0.3, 3.5))
            obs = draw(gamma, k, int(rng.integers(10, 500)), seed=int(rng.integers(1 << 30)))
            got = mle_gamma(obs, Support.finite(k))
            (mean,), _ = estimate._mean_log_rows(np.array([got]), Support.finite(k))
            assert abs(mean - row_log_mean(obs.observations, Support.finite(k))) < 1e-6

    def test_observations_outside_support_rejected(self):
        with pytest.raises(ValueError):
            mle_gamma(Sample([1, 25]), Support.finite(20))

    def test_all_at_bound_two_point_support_fits_closed_form(self):
        # all-2s on support 1..2 is scored as {2,2,1}-would-be: the adjusted
        # mean log is 2ln2/3, whose root is exactly -1
        got = mle_gamma(Sample([2, 2, 2]), Support.finite(2))
        assert got == pytest.approx(-1.0, abs=1e-5)

    def test_no_root_when_bound_adjustment_is_too_weak(self):
        # at K=20 the one-observation nudge cannot pull the mean log inside
        # the reachable range: the likelihood still rises below -20, so the
        # fit takes the range's lower end
        assert mle_gamma(Sample([20, 20, 20]), Support.finite(20)) == -20.0

    def test_no_root_unbounded_when_mean_log_too_large(self):
        assert mle_gamma(Sample([10**9, 10**9]), Support.unbounded()) == MIN_UNBOUNDED_GAMMA

    def test_unbounded_estimate_stays_in_admissible_range(self):
        got = mle_gamma(Sample([1] * 50), Support.unbounded())
        assert 1.05 <= got <= 20.0


def draw_rows(support_k, gamma, n, rows, seed):
    model = ZipfModel(gamma, Support(k=support_k))
    return sample(model, n, RandomStream.for_replicate(seed, 0, 0), rows)


def fit_mean_logs(targets):
    """Unbounded fits of the given mean logs."""
    return estimate._mle_rows(np.asarray(targets, dtype=np.float64), Support.unbounded())


def force_start(monkeypatch, gamma):
    """Start every fit at gamma instead of the tabulated inverse."""
    monkeypatch.setattr(estimate, "_start", lambda target, support: np.full(target.size, gamma))


def count_evaluations(monkeypatch):
    """The list to which each later batched moment evaluation appends its row count."""
    evaluated = []
    mean_log_rows = estimate._mean_log_rows

    def counting(exponents, *args):
        evaluated.append(exponents.size)
        return mean_log_rows(exponents, *args)

    monkeypatch.setattr(estimate, "_mean_log_rows", counting)
    return evaluated


def model_mean_log(gamma, support_k):
    s0, s1, _ = finite_log_moments(gamma, support_k)
    return s1 / s0


@st.composite
def cells(draw):
    """A support (K in 2..32766, or None for unbounded) with an exponent it admits."""
    support_k = draw(st.one_of(st.none(), st.integers(2, 32766)))
    low = MIN_UNBOUNDED_GAMMA if support_k is None else -1.0
    return support_k, draw(st.floats(low, 4.0))


class TestFitProperties:
    @settings(max_examples=40, deadline=None)
    @given(cell=cells(), n=st.integers(1, 2000), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_scalar_and_likelihood_maximizer(self, cell, n, rows, seed):
        support_k, gamma = cell
        support = Support(k=support_k)
        drawn = draw_rows(support_k, gamma, n, rows, seed)
        got = mle_gamma(drawn, support)
        ks = ks_statistic(drawn, ZipfRows(got, support))
        low, high = _search_range(support)
        for row, one in enumerate(expand_value_rows(drawn)):
            want_ks, want_g = scalar_score(one, support)
            assert abs(got[row] - want_g) < 1e-9
            assert abs(ks[row] - want_ks) < 1e-12
            if support_k is not None and int(one.observations.min()) == support_k:
                continue  # the all-at-K nudge is the estimator's, not the likelihood's
            # the likelihood's maximizer on the search range, an end included
            want = golden_section_mle(one.observations, support_k, max(got[row] - 0.5, low),
                                      min(got[row] + 0.5, high))
            assert abs(got[row] - want) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(support_k=st.sampled_from([2, 20, 1000, None]), data=st.data(),
           n=st.one_of(st.integers(1, 12), st.integers(1, 2000)), rows=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_equal_one_sample_fit_and_ks_exactly(self, support_k, data, n, rows, seed):
        # an observed sample is fitted and scored as its batch of one row, so
        # each drawn row's estimate and statistic are those of its sample, bit
        # for bit, a range end included
        support = Support(k=support_k)
        gamma = data.draw(st.floats(1.05, 6.0) if support_k is None else st.floats(-1.0, 4.0))
        drawn = draw_rows(support_k, gamma, n, rows, seed)
        got = mle_gamma(drawn, support)
        ks = ks_statistic(drawn, ZipfRows(got, support))
        for row, one in enumerate(expand_value_rows(drawn)):
            want = mle_gamma(one, support)
            assert got[row] == want
            assert ks[row] == ks_statistic(one, ZipfModel(want, support)).statistic

    @settings(max_examples=40, deadline=None)
    @given(cell=cells(), n=st.integers(1, 2000), rows=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_row_fit_alone_equals_row_fit_in_batch(self, cell, n, rows, seed):
        support_k, gamma = cell
        support = Support(k=support_k)
        drawn = draw_rows(support_k, gamma, n, rows, seed)
        batch = mle_gamma(drawn, support)
        for row in range(rows):
            np.testing.assert_array_equal(mle_gamma(drawn.part(row, row + 1), support), batch[row : row + 1])

    @settings(max_examples=40, deadline=None)
    @given(
        support_k=st.one_of(st.none(), st.integers(2, 32766)),
        data=st.data(),
    )
    def test_estimate_falls_as_mean_log_rises(self, support_k, data):
        # raise one observation at a time: the mean log rises, the estimate
        # falls (to within Newton's precision), down to the range's lower end
        top = support_k or 10**6
        obs = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=30))
        support = Support(k=support_k)
        previous = math.inf
        for _ in range(data.draw(st.integers(1, 10))):
            got = mle_gamma(Sample(obs), support)
            assert got <= previous + 1e-9
            previous = got
            lower = [i for i, v in enumerate(obs) if v < top]
            if not lower:
                return
            i = data.draw(st.sampled_from(lower))
            obs[i] = data.draw(st.integers(obs[i] + 1, top))


class TestStopRule:
    @pytest.mark.parametrize("support_k", [None, 20])
    def test_bisected_fit_stops_on_a_newton_step_only(self, monkeypatch, support_k):
        # a zero slope more than 1e-8 from the root makes every such Newton
        # step infinite, so the fit bisects from the range's low end until
        # its bracket is far under 2e-5 wide; a fit that also stopped on a
        # midpoint within ABSOLUTE_TOLERANCE would stop up to 1e-5 off
        support = Support(k=support_k)
        one = draw(2.0, support_k, 100, seed=3)
        root = scalar_mle(one, support)  # also builds the start table
        mean_log_rows = estimate._mean_log_rows
        evaluated = []

        def flat_far_from_root(gamma, support):
            evaluated.append(gamma.size)
            mean, slope = mean_log_rows(gamma, support)
            return mean, np.where(np.abs(gamma - root) > 1e-8, 0.0, slope)

        low, high = _search_range(support)
        force_start(monkeypatch, low)
        monkeypatch.setattr(estimate, "_mean_log_rows", flat_far_from_root)
        assert abs(mle_gamma(one, support) - root) <= 1e-9
        assert len(evaluated) > math.log2((high - low) / 2e-5)


class TestStart:
    @pytest.mark.parametrize("support_k", [None, 2, 20, 1000, 32766])
    def test_table_ends_are_the_search_range_ends(self, support_k):
        # _mle_rows takes the range's end means from the table's ends, so a
        # target has a root exactly when it lies between them
        support = Support(k=support_k)
        mean, gamma, _ = estimate._start_table(support)
        low, high = _search_range(support)
        assert (gamma[-1], gamma[0]) == (low, high)
        (mean_low, mean_high), _ = estimate._mean_log_rows(np.array([low, high]), support)
        assert (mean[-1], mean[0]) == (mean_low, mean_high)

    def test_targets_beyond_the_table(self):
        # all ones at n = 2x10^6 sits below the mean log at gamma = 20, all
        # at K above the one at -20, and a mean log of ln 10^9 above the
        # unbounded one at 1.05: none has a root, and each takes the nearer
        # end of the search range, batched and alone
        ones = count_rows(np.array([[2_000_000] + [0] * 19]), 2_000_000)
        at_k = count_rows(np.array([[0] * 19 + [3]]), 3)
        for rows, values, end in ((ones, [1] * 2_000_000, 20.0), (at_k, [20, 20, 20], -20.0)):
            assert mle_gamma(rows, Support.finite(20)).tolist() == [end]
            assert mle_gamma(Sample(values), Support.finite(20)) == end
        assert fit_mean_logs([math.log(1e9)]).tolist() == [MIN_UNBOUNDED_GAMMA]
        assert mle_gamma(Sample([10**9, 10**9]), Support.unbounded()) == MIN_UNBOUNDED_GAMMA

    def test_rows_without_root_are_exactly_those_beyond_the_model_range(self, monkeypatch):
        # gamma = -5 at n = 5 piles samples onto K = 20; some mean logs lie
        # above the model's at -20, and only those rows take the range's end,
        # found before any moment evaluation; every other row fits inside
        drawn = draw_rows(20, -5.0, 5, 400, seed=7)
        mle_gamma(drawn.part(0, 1), Support.finite(20))  # builds the start table
        evaluated = count_evaluations(monkeypatch)
        got = mle_gamma(drawn, Support.finite(20))
        target = log_mean(drawn, Support.finite(20))
        target[drawn.head[:, -1] == 5] -= (math.log(20) - math.log(19)) / 5
        above = target > model_mean_log(-20.0, 20)
        beyond = above | (target < model_mean_log(20.0, 20))
        assert beyond.any()
        np.testing.assert_array_equal(got[beyond], np.where(above[beyond], -20.0, 20.0))
        assert ((-20.0 < got[~beyond]) & (got[~beyond] < 20.0)).all()
        assert evaluated[0] == np.count_nonzero(~beyond)

    def test_unbounded_roots_at_and_near_the_lower_end(self):
        low = MIN_UNBOUNDED_GAMMA
        edge = [low, low + 1e-9, low + 1e-6, low + 1e-3, 1.06]
        s0, s1 = zeta_moments(np.array(edge), 2)
        np.testing.assert_allclose(fit_mean_logs(s1 / s0), edge, rtol=0, atol=1e-9)
        drawn = draw_rows(None, 1.05, 50, 64, seed=3)
        got = mle_gamma(drawn, Support.unbounded())
        assert got.min() >= low
        for row, one in enumerate(expand_value_rows(drawn)):
            assert abs(got[row] - mle_gamma(one, Support.unbounded())) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_two_point_support_closed_form(self, n):
        # on 1..2 with a ones and b twos the root is log2(a / b); all ones
        # (all twos) are scored as n - 1 ones and one two (the reverse)
        support = Support.finite(2)
        table = np.array([[a, n - a] for a in range(n + 1)])
        got = mle_gamma(count_rows(table, n), support)
        if n == 1:  # both scored as one two, not [1] as [2] and [2] as [1]: the lower end
            assert got.tolist() == [-20.0, -20.0]
            return
        for (a, b), g in zip(table, got):
            a, b = (n - 1, 1) if b == 0 else (1, n - 1) if a == 0 else (a, b)
            assert g == pytest.approx(math.log2(a / b), abs=1e-10)

    @pytest.mark.parametrize(
        "support_k,gamma,n", [(None, 1.05, 1000), (None, 2.0, 100), (None, 19.0, 10), (20, 1.0, 10), (1000, 0.5, 1000)]
    )
    def test_one_newton_step_per_fit(self, monkeypatch, support_k, gamma, n):
        # from a start within a few 1e-8 of its root the first step converges:
        # one evaluation per row, in chunks of rows at K = 1000
        support = Support(k=support_k)
        drawn = draw_rows(support_k, gamma, n, 512, seed=5)
        mle_gamma(drawn.part(0, 1), support)  # builds the start table
        evaluated = count_evaluations(monkeypatch)
        assert not np.isnan(mle_gamma(drawn, support)).any()
        assert sum(evaluated) == 512

    def test_few_row_evaluations_per_span_at_the_largest_support(self, monkeypatch):
        # at K = 32766 the start table has 64 points: fits take two or three
        # evaluations (from a fixed start, about half of the rows left the
        # bracket and were then bisected 32 times)
        support = Support.finite(32766)
        estimate._start_table(support)
        evaluated = count_evaluations(monkeypatch)
        for gamma, n in [(1.0, 10), (2.0, 1000)]:
            cfg = SimulationConfig(n=n, support=support, gamma=gamma,
                                   base_seed=11, replicates=512, repetitions=1)
            evaluated.clear()
            _, gamma_hat = _run_spans((cfg, 0, 0, 1))
            assert not np.isnan(gamma_hat).any()
            assert sum(evaluated) <= 3 * 512
