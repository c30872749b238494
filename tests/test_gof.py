import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks.distribution import RandomStream, Sample, Support, ZipfModel, sample
from zipfks.gof import ZipfRows, judge, ks_statistic

from oracles import brute_force_ks, expand_counts, value_rows

# Values on both sides of each seam of the unbounded cdf (the running sum of
# the first 32 terms, the old 4096-point scan, the 65535 sampling limit) and
# small values, drawn from a few per sample so that ties are common.
SEAM_VALUES = st.one_of(st.sampled_from([1, 2, 32, 33, 4096, 4097, 65535, 65536]),
                        st.integers(1, 40))


class TestTrivialCases:
    def test_perfect_match_is_exactly_zero(self):
        result = ks_statistic(Sample([1, 1, 2]), ZipfModel(1.0, Support.finite(2)))
        assert result.statistic == 0.0

    def test_two_thirds_gap(self):
        result = ks_statistic(Sample([2, 2, 2]), ZipfModel(1.0, Support.finite(2)))
        assert result.statistic == 2.0 / 3.0
        assert result.argmax_k == 1

    def test_observation_outside_support_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(Sample([1, 30]), ZipfModel(1.0, Support.finite(20)))


class TestOracleEquality:
    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(123)
        for trial in range(200):
            k = int(rng.choice([2, 5, 10, 20, 50]))
            gamma_gen = float(rng.uniform(0.3, 3.0))
            n = int(rng.integers(3, 80))
            model_gen = ZipfModel(gamma_gen, Support.finite(k))
            obs = sample(model_gen, n, RandomStream.for_replicate(1000 + trial, 0, 0))
            gamma_fit = float(rng.uniform(0.3, 3.0))
            fitted = ZipfModel(gamma_fit, Support.finite(k))
            got = ks_statistic(obs, fitted)
            want_stat, want_k = brute_force_ks(obs.observations, fitted)
            assert got.statistic == want_stat
            assert got.argmax_k == want_k

    def test_batched_rows_match_brute_force_exactly(self):
        # each row of a count batch, scored against its own exponent, gives the
        # per-k scan's bits: both curves are running sums taken term by term
        rng = np.random.default_rng(321)
        for trial in range(60):
            k = int(rng.choice([2, 5, 20, 50, 1000]))
            support = Support.finite(k)
            model_gen = ZipfModel(float(rng.uniform(0.3, 3.0)), support)
            n = int(rng.integers(1, 301))
            drawn = sample(model_gen, n, RandomStream.for_replicate(2000 + trial, 0, 0), rows=20)
            gammas = rng.uniform(0.3, 3.0, 20)
            got = ks_statistic(drawn, ZipfRows(gammas, support))
            for row, counts in enumerate(drawn.head):
                want, _ = brute_force_ks(expand_counts(counts).observations, ZipfModel(gammas[row], support))
                assert got[row] == want

    def test_sparse_path_agrees_with_dense_scan(self):
        # unbounded fits take the endpoint route once observations are large;
        # force both routes on the same data and compare
        model = ZipfModel(1.25, Support.unbounded())
        obs = sample(model, 400, RandomStream.for_replicate(77, 0, 0))
        assert int(obs.observations.max()) > 4096  # heavy tail reaches the sparse regime
        got = ks_statistic(obs, model)
        want_stat, _ = brute_force_ks(obs.observations, model)
        assert got.statistic == pytest.approx(want_stat, abs=1e-11)

    def test_sparse_handles_gap_before_first_value(self):
        model = ZipfModel(1.5, Support.unbounded())
        result = ks_statistic(Sample([5000, 6000]), model)
        # empirical cdf is 0 below 5000 while the fitted cdf is almost 1
        assert result.statistic > 0.9
        assert result.argmax_k == 4999


class TestUnboundedEndpoints:
    # gamma <= 3 keeps every pmf term up to 65536 above the rounding of the
    # oracle's running sum, whose argmax is then the same stretch end
    @settings(max_examples=40, deadline=None)
    @given(pool=st.lists(SEAM_VALUES, min_size=1, max_size=5),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=30),
           gamma=st.floats(1.05, 3.0))
    def test_matches_brute_force(self, pool, picks, gamma):
        one = Sample(np.array([pool[i % len(pool)] for i in picks]))
        model = ZipfModel(gamma, Support.unbounded())
        got = ks_statistic(one, model)
        want, want_k = brute_force_ks(one.observations, model)
        assert got.statistic == pytest.approx(want, abs=1e-11)
        assert got.argmax_k == want_k
        batched = ks_statistic(value_rows([one]), ZipfRows(np.array([gamma]), model.support))
        assert batched[0] == got.statistic


class TestProperties:
    def test_bounds(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            k = int(rng.choice([10, 100]))
            model = ZipfModel(float(rng.uniform(0.3, 3.0)), Support.finite(k))
            obs = sample(model, int(rng.integers(2, 50)), RandomStream.for_replicate(trial, 1, 0))
            stat = ks_statistic(obs, model).statistic
            assert 0.0 <= stat <= 1.0

    def test_permutation_invariance(self):
        model = ZipfModel(1.5, Support.finite(50))
        obs = sample(model, 200, RandomStream.for_replicate(9, 0, 0)).observations
        shuffled = obs.copy()
        np.random.default_rng(1).shuffle(shuffled)
        a = ks_statistic(Sample(obs), model)
        b = ks_statistic(Sample(shuffled), model)
        assert a.statistic == b.statistic
        assert a.argmax_k == b.argmax_k

    def test_statistic_shrinks_with_sample_size(self):
        model = ZipfModel(1.5, Support.finite(50))
        small, large = [], []
        for trial in range(100):
            obs_small = sample(model, 100, RandomStream.for_replicate(trial, 2, 0))
            obs_large = sample(model, 10000, RandomStream.for_replicate(trial, 3, 0))
            small.append(ks_statistic(obs_small, model).statistic)
            large.append(ks_statistic(obs_large, model).statistic)
        assert np.median(large) < np.median(small)


class TestJudge:
    def test_below_cutoff_not_rejected(self):
        verdict = judge(0.050, 0.0576, 0.9)
        assert not verdict.rejected
        assert verdict.level == 0.9
        assert verdict.cutoff == 0.0576

    def test_tie_is_not_rejected(self):
        assert not judge(0.0576, 0.0576, 0.9).rejected

    def test_above_cutoff_rejected(self):
        assert judge(0.10, 0.0576, 0.9).rejected

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            judge(1.5, 0.5, 0.9)
        with pytest.raises(ValueError):
            judge(0.5, -0.1, 0.9)
