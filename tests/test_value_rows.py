"""The batched unbounded-support kernel against the one-sample pipeline.

On the unbounded support a batch of replicates is ValueRows: each sample
reduced to its log sum and its distinct values with their counts.  They are
drawn by ``sample(..., rows=...)``, fitted by ``mle_gamma`` and scored by
``ks_statistic`` a whole batch at a time.  Each row must agree with the
scalar pipeline run on the very sample it holds.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks import distribution, gof, series
from zipfks.distribution import RandomStream, Sample, Support, ZipfModel, sample
from zipfks.estimate import DEFAULT_SETTINGS, NoRootError, log_mean, mle_gamma
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.montecarlo import SimulationConfig, run_simulation

from oracles import brute_force_ks, golden_section_mle, scalar_score, value_rows

GAMMA_TOL = 1e-9
KS_TOL = 1e-12
UNBOUNDED = Support.unbounded()


def assert_rows_match_oracle(samples: list[Sample]) -> None:
    drawn = value_rows(samples)
    gamma_hat = mle_gamma(drawn, UNBOUNDED)
    ks = ks_statistic(drawn, ZipfRows(gamma_hat, UNBOUNDED))
    for row, one in enumerate(samples):
        try:
            want_ks, want_gamma = scalar_score(one, UNBOUNDED)
        except NoRootError:
            assert np.isnan(gamma_hat[row]) and np.isnan(ks[row])
            continue
        assert abs(gamma_hat[row] - want_gamma) <= GAMMA_TOL
        assert abs(ks[row] - want_ks) <= KS_TOL


# Values from every regime: the dense scan, past the 4096 scan limit, past
# the 65535 sampling limit, and so large that the mean log has no root.
VALUES = st.one_of(
    st.integers(1, 60), st.integers(4000, 5000), st.integers(60000, 300000),
    st.integers(10**10, 10**11),
)


@st.composite
def equal_size_samples(draw):
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(VALUES, min_size=1, max_size=6))  # few values, so ties are common
    rows = draw(st.integers(1, 4))
    return [Sample(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
            for _ in range(rows)]


class TestAgainstScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(1.05, 6.0), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_drawn_rows(self, gamma, n, seed):
        model = ZipfModel(gamma, UNBOUNDED)
        drawn = sample(model, n, RandomStream([seed]), rows=4)
        stream = RandomStream([seed])
        samples = [sample(model, n, stream) for _ in range(4)]
        # the batch holds the samples that four one-sample draws give
        want = value_rows(samples)
        for field in ("observations", "counts", "starts", "log_sums"):
            np.testing.assert_array_equal(getattr(drawn, field), getattr(want, field))
        assert_rows_match_oracle(samples)

    @settings(max_examples=150, deadline=None)
    @given(equal_size_samples())
    def test_arbitrary_samples(self, samples):
        assert_rows_match_oracle(samples)

    def test_values_above_the_scan_limit_and_ties(self):
        # rows past 4096 score their large values at stretch ends; repeated
        # values there and below must count once per observation
        samples = [
            Sample([1, 1, 2, 4096, 4097, 4097, 9000, 9000, 9001, 65535]),
            Sample([1, 2, 3, 4, 5, 6, 7, 8, 9, 4096]),
            Sample([5000] * 10),
            Sample([1] * 9 + [70000]),
        ]
        assert_rows_match_oracle(samples)

    def test_log_mean_per_row(self):
        samples = [Sample([1, 1, 1]), Sample([2, 3, 70000]), Sample([1, 1, 4097])]
        got = log_mean(value_rows(samples))
        assert list(got) == [log_mean(one) for one in samples]

    def test_rows_must_match_support(self):
        drawn = value_rows([Sample([1, 2, 3])])
        with pytest.raises(ValueError):
            mle_gamma(drawn, Support.finite(5))
        with pytest.raises(ValueError):
            ks_statistic(drawn, ZipfRows(np.ones(1), Support.finite(5)))


class TestEdges:
    def test_sparse_ks_against_brute_force(self):
        # values above 65535 send the one-sample statistic down the
        # stretch-endpoint path; the batch must give the same
        obs = np.array([1, 1, 1, 2, 2, 3, 5, 8, 13, 4096, 4097, 65535, 65536, 65536, 123457])
        one = Sample(obs)
        gamma_hat = mle_gamma(one, UNBOUNDED)
        fitted = ZipfModel(gamma_hat, UNBOUNDED)
        want, want_k = brute_force_ks(obs, fitted)
        got = ks_statistic(one, fitted)
        assert got.statistic == pytest.approx(want, abs=1e-11)
        assert got.argmax_k == want_k
        batched = ks_statistic(value_rows([one]), ZipfRows(np.array([gamma_hat]), UNBOUNDED))
        assert batched[0] == got.statistic

    def test_single_observation_fits_against_golden_section(self):
        # n = 1: every row is one value, from all ones (the ln 2 nudge) up to
        # values past the sampling limit
        samples = [Sample([v]) for v in (1, 2, 3, 10, 100, 5000, 70000)]
        gamma_hat = mle_gamma(value_rows(samples), UNBOUNDED)
        for row, one in enumerate(samples):
            want = golden_section_mle(one.observations, None, 1.05, 20.0)
            assert abs(gamma_hat[row] - want) <= DEFAULT_SETTINGS.absolute_tolerance

    def test_fits_just_above_the_bracket_edge_against_golden_section(self):
        model = ZipfModel(1.0501, UNBOUNDED)
        drawn = sample(model, 200, RandomStream([17]), rows=6)
        gamma_hat = mle_gamma(drawn, UNBOUNDED)
        stream = RandomStream([17])
        for row in range(6):
            obs = sample(model, 200, stream).observations
            want = golden_section_mle(obs, None, 1.05, 20.0)
            assert abs(gamma_hat[row] - want) <= DEFAULT_SETTINGS.absolute_tolerance


class TestChunks:
    @pytest.mark.parametrize("n", [1, 40, 3000])
    def test_cutoffs_independent_of_chunk_size(self, monkeypatch, n):
        # the draw, the zeta series and the KS scan all take their rows in
        # blocks; one row per block must give the same cutoffs as the default
        cfg = SimulationConfig(n=n, support=UNBOUNDED, gamma=1.3, base_seed=9, replicates=600,
                               repetitions=2)
        want = run_simulation(cfg, workers=1)
        for module in (distribution, gof, series):
            monkeypatch.setattr(module, "CHUNK_ELEMENTS", 1)
        assert run_simulation(cfg, workers=1) == want
