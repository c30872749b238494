"""The batched count-vector kernel against the one-sample pipeline.

On a finite support a replicate is its count vector: CountRows are drawn by
``sample(..., rows=...)``, fitted by ``mle_gamma`` and scored by
``ks_statistic`` a whole matrix at a time.  Each row must agree with the
scalar pipeline run on the sample those counts describe.
"""
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks.distribution import (
    CountRows,
    RandomStream,
    Support,
    ValueRows,
    ZipfModel,
    as_rows,
    sample,
)
from zipfks.estimate import log_mean, mle_gamma
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.montecarlo import SimulationConfig, _run_spans

from oracles import expand_counts, scalar_score

GAMMA_TOL = 1e-9
KS_TOL = 1e-12


def assert_rows_match_oracle(counts: CountRows, support: Support) -> None:
    gamma_hat = mle_gamma(counts, support)
    ks = ks_statistic(counts, ZipfRows(gamma_hat, support))
    for row, table_row in enumerate(counts.table):
        want_ks, want_gamma = scalar_score(expand_counts(table_row), support)
        assert abs(gamma_hat[row] - want_gamma) <= GAMMA_TOL
        assert abs(ks[row] - want_ks) <= KS_TOL


class TestAgainstScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(2, 1000),
        gamma=st.floats(-1.0, 4.0),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_counts(self, k, gamma, n, seed):
        support = Support.finite(k)
        counts = sample(ZipfModel(gamma, support), n, RandomStream([seed]), rows=4)
        assert_rows_match_oracle(counts, support)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=2, max_size=60).filter(lambda c: sum(c) > 0))
    def test_arbitrary_count_vectors(self, row):
        # includes vectors whose estimating equation has no root in the bracket:
        # the fit and the oracle both take the range's nearer end
        table = np.array([row])
        assert_rows_match_oracle(CountRows(table, int(table.sum())), Support.finite(len(row)))

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(2, 1000), gamma=st.floats(-1.0, 4.0), n=st.integers(1, 500))
    def test_log_mean_per_row(self, k, gamma, n):
        support = Support.finite(k)
        counts = sample(ZipfModel(gamma, support), n, RandomStream([k, n]), rows=3)
        got = log_mean(counts)
        for row, table_row in enumerate(counts.table):
            one = expand_counts(table_row)
            assert got[row] == log_mean(as_rows(one, support))[0]
            want = math.fsum(math.log(v) for v in one.observations.tolist()) or math.log(2.0)
            assert got[row] == pytest.approx(want / n, rel=1e-13, abs=1e-15)


class TestEdges:
    @pytest.mark.parametrize("k", [2, 20, 1000])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_all_observations_at_one(self, k, n):
        table = np.zeros((2, k), dtype=np.int64)
        table[:, 0] = n
        assert_rows_match_oracle(CountRows(table, n), Support.finite(k))

    @pytest.mark.parametrize("k", [2, 20, 1000])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_all_observations_at_k(self, k, n):
        table = np.zeros((2, k), dtype=np.int64)
        table[:, -1] = n
        assert_rows_match_oracle(CountRows(table, n), Support.finite(k))

    @pytest.mark.parametrize("k", [2, 5, 100])
    def test_single_observation_at_every_value(self, k):
        assert_rows_match_oracle(CountRows(np.eye(k, dtype=np.int64), 1), Support.finite(k))

    def test_two_point_support_every_composition(self):
        for n in range(1, 21):
            table = np.array([[n - j, j] for j in range(n + 1)])
            assert_rows_match_oracle(CountRows(table, n), Support.finite(2))

    @pytest.mark.parametrize("n", [10, 1000])
    def test_largest_support_span(self, n):
        # K = 32766 runs two rows per chunk; the span must match the oracle on
        # the very counts it drew
        cfg = SimulationConfig(n=n, support=Support.finite(32766), gamma=1.0, base_seed=5,
                               replicates=100, repetitions=1)
        ks, gamma_hat = _run_spans((cfg, 0, 0, 1))
        stream = RandomStream.for_replicate(5, 0, 0)
        counts = sample(ZipfModel(1.0, cfg.support), n, stream, rows=100)
        for row in range(100):
            want_ks, want_gamma = scalar_score(expand_counts(counts.table[row]), cfg.support)
            assert abs(gamma_hat[row] - want_gamma) <= GAMMA_TOL
            assert abs(ks[row] - want_ks) <= KS_TOL

    def test_rows_must_match_support(self):
        counts = CountRows(np.ones((1, 5), dtype=np.int64), 5)
        with pytest.raises(ValueError):
            mle_gamma(counts, Support.finite(6))
        with pytest.raises(ValueError):
            ks_statistic(counts, ZipfRows(np.ones(1), Support.finite(4)))


class TestCountDraws:
    @pytest.mark.parametrize("k,n", [(20, 1000), (20, 20), (1000, 10), (32766, 100)])
    def test_rows_drawn_in_pieces_equal_one_draw(self, k, n):
        # K <= n draws conditional binomials, K > n inverse-transform values;
        # both consume the stream row after row
        model = ZipfModel(1.5, Support.finite(k))
        whole = sample(model, n, RandomStream([3]), rows=7).table
        stream = RandomStream([3])
        pieces = [sample(model, n, stream, rows=r).table for r in (1, 4, 2)]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        assert (whole.sum(axis=1) == n).all()

    @pytest.mark.parametrize("n", [10, 100])  # inverse transform, then conditional binomials
    def test_frequencies_match_pmf_chi_square(self, n):
        model = ZipfModel(2.0, Support.finite(20))
        counts = sample(model, n, RandomStream([11]), rows=10000).table.sum(axis=0)
        weights = np.arange(1.0, 21.0) ** -2.0
        expected = weights / weights.sum() * 10000 * n
        _, p_value = scipy.stats.chisquare(counts, expected)
        assert p_value > 0.001

    def test_count_rows_need_finite_support(self):
        # an unbounded model gives its samples as ValueRows instead
        drawn = sample(ZipfModel(2.0, Support.unbounded()), 10, RandomStream([1]), rows=2)
        assert isinstance(drawn, ValueRows)
        counts = CountRows(np.ones((1, 5), dtype=np.int64), 5)
        with pytest.raises(ValueError):
            mle_gamma(counts, Support.unbounded())
        with pytest.raises(ValueError):
            ks_statistic(counts, ZipfRows(np.ones(1), Support.unbounded()))
