"""The batched kernel on finite supports against the one-sample pipeline.

On a finite support a replicate is its count vector, the dense head of a
ValueRows row (H = K, no values above it): batches are drawn by
``sample(..., rows=...)``, fitted by ``mle_gamma`` and scored by
``ks_statistic`` a whole matrix at a time.  Each row must agree with the
scalar pipeline run on the sample those counts describe.
"""
import hashlib
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks.distribution import (
    RandomStream,
    Sample,
    Support,
    ValueRows,
    ZipfModel,
    as_rows,
    sample,
)
from zipfks.estimate import log_mean, mle_gamma
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.montecarlo import SimulationConfig, _run_spans

from oracles import count_rows, expand_counts, scalar_score, value_rows

GAMMA_TOL = 1e-9
KS_TOL = 1e-12


def assert_rows_match_oracle(counts: ValueRows, support: Support) -> None:
    gamma_hat = mle_gamma(counts, support)
    ks = ks_statistic(counts, ZipfRows(gamma_hat, support))
    for row, table_row in enumerate(counts.head):
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
        assert_rows_match_oracle(count_rows(table, int(table.sum())), Support.finite(len(row)))

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(2, 1000), gamma=st.floats(-1.0, 4.0), n=st.integers(1, 500))
    def test_log_mean_per_row(self, k, gamma, n):
        support = Support.finite(k)
        counts = sample(ZipfModel(gamma, support), n, RandomStream([k, n]), rows=3)
        got = log_mean(counts, support)
        for row, table_row in enumerate(counts.head):
            one = expand_counts(table_row)
            assert got[row] == log_mean(as_rows(one, support), support)[0]
            want = math.fsum(math.log(v) for v in one.observations.tolist()) or math.log(2.0)
            assert got[row] == pytest.approx(want / n, rel=1e-13, abs=1e-15)


class TestEdges:
    @pytest.mark.parametrize("k", [2, 20, 1000])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_all_observations_at_one(self, k, n):
        table = np.zeros((2, k), dtype=np.int64)
        table[:, 0] = n
        assert_rows_match_oracle(count_rows(table, n), Support.finite(k))

    @pytest.mark.parametrize("k", [2, 20, 1000])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_all_observations_at_k(self, k, n):
        table = np.zeros((2, k), dtype=np.int64)
        table[:, -1] = n
        assert_rows_match_oracle(count_rows(table, n), Support.finite(k))

    @pytest.mark.parametrize("k", [2, 5, 100])
    def test_single_observation_at_every_value(self, k):
        assert_rows_match_oracle(count_rows(np.eye(k, dtype=np.int64), 1), Support.finite(k))

    def test_two_point_support_every_composition(self):
        for n in range(1, 21):
            table = np.array([[n - j, j] for j in range(n + 1)])
            assert_rows_match_oracle(count_rows(table, n), Support.finite(2))

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
            want_ks, want_gamma = scalar_score(expand_counts(counts.head[row]), cfg.support)
            assert abs(gamma_hat[row] - want_gamma) <= GAMMA_TOL
            assert abs(ks[row] - want_ks) <= KS_TOL

    @pytest.mark.parametrize("k,gamma,n,replicates,digest", [
        (2, 1.0, 1, 512, "3267cbcccd9e164a"),  # every row all ones or all at K
        (20, 1.0, 10, 3500, "26361fbfaf2c2828"),  # seven spans, batches across them
        (20, 2.0, 1000, 512, "797ebe1d000bca1b"),
        (1000, 0.5, 10, 512, "d078cae1a2a1796f"),  # K > n: inverse transform and bincount
        (1000, 1.0, 1000, 512, "c0bc5bf102cb00ed"),
        (32766, 1.0, 10, 512, "b8b23a5fcf3cea5c"),  # two rows per chunk
    ])
    def test_statistics_keep_the_bits_of_the_per_k_scan(self, k, gamma, n, replicates, digest):
        # the digests of every KS statistic and estimate of a task's spans, taken
        # when finite batches were count matrices of a type of their own
        cfg = SimulationConfig(n=n, support=Support.finite(k), gamma=gamma, base_seed=5,
                               replicates=replicates, repetitions=1)
        ks, gamma_hat = _run_spans((cfg, 0, 0, -(-replicates // 512)))
        assert hashlib.sha256(ks.tobytes() + gamma_hat.tobytes()).hexdigest()[:16] == digest

    def test_rows_must_match_support(self):
        # a head that is not K wide, or values above it, do not fit 1..K
        counts = count_rows(np.ones((1, 5), dtype=np.int64), 5)
        with pytest.raises(ValueError):
            mle_gamma(counts, Support.finite(6))
        with pytest.raises(ValueError):
            ks_statistic(counts, ZipfRows(np.ones(1), Support.finite(4)))
        tail = ValueRows(np.ones((1, 5), dtype=np.int64), np.array([6]), np.array([1]),
                         np.array([0, 1]), 6)
        with pytest.raises(ValueError):
            mle_gamma(tail, Support.finite(5))
        with pytest.raises(ValueError):
            ks_statistic(tail, ZipfRows(np.ones(1), Support.finite(5)))


class TestCountDraws:
    @pytest.mark.parametrize("k,n", [(20, 1000), (20, 20), (1000, 10), (32766, 100)])
    def test_rows_drawn_in_pieces_equal_one_draw(self, k, n):
        # K <= n draws conditional binomials, K > n inverse-transform values;
        # both consume the stream row after row
        model = ZipfModel(1.5, Support.finite(k))
        whole = sample(model, n, RandomStream([3]), rows=7).head
        stream = RandomStream([3])
        pieces = [sample(model, n, stream, rows=r).head for r in (1, 4, 2)]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        assert (whole.sum(axis=1) == n).all()

    @pytest.mark.parametrize("n", [10, 100])  # inverse transform, then conditional binomials
    def test_frequencies_match_pmf_chi_square(self, n):
        model = ZipfModel(2.0, Support.finite(20))
        counts = sample(model, n, RandomStream([11]), rows=10000).head.sum(axis=0)
        weights = np.arange(1.0, 21.0) ** -2.0
        expected = weights / weights.sum() * 10000 * n
        _, p_value = scipy.stats.chisquare(counts, expected)
        assert p_value > 0.001

    def test_count_rows_fit_the_unbounded_support_as_observed(self):
        # rows with only a head of counts are a valid unbounded batch: they fit
        # and score, bit for bit, as their observed form (H = 0) does
        counts = count_rows(np.array([[1, 1, 1, 1, 1], [2, 0, 0, 3, 0]]), 5)
        observed = value_rows([Sample([1, 2, 3, 4, 5]), Sample([1, 1, 4, 4, 4])])
        unbounded = Support.unbounded()
        gamma_hat = mle_gamma(counts, unbounded)
        np.testing.assert_array_equal(gamma_hat, mle_gamma(observed, unbounded))
        models = ZipfRows(gamma_hat, unbounded)
        np.testing.assert_array_equal(ks_statistic(counts, models), ks_statistic(observed, models))
