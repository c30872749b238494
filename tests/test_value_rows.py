"""The batched unbounded-support kernel against the one-sample pipeline.

On the unbounded support a batch of replicates is ValueRows: each sample
reduced to its counts of 1..H, a row of a dense matrix, and its distinct
values above H with their counts (H = 0 for observed data).  They are
drawn by ``sample(..., rows=...)``, fitted by ``mle_gamma`` and scored by
``ks_statistic`` a whole batch at a time.  Each row must agree with the
scalar pipeline run on the very sample it holds.  A batch draws its rows'
counts of 1..H as multinomials and only the rest one value at a time, so
its rows are not the samples one-sample draws would give; they must follow
the same distribution.
"""
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zipfks import distribution, montecarlo, series
from zipfks.distribution import RandomStream, Sample, Support, ValueRows, ZipfModel, sample
from zipfks.estimate import ABSOLUTE_TOLERANCE, log_mean, mle_gamma
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.montecarlo import SimulationConfig, _run_spans, run_simulation

from oracles import (
    assert_draw_properties,
    brute_force_ks,
    chi_square_p,
    expand_value_rows,
    golden_section_mle,
    scalar_score,
    value_rows,
)

GAMMA_TOL = 1e-9
KS_TOL = 1e-12
UNBOUNDED = Support.unbounded()


def assert_rows_match_oracle(samples: list[Sample]) -> None:
    drawn = value_rows(samples)
    gamma_hat = mle_gamma(drawn, UNBOUNDED)
    ks = ks_statistic(drawn, ZipfRows(gamma_hat, UNBOUNDED))
    for row, one in enumerate(samples):
        want_ks, want_gamma = scalar_score(one, UNBOUNDED)
        assert abs(gamma_hat[row] - want_gamma) <= GAMMA_TOL
        assert abs(ks[row] - want_ks) <= KS_TOL


def assert_one_sample_is_row_zero(one: Sample) -> None:
    """One-sample fit and KS equal, bit for bit, row 0 of the batch kernels on its value row."""
    drawn = value_rows([one])
    batch_gamma = mle_gamma(drawn, UNBOUNDED)
    gamma_hat = mle_gamma(one, UNBOUNDED)
    assert gamma_hat == batch_gamma[0]
    ks = ks_statistic(one, ZipfModel(gamma_hat, UNBOUNDED)).statistic
    assert ks == ks_statistic(drawn, ZipfRows(batch_gamma, UNBOUNDED))[0]


# Values from every regime: the dense scan, past the 4096 scan limit, past
# the 65535 sampling limit, and so large that the mean log has no root (the
# fit takes the search range's lower end, 1.05).
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
        assert_draw_properties(drawn, model, 4, n)

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

    @settings(max_examples=150, deadline=None)
    @given(equal_size_samples())
    def test_one_sample_is_row_zero_of_the_batch(self, samples):
        assert_one_sample_is_row_zero(samples[0])

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(1.05, 6.0), n=st.integers(1, 20000), seed=st.integers(0, 2**32 - 1))
    def test_drawn_one_sample_is_row_zero_of_the_batch(self, gamma, n, seed):
        # many repeats of each value: the log sum is taken from the counts
        assert_one_sample_is_row_zero(sample(ZipfModel(gamma, UNBOUNDED), n, RandomStream([seed])))

    def test_log_mean_per_row(self):
        samples = [Sample([1, 1, 1]), Sample([2, 3, 70000]), Sample([1, 1, 4097])]
        got = log_mean(value_rows(samples), UNBOUNDED)
        assert list(got) == [log_mean(value_rows([one]), UNBOUNDED)[0] for one in samples]

    def test_rows_must_match_support(self):
        drawn = value_rows([Sample([1, 2, 3])])
        with pytest.raises(ValueError):
            mle_gamma(drawn, Support.finite(5))
        with pytest.raises(ValueError):
            ks_statistic(drawn, ZipfRows(np.ones(1), Support.finite(5)))


def dense_head_rows(samples: list[Sample], head: int) -> ValueRows:
    """These equal-size samples as a draw with head H = ``head`` holds them: counts of
    1..H in a matrix, distinct values above H with their counts."""
    n = samples[0].n
    heads = np.zeros((len(samples), head), dtype=np.min_scalar_type(n))
    values, counts, lengths = [], [], []
    for row, one in enumerate(samples):
        held, seen = one.distinct
        low = held <= head
        heads[row, held[low] - 1] = seen[low]
        values.append(held[~low])
        counts.append(seen[~low])
        lengths.append(int((~low).sum()))
    return ValueRows(heads, np.concatenate(values), np.concatenate(counts),
                     np.concatenate(([0], np.cumsum(lengths))), n)


@st.composite
def head_and_samples(draw):
    """A head H (below, at and above 32, and the draw's limit) and equal-size samples
    over 1..65535: rows within the head, above it, or both."""
    head = draw(st.sampled_from([16, 31, 32, 33, 100, 4096]))
    near = st.integers(head + 1, head + 40)  # tail values beside the columns
    pools = [st.integers(1, head), st.one_of(near, st.integers(head + 1, 65535)),
             st.one_of(st.integers(1, head), near, st.integers(head + 1, 65535))]
    n = draw(st.integers(1, 40))
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.lists(draw(st.sampled_from(pools)), min_size=1, max_size=6))
        samples.append(Sample(np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                                                    max_size=n)))))
    return head, samples


class TestDenseHead:
    """A drawn batch keeps each row's counts of 1..H as a dense matrix; observed data
    are rows with H = 0.  A row's log sum, estimate and statistic never depend on H."""

    @settings(max_examples=150, deadline=None)
    @given(head_and_samples())
    def test_dense_head_equals_the_observed_form(self, case):
        head, samples = case
        dense, observed = dense_head_rows(samples, head), value_rows(samples)
        assert dense.head.shape[1] == head and observed.head.shape[1] == 0
        np.testing.assert_array_equal(log_mean(dense, UNBOUNDED), log_mean(observed, UNBOUNDED))
        gamma_hat = mle_gamma(dense, UNBOUNDED)
        np.testing.assert_array_equal(gamma_hat, mle_gamma(observed, UNBOUNDED))
        for gammas in (gamma_hat, np.linspace(1.05, 6.0, len(samples))):
            models = ZipfRows(gammas, UNBOUNDED)
            np.testing.assert_array_equal(ks_statistic(dense, models), ks_statistic(observed, models))

    def test_rows_with_an_empty_head_or_no_tail(self):
        # one row wholly above the head, one wholly in it, one across it
        samples = [Sample([40, 41, 41, 5000]), Sample([1, 1, 2, 33]), Sample([1, 32, 33, 65535])]
        for head in (16, 32, 33, 4096):
            dense = dense_head_rows(samples, head)
            gamma_hat = mle_gamma(dense, UNBOUNDED)
            for row, one in enumerate(samples):
                assert gamma_hat[row] == mle_gamma(one, UNBOUNDED)
            ks = ks_statistic(dense, ZipfRows(gamma_hat, UNBOUNDED))
            for row, one in enumerate(samples):
                assert ks[row] == ks_statistic(one, ZipfModel(gamma_hat[row], UNBOUNDED)).statistic

    @pytest.mark.parametrize("gamma,n,digest", [
        (2.0, 100, "3b8cbde8b48cf679"),  # H = 16
        (2.0, 1700, "4c8b246164c3df60"),  # H = 32
        (1.25, 1000, "76bfa035d1c54e5b"),  # H = 77
        (2.0, 50_000, "ea919b41397ca089"),  # H = 174
        (1.05, 60_000, "d3a0b0325d0a6b8c"),  # H = 4096
    ])
    def test_statistics_keep_the_bits_of_the_value_by_value_kernel(self, gamma, n, digest):
        # the digests of every KS statistic and estimate of one span, taken when
        # drawn batches interleaved head and tail values and scored them one by
        # one; scoring the head as columns must not move a bit
        cfg = SimulationConfig(n=n, support=UNBOUNDED, gamma=gamma, base_seed=5,
                               replicates=100 if n > 50_000 else 512, repetitions=1)
        ks, gamma_hat = _run_spans((cfg, 0, 0, 1))
        assert hashlib.sha256(ks.tobytes() + gamma_hat.tobytes()).hexdigest()[:16] == digest

    def test_a_batch_without_tail_values(self):
        samples = [Sample([1, 2, 2, 7]), Sample([3, 3, 3, 3])]
        dense = dense_head_rows(samples, 16)
        assert dense.observations.size == 0
        gamma_hat = mle_gamma(dense, UNBOUNDED)
        np.testing.assert_array_equal(gamma_hat, mle_gamma(value_rows(samples), UNBOUNDED))
        models = ZipfRows(gamma_hat, UNBOUNDED)
        np.testing.assert_array_equal(ks_statistic(dense, models),
                                      ks_statistic(value_rows(samples), models))


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
            assert abs(gamma_hat[row] - want) <= ABSOLUTE_TOLERANCE

    def test_fits_just_above_the_bracket_edge_against_golden_section(self):
        model = ZipfModel(1.0501, UNBOUNDED)
        drawn = sample(model, 200, RandomStream([17]), rows=6)
        gamma_hat = mle_gamma(drawn, UNBOUNDED)
        for row, one in enumerate(assert_draw_properties(drawn, model, 6, 200)):
            want = golden_section_mle(one.observations, None, 1.05, 20.0)
            assert abs(gamma_hat[row] - want) <= ABSOLUTE_TOLERANCE


class TestChunks:
    @pytest.mark.parametrize("n", [1, 40, 3000])
    def test_cutoffs_independent_of_chunk_size(self, monkeypatch, n):
        # the draw, the zeta series and the KS scan all take their rows in
        # blocks; one row per block must give the same cutoffs as the default
        cfg = SimulationConfig(n=n, support=UNBOUNDED, gamma=1.3, base_seed=9, replicates=600,
                               repetitions=2)
        want = run_simulation(cfg, workers=1)
        for module in (distribution, series):
            monkeypatch.setattr(module, "CHUNK_ELEMENTS", 1)
        assert run_simulation(cfg, workers=1) == want


class TestBlocks:
    """value_blocks hands a span on a block of rows at a time, each block
    bounded by the values it stores; _run_spans fits and scores blocks in
    batches of bounded size."""

    @pytest.mark.parametrize("gamma,n,replicates,span,chunk", [
        (1.25, 3000, 700, 0, 1 << 10),  # heavy tails, a few rows per block
        (1.25, 3000, 700, 1, 1 << 10),  # the last span of 700: 188 rows
        (2.0, 200, 513, 1, 1 << 16),  # a one-row span
        (1.05, 20000, 100, 0, 1 << 12),  # rows each past the budget: one row per block
        (4.0, 50, 1100, 2, 1 << 6),
        (1.5, 5000, 1030, 0, 1 << 16),  # the default budget: two blocks
    ])
    def test_span_equals_the_whole_span_composition(self, monkeypatch, gamma, n, replicates,
                                                    span, chunk):
        monkeypatch.setattr(distribution, "CHUNK_ELEMENTS", chunk)
        cfg = SimulationConfig(n=n, support=UNBOUNDED, gamma=gamma, base_seed=21,
                               replicates=replicates, repetitions=1)
        ks, gamma_hat = _run_spans((cfg, 0, span, span + 1))
        rows = min(montecarlo._SPAN, replicates - span * montecarlo._SPAN)
        assert ks.size == gamma_hat.size == rows
        stream = RandomStream.for_replicate(cfg.base_seed, 0, span)
        drawn = sample(ZipfModel(gamma, UNBOUNDED), n, stream, rows=rows)
        want_gamma = mle_gamma(drawn, UNBOUNDED)
        np.testing.assert_array_equal(gamma_hat, want_gamma)
        np.testing.assert_array_equal(ks, ks_statistic(drawn, ZipfRows(want_gamma, UNBOUNDED)))

    def test_block_past_a_32_bit_sort_key(self, monkeypatch):
        # a tail draw's sort key is its row above 16 bits of value: a block of
        # more than 2^16 rows sorts 64-bit keys, a smaller one 32-bit keys; a
        # row's work counts its 16 head cells, so such a block needs a larger budget
        model = ZipfModel(1.05, UNBOUNDED)
        monkeypatch.setattr(distribution, "CHUNK_ELEMENTS", 1 << 22)
        blocks = list(distribution.value_blocks(model, 2, RandomStream([5]), 80000))
        assert blocks[0].starts.size - 1 > 1 << 16
        big = distribution.concatenate_rows(blocks)
        monkeypatch.setattr(distribution, "CHUNK_ELEMENTS", 1 << 12)
        small = distribution.concatenate_rows(
            distribution.value_blocks(model, 2, RandomStream([5]), 80000))
        for field in ("head", "observations", "counts", "starts"):
            np.testing.assert_array_equal(getattr(big, field), getattr(small, field))

    @pytest.mark.parametrize("gamma,n,rows,chunk", [
        (1.25, 3000, 300, 1 << 10), (1.05, 20000, 7, 1 << 8), (2.0, 100, 512, 1 << 8),
        (20.0, 1000, 512, 1 << 5),  # no tail draws at all
    ])
    def test_blocks_are_bounded_and_do_not_change_the_draw(self, monkeypatch, gamma, n, rows, chunk):
        model = ZipfModel(gamma, UNBOUNDED)
        whole = list(distribution.value_blocks(model, n, RandomStream([4]), rows))
        monkeypatch.setattr(distribution, "CHUNK_ELEMENTS", chunk)
        budget = distribution._BLOCK_CHUNKS * chunk
        blocks = list(distribution.value_blocks(model, n, RandomStream([4]), rows))
        assert len(blocks) > len(whole)
        assert sum(b.starts.size - 1 for b in blocks) == rows
        head = distribution._head_size(model, n)
        for block in blocks:
            # a block's work, head cells included, fits the budget unless it is one row
            assert block.sizes(UNBOUNDED)[-1] <= budget or block.starts.size == 2
            assert block.n == n and block.starts[0] == 0 and block.head.shape[1] == head
            assert (block.observations > head).all()
        joined = sample(model, n, RandomStream([4]), rows=rows)
        assert_draw_properties(joined, model, rows, n, fitted=False)
        for got, want in ((joined, distribution.concatenate_rows(whole)),
                          (distribution.concatenate_rows(blocks), joined)):
            for field in ("head", "observations", "counts", "starts"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


class TopStream(RandomStream):
    """A stream whose uniforms are all 1: every tail draw lands on the last table entry."""

    __slots__ = ()

    def uniforms(self, count: int) -> np.ndarray:
        return np.ones(count)


class TailStream(RandomStream):
    """A stream whose multinomials put every observation in the last category, the tail."""

    __slots__ = ()

    def multinomial(self, n: int, p: np.ndarray, rows: int) -> np.ndarray:
        table = np.zeros((rows, p.size), dtype=np.int64)
        table[:, -1] = n
        return table


class TestHeadTailDraw:
    """Head counts 1..H by multinomial, the tail H+1..65535 by inverse transform."""

    def test_single_observation_rows(self):
        # n = 1: no value expects a whole observation, so H is its floor of 16
        for gamma in (1.05, 2.0, 6.0):
            model = ZipfModel(gamma, UNBOUNDED)
            assert distribution._head_size(model, 1) == distribution._HEAD_MIN
            drawn = sample(model, 1, RandomStream([3]), rows=200)
            assert_draw_properties(drawn, model, 200, 1)

    def test_heavy_tail_at_the_head_limit(self):
        model = ZipfModel(1.05, UNBOUNDED)
        assert distribution._head_size(model, 200_000) == distribution._HEAD_MAX
        for n, rows in ((50_000, 2), (200_000, 1)):
            head = distribution._head_size(model, n)
            drawn = sample(model, n, RandomStream([5, n]), rows=rows)
            assert_draw_properties(drawn, model, rows, n)
            # about a fifth of the observations lie in the tail
            tail = drawn.counts[drawn.observations > head].sum()
            assert 0.1 * rows * n < tail < 0.4 * rows * n

    def test_steep_exponent_draws_no_tail(self):
        # the mass above 16 is below 1e-24: every observation is a head count,
        # and the stream gives no uniforms for the tail
        model = ZipfModel(20.0, UNBOUNDED)
        assert model._sampling_pmf[distribution._HEAD_MIN :].sum() < 1e-24
        stream = RandomStream([8])
        drawn = sample(model, 1000, stream, rows=50)
        assert_draw_properties(drawn, model, 50, 1000)
        assert drawn.observations.size == 0
        replay = RandomStream([8])
        pmf = model._sampling_pmf
        head = distribution._HEAD_MIN
        replay.multinomial(1000, np.append(pmf[:head], pmf[head:].sum()), 50)
        assert stream.uniforms(4).tolist() == replay.uniforms(4).tolist()

    def test_draws_at_the_sampling_limit(self):
        # a uniform of 1 lands on the last entry of the tail table, or just
        # past it when rounding leaves that entry below 1: either way 65535
        model = ZipfModel(1.05, UNBOUNDED)
        drawn = sample(model, 1000, TopStream([11]), rows=20)
        samples = assert_draw_properties(drawn, model, 20, 1000, fitted=False)
        head = distribution._head_size(model, 1000)
        for one in samples:
            tail = one.observations[one.observations > head]
            assert tail.size > 0 and (tail == distribution.UNBOUNDED_SAMPLE_LIMIT).all()

    def test_tail_draws_follow_the_conditional_pmf(self):
        # with every observation in the tail, the draws must follow the pmf
        # restricted to H+1..65535; unit bins at the seam catch a shifted table
        model = ZipfModel(2.0, UNBOUNDED)
        head = distribution._head_size(model, 1000)
        drawn = sample(model, 1000, TailStream([12]), rows=200)
        assert_draw_properties(drawn, model, 200, 1000, fitted=False)
        assert drawn.observations.min() > head
        tail = model._sampling_pmf.copy()
        tail[:head] = 0.0
        tail /= tail.sum()
        edges = np.concatenate(([1], np.arange(head + 1, head + 9), 2 ** np.arange(6, 16)))
        assert chi_square_p(np.repeat(drawn.observations, drawn.counts), tail, edges) > 1e-4

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(1.05, 60.0), head=st.integers(16, 4096), seed=st.integers(0, 2**32 - 1))
    def test_tail_search_equals_binary_search(self, gamma, head, seed):
        # steep exponents give runs of equal entries at 1.0, where the search
        # must fall back; uniforms equal to an entry must land on its first copy
        pmf = ZipfModel(gamma, UNBOUNDED)._sampling_pmf
        assume(pmf[head:].sum() > 0.0)
        cdf = np.append(np.cumsum(pmf[head:]), np.inf)
        cdf[:-1] *= 1.0 / cdf[-2]
        u = np.concatenate((RandomStream([seed]).uniforms(2000), [1.0, 2.0**-53], cdf[[0, 1, 7, -2]]))
        got = distribution._guided_search(cdf, distribution._guide(cdf), u)
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="left"))

    @pytest.mark.parametrize("gamma,n", [(1.05, 1000), (1.25, 1000), (2.0, 100), (4.0, 1000)])
    def test_pooled_draws_follow_the_sampling_pmf(self, gamma, n):
        # unit bins around the head's last value catch a seam misplaced by one
        model = ZipfModel(gamma, UNBOUNDED)
        head = distribution._head_size(model, n)
        drawn = sample(model, n, RandomStream([int(gamma * 100), n]), rows=512)
        pooled = np.concatenate([one.observations for one in expand_value_rows(drawn)])
        edges = np.unique(np.concatenate((np.arange(1, 9), [head - 1, head, head + 1, head + 2],
                                          2 ** np.arange(4, 16))))
        assert chi_square_p(pooled, model._sampling_pmf, edges) > 1e-4
        assert chi_square_p(pooled, model._sampling_pmf) > 1e-4


def search_points(cdf: np.ndarray, guide: np.ndarray, seed: int) -> np.ndarray:
    """Uniforms, 1.0, every bucket edge j/M and its neighbours, and the table's own entries."""
    m = guide.size - 1
    edges = np.arange(1, m + 1) / m
    finite = cdf[np.isfinite(cdf) & (cdf > 0.0) & (cdf <= 1.0)]
    return np.concatenate((RandomStream([seed]).uniforms(5000), [1.0, 2.0**-53], edges,
                           np.nextafter(edges, 0.0), np.nextafter(edges[:-1], 1.0), finite))


class TestGuidedSearch:
    """_guided_search gives np.searchsorted's index on every table the draws search."""

    @pytest.mark.parametrize("gamma,n", [(1.05, 1), (1.05, 200_000), (1.25, 1000), (20.0, 1000)])
    def test_tail_tables(self, gamma, n):
        model = ZipfModel(gamma, UNBOUNDED)
        _, cdf, guide = model._draw_table(distribution._head_size(model, n))
        u = search_points(cdf, guide, int(gamma * 100) + n)
        got = distribution._guided_search(cdf, guide, u)
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="left"))

    @pytest.mark.parametrize("gamma,k", [(1.0, 20), (4.0, 20), (-2.0, 20), (1.0, 32766),
                                         (-1.0, 32766), (1.05, None), (20.0, None)])
    def test_sampling_tables(self, gamma, k):
        # the whole-support table of one-sample draws and of K > n batches
        model = ZipfModel(gamma, Support(k=k))
        _, cdf, guide = model._draw_table(0)
        u = search_points(cdf, guide, 31)
        got = distribution._guided_search(cdf, guide, u)
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="left"))

    @pytest.mark.parametrize("gamma,k", [(1.0, 20), (20.0, None), (1.05, None), (1.5, 32766)])
    def test_guide_is_the_first_entry_at_each_bucket_edge(self, gamma, k):
        model = ZipfModel(gamma, Support(k=k))
        tables = [model._draw_table(0)[1:]]
        if k is None:
            tables.append(model._draw_table(16)[1:])
        for cdf, guide in tables:
            m = guide.size - 1
            assert guide.dtype == np.int32 and m & (m - 1) == 0 and cdf.size - 1 <= m < 2 * cdf.size
            want = np.searchsorted(cdf, np.arange(m + 1) / m, side="left")
            np.testing.assert_array_equal(guide, want)
            assert cdf[-1] == np.inf and (np.diff(cdf) >= 0).all()

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.sampled_from([0.0, 0.0, 0.0, 1e-300, 1e-9, 0.01, 0.3]), min_size=1,
                          max_size=300),
           seed=st.integers(0, 2**32 - 1))
    def test_runs_of_equal_entries(self, steps, seed):
        # long runs of one value, in the middle or ending below 1, must land on
        # their first entry and must send a bucket's searches past the run
        weights = np.array(steps)
        assume(weights.sum() > 0.0)
        cdf = np.append(np.cumsum(weights), np.inf)
        cdf[:-1] *= 1.0 / cdf[-2]
        guide = distribution._guide(cdf)
        u = search_points(cdf, guide, seed)
        got = distribution._guided_search(cdf, guide, u)
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="left"))

    def test_draw_values_clamp_at_the_table_end(self):
        # a uniform of 1 above a finite table's last entry lands on its sentinel,
        # then on K
        model = ZipfModel(2.0, Support.finite(20))
        _, cdf, _ = model._draw_table(0)
        drawn = distribution._draw_values(model, 50, TopStream([1]))
        want = np.minimum(np.searchsorted(cdf[:-1], np.ones(50)) + 1, 20)
        np.testing.assert_array_equal(drawn, want)
        assert (drawn == 20).all()


class TestDrawTables:
    """The generating model builds a draw's tables once and keeps those of one head only."""

    @staticmethod
    def count_builds(monkeypatch) -> list[int]:
        """The list to which each later table build appends its cdf's size."""
        built = []
        guide = distribution._guide

        def counting(cdf):
            built.append(cdf.size)
            return guide(cdf)

        monkeypatch.setattr(distribution, "_guide", counting)
        return built

    def test_cells_run_in_turn_build_each_model_once(self, monkeypatch):
        # the unbounded benchmark's three cells, run twice in turn in one process
        montecarlo._generating_model.cache_clear()
        built = self.count_builds(monkeypatch)
        for _ in range(2):
            for gamma, n in ((1.25, 1000), (4.0, 1000), (2.0, 100)):
                cfg = SimulationConfig(n=n, support=UNBOUNDED, gamma=gamma, base_seed=1,
                                       replicates=512, repetitions=1)
                run_simulation(cfg, workers=1)
        assert len(built) == 3

    def test_a_model_holds_the_tables_of_one_head(self, monkeypatch):
        model = ZipfModel(2.0, UNBOUNDED)
        built = self.count_builds(monkeypatch)
        small, large = (distribution._head_size(model, n) for n in (100, 10_000))
        assert small < large
        sample(model, 100, RandomStream([1]), rows=4)
        first = weakref.ref(model._draw_table(small)[1])
        sample(model, 10_000, RandomStream([2]), rows=4)
        assert first() is None  # the small head's tail cdf went with the next draw
        sample(model, 10_000, RandomStream([3]), rows=4)
        sample(model, 100, RandomStream([4]), rows=4)
        assert built == [65536 - small, 65536 - large, 65536 - small]
