import multiprocessing
import os
import time
from decimal import ROUND_FLOOR, Decimal

import numpy as np
import pytest

from zipfks import distribution, montecarlo
from zipfks.distribution import RandomStream, Support, ZipfModel, sample
from zipfks.estimate import mle_gamma
from zipfks.gof import ZipfRows, judge, ks_statistic
from zipfks.montecarlo import (
    _RETRY_OFFSET,
    _SPAN,
    DEFAULT_LEVELS,
    CutoffLookupError,
    CutoffTable,
    SimulationConfig,
    SimulationError,
    _run_spans,
    build_table,
    order_quantiles,
    resolve_workers,
    run_simulation,
)

from oracles import assert_draw_properties, expand_counts, nth_element, scalar_score


def config(**overrides):
    base = dict(
        n=50,
        support=Support.finite(20),
        gamma=1.5,
        base_seed=101,
        replicates=400,
        repetitions=2,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.fixture
def pool_always(monkeypatch):
    """Start a pool for any call with more than one worker, however little work it has."""
    monkeypatch.setattr(montecarlo, "_POOL_MIN_SECONDS", 0.0)


def count_pools(monkeypatch):
    """List that gets one entry per pool the engine starts from now on."""
    pools = []
    context = multiprocessing.get_context()

    class CountingContext:
        def Pool(self, *args, **kwargs):
            pools.append(args)
            return context.Pool(*args, **kwargs)

    monkeypatch.setattr(montecarlo.multiprocessing, "get_context", lambda: CountingContext())
    return pools


class TestConfigValidation:
    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            config(replicates=99)

    def test_quantiles_must_increase(self):
        with pytest.raises(ValueError):
            config(quantiles=(0.9, 0.9))
        with pytest.raises(ValueError):
            config(quantiles=(0.9, 0.5))
        with pytest.raises(ValueError):
            config(quantiles=(0.0, 0.9))

    def test_gamma_support_pair_validated(self):
        with pytest.raises(ValueError):
            config(support=Support.unbounded(), gamma=1.0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            config(base_seed=-1)
        with pytest.raises(ValueError):
            config(base_seed=1 << 64)


class TestOrderQuantiles:
    def test_decile_array(self):
        stats = [0.1 * i for i in range(1, 11)]
        assert order_quantiles(stats, [0.9]) == [1.0]

    def test_reference_protocol_ranks(self):
        # ascending 0..49999 scaled: rank floor(R*q) must come back verbatim
        stats = np.arange(50000) / 50000.0
        got = order_quantiles(stats, DEFAULT_LEVELS)
        assert got == [45000 / 50000, 47500 / 50000, 49500 / 50000, 49950 / 50000]

    def test_decimal_rank_semantics(self):
        # 100 * 0.29 rounds below 29 in binary; the written decimal must win
        stats = np.arange(100) / 100.0
        assert order_quantiles(stats, [0.29]) == [0.29]

    def test_matches_selection_oracle(self):
        rng = np.random.default_rng(17)
        for count in (101, 1000, 50000):
            stats = rng.random(count)
            got = order_quantiles(stats, DEFAULT_LEVELS)
            for level, value in zip(DEFAULT_LEVELS, got):
                rank = int((Decimal(str(level)) * count).to_integral_value(rounding=ROUND_FLOOR))
                # same rank rule, but selection instead of sorting
                assert value == nth_element(stats, rank)

    def test_not_sensitive_to_input_order(self):
        stats = np.random.default_rng(3).random(1000)
        shuffled = stats.copy()[::-1]
        assert order_quantiles(stats, [0.9, 0.99]) == order_quantiles(shuffled, [0.9, 0.99])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_quantiles([], [0.9])


class TestRunReplicate:
    """The replicate stream contract, as spans carry it.

    Span j of a repetition holds replicates j*_SPAN .. (j+1)*_SPAN - 1 and
    draws them, in index order, from the stream keyed (seed, repetition, j).
    """

    def test_deterministic(self):
        cfg = config(replicates=1100)
        for span in range(3):
            a = _run_spans((cfg, 0, span, span + 1))
            b = _run_spans((cfg, 0, span, span + 1))
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_distinct_indices_differ(self):
        cfg = config(replicates=1100)
        spans = [_run_spans((cfg, 0, span, span + 1))[0] for span in range(3)]
        assert [s.size for s in spans] == [_SPAN, _SPAN, 1100 - 2 * _SPAN]
        assert not np.array_equal(spans[0], spans[1])
        assert not np.array_equal(spans[0][: spans[2].size], spans[2])
        assert np.unique(spans[0]).size > 100  # replicates within a span differ too

    def test_repetitions_use_distinct_streams(self):
        cfg = config()
        assert not np.array_equal(_run_spans((cfg, 0, 0, 1))[0], _run_spans((cfg, 1, 0, 1))[0])

    def test_matches_manual_pipeline(self):
        # a finite-support span is exactly: the span's count rows -> batched
        # re-fit -> batched KS against the re-fit, and each row agrees with the
        # one-sample pipeline run on the same counts
        cfg = config(replicates=1100)
        support = cfg.support
        ks, gamma_hat = _run_spans((cfg, 1, 2, 3))
        stream = RandomStream.for_replicate(cfg.base_seed, 1, 2)
        drawn = sample(ZipfModel(cfg.gamma, support), cfg.n, stream, rows=ks.size)
        want_gamma = mle_gamma(drawn, support)
        np.testing.assert_array_equal(gamma_hat, want_gamma)
        np.testing.assert_array_equal(ks, ks_statistic(drawn, ZipfRows(want_gamma, support)))
        for row in range(ks.size):
            want_ks, want_g = scalar_score(expand_counts(drawn.table[row]), support)
            assert abs(gamma_hat[row] - want_g) < 1e-9
            assert abs(ks[row] - want_ks) < 1e-12

    def test_matches_manual_pipeline_unbounded(self):
        # an unbounded span is exactly: the span's value rows -> batched
        # re-fit -> batched KS against the re-fit, and each row agrees with
        # the one-sample pipeline run on the sample that row holds
        cfg = config(support=Support.unbounded(), gamma=2.0, n=30, replicates=100)
        ks, gamma_hat = _run_spans((cfg, 0, 0, 1))
        model = ZipfModel(cfg.gamma, cfg.support)
        drawn = sample(model, cfg.n, RandomStream.for_replicate(cfg.base_seed, 0, 0), rows=ks.size)
        want_gamma = mle_gamma(drawn, cfg.support)
        np.testing.assert_array_equal(gamma_hat, want_gamma)
        np.testing.assert_array_equal(ks, ks_statistic(drawn, ZipfRows(want_gamma, cfg.support)))
        samples = assert_draw_properties(drawn, model, cfg.replicates, cfg.n)
        for row, one in enumerate(samples):
            want_ks, want_g = scalar_score(one, cfg.support)
            assert abs(gamma_hat[row] - want_g) < 1e-9
            assert abs(ks[row] - want_ks) < 1e-12

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            _run_spans((config(), 0, 1, 2))  # 400 replicates make a single span
        with pytest.raises(ValueError):
            _run_spans((config(), 0, 0, 2))
        with pytest.raises(ValueError):
            _run_spans((config(), 0, -1, 0))
        with pytest.raises(ValueError):
            _run_spans((config(), 0, 0, 0))  # no span at all

    def test_failed_fit_redrawn_once_on_offset_stream(self):
        # about 2% of these fits have no root; each such replicate is redrawn,
        # alone, from the stream keyed (seed, repetition, 2^32 + index)
        cfg = config(n=5, gamma=-5.0, base_seed=7)
        model = ZipfModel(cfg.gamma, cfg.support)
        first = mle_gamma(sample(model, cfg.n, RandomStream.for_replicate(7, 0, 0), rows=400), cfg.support)
        failed = np.flatnonzero(np.isnan(first))
        assert failed.size > 0
        ks, gamma_hat = _run_spans((cfg, 0, 0, 1))
        assert not np.isnan(ks).any()
        np.testing.assert_array_equal(np.delete(gamma_hat, failed), np.delete(first, failed))
        for index in failed:
            stream = RandomStream.for_replicate(7, 0, _RETRY_OFFSET + int(index))
            redrawn = sample(model, cfg.n, stream, rows=1)
            want_g = mle_gamma(redrawn, cfg.support)
            assert gamma_hat[index] == want_g[0]
            assert ks[index] == ks_statistic(redrawn, ZipfRows(want_g, cfg.support))[0]

    def test_double_estimator_failure_aborts_with_diagnostics(self):
        # most draws from this model pile onto the top of the support, where
        # the estimating equation has no root inside the bracket; the
        # offset-stream retry hits the same wall almost surely within a few
        # indices
        cfg = config(n=3, support=Support.finite(20), gamma=-30.0, replicates=100)
        with pytest.raises(SimulationError, match=r"replicate \d+ \(repetition 0, gamma=-30.0, n=3"):
            _run_spans((cfg, 0, 0, 1))


class TestObservedSample:
    """An observed sample is scored as the replicate with the same counts is."""

    def test_sample_tying_a_cutoff_is_not_rejected(self):
        # the 0.9 cutoff of this cell is one replicate's statistic; its counts,
        # read back as an observed sample, must score exactly that, so a verdict
        # never rejects data that only ties the cutoff
        cfg = SimulationConfig(n=5, support=Support(20), gamma=2.0, base_seed=7,
                               replicates=2048, repetitions=1)
        cutoff = dict(run_simulation(cfg, 1))[0.9]
        ks, _ = _run_spans((cfg, 0, 0, 4))
        tied = np.flatnonzero(ks == cutoff)
        assert 1951 in tied
        model = ZipfModel(cfg.gamma, cfg.support)
        for index in tied:
            span, row = divmod(int(index), _SPAN)
            stream = RandomStream.for_replicate(cfg.base_seed, 0, span)
            observed = expand_counts(sample(model, cfg.n, stream, rows=_SPAN).table[row])
            fitted = ZipfModel(mle_gamma(observed, cfg.support), cfg.support)
            statistic = ks_statistic(observed, fitted).statistic
            assert statistic == cutoff
            assert not judge(statistic, cutoff, 0.9).rejected


def span_by_span(cfg, repetition):
    """(ks, gamma_hat) of a repetition whose every span is a task of its own."""
    spans = -(-cfg.replicates // _SPAN)
    parts = [_run_spans((cfg, repetition, span, span + 1)) for span in range(spans)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def batch_rows(monkeypatch):
    """List that gets the row count of every batch the engine fits from now on."""
    rows = []
    fit = montecarlo.mle_gamma

    def counting(drawn, support):
        gamma_hat = fit(drawn, support)
        rows.append(gamma_hat.size)
        return gamma_hat

    monkeypatch.setattr(montecarlo, "mle_gamma", counting)
    return rows


class TestBatches:
    """A task that runs several spans fits and scores their blocks in
    batches of bounded size, which may cross spans; every row must come out
    as it does when each span is a task of its own."""

    @pytest.mark.parametrize("k,gamma,n,chunks,batches", [
        (2, 1.5, 50, None, [1100]),
        (20, 1.5, 10, None, [1100]),  # K > n: drawn by inverse transform
        (20, 1.5, 100, None, [1100]),  # K <= n: drawn as multinomial counts
        (1000, 1.0, 100, None, [65] * 7 + [57] + [65] * 7 + [57] + [65, 11]),  # no span fits
        (1000, 1.0, 100, (1 << 20, 1 << 20), [1024, 76]),  # two spans fit the budget
        (None, 2.0, 1, None, [1100]),
        (None, 2.0, 100, None, [1100]),
        # one-row blocks, about six to a batch: batches end inside spans and cross them
        (None, 1.25, 3000, (1 << 11, 1 << 8), None),
    ])
    def test_batched_repetition_equals_span_by_span(self, monkeypatch, k, gamma, n, chunks,
                                                    batches):
        if chunks is not None:
            monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", chunks[0])
            monkeypatch.setattr(distribution, "CHUNK_ELEMENTS", chunks[1])
        cfg = config(n=n, support=Support(k=k), gamma=gamma, replicates=1100, repetitions=2)
        want_ks, want_gamma = span_by_span(cfg, 1)
        rows = batch_rows(monkeypatch)
        ks, gamma_hat = _run_spans((cfg, 1, 0, 3))
        np.testing.assert_array_equal(ks, want_ks)
        np.testing.assert_array_equal(gamma_hat, want_gamma)
        if batches is not None:
            assert rows == batches
        else:
            ends = np.cumsum(rows)
            assert len(rows) > 3 * 6 and max(rows) < 100
            assert not {_SPAN, 2 * _SPAN} <= set(ends)  # a batch crosses a span's end

    def test_serial_run_is_the_span_by_span_run(self):
        # both repetitions, each of three spans, the last one partial
        cfg = config(n=100, support=Support.unbounded(), gamma=2.0, replicates=1100,
                     repetitions=2)
        per_rep = [order_quantiles(span_by_span(cfg, rep)[0], cfg.quantiles) for rep in (0, 1)]
        got = [cutoff for _, cutoff in run_simulation(cfg, workers=1)]
        np.testing.assert_array_equal(got, np.mean(per_rep, axis=0))

    def test_retried_rows_keep_their_replicate_index(self, monkeypatch):
        # about 2% of these fits have no root, in every span; a batch of all
        # three spans redraws each from the stream of its replicate index
        cfg = config(n=5, gamma=-5.0, base_seed=7, replicates=1100, repetitions=1)
        model = ZipfModel(cfg.gamma, cfg.support)
        for span in (1, 2):
            stream = RandomStream.for_replicate(7, 0, span)
            rows = min(_SPAN, cfg.replicates - span * _SPAN)
            assert np.isnan(mle_gamma(sample(model, cfg.n, stream, rows=rows), cfg.support)).any()
        want_ks, want_gamma = span_by_span(cfg, 0)
        rows = batch_rows(monkeypatch)
        ks, gamma_hat = _run_spans((cfg, 0, 0, 3))
        assert rows[0] == 1100 and len(rows) > 3 and set(rows[1:]) == {1}  # then the retries
        np.testing.assert_array_equal(ks, want_ks)
        np.testing.assert_array_equal(gamma_hat, want_gamma)

    def test_double_failure_names_the_replicate_index(self):
        # test_double_estimator_failure_aborts_with_diagnostics's model: a
        # multi-span batch that starts at span 1 reports the replicate that
        # span 1 alone reports
        cfg = config(n=3, support=Support.finite(20), gamma=-30.0, replicates=1100,
                     repetitions=1)
        messages = []
        for task in [(cfg, 0, 1, 3), (cfg, 0, 1, 2)]:
            with pytest.raises(SimulationError, match=r"replicate (\d+) ") as err:
                _run_spans(task)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert int(messages[0].split()[1]) >= _SPAN


class TestChunksAndWorkers:
    @pytest.mark.parametrize("n,k", [(1000, 20), (10, 20), (50, 1000)])
    def test_cutoffs_independent_of_chunk_size(self, monkeypatch, n, k):
        # K <= n draws counts by conditional binomials, K > n by inverse
        # transform; both consume the span's stream row after row
        cfg = config(n=n, support=Support.finite(k), replicates=600)
        want = run_simulation(cfg, workers=1)
        for elements in (1, 7 * k, 100 * k):
            monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", elements)
            assert run_simulation(cfg, workers=1) == want

    def test_cutoffs_independent_of_worker_count_across_spans(self, pool_always):
        cfg = config(n=30, replicates=1100, repetitions=3)
        assert run_simulation(cfg, workers=1) == run_simulation(cfg, workers=2)

    def test_unbounded_cutoffs_independent_of_worker_count(self, pool_always):
        cfg = config(n=200, support=Support.unbounded(), gamma=1.25, replicates=1100, repetitions=2)
        assert run_simulation(cfg, workers=1) == run_simulation(cfg, workers=2)

    def test_cheap_calls_run_in_process(self, monkeypatch):
        pools = count_pools(monkeypatch)
        cfg = config()  # 800 K=20 replicates: a few milliseconds of work
        assert run_simulation(cfg, workers=2) == run_simulation(cfg, workers=1)
        build_table(ns=(20, 50), gammas=(1.0, 1.5), support=Support.finite(20), base_seed=5,
                    replicates=600, repetitions=2, workers=2)
        assert pools == []
        monkeypatch.setattr(montecarlo, "_POOL_MIN_SECONDS", montecarlo._estimated_seconds(cfg))
        run_simulation(cfg, workers=2)
        assert len(pools) == 1

    def test_resolve_workers_uses_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(None) == 3

    def test_resolve_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(None) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(None) == 1

    def test_explicit_worker_count(self):
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestRunSimulation:
    def test_quantile_rows_monotone_and_deterministic(self):
        cfg = config()
        first = run_simulation(cfg, workers=1)
        second = run_simulation(cfg, workers=1)
        assert first == second
        levels = [level for level, _ in first]
        cutoffs = [cutoff for _, cutoff in first]
        assert levels == list(DEFAULT_LEVELS)
        assert all(b >= a for a, b in zip(cutoffs, cutoffs[1:]))
        assert all(0.0 < c < 1.0 for c in cutoffs)

    def test_worker_count_does_not_change_results(self, pool_always):
        cfg = config()
        inline = run_simulation(cfg, workers=1)
        two = run_simulation(cfg, workers=2)
        four = run_simulation(cfg, workers=4)
        assert inline == two == four

    def test_mean_over_repetitions(self):
        cfg = config(repetitions=3)
        got = run_simulation(cfg, workers=1)
        per_rep = []
        for repetition in range(3):
            ks, _ = _run_spans((cfg, repetition, 0, 1))  # 400 replicates: one span
            per_rep.append(order_quantiles(ks, cfg.quantiles))
        want = np.mean(np.asarray(per_rep), axis=0)
        np.testing.assert_array_equal([c for _, c in got], want)

    def test_seed_changes_move_cutoffs_within_noise(self):
        # bands frozen from a 20-seed spread at these settings (see the
        # acceptance module for the full calibration protocol)
        a = dict(run_simulation(config(replicates=2000, repetitions=1, base_seed=1), workers=2))
        b = dict(run_simulation(config(replicates=2000, repetitions=1, base_seed=2), workers=2))
        assert a != b
        assert abs(a[0.9] - b[0.9]) < 0.01

    def test_smoke_against_reference_cell(self):
        # desk-scale look at the (K=20, gamma=1.0, n=1000) reference cutoff .0212
        cfg = SimulationConfig(
            n=1000,
            support=Support.finite(20),
            gamma=1.0,
            base_seed=77,
            replicates=2000,
            repetitions=1,
        )
        got = dict(run_simulation(cfg, workers=2))[0.9]
        assert got == pytest.approx(0.0212, rel=0.10)

    def test_cutoffs_decrease_in_gamma_for_unbounded_support(self):
        # steeper exponents concentrate the distribution and shrink the
        # re-estimated KS quantiles (visible from gamma >= 1.5 on)
        cutoffs = []
        for gamma in (1.5, 2.5, 4.0):
            cfg = SimulationConfig(
                n=100,
                support=Support.unbounded(),
                gamma=gamma,
                base_seed=41,
                replicates=10000,
                repetitions=1,
            )
            cutoffs.append(dict(run_simulation(cfg, workers=2))[0.9])
        assert cutoffs[0] > cutoffs[1] > cutoffs[2]


class TestCutoffTable:
    def make_table(self):
        return build_table(
            ns=(20, 50),
            gammas=(1.0, 1.5),
            support=Support.finite(20),
            base_seed=5,
            replicates=200,
            repetitions=1,
            workers=1,
        )

    def test_single_cell_matches_run_simulation(self):
        table = build_table(
            ns=(50,),
            gammas=(1.5,),
            support=Support.finite(20),
            base_seed=101,
            replicates=400,
            repetitions=2,
            workers=1,
        )
        want = run_simulation(config(), workers=1)
        assert table.cells[(1.5, 50)] == tuple(c for _, c in want)

    def test_grid_complete_and_ordered(self):
        table = self.make_table()
        assert table.gammas == (1.0, 1.5)
        assert table.ns == (20, 50)
        assert set(table.cells) == {(g, n) for g in (1.0, 1.5) for n in (20, 50)}
        for row in table.cells.values():
            assert all(b >= a for a, b in zip(row, row[1:]))

    def test_lookup_window(self):
        table = self.make_table()
        row = table.cells[(1.5, 50)]
        assert table.cutoffs_for(1.5004, 50) == row
        assert table.cutoffs_for(1.4996, 50) == row
        with pytest.raises(CutoffLookupError):
            table.cutoffs_for(1.4, 50)  # between grid points
        with pytest.raises(CutoffLookupError):
            table.cutoffs_for(1.5, 30)  # sample size not tabulated

    def test_failing_cell_names_coordinates(self):
        with pytest.raises(SimulationError, match=r"gamma=-30.0, n=3"):
            build_table(
                ns=(3,),
                gammas=(-30.0,),
                support=Support.finite(20),
                base_seed=5,
                replicates=100,
                repetitions=1,
                workers=1,
            )

    def test_one_pool_per_table(self, monkeypatch, pool_always):
        pools = count_pools(monkeypatch)
        grid = dict(ns=(20, 50), gammas=(1.0, 1.5), support=Support.finite(20), base_seed=5,
                    replicates=600, repetitions=2)
        pooled = build_table(workers=2, **grid)
        assert len(pools) == 1
        assert pooled == build_table(workers=1, **grid)
        assert len(pools) == 1

    def test_progress_seconds_add_up_to_wall_time(self, pool_always):
        seconds = []
        started = time.perf_counter()
        build_table(ns=(20, 50), gammas=(1.0, 1.5), support=Support.finite(20), base_seed=5,
                    replicates=600, repetitions=1, workers=2,
                    progress=lambda gamma, n, s, row: seconds.append(s))
        wall = time.perf_counter() - started
        assert len(seconds) == 4
        # pool start is charged to the first cell and its shutdown to the last
        assert 0.95 * wall <= sum(seconds) <= wall

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            build_table(ns=(), gammas=(1.0,), support=Support.finite(20), base_seed=1)
