import multiprocessing
import os
import sys
import threading
import time
from decimal import ROUND_FLOOR, Decimal

import numpy as np
import pytest

from zipfks import distribution, montecarlo
from zipfks.distribution import RandomStream, Support, ZipfModel, sample
from zipfks.estimate import mle_gamma
from zipfks.gof import ZipfRows, judge, ks_statistic
from zipfks.montecarlo import (
    _SPAN,
    DEFAULT_LEVELS,
    CutoffLookupError,
    CutoffTable,
    SimulationConfig,
    SimulationError,
    _run_spans,
    build_table,
    order_quantiles,
    run_simulation,
)
from zipfks.tablefile import write_table

from oracles import (
    assert_draw_properties,
    expand_counts,
    expand_value_rows,
    nth_element,
    scalar_score,
)


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


def count_threads(monkeypatch, thread_class=threading.Thread):
    """List that gets each span thread the engine starts from now on (a pool's own
    threads are not listed); ``thread_class`` is the class they are made of."""
    threads = []

    class CountingThread(thread_class):
        def start(self):
            if self.name == "zipfks-spans":
                threads.append(self)
            super().start()

    monkeypatch.setattr(montecarlo.threading, "Thread", CountingThread)
    return threads


def replicate_ks(cfg, workers):
    """_replicate_ks of the call on the runner _runner chooses for it at ``workers``."""
    with montecarlo._runner(workers, montecarlo._estimated_seconds(cfg)) as runner:
        return montecarlo._replicate_ks(cfg, runner)


# Short calls of heavy replicates, estimated under _POOL_MIN_SECONDS in all
HEAVY_SHORT = {
    "inf": dict(n=1000, support=Support.unbounded(), gamma=1.25, replicates=1100, repetitions=2),
    "k1000": dict(n=100, support=Support.finite(1000), gamma=1.0, replicates=1100, repetitions=2),
}


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
            want_ks, want_g = scalar_score(expand_counts(drawn.head[row]), support)
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

    def test_rows_piled_at_k_calibrate(self):
        # draws from this cell sometimes pile onto the top of the support,
        # where the likelihood still rises below -20: those replicates fit
        # the range's lower end.  When such fits had no estimate, replicate
        # 15574 of repetition 1 aborted this run.
        cfg = config(n=4, gamma=-2.0, base_seed=1, replicates=16000, repetitions=2)
        spans = -(-cfg.replicates // _SPAN)
        ks, gamma_hat = _run_spans((cfg, 1, 0, spans))
        assert gamma_hat[15574] == -20.0
        assert not np.isnan(ks).any() and -20.0 <= gamma_hat.min()
        cutoffs = [cutoff for _, cutoff in run_simulation(cfg, workers=1)]
        assert np.isfinite(cutoffs).all()


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
            observed = expand_counts(sample(model, cfg.n, stream, rows=_SPAN).head[row])
            fitted = ZipfModel(mle_gamma(observed, cfg.support), cfg.support)
            statistic = ks_statistic(observed, fitted).statistic
            assert statistic == cutoff
            assert not judge(statistic, cutoff, 0.9).rejected

    @pytest.mark.parametrize("gamma,n,head", [
        (2.0, 100, 16),  # H < 32: tail values up to 32 read the head table
        (2.0, 1700, 32),
        (2.0, 50_000, 174),  # columns 33..H scored by the column pass
        (1.05, 60_000, 4096),  # the head limit
        (20.0, 1000, 16),  # no tail values at all
    ])
    def test_unbounded_replicates_score_as_observed_samples(self, gamma, n, head):
        # a drawn row keeps its counts of 1..H dense; expanded back to the
        # sample it holds and scored as observed data (H = 0), it must give
        # the replicate's estimate and statistic bit for bit
        cfg = SimulationConfig(n=n, support=Support.unbounded(), gamma=gamma, base_seed=7,
                               replicates=100, repetitions=1)
        ks, gamma_hat = _run_spans((cfg, 0, 0, 1))
        model = ZipfModel(cfg.gamma, cfg.support)
        assert distribution._head_size(model, n) == head
        drawn = sample(model, n, RandomStream.for_replicate(cfg.base_seed, 0, 0), rows=100)
        samples = expand_value_rows(drawn)
        tailless = np.flatnonzero(np.diff(drawn.starts) == 0)
        rows = np.unique(np.concatenate((np.arange(8), tailless[:4])))
        for row in rows:
            fitted = mle_gamma(samples[row], cfg.support)
            assert fitted == gamma_hat[row]
            assert ks_statistic(samples[row], ZipfModel(fitted, cfg.support)).statistic == ks[row]


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
        (1000, 1.0, 100, None, [130] * 3 + [122] + [130] * 3 + [122] + [76]),  # no span fits
        (1000, 1.0, 100, (1 << 19, 1 << 20), [1024, 76]),  # two spans fit the budget
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

    def test_unconverged_fit_names_the_replicate_index(self, monkeypatch):
        # batch rows 88 and 300 come back NaN, as a fit still running at
        # MAX_ITERATIONS does; a task starting at span 1 aborts on replicate
        # 512 + 88 whether its batch holds one span or two
        cfg = config(n=3, gamma=1.5, replicates=1100, repetitions=1)
        fit = montecarlo.mle_gamma

        def unconverged(drawn, support):
            gamma_hat = fit(drawn, support)
            gamma_hat[[88, 300]] = np.nan
            return gamma_hat

        monkeypatch.setattr(montecarlo, "mle_gamma", unconverged)
        for task in [(cfg, 0, 1, 3), (cfg, 0, 1, 2)]:
            with pytest.raises(SimulationError, match=r"^replicate 600 \(repetition 0, "):
                _run_spans(task)


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

    def test_pool_tasks_tile_each_repetition_in_runs_of_spans(self):
        # a pool task is a run of ceil(spans / (4 workers)) contiguous spans,
        # so a worker can batch across spans; the runs tile each repetition
        class RecordingPool:
            def __init__(self):
                self.tasks = []

            def imap(self, fn, tasks):
                self.tasks.extend(tasks)
                return map(fn, tasks)

        cfg = config(replicates=20 * _SPAN + 1, repetitions=2)  # 21 spans
        pool = RecordingPool()
        assert run_simulation(cfg, (pool.imap, 8)) == run_simulation(cfg, workers=1)
        runs = [(repetition, first, stop) for _, repetition, first, stop in pool.tasks]
        assert runs == [(repetition, first, min(first + 3, 21))
                        for repetition in range(2) for first in range(0, 21, 3)]

    def test_cheap_calls_run_in_process(self, monkeypatch):
        # they start no pool: at two workers they run on two threads of this process
        pools, threads = count_pools(monkeypatch), count_threads(monkeypatch)
        cfg = config()  # 800 K=20 replicates: a few milliseconds of work
        assert run_simulation(cfg, workers=2) == run_simulation(cfg, workers=1)
        # the lightest call of the README's per-call table: 2.4 ms estimated
        light = config(n=10, gamma=1.0, replicates=1024, repetitions=1)
        np.testing.assert_array_equal(replicate_ks(light, 2), replicate_ks(light, 1))
        build_table(ns=(20, 50), gammas=(1.0, 1.5), support=Support.finite(20), base_seed=5,
                    replicates=600, repetitions=2, workers=2)
        assert pools == [] and len(threads) == 3
        assert not any(thread.is_alive() for thread in threads)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_SECONDS", montecarlo._estimated_seconds(cfg))
        run_simulation(cfg, workers=2)
        assert len(pools) == 1

    @pytest.mark.parametrize("cell", list(HEAVY_SHORT), ids=list(HEAVY_SHORT))
    def test_heavy_short_call_runs_on_two_threads(self, monkeypatch, cell):
        # a short call runs on two threads on either support
        cfg = config(**HEAVY_SHORT[cell])
        assert montecarlo._estimated_seconds(cfg) < montecarlo._POOL_MIN_SECONDS
        pools, threads = count_pools(monkeypatch), count_threads(monkeypatch)
        serial = replicate_ks(cfg, 1)
        assert threads == []
        np.testing.assert_array_equal(replicate_ks(cfg, 2), serial)
        assert len(threads) == 1
        assert run_simulation(cfg, workers=2) == run_simulation(cfg, workers=1)
        assert pools == [] and len(threads) == 2
        assert not any(thread.is_alive() for thread in threads)  # joined before the call returns

    def test_calls_either_side_of_the_pool_floor(self, monkeypatch):
        cfg = config(n=1000, replicates=3 * _SPAN, repetitions=1)
        serial = replicate_ks(cfg, 1)
        pools, threads = count_pools(monkeypatch), count_threads(monkeypatch)
        floor = montecarlo._estimated_seconds(cfg)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_SECONDS", np.nextafter(floor, np.inf))
        np.testing.assert_array_equal(replicate_ks(cfg, 2), serial)
        # just under the floor: one helper, joined
        assert pools == [] and len(threads) == 1 and not threads[0].is_alive()
        monkeypatch.setattr(montecarlo, "_POOL_MIN_SECONDS", floor)
        np.testing.assert_array_equal(replicate_ks(cfg, 2), serial)
        assert len(pools) == 1 and len(threads) == 1  # at it: a pool

    def test_one_task_call_starts_no_thread(self, monkeypatch):
        # one span and one repetition are one task
        threads = count_threads(monkeypatch)
        cfg = config(n=1000, replicates=_SPAN, repetitions=1)
        np.testing.assert_array_equal(replicate_ks(cfg, 2), replicate_ks(cfg, 1))
        assert threads == []

    @pytest.mark.parametrize("shape", [(3, 1), (5, 1), (3, 2), (1, 2)], ids=str)
    @pytest.mark.parametrize("cell", [
        dict(n=100, support=Support.finite(20)),  # counts by conditional binomials
        dict(n=10, support=Support.finite(1000)),  # K > n: by inverse transform
        dict(n=100, support=Support.unbounded(), gamma=2.0),
    ], ids=["k20", "k1000-n10", "inf"])
    def test_halves_on_threads_give_the_serial_bytes(self, monkeypatch, cell, shape):
        # the last span is partial, so the halves differ in replicates
        spans, repetitions = shape
        cfg = config(**cell, replicates=spans * _SPAN - 100, repetitions=repetitions)
        serial = replicate_ks(cfg, 1)
        threads = count_threads(monkeypatch)
        np.testing.assert_array_equal(replicate_ks(cfg, 2), serial)
        assert len(threads) == 1

    def test_unconverged_fit_in_the_helpers_span_names_the_serial_replicate(self, monkeypatch):
        # replicate 88 of span 0 comes back NaN; the helper is made to take
        # span 0, so the error is raised in the helper and re-raised by the caller
        cfg = config(**dict(HEAVY_SHORT["inf"], repetitions=1))
        _, gamma_hat = _run_spans((cfg, 0, 0, 3))
        target = gamma_hat[88]
        assert np.count_nonzero(gamma_hat == target) == 1
        fit = montecarlo.mle_gamma
        failed_on = []

        def unconverged(drawn, support):
            out = fit(drawn, support)
            if (out == target).any():
                failed_on.append(threading.current_thread())
                out[out == target] = np.nan
            return out

        monkeypatch.setattr(montecarlo, "mle_gamma", unconverged)
        message = r"^replicate 88 \(repetition 0, "
        with pytest.raises(SimulationError, match=message):
            run_simulation(cfg, workers=1)
        began = threading.Event()
        run_spans = montecarlo._run_spans

        def signalling(task):
            if threading.current_thread() is not threading.main_thread():
                began.set()
            return run_spans(task)

        class HelperFirst(threading.Thread):
            def start(self):  # the caller takes no span before the helper has one
                super().start()
                assert began.wait(timeout=60)

        monkeypatch.setattr(montecarlo, "_run_spans", signalling)
        threads = count_threads(monkeypatch, HelperFirst)
        with pytest.raises(SimulationError, match=message):
            run_simulation(cfg, workers=2)
        assert len(threads) == 1 and failed_on[-1] is threads[0]

    def test_threads_switching_often_take_each_half_once(self, monkeypatch):
        # 16 light spans per repetition forced onto threads that switch every
        # microsecond, with a fresh generating model whose draw table both
        # threads may build: every half is run once and the bytes are the serial ones
        cfg = config(n=100, support=Support.unbounded(), gamma=2.0, replicates=16 * _SPAN,
                     repetitions=2)
        serial = replicate_ks(cfg, 1)
        run_spans, ran = montecarlo._run_spans, []

        def recording(task):
            ran.append(task[1:])
            return run_spans(task)

        monkeypatch.setattr(montecarlo, "_run_spans", recording)
        threads = count_threads(monkeypatch)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                montecarlo._generating_model.cache_clear()
                ran.clear()
                np.testing.assert_array_equal(replicate_ks(cfg, 2), serial)
                assert sorted(ran) == [(rep, first, first + 8) for rep in range(2) for first in (0, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 3 and not any(thread.is_alive() for thread in threads)

    def test_path_follows_the_configuration(self, monkeypatch):
        pools, threads = count_pools(monkeypatch), count_threads(monkeypatch)
        light = config()  # 800 K=20 replicates, about 2 us each
        heavy = config(**dict(HEAVY_SHORT["inf"], replicates=600, repetitions=1))
        run_simulation(light, workers=1)
        assert (pools, threads) == ([], [])  # in process
        run_simulation(heavy, workers=2)
        assert pools == [] and len(threads) == 1  # on two threads
        table = dict(ns=(1000,), gammas=(1.25,), support=Support.unbounded(), base_seed=5,
                     replicates=600, repetitions=1)
        assert build_table(workers=2, **table) == build_table(workers=1, **table)
        assert pools == [] and len(threads) == 2  # a table's heavy cell, too
        monkeypatch.setattr(montecarlo, "_POOL_MIN_SECONDS", montecarlo._estimated_seconds(heavy))
        run_simulation(heavy, workers=2)
        assert len(pools) == 1 and len(threads) == 2  # on a fork pool
        run_simulation(heavy, workers=1)
        assert len(pools) == 1 and len(threads) == 2

    def test_resolve_workers_uses_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert montecarlo._resolve_workers(None) == 3

    def test_resolve_workers_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert montecarlo._resolve_workers(None) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._resolve_workers(None) == 1

    def test_explicit_worker_count(self):
        assert montecarlo._resolve_workers(3) == 3
        with pytest.raises(ValueError):
            montecarlo._resolve_workers(0)


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

    def test_failing_cell_names_coordinates(self, monkeypatch):
        def fail(config, workers):
            raise ValueError("no cutoffs")

        monkeypatch.setattr(montecarlo, "run_simulation", fail)
        with pytest.raises(SimulationError, match=r"cell \(gamma=1.5, n=3\) failed: no cutoffs"):
            build_table(
                ns=(3,),
                gammas=(1.5,),
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


def record_cells(monkeypatch):
    """List that gets ((gamma, n), workers, thread) for each run_simulation call from now on."""
    calls = []
    run = montecarlo.run_simulation

    def recorded(config, workers=None):
        calls.append(((config.gamma, config.n), workers, threading.current_thread()))
        return run(config, workers)

    monkeypatch.setattr(montecarlo, "run_simulation", recorded)
    return calls


# Multi-cell grids estimated below _POOL_MIN_SECONDS, whose cells run whole on
# two threads; "heavy-inf" pairs a heavy `inf` cell with a light one
LIGHT_GRIDS = {
    "k20": dict(ns=(10, 100, 1000), gammas=(1.0, 2.0), support=Support.finite(20), base_seed=5,
                replicates=600, repetitions=2),
    "inf": dict(ns=(100, 1000), gammas=(1.5, 2.5), support=Support.unbounded(), base_seed=5,
                replicates=300, repetitions=1),
    "heavy-inf": dict(ns=(1000,), gammas=(1.25, 4.0), support=Support.unbounded(), base_seed=5,
                      replicates=2048, repetitions=1),
}


def helper_first(began):
    """Thread class whose start() returns once ``began`` is set: the helper then
    holds the first item, and the calling thread takes none before it."""

    class HelperFirst(threading.Thread):
        def start(self):
            super().start()
            assert began.wait(timeout=60)

    return HelperFirst


class TestGridOnThreads:
    @pytest.mark.parametrize("name", list(LIGHT_GRIDS), ids=list(LIGHT_GRIDS))
    def test_light_grid_runs_whole_cells_on_one_helper(self, monkeypatch, tmp_path, name):
        grid = LIGHT_GRIDS[name]
        configs = [config(n=n, support=grid["support"], gamma=gamma, base_seed=5,
                          replicates=grid["replicates"], repetitions=grid["repetitions"])
                   for gamma in grid["gammas"] for n in grid["ns"]]
        assert sum(map(montecarlo._estimated_seconds, configs)) < montecarlo._POOL_MIN_SECONDS
        serial = build_table(workers=1, **grid)
        write_table(serial, tmp_path / "serial.csv")
        pools, threads = count_pools(monkeypatch), count_threads(monkeypatch)
        calls = record_cells(monkeypatch)
        threaded = build_table(workers=2, **grid)
        write_table(threaded, tmp_path / "threaded.csv")
        assert threaded == serial
        assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert pools == [] and len(threads) == 1 and not threads[0].is_alive()
        # each cell once, whole and in process, on the calling thread or the helper
        assert sorted(cell for cell, _, _ in calls) == sorted(serial.cells)
        assert all(workers == (map, 1) for _, workers, _ in calls)
        assert {thread for _, _, thread in calls} <= {threading.current_thread(), threads[0]}

    def test_one_cell_table_over_the_floor_runs_its_halves(self, monkeypatch):
        # a single cell: its halves, not the cell, go to the threads
        grid = dict(ns=(1000,), gammas=(1.0,), support=Support.finite(20), base_seed=5,
                    replicates=2048, repetitions=1)
        cfg = config(n=1000, gamma=1.0, base_seed=5, replicates=2048, repetitions=1)
        assert montecarlo._estimated_seconds(cfg) < montecarlo._POOL_MIN_SECONDS
        serial = build_table(workers=1, **grid)
        threads, calls = count_threads(monkeypatch), record_cells(monkeypatch)
        assert build_table(workers=2, **grid) == serial
        assert [workers for _, workers, _ in calls] == [(montecarlo._on_two_threads, 2)]
        assert len(threads) == 1 and not threads[0].is_alive()

    def test_threads_switching_often_take_each_cell_once(self, monkeypatch):
        # with a fresh generating model per run, whose draw table both threads may build
        grid = LIGHT_GRIDS["k20"]
        serial = build_table(workers=1, **grid)
        calls, threads = record_cells(monkeypatch), count_threads(monkeypatch)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                montecarlo._generating_model.cache_clear()
                calls.clear()
                assert build_table(workers=2, **grid) == serial
                assert sorted(cell for cell, _, _ in calls) == sorted(serial.cells)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 3 and not any(thread.is_alive() for thread in threads)

    def test_progress_streams_in_grid_order_and_adds_up_to_wall_time(self):
        grid = dict(LIGHT_GRIDS["k20"], replicates=2048, repetitions=1)
        reported = []
        started = time.perf_counter()
        table = build_table(workers=2, **grid,
                            progress=lambda gamma, n, s, row: reported.append(((gamma, n), s)))
        wall = time.perf_counter() - started
        assert [cell for cell, _ in reported] == list(table.cells)  # grid order, each cell once
        assert 0.95 * wall <= sum(s for _, s in reported) <= wall

    def test_whole_cells_report_their_share_of_the_wall_time(self, monkeypatch):
        # cells that sleep for known seconds: one thread takes n=10, the other
        # n=100 and then n=1000, so all three end together, and each is
        # reported with a share of the wall time in proportion to its own
        pauses = {10: 0.06, 100: 0.02, 1000: 0.04}

        def paused(config, workers):
            time.sleep(pauses[config.n])
            return [(level, 0.5) for level in DEFAULT_LEVELS]

        monkeypatch.setattr(montecarlo, "run_simulation", paused)
        grid = dict(ns=(10, 100, 1000), gammas=(1.5,), support=Support.finite(20), base_seed=5,
                    replicates=2048, repetitions=1)  # as many as the benchmark's grid cells
        reported = []
        started = time.perf_counter()
        build_table(workers=2, **grid, progress=lambda gamma, n, s, row: reported.append((n, s)))
        wall = time.perf_counter() - started
        assert [n for n, _ in reported] == [10, 100, 1000]
        total = sum(s for _, s in reported)
        assert 0.95 * wall <= total <= wall
        for n, s in reported:
            assert s / total == pytest.approx(pauses[n] / sum(pauses.values()), rel=0.2)

    def test_failing_cells_raise_the_earliest_in_grid_order(self, monkeypatch):
        # the helper is made to take cell 0, which fails only after cell 1 has
        # failed on the calling thread; cell 0's error is the one raised
        grid = dict(ns=(10, 100, 1000), gammas=(1.5,), support=Support.finite(20), base_seed=5,
                    replicates=200, repetitions=1)
        caller, began, caller_failed = threading.current_thread(), threading.Event(), threading.Event()
        failed_on = {}

        def fail(config, workers):
            failed_on[config.n] = threading.current_thread()
            if threading.current_thread() is caller:
                caller_failed.set()
            else:
                began.set()
                assert caller_failed.wait(timeout=60)
            raise ValueError(f"no cutoffs at n={config.n}")

        monkeypatch.setattr(montecarlo, "run_simulation", fail)
        threads = count_threads(monkeypatch, helper_first(began))
        message = r"^table cell \(gamma=1.5, n=10\) failed: no cutoffs at n=10$"
        with pytest.raises(SimulationError, match=message):
            build_table(workers=2, **grid)
        assert len(threads) == 1 and not threads[0].is_alive()
        assert failed_on == {10: threads[0], 100: caller}  # cell n=1000 was never taken
