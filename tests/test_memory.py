"""Memory guards: one-sample fits, unbounded spans, batches of spans and KS chunks hold bounded working memory.

Peaks are taken with tracemalloc, which also sees numpy's array buffers.
"""
import tracemalloc

import numpy as np
import pytest

from zipfks.distribution import _BLOCK_CHUNKS, RandomStream, Support, ZipfModel, sample
from zipfks.estimate import mle_gamma
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.montecarlo import SimulationConfig, _run_spans
from zipfks.series import CHUNK_ELEMENTS

MB = 1 << 20


def traced_peak(call) -> float:
    """Largest traced memory while call() runs, in MB above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - held) / MB
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("gamma,k", [(2.0, None), (1.0, 1000)])
def test_one_sample_fit_and_ks_hold_little_beyond_the_sample(gamma, k):
    # the fit and the statistic read the sample's distinct values, not a
    # gather of its 10^6 logs (7.6 MB) or np.unique's copies (9.5 MB)
    support = Support(k=k)
    model = ZipfModel(gamma, support)
    mle_gamma(sample(model, 100, RandomStream([0])), support)  # builds the start table
    drawn = sample(model, 10**6, RandomStream([1]))

    def fit_and_score():
        ks_statistic(drawn, ZipfModel(mle_gamma(drawn, support), support))

    assert traced_peak(fit_and_score) < 2.0


def test_one_sample_draw_holds_one_array():
    # the uniforms are turned into values in place: 8 MB for 10^6, not 16
    model = ZipfModel(2.0, Support.unbounded())
    sample(model, 100, RandomStream([0]))  # builds the sampling table
    assert traced_peak(lambda: sample(model, 10**6, RandomStream([1]))) < 10.0


@pytest.mark.parametrize("n,whole_span_mb", [(50_000, 84.8), (200_000, 208.7)])
def test_heavy_span_is_scored_in_bounded_blocks(n, whole_span_mb):
    # a span drawn, fitted and scored whole held every row's values at once:
    # whole_span_mb at gamma = 1.25
    config = SimulationConfig(n=n, support=Support.unbounded(), gamma=1.25, base_seed=3,
                              replicates=512, repetitions=1)
    model = ZipfModel(config.gamma, config.support)
    mle_gamma(sample(model, n, RandomStream([0]), rows=1), config.support)  # builds the tables
    assert traced_peak(lambda: _run_spans((config, 0, 0, 1))) < whole_span_mb / 3


@pytest.mark.parametrize("k,gamma,n", [(None, 2.0, 100), (None, 2.0, 1), (20, 1.0, 1000)])
def test_light_repetition_is_scored_in_budgeted_batches(k, gamma, n):
    # one task runs all 64 spans of the repetition, but a batch holds at most
    # the budget's elements, and fitting and scoring it takes a few arrays of
    # that many floats: 2.5-4.1 MB here, where one batch of the whole
    # repetition took 19-27 MB on the unbounded support and 20 MB at K=20
    spans = 64
    config = SimulationConfig(n=n, support=Support(k=k), gamma=gamma, base_seed=3,
                              replicates=spans * 512, repetitions=1)
    budget = CHUNK_ELEMENTS * (1 if config.support.is_finite else _BLOCK_CHUNKS)
    results = 2 * 2 * 8 * config.replicates  # ks and gamma_hat, per batch and joined
    _run_spans((config, 0, 0, 1))  # builds the tables
    assert traced_peak(lambda: _run_spans((config, 0, 0, spans))) < (6 * 8 * budget + results) / MB


def test_unbounded_ks_chunks_bound_the_head_tables_of_many_short_rows():
    # 10^5 one-value rows: chunked by distinct values alone, one chunk held a
    # 10^5 x 33 table of head terms and the normalizers' Euler-Maclaurin
    # factors of every row (53 MB); by work size, a chunk takes a few arrays
    # of CHUNK_ELEMENTS floats, beside the per-row sizes and results
    rows = 10**5
    model = ZipfModel(2.0, Support.unbounded())
    drawn = sample(model, 1, RandomStream([5]), rows=rows)
    models = ZipfRows(np.full(rows, model.gamma), model.support)
    warm = ZipfRows(np.full(10, model.gamma), model.support)
    ks_statistic(sample(model, 1, RandomStream([4]), rows=10), warm)  # builds the tables
    per_row = 2 * 8 * rows
    assert traced_peak(lambda: ks_statistic(drawn, models)) < (6 * 8 * CHUNK_ELEMENTS + per_row) / MB
