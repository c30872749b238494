"""Memory guards: reading and fitting an observation file, one-sample fits, unbounded spans, batches of spans and fit and KS chunks hold bounded working memory.

Peaks are taken with tracemalloc, which also sees numpy's array buffers.
"""
import tracemalloc

import numpy as np
import pytest

from zipfks.distribution import (
    _BLOCK_CHUNKS,
    UNBOUNDED_SAMPLE_LIMIT,
    RandomStream,
    Support,
    ZipfModel,
    sample,
)
from zipfks.estimate import mle_gamma
from zipfks.gof import ZipfRows, _gaps, ks_statistic
from zipfks.montecarlo import SimulationConfig, _run_spans
from zipfks.observations import parse_observations
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


def test_observation_file_is_read_fitted_and_scored_in_memory_of_its_distinct_values(tmp_path):
    # 2x10^6 observations on the unbounded support (4.1 MB of text): a reader
    # that holds them, or a buffer of (file size + 1) // 2 int64 slots for
    # them, takes 16 MB; block-by-block (value, count) pairs take a few
    # hundred KB of block temporaries beside the distinct values
    support = Support.unbounded()
    model = ZipfModel(2.0, support)
    drawn = sample(model, 2 * 10**6, RandomStream([3]))
    path = tmp_path / "obs.txt"
    path.write_text("\n".join(map(str, drawn.observations.tolist())))
    del drawn
    warm = sample(model, 100, RandomStream([0]))
    ks_statistic(warm, ZipfModel(mle_gamma(warm, support), support))  # builds the tables

    def read_fit_and_score():
        observed = parse_observations(path)
        ks_statistic(observed, ZipfModel(mle_gamma(observed, support), support))

    assert traced_peak(read_fit_and_score) < 4.0


def test_one_sample_draw_holds_one_array():
    # the uniforms are turned into values in place: 8 MB for 10^6, not 16
    model = ZipfModel(2.0, Support.unbounded())
    sample(model, 100, RandomStream([0]))  # builds the sampling table
    assert traced_peak(lambda: sample(model, 10**6, RandomStream([1]))) < 10.0


@pytest.mark.parametrize("gamma,n,whole_span_mb", [
    pytest.param(1.25, 50_000, 84.8, id="50000-84.8"),
    pytest.param(1.25, 200_000, 208.7, id="200000-208.7"),
    pytest.param(1.05, 50_000, 182.4, id="gamma1.05-50000-182.4"),  # 512 x 3648 head counts
])
def test_heavy_span_is_scored_in_bounded_blocks(gamma, n, whole_span_mb):
    # a span drawn, fitted and scored whole held every row's values at once:
    # whole_span_mb; the head counts of 1..H, 512 x H of them, are counted in
    # the work of every block, batch and KS chunk
    config = SimulationConfig(n=n, support=Support.unbounded(), gamma=gamma, base_seed=3,
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


def test_unbounded_fit_chunks_bound_the_newton_state_of_many_short_rows():
    # 10^5 one-value rows fitted at once held every row's Newton state and
    # zeta sum factors (35 MB traced); in chunks of rows, under the KS bound
    rows = 10**5
    model = ZipfModel(2.0, Support.unbounded())
    drawn = sample(model, 1, RandomStream([5]), rows=rows)
    mle_gamma(sample(model, 1, RandomStream([4]), rows=10), model.support)  # builds the tables
    per_row = 2 * 8 * rows
    bound = (6 * 8 * CHUNK_ELEMENTS + per_row) / MB
    assert traced_peak(lambda: mle_gamma(drawn, model.support)) < bound


@pytest.mark.parametrize("gamma,n", [(1.25, 1000), (2.0, 50_000)])
def test_ks_chunk_of_tail_values_holds_few_arrays_of_them(gamma, n):
    # every value of a drawn chunk lies above H >= 32, so its cdf is taken
    # with no masks or masked copies, and the tail sums free each array once
    # spent: about 9 floats per value (70 B), where the masked pass and all
    # its sums' arrays held 12.5 (100-110 B)
    model = ZipfModel(gamma, Support.unbounded())
    drawn = sample(model, n, RandomStream([9]), rows=300)
    gamma_hat = mle_gamma(drawn, model.support)
    lo, hi = next(drawn.chunks(model.support))
    part = drawn.part(lo, hi)
    assert part.head.shape[1] >= 32 and part.observations.size > 10_000
    _gaps(part, gamma_hat[lo:hi], model.support)  # builds the tables
    peak = traced_peak(lambda: _gaps(part, gamma_hat[lo:hi], model.support))
    assert peak < 10 * 8 * part.observations.size / MB


@pytest.mark.parametrize("rows", [None, 4])
def test_unbounded_model_drops_its_full_pmf_once_it_has_drawn(rows):
    # the 65,535 probabilities (0.5 MB) are spent once the draw table holds
    # their cdf; _head_size reads only the first _HEAD_MAX of them
    model = ZipfModel(1.25, Support.unbounded())
    sample(model, 1000, RandomStream([2]), rows=rows)
    assert "_sampling_pmf" not in model.__dict__
    held = sum(value.nbytes for value in model.__dict__.values() if isinstance(value, np.ndarray))
    held += sum(table.nbytes for table in model.__dict__["_held_draw_table"][1:])
    # the cdf (8 B per value), its guide (4 B) and the head's pmf, with no 8 B pmf beside them
    assert held < 2 * 8 * UNBOUNDED_SAMPLE_LIMIT
    again = ZipfModel(1.25, Support.unbounded())
    np.testing.assert_array_equal(model._sampling_pmf, again._sampling_pmf)  # built again if asked
