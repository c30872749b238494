"""Calibration engine: replicate simulation, order-statistic quantiles, cutoff tables.

Each replicate draws a sample from the generating model, re-estimates the
exponent from that sample, and scores the Kolmogorov-Smirnov statistic
against the re-fitted model (never the generating one: cutoffs are only
valid for parameters estimated from the data).

Replicates run in spans: fixed blocks of _SPAN consecutive replicate indices
that draw from one stream keyed on (base_seed, repetition, span_index), so
results do not depend on worker count or scheduling.  A pool task is one
span; run in process, a task is a whole repetition.  A task's spans are
drawn a block of rows at a time.  On a finite support a block is a matrix of
count vectors.  On the unbounded support each replicate is reduced, as it
is drawn, to its log sum and its distinct values with their counts, and a
block holds a bounded number of values however heavy the tails.
Consecutive blocks, within a span or across spans, are joined into batches
of bounded size, and each batch is fitted and scored as one before the
blocks after it are drawn.
"""
from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.pool
import os
import time
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, Decimal
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .distribution import (
    _BLOCK_CHUNKS,
    CountRows,
    RandomStream,
    Support,
    ValueRows,
    ZipfModel,
    concatenate_rows,
    normalization,
    sample,
    value_blocks,
)
from .estimate import mle_gamma
from .gof import ZipfRows, ks_statistic
from .series import CHUNK_ELEMENTS

DEFAULT_LEVELS = (0.9, 0.95, 0.99, 0.999)

# Stream key offset for the single retry of a replicate whose fit found no
# root.  Span indices stay below it, so a retry key never repeats a span key.
_RETRY_OFFSET = 1 << 32

# Replicates per span; fixed so that the split into pool tasks never affects results.
_SPAN = 512

# Calls whose estimated serial work (_estimated_seconds) is below this run in
# process whatever the worker count: starting two forked workers and moving
# spans through them costs more than it saves.  A 12-cell K=20 grid of 2,048
# replicates per cell took 89 ms in process and 133 ms on a two-worker pool
# (2-vCPU VM), and the pool's share of that time varied most between runs.
_POOL_MIN_SECONDS = 0.25


class SimulationError(RuntimeError):
    """A replicate failed twice, or a table cell could not be computed."""


def _validate_levels(levels: Sequence[float]) -> tuple[float, ...]:
    out = tuple(float(q) for q in levels)
    if not out:
        raise ValueError("at least one quantile level is required")
    if any(not 0.0 < q < 1.0 for q in out):
        raise ValueError(f"quantile levels must lie in (0, 1), got {out}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"quantile levels must be strictly increasing, got {out}")
    return out


@dataclass(frozen=True)
class SimulationConfig:
    """One calibration experiment: R replicates repeated and averaged."""

    n: int
    support: Support
    gamma: float
    base_seed: int
    replicates: int = 50000
    repetitions: int = 10
    quantiles: tuple[float, ...] = DEFAULT_LEVELS

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if self.replicates < 100:
            raise ValueError(f"need at least 100 replicates, got {self.replicates}")
        if self.repetitions < 1:
            raise ValueError(f"need at least one repetition, got {self.repetitions}")
        if not 0 <= int(self.base_seed) < 1 << 64:
            raise ValueError("base_seed must fit an unsigned 64-bit integer")
        object.__setattr__(self, "quantiles", _validate_levels(self.quantiles))
        normalization(self.gamma, self.support)  # validates the pair


@lru_cache(maxsize=8)
def _generating_model(gamma: float, support_k: int | None) -> ZipfModel:
    return ZipfModel(gamma=gamma, support=Support(k=support_k))


def _score(drawn: CountRows | ValueRows, support: Support) -> tuple[np.ndarray, np.ndarray]:
    """KS statistics and re-fitted exponents of a batch of replicates.

    Both are NaN for a replicate whose estimating equation has no root.
    """
    gamma_hat = mle_gamma(drawn, support)
    return ks_statistic(drawn, ZipfRows(gamma_hat, support)), gamma_hat


def _blocks(model: ZipfModel, n: int, stream: RandomStream, rows: int) -> Iterator[CountRows | ValueRows]:
    """The next ``rows`` replicates of the stream, drawn a block of rows at a time.

    Finite-support rows come in chunks of about CHUNK_ELEMENTS count-matrix
    elements (rows x K), which keeps the arrays in cache; unbounded rows in
    value_blocks' blocks, which bounds the values a span holds at once.
    Neither changes a sample: both consume the stream as one draw would.
    """
    if model.support.is_finite:
        step = max(1, CHUNK_ELEMENTS // model.support.k)
        for lo in range(0, rows, step):
            yield sample(model, n, stream, min(step, rows - lo))
    else:
        yield from value_blocks(model, n, stream, rows)


def _size(block: CountRows | ValueRows) -> int:
    """A block's share of a batch: its count cells, or its work size (ValueRows.sizes)."""
    if isinstance(block, CountRows):
        return block.table.size
    return int(block.sizes()[-1])


def _run_spans(task: tuple[SimulationConfig, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """KS statistics and re-fitted exponents of spans first..stop-1 of one repetition.

    Results come in replicate-index order.  Each span draws from its own
    stream, a block at a time (_blocks).  Consecutive blocks, of one span or
    of several, are collected while their _sizes add up to at most
    CHUNK_ELEMENTS on a finite support, or _BLOCK_CHUNKS * CHUNK_ELEMENTS on
    the unbounded one, and are then joined, fitted and scored as one batch; a
    block past that budget on its own is scored alone.  A row's fit and
    statistic do not depend on the rows batched with it, so results do not
    depend on how spans are grouped into tasks.

    A replicate whose fit finds no root is redrawn once, alone, on an offset
    stream; a second failure aborts, since silently dropping replicates would
    bias quantiles.
    """
    config, repetition, first, stop = task
    start = first * _SPAN
    if not 0 <= start < stop * _SPAN or (stop - 1) * _SPAN >= config.replicates:
        raise ValueError(f"spans {first}..{stop - 1} outside the {config.replicates} replicates")
    model = _generating_model(config.gamma, config.support.k)
    budget = CHUNK_ELEMENTS if config.support.is_finite else _BLOCK_CHUNKS * CHUNK_ELEMENTS
    scored: list[tuple[np.ndarray, np.ndarray]] = []
    batch: list[CountRows | ValueRows] = []
    held = 0  # the batch's _size

    def score_batch() -> None:
        drawn = concatenate_rows(batch)
        batch.clear()  # the joined copy is all that is kept
        scored.append(_score(drawn, config.support))

    for span in range(first, stop):
        stream = RandomStream.for_replicate(config.base_seed, repetition, span)
        for block in _blocks(model, config.n, stream, min(_SPAN, config.replicates - span * _SPAN)):
            size = _size(block)
            if batch and held + size > budget:
                score_batch()
                held = 0
            batch.append(block)
            held += size
    score_batch()
    ks, gamma_hat = (np.concatenate(part) for part in zip(*scored))
    for row in np.flatnonzero(np.isnan(gamma_hat)):
        index = start + int(row)
        retry = RandomStream.for_replicate(config.base_seed, repetition, _RETRY_OFFSET + index)
        (ks[row],), (gamma_hat[row],) = _score(sample(model, config.n, retry, 1), config.support)
        if np.isnan(gamma_hat[row]):
            raise SimulationError(
                f"replicate {index} (repetition {repetition}, gamma={config.gamma}, "
                f"n={config.n}, support={config.support}) failed twice: the estimating "
                f"equation has no root in the admissible range"
            )
    return ks, gamma_hat


def order_quantiles(stats: Sequence[float] | np.ndarray, levels: Sequence[float]) -> list[float]:
    """Order statistics at zero-based ranks floor(R * level) of the sorted array.

    The level is interpreted as the decimal it was written as, so e.g.
    R=50000, level=0.95 indexes rank 47500 even though 50000 * 0.95 rounds
    below it in binary floating point.
    """
    arr = np.sort(np.asarray(stats, dtype=np.float64))
    count = arr.size
    if count == 0:
        raise ValueError("cannot take quantiles of an empty array")
    out = []
    for level in _validate_levels(levels):
        rank = int((Decimal(str(level)) * count).to_integral_value(rounding=ROUND_FLOOR))
        if rank >= count:
            raise ValueError(f"rank {rank} out of range for {count} values")
        out.append(float(arr[rank]))
    return out


# ---------------------------------------------------------------------------
# the replicate loop, serial or on a pool

def resolve_workers(workers: int | None) -> int:
    """Worker count; None means every CPU this process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _estimated_seconds(config: SimulationConfig) -> float:
    """Rough serial cost of a simulation, used only to decide whether a pool pays.

    Per-replicate costs measured on one core: about 1-3.5 us at K=20, 0.013-0.05
    ms at K=1000 and 0.4-0.6 ms at K=32766, growing with n.  Unbounded, they
    grow with a row's distinct values, about n^(1/gamma): from gamma = 4 down
    to 1.25, 2.3-9 us at n <= 100, 3.6-37 us at n = 1000 and up to 0.66 ms at
    n = 5x10^4 (1.4 ms at gamma = 1.05).  The model is within a factor of two
    of those figures but at gamma = 1.05, n = 5x10^4 (three).  It depends only
    on the configuration, so the same call always takes the same path.
    """
    if config.support.is_finite:
        per_replicate = 1.5e-6 + 2.5e-8 * config.support.k
    else:
        per_replicate = 3e-6 + 1.5e-7 * config.n ** (1.0 / config.gamma)
    return per_replicate * config.replicates * config.repetitions


@contextlib.contextmanager
def _worker_pool(workers: int | None, seconds: float) -> Iterator[multiprocessing.pool.Pool | None]:
    """A process pool for more than one worker and enough work, else None."""
    workers = resolve_workers(workers)
    if workers == 1 or seconds < _POOL_MIN_SECONDS:
        yield None
        return
    with multiprocessing.get_context().Pool(workers) as pool:
        yield pool


def _replicate_ks(config: SimulationConfig, pool: multiprocessing.pool.Pool | None) -> np.ndarray:
    """KS statistic of every replicate, shape (repetitions, replicates).

    In process, a task is a whole repetition, so that its batches can cross
    spans; on a pool, a task is one span, which balances the workers' load.
    """
    spans = -(-config.replicates // _SPAN)
    step = spans if pool is None else 1
    tasks = [
        (config, repetition, first, min(first + step, spans))
        for repetition in range(config.repetitions)
        for first in range(0, spans, step)
    ]
    results = map(_run_spans, tasks) if pool is None else pool.imap(_run_spans, tasks)
    ks = np.concatenate([task_ks for task_ks, _ in results])
    return ks.reshape(config.repetitions, config.replicates)


def run_simulation(
    config: SimulationConfig, workers: int | multiprocessing.pool.Pool | None = None
) -> list[tuple[float, float]]:
    """(level, cutoff) pairs: per-repetition order quantiles averaged over repetitions.

    ``workers`` is a worker count (None: every CPU this process may use) or a
    running pool to share, as build_table does across its cells.  A count is
    an upper bound: a call estimated to take under _POOL_MIN_SECONDS of
    serial work runs in process.  Results never depend on it.
    """
    if isinstance(workers, multiprocessing.pool.Pool):
        ks = _replicate_ks(config, workers)
    else:
        with _worker_pool(workers, _estimated_seconds(config)) as pool:
            ks = _replicate_ks(config, pool)
    per_level = np.mean([order_quantiles(row, config.quantiles) for row in ks], axis=0)
    return list(zip(config.quantiles, (float(c) for c in per_level)))


# ---------------------------------------------------------------------------
# cutoff tables

class CutoffLookupError(LookupError):
    """No tabulated cell matches the requested (gamma, n, level)."""


# A fitted exponent must sit this close to a tabulated one for lookup to
# apply; cutoffs vary too steeply in gamma to interpolate.
GAMMA_LOOKUP_WINDOW = 0.005


@dataclass(frozen=True, eq=True)
class CutoffTable:
    """Grid of cutoffs over (gamma, n) for one support, plus its provenance."""

    support: Support
    levels: tuple[float, ...]
    gammas: tuple[float, ...]
    ns: tuple[int, ...]
    cells: dict[tuple[float, int], tuple[float, ...]] = field(compare=True)
    replicates: int = 50000
    repetitions: int = 10
    base_seed: int = 0

    def cutoffs_for(self, gamma: float, n: int) -> tuple[float, ...]:
        """Cutoff row for an estimated exponent within the lookup window of the grid."""
        if n not in self.ns:
            raise CutoffLookupError(
                f"no tabulated sample size n={n}; compute a bespoke cutoff instead"
            )
        deltas = [(abs(g - gamma), g) for g in self.gammas]
        delta, nearest = min(deltas)
        if delta > GAMMA_LOOKUP_WINDOW + 1e-12:
            raise CutoffLookupError(
                f"estimated exponent {gamma:.4f} is not within ±{GAMMA_LOOKUP_WINDOW} of "
                f"any tabulated value; compute a bespoke cutoff instead"
            )
        return self.cells[(nearest, n)]


def build_table(
    ns: Iterable[int],
    gammas: Iterable[float],
    support: Support,
    base_seed: int,
    replicates: int = 50000,
    repetitions: int = 10,
    quantiles: Sequence[float] = DEFAULT_LEVELS,
    workers: int | None = None,
    progress: Callable[[float, int, float, tuple[float, ...]], None] | None = None,
) -> CutoffTable:
    """Fill the (gamma, n) grid cell by cell, all cells sharing one worker pool.

    Every cell reuses the same base_seed, so any single cell is reproducible
    with a standalone run_simulation call on that cell's configuration.  The
    pool starts only when the whole grid's estimated serial work reaches
    _POOL_MIN_SECONDS.  ``progress`` gets each cell's seconds; the pool's
    start-up is charged to the first cell and its shutdown to the last, so
    that the seconds add up to the call's wall time.
    """
    ns = tuple(int(n) for n in ns)
    gammas = tuple(float(g) for g in gammas)
    if not ns or not gammas:
        raise ValueError("both grids must be nonempty")
    for name, grid in (("n", ns), ("gamma", gammas)):
        repeated = [value for i, value in enumerate(grid) if value in grid[:i]]
        if repeated:
            raise ValueError(f"{name} grid repeats the value {repeated[0]!r}")
    levels = _validate_levels(quantiles)
    started = time.perf_counter()
    configs = [
        SimulationConfig(
            n=n,
            support=support,
            gamma=gamma,
            base_seed=base_seed,
            replicates=replicates,
            repetitions=repetitions,
            quantiles=levels,
        )
        for gamma in gammas
        for n in ns
    ]
    grid = [(config.gamma, config.n) for config in configs]
    cells: dict[tuple[float, int], tuple[float, ...]] = {}

    def report(gamma: float, n: int) -> None:
        nonlocal started
        if progress is not None:
            progress(gamma, n, time.perf_counter() - started, cells[(gamma, n)])
        started = time.perf_counter()

    with _worker_pool(workers, sum(map(_estimated_seconds, configs))) as pool:
        for config in configs:
            gamma, n = config.gamma, config.n
            try:
                pairs = run_simulation(config, pool or 1)
            except Exception as err:
                raise SimulationError(f"table cell (gamma={gamma}, n={n}) failed: {err}") from err
            cells[(gamma, n)] = tuple(cutoff for _, cutoff in pairs)
            if (gamma, n) != grid[-1]:
                report(gamma, n)
    report(*grid[-1])  # the last cell also pays for the pool's shutdown
    return CutoffTable(
        support=support,
        levels=levels,
        gammas=gammas,
        ns=ns,
        cells=cells,
        replicates=replicates,
        repetitions=repetitions,
        base_seed=base_seed,
    )
