"""Calibration engine: replicate simulation, order-statistic quantiles, cutoff tables.

Each replicate draws a sample from the generating model, re-estimates the
exponent from that sample, and scores the Kolmogorov-Smirnov statistic
against the re-fitted model (never the generating one: cutoffs are only
valid for parameters estimated from the data).

Replicates run in spans: fixed blocks of _SPAN consecutive replicate indices
that draw from one stream keyed on (base_seed, repetition, span_index), so
results do not depend on worker count or scheduling.  A task is a run of
contiguous spans of one repetition.  A call, or a whole table, runs its
tasks through one runner (_runner), chosen from its worker count and
estimated serial work (_estimated_seconds) alone:
- with one worker, in process, a task being a whole repetition;
- else a fork pool, each repetition cut into four tasks per worker, when
  the work reaches _POOL_MIN_SECONDS;
- else two threads, the calling one and a helper, each repetition cut
  into halves (a call of one task still runs in process).
Results are placed by task index, so all three give the same bytes.  A
table (build_table) of more than one cell on two threads runs whole cells
on them, each in process.

A task's spans are drawn a block of rows at a time.  Each replicate is
reduced, as it is drawn, to its counts of 1..H, a row of a dense matrix,
and its distinct values above H with their counts: on a finite support H
is K and there are none, on the unbounded one a block holds bounded work
however heavy the tails.  Consecutive blocks, within a span or across
spans, are joined into batches of bounded size, and each batch is fitted
and scored as one before the blocks after it are drawn.
"""
from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, Decimal
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .distribution import (
    _BLOCK_CHUNKS,
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

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

DEFAULT_LEVELS = (0.9, 0.95, 0.99, 0.999)

# The default protocol: replicates per repetition, and repetitions averaged per cell.
DEFAULT_REPLICATES = 50000
DEFAULT_REPETITIONS = 10

# Replicates per span; fixed so that the split into pool tasks never affects results.
_SPAN = 512

# Calls whose estimated serial work (_estimated_seconds) is below this start
# no pool whatever the worker count, and run on two threads when they have
# more than one worker: starting two forked workers and moving spans through
# them costs more than it saves.  A 12-cell K=20 grid of 2,048 replicates per
# cell took 89 ms in process and 133 ms on a two-worker pool (2-vCPU VM), and
# the pool's share of that time varied most between runs; with its cells on
# two threads (build_table) it took 35 ms where it took 59 ms in process and
# 76 ms on the pool (medians of 7, 2-vCPU VM).
_POOL_MIN_SECONDS = 0.25


class SimulationError(RuntimeError):
    """A replicate's fit did not converge, or a table cell could not be computed."""


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
    replicates: int = DEFAULT_REPLICATES
    repetitions: int = DEFAULT_REPETITIONS
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


def _blocks(model: ZipfModel, n: int, stream: RandomStream, rows: int) -> Iterator[ValueRows]:
    """The next ``rows`` replicates of the stream, drawn a block of rows at a time.

    Finite-support rows come in blocks of _BLOCK_CHUNKS whole chunks of
    about CHUNK_ELEMENTS head counts (rows x K), as the fit and KS statistic
    take them (ValueRows.chunks); unbounded rows in value_blocks' blocks,
    which bounds the values a span holds at once.  Either block is at most
    _BLOCK_CHUNKS * CHUNK_ELEMENTS of work where more than one row fits, and
    neither changes a sample: both consume the stream as one draw would.
    """
    if model.support.is_finite:
        step = _BLOCK_CHUNKS * max(1, CHUNK_ELEMENTS // model.support.k)
        for lo in range(0, rows, step):
            yield sample(model, n, stream, min(step, rows - lo))
    else:
        yield from value_blocks(model, n, stream, rows)


def _run_spans(task: tuple[SimulationConfig, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """KS statistics and re-fitted exponents of spans first..stop-1 of one repetition.

    Results come in replicate-index order.  Each span draws from its own
    stream, a block at a time (_blocks).  Consecutive blocks, of one span or
    of several, are collected while their work (ValueRows.sizes) adds up to
    at most _BLOCK_CHUNKS * CHUNK_ELEMENTS, and are then joined, fitted and
    scored as one batch; a block past that budget on its own is scored alone.  A task is a whole
    repetition in process, half of one on threads and a run of spans on a
    pool (_replicate_ks); a row's fit and statistic do not depend on the rows
    batched with it, so results do not depend on how spans are grouped into
    tasks.

    A replicate whose fit did not converge (NaN) aborts the task, since
    scoring or dropping it would bias the quantiles.
    """
    config, repetition, first, stop = task
    start = first * _SPAN
    if not 0 <= start < stop * _SPAN or (stop - 1) * _SPAN >= config.replicates:
        raise ValueError(f"spans {first}..{stop - 1} outside the {config.replicates} replicates")
    model = _generating_model(config.gamma, config.support.k)
    budget = _BLOCK_CHUNKS * CHUNK_ELEMENTS
    scored: list[tuple[np.ndarray, np.ndarray]] = []
    batch: list[ValueRows] = []
    held = 0  # the batch's work

    def score_batch() -> None:
        drawn = concatenate_rows(batch)
        batch.clear()  # the joined copy is all that is kept
        gamma_hat = mle_gamma(drawn, config.support)
        scored.append((ks_statistic(drawn, ZipfRows(gamma_hat, config.support)), gamma_hat))

    for span in range(first, stop):
        stream = RandomStream.for_replicate(config.base_seed, repetition, span)
        for block in _blocks(model, config.n, stream, min(_SPAN, config.replicates - span * _SPAN)):
            size = int(block.sizes(config.support)[-1])
            if batch and held + size > budget:
                score_batch()
                held = 0
            batch.append(block)
            held += size
    score_batch()
    ks, gamma_hat = (np.concatenate(part) for part in zip(*scored))
    failed = np.flatnonzero(np.isnan(gamma_hat))
    if failed.size:
        raise SimulationError(
            f"replicate {start + int(failed[0])} (repetition {repetition}, gamma={config.gamma}, "
            f"n={config.n}, support={config.support}): the fit did not converge"
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
# the replicate loop and its runner

def _resolve_workers(workers: int | None) -> int:
    """Worker count; None means every CPU this process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _estimated_seconds(config: SimulationConfig) -> float:
    """Rough serial cost of a whole call, used only to choose whether it starts a
    pool (_runner).

    A replicate is priced at 1.8 + 0.025 K + 0.0026 n us on 1..K, and at
    3 + 0.15 n^(1/gamma) us unbounded, where its cost grows with a row's
    distinct values.  Per-replicate costs measured on one core (README,
    Performance): about 1.1-2.9 us at K=20, 11-42 us at K=1000 and 0.4-0.5
    ms at K=32766, from n = 10 to n = 1000; unbounded, from gamma = 4 down
    to 1.25, 2.3-9 us at n <= 100, 3.6-37 us at n = 1000 and up to 0.66 ms
    at n = 5x10^4.  Known misses: the model has no gamma term on 1..K, so
    K = 1000, gamma = 1, n = 1000 reads 29 us against 80-87 us measured,
    and K = 20, gamma = 4, n = 100, whose multinomial ends early, is priced
    above n = 10 though it costs as little; gamma = 1.05, n = 5x10^4 reads
    4.5 ms against 1.4 ms.  It depends only on the configuration, so the
    same call always takes the same path.
    """
    if config.support.is_finite:
        replicate = 1.8e-6 + 2.5e-8 * config.support.k + 2.6e-9 * config.n
    else:
        replicate = 3e-6 + 1.5e-7 * config.n ** (1.0 / config.gamma)
    return replicate * config.replicates * config.repetitions


def _on_two_threads(run: Callable[[_Item], _Result], items: Sequence[_Item]) -> list[_Result]:
    """run(item) of each item, in item order, run by the calling thread and one helper.

    Fewer than two items run in process.  Otherwise each thread takes the
    next item in index order, and the helper, started for the call, is
    joined before the results are returned or an error raised, so no thread
    outlives the call (a forked pool worker inherits no running thread).
    An error stops both threads from taking more items; every item before
    the failed one was taken earlier and is finished, so the error raised is
    that of the earliest failing item, as in process.
    """
    if len(items) < 2:
        return list(map(run, items))
    results: list = [None] * len(items)
    claims, claiming = itertools.count(), threading.Lock()  # no item is taken twice
    stop = threading.Event()

    def work() -> None:
        while True:
            with claiming:  # an item is claimed only before a failure is seen
                index = len(items) if stop.is_set() else next(claims)
            if index >= len(items):
                return
            try:
                results[index] = run(items[index])
            except BaseException as err:
                results[index] = err
                stop.set()

    helper = threading.Thread(target=work, name="zipfks-spans", daemon=True)
    helper.start()
    try:
        work()
    finally:
        stop.set()  # an interrupt of the calling thread ends the helper after its item
        helper.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


# How a call or a table runs its tasks: a map-like callable, and how many
# parts each repetition is cut into (_runner).
_Runner = tuple[Callable[[Callable, Sequence], Iterable], int]


@contextlib.contextmanager
def _runner(workers: int | None, seconds: float) -> Iterator[_Runner]:
    """The runner for ``seconds`` of estimated serial work on ``workers`` (None:
    every CPU this process may use).

    With more than one worker: a fork pool's imap and four parts per worker
    when the work reaches _POOL_MIN_SECONDS, else two threads
    (_on_two_threads, which runs a call of one task in process) and
    halves.  One worker runs in process (map), each repetition whole.
    """
    workers = _resolve_workers(workers)
    if workers > 1 and seconds >= _POOL_MIN_SECONDS:
        with multiprocessing.get_context().Pool(workers) as pool:
            yield pool.imap, 4 * workers
    elif workers > 1:
        yield _on_two_threads, 2
    else:
        yield map, 1


def _replicate_ks(config: SimulationConfig, runner: _Runner) -> np.ndarray:
    """KS statistic of every replicate, shape (repetitions, replicates).

    A task is a run of contiguous spans of one repetition, so that its
    batches can cross spans: ceil(spans / parts) spans, for the runner's
    ``parts`` per repetition.
    """
    run, parts = runner
    spans = -(-config.replicates // _SPAN)
    step = -(-spans // parts)
    tasks = [
        (config, repetition, first, min(first + step, spans))
        for repetition in range(config.repetitions)
        for first in range(0, spans, step)
    ]
    ks = np.concatenate([task_ks for task_ks, _ in run(_run_spans, tasks)])
    return ks.reshape(config.repetitions, config.replicates)


def run_simulation(
    config: SimulationConfig, workers: int | _Runner | None = None
) -> list[tuple[float, float]]:
    """(level, cutoff) pairs: per-repetition order quantiles averaged over repetitions.

    ``workers`` is a worker count (None: every CPU this process may use) or
    a runner to share, as build_table does across its cells.  A count is an
    upper bound: with more than one worker the call runs on a pool if its
    _estimated_seconds reach _POOL_MIN_SECONDS, else on two threads
    (_runner).  Results never depend on it.
    """
    if isinstance(workers, tuple):
        ks = _replicate_ks(config, workers)
    else:
        with _runner(workers, _estimated_seconds(config)) as runner:
            ks = _replicate_ks(config, runner)
    per_level = np.mean([order_quantiles(row, config.quantiles) for row in ks], axis=0)
    return list(zip(config.quantiles, (float(c) for c in per_level)))


# ---------------------------------------------------------------------------
# cutoff tables

class CutoffLookupError(LookupError):
    """No tabulated cell matches the requested (gamma, n, level)."""


# A fitted exponent must sit this close to a tabulated one for lookup to
# apply: lookup answers only at tabulated exponents, and interpolating
# between them is not implemented.
GAMMA_LOOKUP_WINDOW = 0.005


@dataclass(frozen=True, eq=True)
class CutoffTable:
    """Grid of cutoffs over (gamma, n) for one support, plus its provenance."""

    support: Support
    levels: tuple[float, ...]
    gammas: tuple[float, ...]
    ns: tuple[int, ...]
    cells: dict[tuple[float, int], tuple[float, ...]] = field(compare=True)
    replicates: int = DEFAULT_REPLICATES
    repetitions: int = DEFAULT_REPETITIONS
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
    replicates: int = DEFAULT_REPLICATES,
    repetitions: int = DEFAULT_REPETITIONS,
    workers: int | None = None,
    progress: Callable[[float, int, float, tuple[float, ...]], None] | None = None,
) -> CutoffTable:
    """Fill the (gamma, n) grid at DEFAULT_LEVELS, all cells sharing one runner.

    Every cell reuses the same base_seed, so any single cell is reproducible
    with a standalone run_simulation call on that cell's configuration.  The
    runner (_runner) is chosen once, for the whole grid's estimated serial
    work.  On two threads, a grid of more than one cell runs its cells whole
    and in process, the calling thread and a helper each taking the next
    cell in grid order; any other grid runs cell by cell, each on the grid's
    runner.

    ``progress`` is called on the calling thread, in grid order, with each
    cell's seconds.  Cells run cell by cell are reported as each ends, with
    the time since the previous report.  Whole cells on threads are
    reported once the last ends, each with a share of the time since the
    call began in proportion to its own seconds, timed on its thread.  The
    runner's start-up is charged to the first cell and its shutdown to the
    last, so that the seconds add up to the call's wall time.
    """
    ns = tuple(int(n) for n in ns)
    gammas = tuple(float(g) for g in gammas)
    if not ns or not gammas:
        raise ValueError("both grids must be nonempty")
    for name, grid in (("n", ns), ("gamma", gammas)):
        repeated = [value for i, value in enumerate(grid) if value in grid[:i]]
        if repeated:
            raise ValueError(f"{name} grid repeats the value {repeated[0]!r}")
    started = time.perf_counter()
    configs = [
        SimulationConfig(n=n, support=support, gamma=gamma, base_seed=base_seed,
                         replicates=replicates, repetitions=repetitions)
        for gamma in gammas
        for n in ns
    ]
    cells: dict[tuple[float, int], tuple[float, ...]] = {}
    Ended = tuple[SimulationConfig, tuple[float, ...], float]  # a cell's cutoffs and own seconds

    def report(ended: list[Ended]) -> None:
        """Record and report, in grid order, the cells ended since the last report, each
        with a share of the seconds since then in proportion to its own."""
        nonlocal started
        seconds = time.perf_counter() - started
        total = sum(own for _, _, own in ended)
        for config, row, own in ended:
            cells[(config.gamma, config.n)] = row
            if progress is not None:
                progress(config.gamma, config.n, seconds * own / total, row)
        started = time.perf_counter()

    def cell(config: SimulationConfig, runner: _Runner) -> Ended:
        began = time.perf_counter()
        try:
            pairs = run_simulation(config, runner)
        except Exception as err:
            raise SimulationError(
                f"table cell (gamma={config.gamma}, n={config.n}) failed: {err}"
            ) from err
        return config, tuple(cutoff for _, cutoff in pairs), time.perf_counter() - began

    with _runner(workers, sum(map(_estimated_seconds, configs))) as runner:
        run, _ = runner
        if run is _on_two_threads and len(configs) > 1:
            # each cell whole and in process, on one of two threads
            ended = run(lambda config: cell(config, (map, 1)), configs)
        else:
            for config in configs:
                ended = [cell(config, runner)]
                if config is not configs[-1]:
                    report(ended)
    report(ended)  # the last cell also pays for the runner's shutdown
    return CutoffTable(support=support, levels=DEFAULT_LEVELS, gammas=gammas, ns=ns, cells=cells,
                       replicates=replicates, repetitions=repetitions, base_seed=base_seed)
