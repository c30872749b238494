"""Discrete power-law (Zipf) models: support, normalization, pmf/cdf, sampling.

Two flavours share one type: a truncated model over 1..K (any real
exponent) and an unbounded model over all positive integers (exponent
at least MIN_UNBOUNDED_GAMMA so the normalizing series converges fast
enough to evaluate).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .series import (
    CHUNK_ELEMENTS,
    HEAD_TERMS,
    MAX_FINITE_SUPPORT,
    finite_moments,
    natural_logs,
    power_rows,
    zeta_cdf,
    zeta_value,
)

# Smallest exponent admitted for the unbounded model.
MIN_UNBOUNDED_GAMMA = 1.05

# Draws from the unbounded model come from its restriction to
# 1..UNBOUNDED_SAMPLE_LIMIT, renormalized.  The omitted tail mass is
# negligible for gamma >= 1.5 and about 6% at gamma = 1.25; fitting marginal
# exponents against samples produced this way is exactly what the reference
# cutoff grids assume.
UNBOUNDED_SAMPLE_LIMIT = 65535

# Bounds on the head 1..H of an unbounded batch draw (see _head_size).
_HEAD_MIN = 16
_HEAD_MAX = 4096

# Steps a guided search takes from its start before it falls back to binary search.
_SEARCH_STEPS = 4

# Sort key of a tail draw: row << _ROW_BITS | value orders draws by row, then
# value, and a shift and a mask take the key apart again.
_ROW_BITS = UNBOUNDED_SAMPLE_LIMIT.bit_length()
_VALUE_MASK = (1 << _ROW_BITS) - 1

# A sample whose largest value is at most this many times its size is
# counted by one np.bincount pass, whose counts then take no more memory
# than np.unique's sorted copy of the sample; any other by np.unique.
_BINCOUNT_SPREAD = 2

# Largest observation a Sample holds.
_INT64_MAX = int(np.iinfo(np.int64).max)

# An unbounded batch is drawn and handed on in blocks of rows that hold
# about this many CHUNK_ELEMENTS of distinct values and tail draws each.
_BLOCK_CHUNKS = 2


@dataclass(frozen=True)
class Support:
    """Support declaration: 1..k when k is an int, all positive integers when None."""

    k: int | None

    def __post_init__(self) -> None:
        if self.k is not None:
            if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
                raise ValueError(f"finite support bound must be an integer, got {self.k!r}")
            if self.k < 2 or self.k > MAX_FINITE_SUPPORT:
                raise ValueError(
                    f"finite support bound must be in [2, {MAX_FINITE_SUPPORT}], got {self.k}"
                )
            object.__setattr__(self, "k", int(self.k))

    @classmethod
    def finite(cls, k: int) -> "Support":
        return cls(k=k)

    @classmethod
    def unbounded(cls) -> "Support":
        return cls(k=None)

    @property
    def is_finite(self) -> bool:
        return self.k is not None

    def contains(self, values: np.ndarray) -> bool:
        if values.size == 0:
            return True
        vmin, vmax = int(values.min()), int(values.max())
        return vmin >= 1 and (self.k is None or vmax <= self.k)

    def __str__(self) -> str:
        return "inf" if self.k is None else str(self.k)


def normalization(gamma: float, support: Support) -> float:
    """sum of k^(-gamma) over the support, each term taken as exp(-gamma ln k)."""
    if not math.isfinite(gamma):
        raise ValueError(f"exponent must be finite, got {gamma}")
    if support.is_finite:
        total = float(finite_moments(np.array([gamma]), support.k, 1)[0, 0])
        if not math.isfinite(total):
            raise ValueError(f"normalizer overflows at gamma={gamma} with K={support.k}")
        return total
    if gamma < MIN_UNBOUNDED_GAMMA:
        raise ValueError(
            f"unbounded support requires gamma >= {MIN_UNBOUNDED_GAMMA}, got {gamma}"
        )
    return zeta_value(gamma)


@dataclass(frozen=True)
class ZipfModel:
    """p(k) = k^(-gamma) / norm over the declared support."""

    gamma: float
    support: Support
    norm: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "norm", normalization(self.gamma, self.support))

    @cached_property
    def _sampling_pmf(self) -> np.ndarray:
        """Probabilities over 1..limit that draws are made from."""
        limit = self.support.k if self.support.is_finite else UNBOUNDED_SAMPLE_LIMIT
        logs = natural_logs(limit)[1 : limit + 1]
        weights = np.exp(-self.gamma * logs)
        return weights * (1.0 / weights.sum())

    @cached_property
    def _sampling_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative probabilities over 1..limit, then inf, and their guide (see _guide)."""
        cdf = np.append(np.cumsum(self._sampling_pmf), np.inf)
        return cdf, _guide(cdf)


@dataclass(frozen=True)
class Sample:
    """Ordered collection of positive integer observations."""

    observations: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.observations)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("a sample must be a nonempty one-dimensional collection")
        if not np.issubdtype(values.dtype, np.integer):
            if not np.isfinite(values).all():
                raise ValueError("observations must be finite")
            if not np.all(values == np.floor(values)):
                raise ValueError("observations must be integers")
        if values.min() < 1:
            raise ValueError("observations must be positive integers")
        if int(values.max()) > _INT64_MAX:  # checked before the cast, which would wrap
            raise ValueError(f"observations must be at most {_INT64_MAX}")
        object.__setattr__(self, "observations", values.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        return int(self.observations.size)

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only sorted distinct observations and how often each is seen.

        The estimator and the KS statistic see a sample only through these,
        by its batch of one row (as_rows), so it is reduced once.
        """
        obs = self.observations
        if int(obs.max()) <= _BINCOUNT_SPREAD * obs.size:
            counts = np.bincount(obs)
            values = np.flatnonzero(counts)
            counts = counts[values]
        else:
            values, counts = np.unique(obs, return_counts=True)
        values.flags.writeable = counts.flags.writeable = False
        return values, counts


@dataclass(frozen=True, eq=False)
class CountRows:
    """Equal-size samples over a finite support 1..K, one count vector per row.

    ``table[r, k - 1]`` is how often sample r holds the value k; every row sums
    to n.  On a finite support the estimator and the KS statistic see a sample
    only through its counts, so a batch of replicates is one such matrix.
    """

    table: np.ndarray
    n: int


@dataclass(frozen=True, eq=False)
class ValueRows:
    """Equal-size samples over the unbounded support, each reduced to its distinct values.

    Row r's sorted distinct values are ``observations[starts[r]:starts[r + 1]]``,
    seen ``counts[starts[r]:starts[r + 1]]`` times; ``log_sums[r]`` is its sum
    of ln x, taken by _log_sums once the rows are assembled, whether they were
    drawn or observed.  The estimator needs only the log sum and the KS
    statistic only the distinct values and their counts, so a batch keeps no
    more of its draws than that.
    """

    observations: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    log_sums: np.ndarray
    n: int

    def sizes(self) -> np.ndarray:
        """Entry r: the work of rows 0..r-1, their distinct values and HEAD_TERMS + 1 per
        row, the head table that the fit and KS statistic build for every row."""
        return self.starts + (HEAD_TERMS + 1) * np.arange(self.starts.size)


def _log_sums(observations: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each row's sum of count x ln value over its distinct values, by np.add.reduceat.

    A row's sum does not depend on the rows beside it.  The shared log table
    holds np.log's bits, so values above it, which only observed samples
    hold, take np.log.
    """
    if observations.max() <= UNBOUNDED_SAMPLE_LIMIT:
        terms = natural_logs(UNBOUNDED_SAMPLE_LIMIT)[observations]
    else:
        terms = np.log(observations.astype(np.float64))
    terms *= counts
    return np.add.reduceat(terms, starts[:-1])


def as_rows(sample: Sample, support: Support) -> CountRows | ValueRows:
    """The sample as a batch of one row on the declared support.

    Over 1..K it is its count vector (CountRows), over all positive integers
    its distinct values and their counts (ValueRows), so that it is fitted and
    scored by the arithmetic that fits and scores the replicates.  Values
    outside the support are an error.
    """
    values, counts = sample.distinct
    if not support.contains(values):
        raise ValueError(f"observations exceed the declared support 1..{support}")
    if support.is_finite:
        table = np.zeros((1, support.k), dtype=np.int64)
        table[0, values - 1] = counts
        return CountRows(table, sample.n)
    starts = np.array([0, values.size])
    return ValueRows(values, counts, starts, _log_sums(values, counts, starts), sample.n)


def _check_in_support(model: ZipfModel, k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"support point must be an integer, got {k!r}")
    k = int(k)
    if k < 1 or (model.support.is_finite and k > model.support.k):
        raise ValueError(f"value {k} lies outside the support 1..{model.support}")
    return k


def pmf(model: ZipfModel, k: int) -> float:
    """Probability of observing k; values outside the support are an error."""
    k = _check_in_support(model, k)
    return math.exp(-model.gamma * math.log(k)) * (1.0 / model.norm)


def finite_cdf(gammas: np.ndarray, k: int, last: int) -> np.ndarray:
    """F(1..last) of the models over 1..k with these exponents, one row each.

    A row is the running sum of its pmf, j^(-gamma) times the reciprocal of
    normalization's sum, so it never falls as j grows, and depends on no other.
    """
    w = power_rows(gammas, k)
    out = w[:, :last]
    out *= (1.0 / w.sum(axis=1))[:, None]
    return np.cumsum(out, axis=1, out=out)


def cdf(model: ZipfModel, k: int) -> float:
    """Probability of observing a value <= k."""
    k = _check_in_support(model, k)
    gamma = np.array([model.gamma])
    if model.support.is_finite:
        return float(finite_cdf(gamma, model.support.k, k)[0, -1])
    one = np.zeros(1, dtype=np.int64)
    return float(zeta_cdf(gamma, np.array([model.norm]), one, one + k)[1][0])


class RandomStream:
    """Deterministic random stream; single-owner, one per span of replicates."""

    __slots__ = ("_generator",)

    def __init__(self, key: int | list[int]) -> None:
        self._generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))

    @classmethod
    def for_replicate(cls, base_seed: int, repetition: int, index: int) -> "RandomStream":
        """Independent stream keyed by (seed, repetition, index); worker-count free.

        The index is a span of replicates, or a replicate's retry offset.
        """
        return cls([int(base_seed), int(repetition), int(index)])

    def uniforms(self, count: int) -> np.ndarray:
        """count uniforms in (0, 1]: one minus the generator's [0, 1), taken in place."""
        u = self._generator.random(count)
        return np.subtract(1.0, u, out=u)

    def multinomial(self, n: int, p: np.ndarray, rows: int) -> np.ndarray:
        """rows x len(p) counts, each row Multinomial(n, p), drawn row after row."""
        return self._generator.multinomial(n, p, size=rows)


def _guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a cdf: entry j is the smallest i with cdf[i] >= j / M, j = 0..M.

    M is the smallest power of two above the table's finite entries, so that
    u M is exact; the entries are int32, M + 1 of them.  That smallest i is
    the count of entries below j / M, and cdf[i] < j / M exactly when
    floor(cdf[i] M) < j, so each entry is counted by floor(cdf[i] M).
    """
    m = 1 << (cdf.size - 1).bit_length()
    buckets = np.minimum(cdf * m, m).astype(np.intp)  # an entry of 1 or more is below no edge
    guide = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(buckets, minlength=m + 1)[:m], out=guide[1:])
    return guide


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u) for u in [0, 1], cdf nondecreasing and ending in inf.

    Inverse transform by guide table (Chen & Asau, 1974; Devroye, 1986,
    section III.2.4): with M = guide.size - 1, the answer is at or after
    guide[floor(u M)], since u >= floor(u M) / M, and rarely more than a step
    past it.  Searches still short of it after _SEARCH_STEPS steps forward,
    such as those in a bucket holding a long run of small entries, finish by
    binary search.
    """
    i = guide[(u * (guide.size - 1)).astype(np.intp)].astype(np.intp)
    todo = np.flatnonzero(cdf[i] < u)
    for _ in range(_SEARCH_STEPS):
        if not todo.size:
            return i
        i[todo] += 1
        todo = todo[cdf[i[todo]] < u[todo]]
    i[todo] = np.searchsorted(cdf, u[todo])
    return i


def _draw_values(model: ZipfModel, count: int, stream: RandomStream) -> np.ndarray:
    """count values by inverse transform, clamped to the table's end against rounding.

    The uniforms are searched CHUNK_ELEMENTS at a time, each block's indices
    written over its own uniforms, so that a large draw holds one array.
    """
    cdf, guide = model._sampling_table
    u = stream.uniforms(count)
    values = u.view(np.int64)
    for lo in range(0, count, CHUNK_ELEMENTS):
        values[lo : lo + CHUNK_ELEMENTS] = _guided_search(cdf, guide, u[lo : lo + CHUNK_ELEMENTS])
    values += 1
    return np.minimum(values, cdf.size - 1, out=values)


def _head_size(model: ZipfModel, n: int) -> int:
    """Values 1..H whose counts an unbounded row draws as one multinomial.

    H is the largest k with n p(k) >= 1, clipped to [_HEAD_MIN, _HEAD_MAX]:
    each head value costs one binomial per row whether it is drawn or not,
    and each tail observation one inverse-transform draw.
    """
    expected = n * model._sampling_pmf[:_HEAD_MAX]
    return min(max(int(np.count_nonzero(expected >= 1.0)), _HEAD_MIN), _HEAD_MAX)


# The tables of an unbounded batch draw, built once per model and head.  A
# calibration call uses one pair, and each tail table takes about 0.8 MB, so
# only two are kept.
@lru_cache(maxsize=2)
def _head_pmf(model: ZipfModel, head: int) -> np.ndarray:
    """Read-only probabilities of 1..head, then of the tail head+1..: a row's multinomial."""
    pmf = model._sampling_pmf
    p = np.append(pmf[:head], pmf[head:].sum())
    p.flags.writeable = False
    return p


@lru_cache(maxsize=2)
def _tail_table(model: ZipfModel, head: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cdf of head+1..UNBOUNDED_SAMPLE_LIMIT given the tail, then inf, and its guide."""
    pmf = model._sampling_pmf
    cdf = np.empty(UNBOUNDED_SAMPLE_LIMIT - head + 1)
    np.cumsum(pmf[head:], out=cdf[:-1])
    cdf[:-1] *= 1.0 / cdf[-2]
    cdf[-1] = np.inf  # past the table's end: the draw's clamp takes it back
    guide = _guide(cdf)
    cdf.flags.writeable = guide.flags.writeable = False
    return cdf, guide


def value_blocks(model: ZipfModel, n: int, stream: RandomStream, rows: int) -> Iterator[ValueRows]:
    """ValueRows of the next ``rows`` samples, a block of consecutive rows at a time.

    Head counts are drawn by multinomial, tail values one by one.  The
    stream gives every row's head counts first, row after row, about
    CHUNK_ELEMENTS counts at a time, and then each block's tail draws in
    row order, so the samples depend neither on the blocks nor on
    CHUNK_ELEMENTS.  A block is the longest run of rows, at least one, whose
    head values seen and tail draws come to at most _BLOCK_CHUNKS *
    CHUNK_ELEMENTS, which bounds the distinct values it stores.  Besides
    the block being handed on, only every row's head counts are kept, in
    the smallest integer type that holds n; _block frees its temporaries
    before it returns.  Each tail value is a guided search of the tail's
    cdf; that cdf, its guide and the multinomial's probabilities are built
    once per model and head.
    """
    head = _head_size(model, n)
    p = _head_pmf(model, head)
    heads = np.empty((rows, head), dtype=np.min_scalar_type(n))  # each row's counts of 1..head
    tails = np.empty(rows, dtype=np.int64)  # observations of each row above the head
    step = max(1, CHUNK_ELEMENTS // (head + 1))
    for lo in range(0, rows, step):
        table = stream.multinomial(n, p, min(step, rows - lo))
        hi = lo + len(table)
        tails[lo:hi] = table[:, head]
        heads[lo:hi] = table[:, :head]
    head_lengths = np.count_nonzero(heads, axis=1)  # distinct values of each row in the head
    stored = np.cumsum(head_lengths + tails)  # bounds the distinct values of rows 0..r
    budget = _BLOCK_CHUNKS * CHUNK_ELEMENTS
    lo = 0
    while lo < rows:
        done = stored[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(stored, done + budget, side="right")))
        yield _block(model, stream, heads[lo:hi], head_lengths[lo:hi], tails[lo:hi], n)
        lo = hi


def _block(model: ZipfModel, stream: RandomStream, heads: np.ndarray, head_lengths: np.ndarray,
           tails: np.ndarray, n: int) -> ValueRows:
    """ValueRows of some rows from their head counts, drawing their tails from the stream.

    Each row holds its head values, then its tail values: the head values
    are placed, and the tail values, sorted by row and value, fill the rest.
    The log sums are taken from the assembled rows (_log_sums).
    """
    rows, head = heads.shape
    cells = np.flatnonzero(heads)  # row-major: each row's values in increasing order
    lengths = head_lengths.copy()
    draws = int(tails.sum())
    if draws:
        tail_cdf, guide = _tail_table(model, head)
        keys = _guided_search(tail_cdf, guide, stream.uniforms(draws))
        keys += head + 1
        np.minimum(keys, UNBOUNDED_SAMPLE_LIMIT, out=keys)  # the value drawn
        key_type = np.min_scalar_type((rows - 1) << _ROW_BITS | _VALUE_MASK)  # sorts faster
        keys = keys.astype(key_type)
        keys |= np.repeat(np.arange(rows, dtype=key_type) << _ROW_BITS, tails)
        keys.sort()
        new = np.empty(draws, dtype=bool)  # first of its value in its row
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        first = np.flatnonzero(new)
        keys = keys[first]
        row, value = keys >> _ROW_BITS, keys & _VALUE_MASK
        seen = np.diff(first, append=draws)
        lengths += np.diff(np.searchsorted(row, np.arange(rows + 1, dtype=key_type)))  # row sorted
    starts = np.concatenate(([0], np.cumsum(lengths)))
    at = np.repeat(starts[:-1] - (np.cumsum(head_lengths) - head_lengths), head_lengths)
    at += np.arange(at.size)  # where each head value goes
    observations = np.empty(starts[-1], dtype=np.int64)
    counts = np.empty(starts[-1], dtype=np.int64)
    observations[at] = cells % head + 1
    counts[at] = heads.ravel()[cells]
    if draws:
        tail = np.ones(starts[-1], dtype=bool)
        tail[at] = False
        observations[tail] = value
        counts[tail] = seen
    return ValueRows(observations, counts, starts, _log_sums(observations, counts, starts), n)


def concatenate_rows(blocks: Iterable[CountRows | ValueRows]) -> CountRows | ValueRows:
    """One batch of consecutive blocks of rows, all CountRows or all ValueRows of one n."""
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    n = blocks[0].n
    if isinstance(blocks[0], CountRows):
        return CountRows(np.concatenate([b.table for b in blocks]), n)
    lengths = np.concatenate([np.diff(b.starts) for b in blocks])
    return ValueRows(
        np.concatenate([b.observations for b in blocks]),
        np.concatenate([b.counts for b in blocks]),
        np.concatenate(([0], np.cumsum(lengths))),
        np.concatenate([b.log_sums for b in blocks]),
        n,
    )


def sample(
    model: ZipfModel, n: int, stream: RandomStream, rows: int | None = None
) -> Sample | CountRows | ValueRows:
    """Draw n values by inverse transform: the smallest k with cdf(k) >= u.

    Finite supports use the exact model cdf and clamp to K against end-of-table
    rounding.  Unbounded supports draw from the model restricted to
    1..UNBOUNDED_SAMPLE_LIMIT (see the constant's note).  Every inverse
    transform is a guided search (_guided_search), which finds the index a
    binary search would.

    With ``rows``, the model instead gives that many samples as one batch,
    drawn as counts by conditional binomials (Generator.multinomial) where
    that is cheaper than drawing observations one by one.

    - Finite support, K <= n: CountRows, every row's counts of 1..K one
      multinomial, O(K) per row whatever n is.
    - Finite support, K > n: CountRows by inverse transform and a row-offset
      bincount, O(n) per row.
    - Unbounded support: ValueRows.  A head 1..H, H the largest k with
      n p(k) >= 1 clipped to [16, 4096], is drawn as a multinomial over
      1..H plus one tail category; its nonzero counts are the row's first
      distinct values.  Only the row's tail observations are drawn by
      inverse transform on the tail's own cdf over H+1..UNBOUNDED_SAMPLE_LIMIT,
      clamped like a one-sample draw; that cdf and its guide table are built
      once per model and H.  The stream gives all rows' head counts first,
      then all tail uniforms.
      The batch is value_blocks' blocks of rows, joined.

    Finite-support batches consume the stream row after row, so drawing
    rows in several calls gives the same samples as one call; an unbounded
    batch depends on its row count, but never on CHUNK_ELEMENTS.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if rows is None:
        return Sample(_draw_values(model, n, stream))
    if rows < 1:
        raise ValueError(f"row count must be >= 1, got {rows}")
    k = model.support.k
    if k is None:
        return concatenate_rows(value_blocks(model, n, stream, rows))
    if k <= n:
        return CountRows(stream.multinomial(n, model._sampling_pmf, rows), n)
    cells = _draw_values(model, rows * n, stream).reshape(rows, n) - 1
    cells += (np.arange(rows) * k)[:, None]
    table = np.bincount(cells.ravel(), minlength=rows * k).reshape(rows, k)
    return CountRows(table, n)
