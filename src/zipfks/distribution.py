"""Discrete power-law (Zipf) models: support, normalization, finite cdf, sampling.

Two flavours share one type: a truncated model over 1..K (any real
exponent) and an unbounded model over all positive integers (exponent
at least MIN_UNBOUNDED_GAMMA so the normalizing series converges fast
enough to evaluate).  Their batches of samples share one type as well
(ValueRows): dense counts of 1..H per row, H = K on 1..K, and the distinct
values above H.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .series import (
    CHUNK_ELEMENTS,
    HEAD_TERMS,
    MAX_FINITE_SUPPORT,
    finite_moments,
    natural_logs,
    power_rows,
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

# An unbounded batch is drawn and handed on in blocks of rows of about this
# many CHUNK_ELEMENTS of work each (ValueRows.sizes, counting tail draws).
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
    """p(k) = k^(-gamma) / normalization(gamma, support) over the declared support."""

    gamma: float
    support: Support

    def __post_init__(self) -> None:
        normalization(self.gamma, self.support)  # rejects an exponent the support cannot normalize

    @cached_property
    def _sampling_pmf(self) -> np.ndarray:
        """Probabilities over 1..limit that draws are made from.

        An unbounded model drops them once it has built a draw table from them
        (_draw_table), and builds them again if asked: they take 0.5 MB, and
        the draw table holds what a draw needs.
        """
        limit = self.support.k if self.support.is_finite else UNBOUNDED_SAMPLE_LIMIT
        logs = natural_logs(limit)[1 : limit + 1]
        weights = np.exp(-self.gamma * logs)
        return weights * (1.0 / weights.sum())

    @cached_property
    def _head_pmf(self) -> np.ndarray:
        """The first _HEAD_MAX entries of _sampling_pmf, a copy kept when an unbounded
        model drops the rest."""
        return self._sampling_pmf[:_HEAD_MAX].copy()

    def _draw_table(self, head: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only tables of a draw whose values 1..head are counted by multinomial.

        They are the multinomial's probabilities of 1..head and of the rest;
        the cdf of head+1..limit given the rest, then inf; and that cdf's
        guide (_guide).  Head 0 is a whole-support draw, whose cdf is not
        renormalized.  Built on first use, they are kept for the last head
        asked for only: a draw uses one head, and an unbounded tail table
        takes about 0.8 MB.  Threads may share a model: a table is replaced
        whole, never changed.
        """
        held = self.__dict__.get("_held_draw_table")
        if held is None or held[0] != head:
            pmf = self._sampling_pmf
            p = np.append(pmf[:head], pmf[head:].sum())
            cdf = np.empty(pmf.size - head + 1)
            np.cumsum(pmf[head:], out=cdf[:-1])
            if head:
                cdf[:-1] *= 1.0 / cdf[-2]
            cdf[-1] = np.inf  # past the table's end: the draw's clamp takes it back
            guide = _guide(cdf)
            p.flags.writeable = cdf.flags.writeable = guide.flags.writeable = False
            held = self.__dict__["_held_draw_table"] = (head, p, cdf, guide)
            if not self.support.is_finite:  # _head_size reads only _head_pmf
                self.__dict__.pop("_sampling_pmf", None)
        return held[1:]


class Sample:
    """Collection of positive integer observations.

    ``Sample(observations)`` holds them in the order given.  A sample built
    from its distinct values and their counts (from_counts) holds only those,
    and expands ``observations``, sorted, when they are first asked for.
    """

    def __init__(self, observations: Iterable[int] | np.ndarray) -> None:
        values = np.asarray(observations)
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
        self.__dict__["observations"] = values.astype(np.int64, copy=False)

    @classmethod
    def from_counts(cls, values: np.ndarray, counts: np.ndarray) -> "Sample":
        """The sample that holds each of the increasing positive int64 ``values``
        as often as the positive ``counts`` say."""
        # views, so that marking them read-only leaves the caller's arrays as they were
        values = np.asarray(values, dtype=np.int64).view()
        counts = np.asarray(counts, dtype=np.int64).view()
        if values.ndim != 1 or values.size == 0 or counts.shape != values.shape:
            raise ValueError("values and counts must be nonempty and one-dimensional, one count each")
        if values[0] < 1 or (np.diff(values) <= 0).any() or counts.min() < 1:
            raise ValueError("values must be increasing positive integers, counts positive")
        values.flags.writeable = counts.flags.writeable = False
        sample = cls.__new__(cls)
        sample.__dict__["distinct"] = (values, counts)
        return sample

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a Sample is immutable: cannot set {name!r}")

    @cached_property
    def observations(self) -> np.ndarray:
        """Every observation: in the order given, or sorted for a sample built from counts."""
        return np.repeat(*self.distinct)

    @cached_property
    def n(self) -> int:
        if "observations" in self.__dict__:
            return int(self.observations.size)
        return int(self.distinct[1].sum())

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only sorted distinct observations and how often each is seen.

        The estimator and the KS statistic see a sample only through these,
        by its batch of one row (as_rows), so it is reduced once.
        """
        values, counts = count_distinct(self.observations)
        values.flags.writeable = counts.flags.writeable = False
        return values, counts


def count_distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of a nonempty array of positive int64 values, and
    how often each is seen: by one np.bincount pass when the largest value is at
    most _BINCOUNT_SPREAD times their number, by np.unique otherwise."""
    if int(values.max()) <= _BINCOUNT_SPREAD * values.size:
        counts = np.bincount(values)
        distinct = np.flatnonzero(counts)
        return distinct, counts[distinct]
    return np.unique(values, return_counts=True)


@dataclass(frozen=True, eq=False)
class ValueRows:
    """Equal-size samples: dense counts of 1..H, then distinct values above H.

    ``head[r, k - 1]`` is how often sample r holds the value k <= H, H =
    ``head.shape[1]``.  Row r's sorted distinct values above H are
    ``observations[starts[r]:starts[r + 1]]``, seen ``counts[starts[r]:starts[r + 1]]``
    times.  The estimator and the KS statistic need no more of a sample than
    that, so a batch keeps no more of its draws.  On 1..K, H = K and no row
    holds a value above it; drawn rows keep the multinomial's int64 counts.
    On the unbounded support drawn batches take H from the draw (_head_size),
    keep their head counts in the smallest unsigned type that holds n, their
    values in the smallest type that holds UNBOUNDED_SAMPLE_LIMIT and their
    counts in the head's; an observed sample is a row with H = 0 (as_rows).
    """

    head: np.ndarray
    observations: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    n: int

    def sizes(self, support: Support) -> np.ndarray:
        """Entry r: the work of rows 0..r-1, their values above H and per row its H head
        counts, plus on the unbounded support the HEAD_TERMS + 1 head terms that the fit
        and KS statistic build for it (on 1..K what they build is as wide as the head)."""
        width = self.head.shape[1] + (0 if support.is_finite else HEAD_TERMS + 1)
        return self.starts + width * np.arange(self.starts.size)

    def chunks(self, support: Support) -> Iterator[tuple[int, int]]:
        """(lo, hi) of consecutive runs of rows, at least one row each, of at most
        CHUNK_ELEMENTS of work (sizes) where more than one row fits."""
        sizes = self.sizes(support)
        rows = sizes.size - 1
        lo = 0
        while lo < rows:
            hi = max(lo + 1, int(np.searchsorted(sizes, sizes[lo] + CHUNK_ELEMENTS, "right")) - 1)
            yield lo, hi
            lo = hi

    def part(self, lo: int, hi: int) -> "ValueRows":
        """Rows lo..hi-1 as a batch of their own, on views of this batch's arrays."""
        if lo == 0 and hi == self.starts.size - 1:
            return self
        a, b = self.starts[lo], self.starts[hi]
        return ValueRows(self.head[lo:hi], self.observations[a:b], self.counts[a:b],
                         self.starts[lo : hi + 1] - a, self.n)

    def check(self, support: Support) -> None:
        """Raise ValueError unless the rows can be fitted and scored on the support:
        on 1..K, counts of 1..K and no value above K."""
        if support.is_finite and (self.head.shape[1] != support.k or self.observations.size):
            raise ValueError(f"rows do not match the finite support 1..{support}")


def _count_rows(table: np.ndarray, n: int) -> ValueRows:
    """Rows over 1..K whose counts of 1..K are those of ``table``, one row each."""
    none = np.zeros(0, dtype=np.int64)
    return ValueRows(table, none, none, np.zeros(len(table) + 1, dtype=np.intp), n)


def as_rows(sample: Sample, support: Support) -> ValueRows:
    """The sample as a batch of one row on the declared support.

    Its distinct values up to H = K on 1..K, H = 0 on the unbounded support,
    are counted in its head, and the rest kept with their counts, so that it
    is fitted and scored by the arithmetic that fits and scores the
    replicates.  Values outside the support are an error.
    """
    values, counts = sample.distinct
    if not support.contains(values):
        raise ValueError(f"observations exceed the declared support 1..{support}")
    h = support.k or 0
    split = int(np.searchsorted(values, h, side="right"))
    head = np.zeros((1, h), dtype=np.min_scalar_type(sample.n))
    head[0, values[:split] - 1] = counts[:split]
    return ValueRows(head, values[split:], counts[split:], np.array([0, values.size - split]),
                     sample.n)


def finite_cdf(gammas: np.ndarray, k: int, last: int) -> np.ndarray:
    """F(1..last) of the models over 1..k with these exponents, one row each.

    A row is the running sum of its pmf, j^(-gamma) times the reciprocal of
    normalization's sum, so it never falls as j grows, and depends on no other.
    """
    w = power_rows(gammas, k)
    out = w[:, :last]
    out *= (1.0 / w.sum(axis=1))[:, None]
    return np.cumsum(out, axis=1, out=out)


class RandomStream:
    """Deterministic random stream; single-owner, one per span of replicates."""

    __slots__ = ("_generator",)

    def __init__(self, key: int | list[int]) -> None:
        self._generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))

    @classmethod
    def for_replicate(cls, base_seed: int, repetition: int, index: int) -> "RandomStream":
        """Independent stream keyed by (seed, repetition, index); worker-count free.

        The index is a span of replicates.
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


def _draw_values(model: ZipfModel, count: int, stream: RandomStream, head: int = 0) -> np.ndarray:
    """count values above head by inverse transform (_draw_table's cdf given head).

    Head 0 draws from the whole sampling pmf, one-sample draws and K > n
    batches alike; a head above 0 draws an unbounded batch's tail values.
    Each value is clamped to the table's end against rounding.  The uniforms
    are searched CHUNK_ELEMENTS at a time, each block's indices written over
    its own uniforms, so that a large draw holds one array.
    """
    _, cdf, guide = model._draw_table(head)
    u = stream.uniforms(count)
    values = u.view(np.int64)
    for lo in range(0, count, CHUNK_ELEMENTS):
        values[lo : lo + CHUNK_ELEMENTS] = _guided_search(cdf, guide, u[lo : lo + CHUNK_ELEMENTS])
    values += head + 1
    return np.minimum(values, head + cdf.size - 1, out=values)


def _head_size(model: ZipfModel, n: int) -> int:
    """Values 1..H whose counts an unbounded row draws as one multinomial.

    H is the largest k with n p(k) >= 1, clipped to [_HEAD_MIN, _HEAD_MAX]:
    each head value costs one binomial per row whether it is drawn or not,
    and each tail observation one inverse-transform draw.
    """
    expected = n * model._head_pmf
    return min(max(int(np.count_nonzero(expected >= 1.0)), _HEAD_MIN), _HEAD_MAX)


def value_blocks(model: ZipfModel, n: int, stream: RandomStream, rows: int) -> Iterator[ValueRows]:
    """ValueRows of the next ``rows`` samples, a block of consecutive rows at a time.

    Head counts are drawn by multinomial, tail values one by one.  The
    stream gives every row's head counts first, row after row, about
    CHUNK_ELEMENTS counts at a time, and then each block's tail draws in
    row order, so the samples depend neither on the blocks nor on
    CHUNK_ELEMENTS.  A block is the longest run of rows, at least one, whose
    work (ValueRows.sizes, with tail draws in place of the distinct values
    they give) comes to at most _BLOCK_CHUNKS * CHUNK_ELEMENTS.  Besides
    the block being handed on, only every row's head counts are kept, in
    the smallest integer type that holds n; a block's head is a slice of
    them.  Each tail value is drawn by _draw_values; the multinomial's
    probabilities and the tail's cdf and guide are the model's _draw_table
    for the head.
    """
    head = _head_size(model, n)
    p, _, _ = model._draw_table(head)
    heads = np.empty((rows, head), dtype=np.min_scalar_type(n))  # each row's counts of 1..head
    tails = np.empty(rows, dtype=np.int64)  # observations of each row above the head
    step = max(1, CHUNK_ELEMENTS // (head + 1))
    for lo in range(0, rows, step):
        table = stream.multinomial(n, p, min(step, rows - lo))
        hi = lo + len(table)
        tails[lo:hi] = table[:, head]
        heads[lo:hi] = table[:, :head]
    stored = np.cumsum(tails + (head + HEAD_TERMS + 1))  # bounds the work of rows 0..r
    budget = _BLOCK_CHUNKS * CHUNK_ELEMENTS
    lo = 0
    while lo < rows:
        done = stored[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(stored, done + budget, side="right")))
        yield _block(model, stream, heads[lo:hi], tails[lo:hi], n)
        lo = hi


def _block(model: ZipfModel, stream: RandomStream, heads: np.ndarray, tails: np.ndarray,
           n: int) -> ValueRows:
    """ValueRows of some rows from their head counts, drawing their tails from the stream.

    The tail values, drawn by _draw_values above the head, are sorted by row
    and value as keys and counted; the head counts are kept as they are.
    Values are kept in the smallest type that holds UNBOUNDED_SAMPLE_LIMIT,
    counts in the head's.
    """
    rows, head = heads.shape
    draws = int(tails.sum())
    key_type = np.min_scalar_type((rows - 1) << _ROW_BITS | _VALUE_MASK)  # sorts faster
    keys = _draw_values(model, draws, stream, head).astype(key_type)
    keys |= np.repeat(np.arange(rows, dtype=key_type) << _ROW_BITS, tails)
    keys.sort()
    new = np.ones(draws, dtype=bool)  # first of its value in its row
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    keys = keys[first]
    starts = np.searchsorted(keys >> _ROW_BITS, np.arange(rows + 1, dtype=key_type))  # row sorted
    seen = np.diff(first, append=draws).astype(heads.dtype)
    return ValueRows(heads, (keys & _VALUE_MASK).astype(np.min_scalar_type(_VALUE_MASK)), seen,
                     starts, n)


def concatenate_rows(blocks: Iterable[ValueRows]) -> ValueRows:
    """One batch of consecutive blocks of rows of one n and H."""
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    starts = [blocks[0].starts]
    for block in blocks[1:]:
        starts.append(block.starts[1:] + starts[-1][-1])
    return ValueRows(
        np.concatenate([b.head for b in blocks]),
        np.concatenate([b.observations for b in blocks]),
        np.concatenate([b.counts for b in blocks]),
        np.concatenate(starts),
        blocks[0].n,
    )


def sample(
    model: ZipfModel, n: int, stream: RandomStream, rows: int | None = None
) -> Sample | ValueRows:
    """Draw n values by inverse transform: the smallest k with cdf(k) >= u.

    Finite supports use the exact model cdf and clamp to K against end-of-table
    rounding.  Unbounded supports draw from the model restricted to
    1..UNBOUNDED_SAMPLE_LIMIT (see the constant's note).  Every inverse
    transform is a guided search (_guided_search), which finds the index a
    binary search would.

    With ``rows``, the model instead gives that many samples as one batch of
    ValueRows, drawn as counts by conditional binomials (Generator.multinomial)
    where that is cheaper than drawing observations one by one.

    - Finite support, K <= n: a head of H = K columns, every row's counts of
      1..K one K-category multinomial, O(K) per row whatever n is.
    - Finite support, K > n: the same head, by inverse transform and a
      row-offset bincount, O(n) per row.
    - Unbounded support: a head 1..H, H the largest k with
      n p(k) >= 1 clipped to [16, 4096], is drawn as a multinomial over
      1..H plus one tail category; its counts of 1..H are the row of the
      batch's head matrix.  Only the row's tail observations are drawn by
      inverse transform on the tail's own cdf over H+1..UNBOUNDED_SAMPLE_LIMIT,
      clamped like a one-sample draw.  The model keeps the tables of the
      last H it drew with (ZipfModel._draw_table).  The stream gives all
      rows' head counts first, then all tail uniforms.
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
        return _count_rows(stream.multinomial(n, model._sampling_pmf, rows), n)
    cells = _draw_values(model, rows * n, stream).reshape(rows, n) - 1
    cells += (np.arange(rows) * k)[:, None]
    return _count_rows(np.bincount(cells.ravel(), minlength=rows * k).reshape(rows, k), n)
