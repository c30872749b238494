"""Discrete power-law (Zipf) models: support, normalization, pmf/cdf, sampling.

Two flavours share one type: a truncated model over 1..K (any real
exponent) and an unbounded model over all positive integers (exponent
at least MIN_UNBOUNDED_GAMMA so the normalizing series converges fast
enough to evaluate).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .series import CHUNK_ELEMENTS, MAX_FINITE_SUPPORT, natural_logs, tail_mass, zeta_value

# Smallest exponent admitted for the unbounded model.
MIN_UNBOUNDED_GAMMA = 1.05

# Draws from the unbounded model come from its restriction to
# 1..UNBOUNDED_SAMPLE_LIMIT, renormalized.  The omitted tail mass is
# negligible for gamma >= 1.5 and about 6% at gamma = 1.25; fitting marginal
# exponents against samples produced this way is exactly what the reference
# cutoff grids assume.
UNBOUNDED_SAMPLE_LIMIT = 65535

# Partial sums of the unbounded model are read from a dense table up to here
# and closed with the series tail beyond.
_PARTIAL_SEAM = 4096


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
        logs = natural_logs(support.k)[1 : support.k + 1]
        total = float(np.exp(-gamma * logs).sum())
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
    def _sampling_cdf(self) -> np.ndarray:
        """Cumulative probabilities over 1..limit used by inverse-transform draws."""
        return np.cumsum(self._sampling_pmf)

    @cached_property
    def _partial_table(self) -> np.ndarray:
        """Running sums of pmf over 1..seam for unbounded cdf queries."""
        seam = _PARTIAL_SEAM
        logs = natural_logs(seam)[1 : seam + 1]
        return np.cumsum(np.exp(-self.gamma * logs) * (1.0 / self.norm))

    def pmf(self, k: int) -> float:
        return pmf(self, k)

    def cdf(self, k: int) -> float:
        return cdf(self, k)


@dataclass(frozen=True)
class Sample:
    """Ordered collection of positive integer observations."""

    observations: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.observations)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("a sample must be a nonempty one-dimensional collection")
        if not np.issubdtype(values.dtype, np.integer):
            if not np.all(values == np.floor(values)):
                raise ValueError("observations must be integers")
            values = values.astype(np.int64)
        else:
            values = values.astype(np.int64, copy=False)
        if values.min() < 1:
            raise ValueError("observations must be positive integers")
        object.__setattr__(self, "observations", values)

    @property
    def n(self) -> int:
        return int(self.observations.size)


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
    of ln x, added in the order the values were drawn.  The estimator needs
    only the log sum and the KS statistic only the distinct values and their
    counts, so a batch keeps no more of its draws than that.
    """

    observations: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    log_sums: np.ndarray
    n: int


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


def cdf(model: ZipfModel, k: int) -> float:
    """Probability of observing a value <= k."""
    k = _check_in_support(model, k)
    if model.support.is_finite or k <= _PARTIAL_SEAM:
        logs = natural_logs(k)[1 : k + 1]
        return float((np.exp(-model.gamma * logs) * (1.0 / model.norm)).sum())
    return float((model.norm - tail_mass(model.gamma, k + 1)) / model.norm)


class RandomStream:
    """Deterministic random stream; single-owner, one per span of replicates."""

    __slots__ = ("_generator",)

    def __init__(self, key: int | list[int]) -> None:
        self._generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))

    @classmethod
    def for_replicate(cls, base_seed: int, repetition: int, index: int) -> "RandomStream":
        """Independent stream keyed by (seed, repetition, replicate); worker-count free."""
        return cls([int(base_seed), int(repetition), int(index)])

    @classmethod
    def for_span(cls, base_seed: int, repetition: int, span: int) -> "RandomStream":
        """Stream of one block of consecutive replicates, keyed like for_replicate."""
        return cls([int(base_seed), int(repetition), int(span)])

    def uniforms(self, count: int) -> np.ndarray:
        return 1.0 - self._generator.random(count)

    def multinomial(self, n: int, p: np.ndarray, rows: int) -> np.ndarray:
        """rows x len(p) counts, each row Multinomial(n, p), drawn row after row."""
        return self._generator.multinomial(n, p, size=rows)


def _draw_values(model: ZipfModel, count: int, stream: RandomStream) -> np.ndarray:
    """count values by inverse transform, clamped to the table's end against rounding."""
    values = np.searchsorted(model._sampling_cdf, stream.uniforms(count), side="left") + 1
    return np.minimum(values, model._sampling_cdf.size)


def _value_rows(model: ZipfModel, n: int, stream: RandomStream, rows: int) -> ValueRows:
    """ValueRows of the next ``rows`` samples, drawn about CHUNK_ELEMENTS values at a time."""
    step = max(1, CHUNK_ELEMENTS // n)
    logs = natural_logs(UNBOUNDED_SAMPLE_LIMIT)
    values, counts, lengths, log_sums = [], [], [], []
    for lo in range(0, rows, step):
        chunk = min(step, rows - lo)
        drawn = _draw_values(model, chunk * n, stream).reshape(chunk, n)
        log_sums.append(logs[drawn].sum(axis=1))
        ordered = np.sort(drawn, axis=1).ravel()
        first = np.ones(ordered.size, dtype=bool)  # first of its value within its row
        first[1:] = ordered[1:] != ordered[:-1]
        first[::n] = True
        at = np.flatnonzero(first)
        values.append(ordered[at])
        counts.append(np.diff(at, append=ordered.size))
        lengths.append(np.bincount(at // n, minlength=chunk))
    starts = np.concatenate(([0], np.cumsum(np.concatenate(lengths))))
    return ValueRows(np.concatenate(values), np.concatenate(counts), starts,
                     np.concatenate(log_sums), n)


def sample(
    model: ZipfModel, n: int, stream: RandomStream, rows: int | None = None
) -> Sample | CountRows | ValueRows:
    """Draw n values by inverse transform: the smallest k with cdf(k) >= u.

    Finite supports use the exact model cdf and clamp to K against end-of-table
    rounding.  Unbounded supports draw from the model restricted to
    1..UNBOUNDED_SAMPLE_LIMIT (see the constant's note).

    With ``rows``, the model instead gives that many samples as one batch.
    On a finite support that is CountRows: when K <= n the counts are drawn
    directly by conditional binomials (Generator.multinomial), which costs
    O(K) per row whatever n is; otherwise by inverse transform and a
    row-offset bincount, O(n) per row.  On the unbounded support it is
    ValueRows, drawn by inverse transform a chunk of rows at a time.  Either
    way the stream is consumed row after row, so drawing rows in several
    calls gives the same samples as one call.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if rows is None:
        return Sample(_draw_values(model, n, stream))
    k = model.support.k
    if k is None:
        return _value_rows(model, n, stream, rows)
    if k <= n:
        return CountRows(stream.multinomial(n, model._sampling_pmf, rows), n)
    cells = _draw_values(model, rows * n, stream).reshape(rows, n) - 1
    cells += (np.arange(rows) * k)[:, None]
    table = np.bincount(cells.ravel(), minlength=rows * k).reshape(rows, k)
    return CountRows(table, n)
