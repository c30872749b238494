"""Discrete Kolmogorov-Smirnov statistic and cutoff verdicts.

The statistic is the largest absolute gap between the fitted cdf and the
empirical cdf, taken over the integers 1..max(observations).  Beyond the
largest observation both curves only get closer, so stopping there is
exact.  On a finite support the one-sample statistic accumulates both curves
term by term in the same order, which keeps it bit-identical to a naive per-k
scan; the batched one accumulates the running sum of their difference, so it
can differ from that scan in the last bits (it did in 77 of 200 random
samples).  On the unbounded support the gap is extremal at the ends of each
stretch of constant empirical cdf: just below and at each observed value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import CountRows, Sample, Support, ValueRows, ZipfModel, finite_cdf
from .series import CHUNK_ELEMENTS, power_rows, zeta_cdf, zeta_moments


@dataclass(frozen=True)
class KsResult:
    """Supremum gap and the (smallest) support point where it is attained."""

    statistic: float
    argmax_k: int


@dataclass(frozen=True, eq=False)
class ZipfRows:
    """One fitted exponent per row of a CountRows or ValueRows batch, all on one support."""

    gamma: np.ndarray
    support: Support


@dataclass(frozen=True)
class Verdict:
    """Comparison of a statistic against one tabulated cutoff level."""

    level: float
    cutoff: float
    rejected: bool


def judge(statistic: float, cutoff: float, level: float) -> Verdict:
    """Reject only when the statistic strictly exceeds the cutoff."""
    if not 0.0 <= statistic <= 1.0:
        raise ValueError(f"statistic must lie in [0, 1], got {statistic}")
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must lie in [0, 1], got {cutoff}")
    return Verdict(level=level, cutoff=cutoff, rejected=statistic > cutoff)


def ks_statistic(
    sample: Sample | CountRows | ValueRows, model: ZipfModel | ZipfRows
) -> KsResult | np.ndarray:
    """Largest |fitted cdf - empirical cdf| over 1..max(observations).

    CountRows and ValueRows scored against ZipfRows give one statistic per row.
    """
    if isinstance(sample, CountRows):
        return _ks_rows(sample, model)
    if isinstance(sample, ValueRows):
        return _ks_value_rows(sample, model)
    values, counts = sample.distinct
    if not model.support.contains(values):
        raise ValueError(f"observations exceed the support 1..{model.support}")
    if model.support.is_finite:
        return _ks_dense(values, counts, sample.n, model)
    below, at = _endpoint_gaps(values, counts, np.array([values.size]), sample.n,
                               np.array([model.gamma]), np.array([model.norm]))
    best = max(below.max(), at.max())
    # the smallest point among equal gaps; the gap below a value sits at value - 1
    points = np.concatenate((values[at == best], values[below == best] - 1))
    return KsResult(statistic=float(best), argmax_k=int(points.min()))


def _ks_dense(values: np.ndarray, counts: np.ndarray, n: int, model: ZipfModel) -> KsResult:
    """One sample's statistic on a finite support, from its distinct values and their counts."""
    kmax = int(values[-1])
    dense = np.zeros(kmax, dtype=np.int64)
    dense[values - 1] = counts
    empirical = np.cumsum(dense / n)
    gaps = np.abs(finite_cdf(model, kmax) - empirical)
    best = int(np.argmax(gaps))
    return KsResult(statistic=float(gaps[best]), argmax_k=best + 1)


def _ks_rows(counts: CountRows, models: ZipfRows) -> np.ndarray:
    """Row-wise max of |fitted cdf - empirical cdf|, as one running sum per row.

    The gap at k is the running sum of (fitted pmf - counts / n) up to k.
    Past a row's largest observation its empirical cdf is 1 and the gap only
    shrinks, so the sums stop at the largest value observed in any row.
    """
    k = models.support.k
    if k is None or counts.table.shape[1] != k:
        raise ValueError(f"count rows do not match the finite support 1..{models.support}")
    w = power_rows(models.gamma, k)
    last = int(np.flatnonzero(counts.table.any(axis=0))[-1]) + 1
    gaps = w[:, :last] * (1.0 / w.sum(axis=1))[:, None]
    gaps -= counts.table[:, :last] * (1.0 / counts.n)
    np.cumsum(gaps, axis=1, out=gaps)
    return np.maximum(gaps.max(axis=1), -gaps.min(axis=1))


def _endpoint_gaps(
    values: np.ndarray, counts: np.ndarray, lengths: np.ndarray, n: int,
    gamma: np.ndarray, norm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """|fitted cdf - empirical cdf| just below and at each distinct value of some samples.

    Sample r holds the next lengths[r] sorted values, seen ``counts`` times out of n,
    fitted by gamma[r] with zeta sum norm[r].  Its empirical cdf is an integer
    running count, restarted at the sample, so no sample depends on the others.
    """
    offsets = np.cumsum(lengths) - lengths
    seen = np.cumsum(counts)
    seen -= np.repeat(seen[offsets] - counts[offsets], lengths)  # observations <= value
    below, at = zeta_cdf(gamma, norm, np.repeat(np.arange(lengths.size), lengths), values)
    at -= seen / n
    seen -= counts
    below -= seen / n
    return np.abs(below, out=below), np.abs(at, out=at)


def _ks_value_rows(drawn: ValueRows, models: ZipfRows) -> np.ndarray:
    """Row-wise KS statistic of unbounded samples, NaN where the fitted exponent is NaN.

    Each row gives what ks_statistic gives on its own sample: both take the
    largest of _endpoint_gaps, with normalizers from the row-wise zeta
    series.  Rows are taken in blocks of about CHUNK_ELEMENTS distinct values.
    """
    if models.support.is_finite:
        raise ValueError("value rows need the unbounded support")
    starts = drawn.starts
    rows = starts.size - 1
    scored = ~np.isnan(models.gamma)
    norm = np.full(rows, np.nan)
    norm[scored] = zeta_moments(models.gamma[scored], 1)[0]
    out = np.empty(rows)
    lo = 0
    while lo < rows:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + CHUNK_ELEMENTS, "right")) - 1)
        entries = slice(starts[lo], starts[hi])
        below, at = _endpoint_gaps(drawn.observations[entries], drawn.counts[entries],
                                   np.diff(starts[lo : hi + 1]), drawn.n, models.gamma[lo:hi],
                                   norm[lo:hi])
        out[lo:hi] = np.maximum.reduceat(np.maximum(below, at, out=at), starts[lo:hi] - starts[lo])
        lo = hi
    return out
