"""Discrete Kolmogorov-Smirnov statistic and cutoff verdicts.

The statistic is the largest absolute gap between the fitted cdf and the
empirical cdf, taken over the integers 1..max(observations).  Beyond the
largest observation both curves only get closer, so stopping there is
exact.  One sample is scored as a batch of one row, by the kernel that
scores the replicates.  That kernel scores a row's dense head of counts of
1..H as columns and its values above H one by one.  On a finite support
the head columns accumulate both curves term by term, as a naive per-k scan
does, and so give the scan's bits.  On the unbounded support the gap is
extremal at the ends of each stretch of constant empirical cdf: just below
and at each observed value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import Sample, Support, ValueRows, ZipfModel, as_rows, finite_cdf
from .series import zeta_cdf

_NO_GAPS = np.zeros(0)  # the gaps at the values above K of rows on 1..K


@dataclass(frozen=True)
class KsResult:
    """Supremum gap and the (smallest) support point where it is attained."""

    statistic: float
    argmax_k: int


@dataclass(frozen=True, eq=False)
class ZipfRows:
    """One fitted exponent per row of a ValueRows batch, all on one support."""

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
    sample: Sample | ValueRows, model: ZipfModel | ZipfRows
) -> KsResult | np.ndarray:
    """Largest |fitted cdf - empirical cdf| over 1..max(observations).

    A batch of rows scored against ZipfRows gives one statistic per row.  A
    Sample is scored as its batch of one row (as_rows).
    """
    if not isinstance(sample, Sample):
        return _ks_rows(sample, model)
    row = as_rows(sample, model.support)
    columns, below, at = _gaps(row, np.array([model.gamma]), model.support)
    best = max(columns.max(initial=0.0), below.max(initial=0.0), at.max(initial=0.0))
    # the smallest point among equal gaps: a head column's gap sits at its k (the
    # row's head is 1..K, or empty on the unbounded support), the gap below a
    # value at value - 1
    values = row.observations
    points = np.concatenate((np.flatnonzero(columns[0] == best) + 1, values[at == best],
                             values[below == best] - 1))
    return KsResult(statistic=float(best), argmax_k=int(points.min()))


def _gaps(
    rows: ValueRows, gamma: np.ndarray, support: Support
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|fitted cdf - empirical cdf| of some samples at their head columns, and just below
    and at each value above H.

    Row r is fitted by gamma[r].  Returns a rows x (at most H) array of gaps
    at the head columns, and the gaps below and at each value above H.  No
    row depends on the others, and a row whose fitted exponent is NaN has
    NaN gaps.

    On 1..K (H = K, no values above it) each curve is its own running sum,
    as a per-k scan takes them: the fitted one of the pmf (finite_cdf), the
    empirical one of counts / n; a column's gap is the gap at its k, for
    every k up to the largest value any row holds.  Past a row's largest
    observation its empirical cdf is 1 and the gap only shrinks.

    On the unbounded support a column's gap is the larger of the two gaps
    at k - 1 and k where the row holds k, 0 at any other, from the model's
    cdf (zeta_cdf).  The empirical cdf is an integer running count,
    restarted at the row.
    """
    head, values, counts = rows.head, rows.observations, rows.counts
    if support.is_finite:
        last = int(np.flatnonzero(head.any(axis=0))[-1]) + 1
        gaps = finite_cdf(gamma, support.k, last)
        empirical = head[:, :last] / rows.n
        gaps -= np.cumsum(empirical, axis=1, out=empirical)
        return np.abs(gaps, out=gaps), _NO_GAPS, _NO_GAPS
    lengths = np.diff(rows.starts)
    below, at, column_below, column_at = zeta_cdf(
        gamma, np.repeat(np.arange(lengths.size, dtype=np.int32), lengths), values, head.shape[1])
    seen = np.cumsum(head, axis=1, dtype=head.dtype)  # observations <= k, at most n
    column_at -= seen / rows.n
    seen -= head
    column_below -= seen / rows.n
    gaps = np.maximum(np.abs(column_below, out=column_below), np.abs(column_at, out=column_at),
                      out=column_at)
    gaps *= head != 0  # a value the row does not hold has no gap
    through = np.zeros(counts.size + 1, dtype=np.int64)  # observations above H before each value
    seen = np.cumsum(counts, out=through[1:])  # then n less the row's observations above the value
    seen += np.repeat(rows.n - through[rows.starts[1:]], lengths)
    at -= seen / rows.n
    seen -= counts
    below -= seen / rows.n
    return gaps, np.abs(below, out=below), np.abs(at, out=at)


def _ks_rows(drawn: ValueRows, models: ZipfRows) -> np.ndarray:
    """Row-wise KS statistic, NaN where the fitted exponent is NaN.

    Each row gives what ks_statistic gives on its own sample: both take the
    largest of its _gaps.  Rows are taken in chunks of about CHUNK_ELEMENTS
    of work (ValueRows.chunks), which bounds the head columns and per-row
    model tables as well as the values that a chunk holds.
    """
    drawn.check(models.support)
    out = np.empty(drawn.starts.size - 1)
    for lo, hi in drawn.chunks(models.support):
        part = drawn.part(lo, hi)
        gaps, below, at = _gaps(part, models.gamma[lo:hi], models.support)
        largest = gaps.max(axis=1, initial=0.0)
        if below.size:  # values above H
            held = np.flatnonzero(np.diff(part.starts))  # rows that hold them
            tail = np.maximum.reduceat(np.maximum(below, at, out=at), part.starts[held])
            largest[held] = np.maximum(largest[held], tail)
        out[lo:hi] = largest
    return out
