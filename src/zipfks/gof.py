"""Discrete Kolmogorov-Smirnov statistic and cutoff verdicts.

The statistic is the largest absolute gap between the fitted cdf and the
empirical cdf, taken over the integers 1..max(observations).  Beyond the
largest observation both curves only get closer, so stopping there is
exact.  One sample is scored as a batch of one row, by the kernel that
scores the replicates.  On a finite support that kernel accumulates both
curves term by term, as a naive per-k scan does, and so gives the scan's
bits.  On the unbounded support the gap is extremal at the ends of each
stretch of constant empirical cdf: just below and at each observed value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import CountRows, Sample, Support, ValueRows, ZipfModel, as_rows, finite_cdf
from .series import zeta_cdf


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

    CountRows and ValueRows scored against ZipfRows give one statistic per
    row.  A Sample is scored as its batch of one row (as_rows).
    """
    if isinstance(sample, CountRows):
        return _finite_gaps(sample, model).max(axis=1)
    if isinstance(sample, ValueRows):
        return _ks_value_rows(sample, model)
    row = as_rows(sample, model.support)
    gamma = np.array([model.gamma])
    if isinstance(row, CountRows):
        gaps = _finite_gaps(row, ZipfRows(gamma, model.support))[0]
        best = int(np.argmax(gaps))  # the first of equal gaps
        return KsResult(statistic=float(gaps[best]), argmax_k=best + 1)
    values = row.observations
    below, at, _ = _endpoint_gaps(row, gamma)
    best = max(below.max(), at.max())
    # the smallest point among equal gaps; the gap below a value sits at value - 1
    points = np.concatenate((values[at == best], values[below == best] - 1))
    return KsResult(statistic=float(best), argmax_k=int(points.min()))


def _finite_gaps(counts: CountRows, models: ZipfRows) -> np.ndarray:
    """|fitted cdf - empirical cdf| of each row at 1..last, last the largest value in any row.

    Each curve is its own running sum, as a per-k scan takes them: the fitted
    one of the pmf (finite_cdf), the empirical one of counts / n.  Past a
    row's largest observation its empirical cdf is 1 and the gap only
    shrinks.  A row whose fitted exponent is NaN has NaN gaps.
    """
    k = models.support.k
    if k is None or counts.table.shape[1] != k:
        raise ValueError(f"count rows do not match the finite support 1..{models.support}")
    last = int(np.flatnonzero(counts.table.any(axis=0))[-1]) + 1
    gaps = finite_cdf(models.gamma, k, last)
    empirical = counts.table[:, :last] / counts.n
    gaps -= np.cumsum(empirical, axis=1, out=empirical)
    return np.abs(gaps, out=gaps)


def _endpoint_gaps(
    rows: ValueRows, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|fitted cdf - empirical cdf| of some samples just below and at each value they hold.

    Row r is fitted by gamma[r].  Returns the gaps below and at each value
    above H, and a rows x H array of the larger of the two gaps at each
    k <= H that the row holds, 0 at any other.  The empirical cdf is an
    integer running count, restarted at the row, so no row depends on the
    others.
    """
    head, values, counts = rows.head, rows.observations, rows.counts
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
    return np.abs(below, out=below), np.abs(at, out=at), gaps


def _ks_value_rows(drawn: ValueRows, models: ZipfRows) -> np.ndarray:
    """Row-wise KS statistic of unbounded samples, NaN where the fitted exponent is NaN.

    Each row gives what ks_statistic gives on its own sample: both take the
    largest of _endpoint_gaps.  Rows are taken in chunks of about
    CHUNK_ELEMENTS of work (ValueRows.chunks), which bounds the head columns
    and per-row head tables as well as the values that a chunk holds.
    """
    if models.support.is_finite:
        raise ValueError("value rows need the unbounded support")
    out = np.empty(drawn.starts.size - 1)
    for lo, hi in drawn.chunks():
        part = drawn.part(lo, hi)
        below, at, gaps = _endpoint_gaps(part, models.gamma[lo:hi])
        largest = gaps.max(axis=1, initial=0.0)
        held = np.flatnonzero(np.diff(part.starts))  # rows with values above H
        tail = np.maximum.reduceat(np.maximum(below, at, out=at), part.starts[held])
        largest[held] = np.maximum(largest[held], tail)
        out[lo:hi] = largest
    return out
