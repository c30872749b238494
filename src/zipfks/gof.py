"""Discrete Kolmogorov-Smirnov statistic and cutoff verdicts.

The statistic is the largest absolute gap between the fitted cdf and the
empirical cdf, taken over the integers 1..max(observations).  Beyond the
largest observation both curves only get closer, so stopping there is
exact.  Both curves are accumulated term by term in the same order, which
keeps the result bit-identical to a naive per-k scan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import CountRows, Sample, Support, ValueRows, ZipfModel, _PARTIAL_SEAM
from .series import CHUNK_ELEMENTS, natural_logs, power_rows, tail_mass, zeta_moments

# Above this many support points the per-k scan switches to evaluating only
# the stretch endpoints around observed values (sup-equivalent, see below).
_DENSE_LIMIT = 4096


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
    obs = sample.observations
    if not model.support.contains(obs):
        raise ValueError(f"observations exceed the support 1..{model.support}")
    kmax = int(obs.max())
    if model.support.is_finite or kmax <= _DENSE_LIMIT:
        return _ks_dense(obs, model, kmax)
    return _ks_sparse(obs, model, kmax)


def _ks_dense(obs: np.ndarray, model: ZipfModel, kmax: int) -> KsResult:
    n = obs.size
    counts = np.bincount(obs, minlength=kmax + 1)[1:]
    empirical = np.cumsum(counts / n)
    logs = natural_logs(kmax)[1 : kmax + 1]
    fitted = np.cumsum(np.exp(-model.gamma * logs) * (1.0 / model.norm))
    gaps = np.abs(fitted - empirical)
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


def _ks_sparse(obs: np.ndarray, model: ZipfModel, kmax: int) -> KsResult:
    """Endpoint evaluation for unbounded fits with very large observations.

    The empirical cdf is constant between consecutive observed values while
    the fitted cdf increases, so on each stretch the gap is extremal at the
    stretch ends; only those points need to be visited.
    """
    values, counts = np.unique(obs, return_counts=True)
    empirical = np.cumsum(counts / obs.size)
    below = np.concatenate(([0.0], empirical[:-1]))  # empirical just left of each value

    prev_points = np.maximum(values - 1, 1)
    points = np.concatenate((values, prev_points))
    gaps = np.concatenate(
        (
            np.abs(_partial_cdf(model, values) - empirical),
            np.where(values > 1, np.abs(_partial_cdf(model, prev_points) - below), 0.0),
        )
    )
    order = np.lexsort((-gaps, points))  # smallest point first among equal gaps
    best = order[int(np.argmax(gaps[order]))]
    return KsResult(statistic=float(gaps[best]), argmax_k=int(points[best]))


def _partial_cdf(model: ZipfModel, points: np.ndarray) -> np.ndarray:
    """Fitted cdf at integer points, table below the seam and tail sums above."""
    points = np.maximum(points, 1)
    out = np.empty(points.shape, dtype=np.float64)
    small = points <= _PARTIAL_SEAM
    if small.any():
        out[small] = model._partial_table[points[small] - 1]
    if (~small).any():
        big = points[~small]
        out[~small] = (model.norm - tail_mass(model.gamma, big + 1)) / model.norm
    return out


def _segments(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment, offset in it) of every element of consecutive segments of these lengths."""
    segment = np.repeat(np.arange(lengths.size), lengths)
    return segment, np.arange(segment.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _ks_value_rows(drawn: ValueRows, models: ZipfRows) -> np.ndarray:
    """Row-wise KS statistic of unbounded samples, NaN where the fitted exponent is NaN.

    Each row gives what ks_statistic gives on its own sample.  It is scanned
    over 1..min(largest value, _DENSE_LIMIT) with running sums of the fitted
    pmf and of counts / n, as in _ks_dense; values above the limit are scored
    at the ends of the stretches between them, as in _ks_sparse.  The
    normalizers come from the row-wise zeta series.  Rows are taken widest
    first, in blocks of about CHUNK_ELEMENTS scanned points.
    """
    if models.support.is_finite:
        raise ValueError("value rows need the unbounded support")
    starts = drawn.starts
    width = np.minimum(drawn.observations[starts[1:] - 1], _DENSE_LIMIT)
    below_limit = np.concatenate(([0], np.cumsum(drawn.observations <= _DENSE_LIMIT)))
    dense = below_limit[starts[1:]] - below_limit[starts[:-1]]  # distinct values scanned
    scored = np.flatnonzero(~np.isnan(models.gamma))
    norm = np.full(width.size, np.nan)
    norm[scored] = zeta_moments(models.gamma[scored], 1)[0]
    out = np.full(width.size, np.nan)
    order = scored[np.argsort(-width[scored], kind="stable")]
    lo = 0
    while lo < order.size:
        rows = order[lo : lo + max(1, CHUNK_ELEMENTS // int(width[order[lo]]))]
        out[rows] = _ks_value_block(drawn, rows, models.gamma[rows], norm[rows], width[rows],
                                    dense[rows])
        lo += rows.size
    return out


def _ks_value_block(
    drawn: ValueRows, rows: np.ndarray, gamma: np.ndarray, norm: np.ndarray,
    width: np.ndarray, dense: np.ndarray,
) -> np.ndarray:
    """_ks_value_rows for some rows, the first of them the widest."""
    kmax = int(width[0])
    first = drawn.starts[rows]
    line, offset = _segments(dense)
    at = first[line] + offset
    counts = np.zeros((rows.size, kmax))
    counts[line, drawn.observations[at] - 1] = drawn.counts[at]
    empirical = np.cumsum(counts / drawn.n, axis=1)
    fitted = np.cumsum(power_rows(gamma, kmax) * (1.0 / norm)[:, None], axis=1)
    gaps = np.abs(fitted - empirical)
    gaps[np.arange(kmax) >= width[:, None]] = 0.0  # past a row's largest value
    best = gaps.max(axis=1)
    tail = drawn.starts[rows + 1] - first - dense  # distinct values above the limit
    if not tail.any():
        return best
    # empirical cdf at each value above the limit, continuing the running sum
    line, offset = _segments(tail)
    at = first[line] + dense[line] + offset
    steps = np.zeros((rows.size, tail.max() + 1))
    steps[:, 0] = empirical[:, -1]
    steps[line, offset + 1] = drawn.counts[at] / drawn.n
    np.cumsum(steps, axis=1, out=steps)
    values = drawn.observations[at]
    g, z = gamma[line], norm[line]
    at_value = np.abs((z - tail_mass(g, values + 1)) / z - steps[line, offset + 1])
    before = np.where(
        values - 1 > _DENSE_LIMIT,
        np.abs((z - tail_mass(g, values)) / z - steps[line, offset]),
        0.0,
    )
    np.maximum.at(best, line, np.maximum(at_value, before))
    return best
