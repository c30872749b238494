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

from .distribution import CountRows, Sample, Support, ZipfModel, _PARTIAL_SEAM
from .series import natural_logs, power_rows, tail_mass

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
    """One fitted exponent per row of a CountRows batch, all on one finite support."""

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


def ks_statistic(sample: Sample | CountRows, model: ZipfModel | ZipfRows) -> KsResult | np.ndarray:
    """Largest |fitted cdf - empirical cdf| over 1..max(observations).

    CountRows scored against ZipfRows give one statistic per row.
    """
    if isinstance(sample, CountRows):
        return _ks_rows(sample, model)
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
