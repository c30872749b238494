"""Maximum-likelihood estimation of the Zipf exponent.

The estimate solves  mean_log(data) = s1(gamma) / s0(gamma)  where
s_p(gamma) = sum k^(-gamma) (ln k)^p over the declared support, by
Newton-Raphson from a tabulated inverse of the model mean log, kept inside
a bracket of the root that shrinks at every step.  The left side is the
sample mean of ln x; the right side is the model mean of ln X, strictly
decreasing in gamma, so the root is unique whenever it exists; where it
does not, the estimate is the nearer end of the search range, where the
likelihood is largest on it.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .distribution import (
    MIN_UNBOUNDED_GAMMA,
    UNBOUNDED_SAMPLE_LIMIT,
    CountRows,
    Sample,
    Support,
    ValueRows,
    as_rows,
)
from .series import CHUNK_ELEMENTS, HEAD_TERMS, finite_moments, natural_logs, zeta_moments

# Not called here: perfbench/tracing.py wraps these two names in this module,
# so they stay importable from it until the benchmark reads its counts elsewhere.
from .series import finite_log_moments, zeta_log_moments  # noqa: F401

# Newton stops once a step is within ABSOLUTE_TOLERANCE; a row still running
# after MAX_ITERATIONS steps is NaN.
ABSOLUTE_TOLERANCE = 1e-5
MAX_ITERATIONS = 200

# The search range, which brackets every root and the Newton iterates, and
# the range of the table they start from.  It spans negative exponents on
# purpose: short-tailed samples over a finite support (common at n <= 50 when
# the generating exponent is below ~0.75) have their likelihood maximum there,
# and the calibration pipeline must fit them rather than fail.
BRACKET = (-20.0, 20.0)

# Hard ceiling of the unbounded search range; estimates above it are reported
# as the ceiling rather than extrapolated.
MAX_UNBOUNDED_GAMMA = 20.0

_LN2 = math.log(2.0)


def _log_sums(rows: ValueRows) -> np.ndarray:
    """Each row's sum of count x ln value over the values it holds, by np.add.reduceat.

    A row's terms are ln k x count for each k <= H that it holds, then count
    x ln value for each of its values above H, in increasing order, laid out
    in one array; so a row's sum depends neither on the rows beside it nor
    on H.  The shared log table holds np.log's bits, so values above it,
    which only observed samples hold, take np.log.
    """
    values = rows.observations
    if values.size == 0 or values.max() <= UNBOUNDED_SAMPLE_LIMIT:
        tail = natural_logs(UNBOUNDED_SAMPLE_LIMIT)[values]
    else:
        tail = np.log(values.astype(np.float64))
    tail *= rows.counts
    head = rows.head
    head_lengths = np.count_nonzero(head, axis=1)
    lengths = np.stack((head_lengths, np.diff(rows.starts)), axis=1).ravel()
    in_tail = np.repeat(np.tile([False, True], head_lengths.size), lengths)  # each row's layout
    terms = np.empty(in_tail.size)
    terms[in_tail] = tail
    head_terms = head * natural_logs(UNBOUNDED_SAMPLE_LIMIT)[1 : head.shape[1] + 1]
    terms[~in_tail] = np.compress(head.ravel() != 0, head_terms.ravel())
    return np.add.reduceat(terms, rows.starts[:-1] + np.cumsum(head_lengths) - head_lengths)


def log_mean(rows: CountRows | ValueRows) -> np.ndarray:
    """(sum ln x_i) / n per row, with the all-ones degenerate case nudged by ln 2.

    A row's log sum is taken from its counts of 1..K (CountRows) or from its
    head counts and distinct values above them (_log_sums, a chunk of rows at a
    time), drawn or observed alike.
    A sample of all ones has log-sum zero and would drive the estimate to
    infinity; it is scored as if a single observation were 2 instead.
    """
    if isinstance(rows, CountRows):
        k = rows.table.shape[1]
        raw = (rows.table * natural_logs(k)[1 : k + 1]).sum(axis=1)
    else:
        raw = np.concatenate([_log_sums(rows.part(lo, hi)) for lo, hi in rows.chunks()])
    raw[raw <= 0.0] += _LN2
    return raw / rows.n


def _search_range(support: Support) -> tuple[float, float]:
    return BRACKET if support.is_finite else (MIN_UNBOUNDED_GAMMA, MAX_UNBOUNDED_GAMMA)


def _mean_log_rows(gamma: np.ndarray, support: Support) -> tuple[np.ndarray, np.ndarray]:
    """Model mean of ln X and the variance of ln X (its negative slope) at each exponent."""
    s0, s1, s2 = finite_moments(gamma, support.k) if support.is_finite else zeta_moments(gamma)
    mean = s1 / s0
    return mean, s2 / s0 - mean * mean


@lru_cache(maxsize=32)
def _start_table(support: Support) -> tuple[np.ndarray, ...]:
    """(model mean logs, exponents, d gamma / d mean log) on a grid over the search range.

    Ordered by increasing mean log; the grid ends at the range's ends.
    Unbounded, the mean log grows without bound as gamma falls towards 1, so
    the grid crowds cubically towards low; finite, it takes as many points as
    keep the build near 2^21 power terms.
    """
    low, high = _search_range(support)
    if support.is_finite:
        grid = np.linspace(low, high, max(64, min(2048, (1 << 21) // support.k)))
    else:
        grid = low + (high - low) * np.linspace(0.0, 1.0, 2048) ** 3
    mean, slope = _mean_log_rows(grid, support)
    return mean[::-1], grid[::-1], -1.0 / slope[::-1]


def _start(target: np.ndarray, support: Support) -> np.ndarray:
    """First Newton iterate per target mean log, from the start table.

    Cubic Hermite interpolation of the inverse of the model mean log: from a
    table of 2048 points a start is within a few 1e-8 of its root, so one
    step converges.  Targets beyond the table take its end exponent.
    """
    mean, gamma, dgamma = _start_table(support)
    i = np.clip(np.searchsorted(mean, target) - 1, 0, mean.size - 2)
    h = mean[i + 1] - mean[i]
    u = np.clip((target - mean[i]) / h, 0.0, 1.0)
    v = 1.0 - u
    return v * v * ((1.0 + 2.0 * u) * gamma[i] + u * h * dgamma[i]) + u * u * (
        (3.0 - 2.0 * u) * gamma[i + 1] - v * h * dgamma[i + 1]
    )


def mle_gamma(sample: Sample | CountRows | ValueRows, support: Support) -> float | np.ndarray:
    """Exponent estimate for the sample over the declared support.

    Newton-Raphson from the start table (_start), kept inside a shrinking
    bracket of the root (see _mle_rows).

    CountRows over a finite support are fitted all at once, and ValueRows
    over the unbounded one in chunks of rows; either gives one estimate per
    row, the likelihood's maximizer on the search range (_mle_rows).  A
    Sample is fitted as its batch of one row (as_rows), and raises
    ValueError if its fit does not converge.
    """
    if isinstance(sample, Sample):
        root = float(mle_gamma(as_rows(sample, support), support)[0])
        if math.isnan(root):
            raise ValueError(f"the fit did not converge in {MAX_ITERATIONS} iterations")
        return root
    target = log_mean(sample)
    if isinstance(sample, CountRows):
        k = support.k
        if k is None or sample.table.shape[1] != k:
            raise ValueError(f"count rows do not match the finite support 1..{support}")
        # every observation at the support bound: the root sits at -infinity,
        # so mirror the all-ones nudge and score one observation as K-1 (for
        # K >= 20 and n >= 2 its root still lies below the search range);
        # at K = 2 and n = 1 that scores [2] as [1], so it is scored as the
        # all-ones sample is, and the estimate never rises with the mean log
        piled = sample.table[:, -1] == sample.n
        target[piled] = np.maximum(target[piled] - (math.log(k) - math.log(k - 1)) / sample.n, _LN2 / sample.n)
        return _mle_rows(target, support)
    if support.is_finite:
        raise ValueError("value rows need the unbounded support")
    # A fit holds some floats per row and none per value: at most as many
    # rows at once as CHUNK_ELEMENTS of work would hold (ValueRows.sizes).
    step = CHUNK_ELEMENTS // (HEAD_TERMS + 1)
    out = np.empty(target.size)
    for lo in range(0, target.size, step):
        out[lo : lo + step] = _mle_rows(target[lo : lo + step], support)
    return out


def standard_error(gamma: float, n: int, support: Support) -> float:
    """Fisher-information standard error of an exponent fitted to n observations.

    The information per observation is Var(ln X) under the model at gamma
    (_mean_log_rows' slope), so the error is 1 / sqrt(n Var(ln X)).
    """
    variance = float(_mean_log_rows(np.array([gamma]), support)[1][0])
    return 1.0 / math.sqrt(n * variance)


def _mle_rows(target: np.ndarray, support: Support) -> np.ndarray:
    """mle_gamma for every target mean log at once: safeguarded Newton, vectorized over rows.

    The log-likelihood -gamma sum(ln x) - n ln s0(gamma) is concave, with
    slope n (mean_log(gamma) - target), so its maximizer on the search range
    is the root where there is one, and otherwise the nearer end: a target
    at or above the model's mean log at the lower end takes that end, and
    one at or below the mean log at the upper end takes the upper end.
    Every other row keeps a bracket [lo, hi] around its root, narrowed by the
    sign of mean_log - target at each iterate (the mean log falls as gamma
    rises).  A Newton iterate outside the bracket, NaN included, is replaced
    by its midpoint (Press et al., Numerical Recipes, 3rd ed., section 9.4,
    rtsafe).  Each iteration evaluates the model's log moments for all rows
    still running at once, and a row stops once its Newton step is within
    ABSOLUTE_TOLERANCE; one still running after MAX_ITERATIONS is NaN.
    """
    low, high = _search_range(support)
    means = _start_table(support)[0]
    mean_low, mean_high = means[-1], means[0]
    out = np.where(target >= mean_low, low, np.where(target <= mean_high, high, np.nan))
    active = np.flatnonzero((target < mean_low) & (target > mean_high))
    lo, hi = np.full(active.size, low), np.full(active.size, high)
    x = _start(target[active], support)
    for _ in range(MAX_ITERATIONS):
        if active.size == 0:
            break
        mean, slope = _mean_log_rows(x, support)
        above = mean > target[active]  # the root lies above x
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = x + (mean - target[active]) / slope
        newton = (lo <= x_new) & (x_new <= hi)  # inclusive: a start at its root steps by 0
        done = newton & (np.abs(x_new - x) <= ABSOLUTE_TOLERANCE)
        out[active[done]] = x_new[done]
        x_new = np.where(newton, x_new, 0.5 * (lo + hi))
        running = ~done
        active, x, lo, hi = active[running], x_new[running], lo[running], hi[running]
    return out
