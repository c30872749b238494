"""Independent oracles the test suite checks production code against.

Most deliberately avoid the production algorithms: sums are taken directly
(or in high precision via mpmath), the exponent is found by maximizing the
likelihood instead of root-finding, and the KS supremum is an O(K*N) scan.
The scalar replicate is the exception: it is the one-sample pipeline
(sample -> mle_gamma -> ks_statistic), itself checked against the oracles
above, and it is the reference for the batched engines (count vectors on
finite supports, distinct values on the unbounded one).
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

from zipfks.distribution import RandomStream, Sample, Support, ValueRows, ZipfModel, sample
from zipfks.estimate import mle_gamma
from zipfks.gof import ks_statistic
from zipfks.series import natural_logs

mpmath.mp.dps = 50


def mp_finite_norm(gamma: float, k: int) -> mpmath.mpf:
    """Direct 50-digit sum of j^-gamma over 1..k."""
    return mpmath.fsum(mpmath.power(j, -gamma) for j in range(1, k + 1))


def mp_zeta(gamma: float, derivative: int = 0) -> mpmath.mpf:
    return mpmath.zeta(mpmath.mpf(gamma), 1, derivative)


def direct_norm(gamma: float, k: int) -> float:
    """Plain double-precision power sum, no log tables."""
    return float(np.power(np.arange(1, k + 1, dtype=np.float64), -gamma).sum())


def log_likelihood(gamma: float, log_sum: float, n: int, support_k: int | None) -> float:
    """-gamma * sum(ln x) - n * ln(normalizer); constants dropped."""
    if support_k is not None:
        norm = direct_norm(gamma, support_k)
    else:
        norm = float(mpmath.zeta(gamma))
    return -gamma * log_sum - n * math.log(norm)


def golden_section_mle(
    obs: np.ndarray, support_k: int | None, low: float, high: float, tol: float = 1e-8
) -> float:
    """Maximize the log-likelihood by golden-section search; no derivatives."""
    log_sum = float(np.log(obs.astype(np.float64)).sum())
    if log_sum <= 0.0:
        log_sum += math.log(2.0)  # same degenerate nudge the estimator applies
    n = int(obs.size)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = low, high
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc = log_likelihood(c, log_sum, n, support_k)
    fd = log_likelihood(d, log_sum, n, support_k)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = log_likelihood(c, log_sum, n, support_k)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = log_likelihood(d, log_sum, n, support_k)
    return 0.5 * (a + b)


def brute_force_ks(obs: np.ndarray, model: ZipfModel) -> tuple[float, int]:
    """O(kmax * n) supremum scan with per-k rescans of the data.

    Model terms are taken from the same table production uses (they are
    verified against mpmath elsewhere); everything downstream of the terms
    is re-derived here.
    """
    obs = np.asarray(obs)
    n = obs.size
    kmax = int(obs.max())
    terms = np.exp(-model.gamma * natural_logs(kmax)[1 : kmax + 1]) * (1.0 / model.norm)
    fitted = 0.0
    empirical = 0.0
    best = -1.0
    best_k = 0
    for k in range(1, kmax + 1):
        fitted += float(terms[k - 1])
        empirical += int((obs == k).sum()) / n
        gap = abs(fitted - empirical)
        if gap > best:
            best = gap
            best_k = k
    return best, best_k


def nth_element(values, rank: int) -> float:
    """Selection-without-sorting oracle for order statistics."""
    return float(np.partition(np.asarray(values, dtype=np.float64), rank)[rank])


def scalar_score(drawn: Sample, support: Support) -> tuple[float, float]:
    """(KS statistic, gamma_hat) of one sample against its own re-fit; may raise NoRootError."""
    gamma_hat = mle_gamma(drawn, support)
    return ks_statistic(drawn, ZipfModel(gamma_hat, support)).statistic, gamma_hat


def scalar_replicate(model: ZipfModel, n: int, stream: RandomStream) -> tuple[float, float]:
    """One replicate the one-sample way: draw n values, re-fit, score against the re-fit."""
    return scalar_score(sample(model, n, stream), model.support)


def expand_counts(counts) -> Sample:
    """The sample, in sorted order, whose count vector over 1..K is ``counts``."""
    counts = np.asarray(counts)
    return Sample(np.repeat(np.arange(1, counts.size + 1), counts))


def value_rows(samples: list[Sample]) -> ValueRows:
    """The ValueRows batch of these equal-size samples, built with np.unique."""
    values, counts = zip(*(np.unique(s.observations, return_counts=True) for s in samples))
    lengths = [v.size for v in values]
    return ValueRows(
        observations=np.concatenate(values),
        counts=np.concatenate(counts),
        starts=np.concatenate(([0], np.cumsum(lengths))),
        log_sums=np.array([np.log(s.observations.astype(np.float64)).sum() for s in samples]),
        n=samples[0].n,
    )
