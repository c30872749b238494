"""Independent oracles the test suite checks production code against.

Most deliberately avoid the production algorithms: sums are taken directly
(or in high precision via mpmath), the exponent is found by maximizing the
likelihood instead of root-finding, and the KS supremum is an O(K*N) scan.
The scalar score is the exception: the estimator's Newton-Raphson, with a
plain bisection where the estimator safeguards its steps, written one
exponent at a time on its own moment sums (scalar_mle, log_moments), then
the one-sample ks_statistic.  It is the reference for the batched engine,
whose rows hold dense counts of 1..H and distinct values above H (H = K and
no values above it on finite supports), and whose vectorized fit it shares
only the start table and the one-row log mean with.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import stats

from zipfks.distribution import (
    Sample, Support, ValueRows, ZipfModel, _head_size, as_rows, concatenate_rows,
)
from zipfks.estimate import _log_sums, _start, log_mean, mle_gamma
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.observations import ObservationParseError
from zipfks.series import natural_logs

mpmath.mp.dps = 50

# Direct terms of log_moments' unbounded sums, before their integral tail.
_DIRECT_TERMS = 1 << 10


def mp_finite_norm(gamma: float, k: int) -> mpmath.mpf:
    """Direct 50-digit sum of j^-gamma over 1..k."""
    return mpmath.fsum(mpmath.power(j, -gamma) for j in range(1, k + 1))


def mp_zeta(gamma: float, derivative: int = 0) -> mpmath.mpf:
    return mpmath.zeta(mpmath.mpf(gamma), 1, derivative)


def direct_norm(gamma: float, k: int) -> float:
    """Plain double-precision power sum, no log tables."""
    return float(np.power(np.arange(1, k + 1, dtype=np.float64), -gamma).sum())


def log_moments(gamma: float, k: int | None) -> tuple[float, float, float]:
    """(s0, s1, s2), s_p = sum j^(-gamma) (ln j)^p over j = 1..k, or over all j >= 1 for k None.

    Independent of the package's series: math.fsum of terms taken with
    np.power and np.log.  Unbounded, the terms below a = _DIRECT_TERMS, then
    the tail from a as the integral of f = x^(-gamma) (ln x)^p plus
    f(a) / 2 - f'(a) / 12; the terms it leaves out are below 1e-15 of the sum.
    """
    last = _DIRECT_TERMS - 1 if k is None else k
    j = np.arange(1.0, last + 1.0)
    logs = np.log(j)
    terms = np.power(j, -gamma)
    sums = []
    for _ in range(3):
        sums.append(math.fsum(terms))
        terms = terms * logs
    if k is None:
        a = float(_DIRECT_TERMS)
        log_a, power = math.log(a), a**-gamma
        r = 1.0 / (gamma - 1.0)
        integral = r  # J_p, with the integral from a equal to a^(1 - gamma) J_p
        for p in range(3):
            if p:
                integral = (log_a**p + p * integral) * r  # by parts
            slope = power / a * ((p * log_a ** (p - 1) if p else 0.0) - gamma * log_a**p)
            sums[p] += a * power * integral + power * log_a**p / 2 - slope / 12
    return sums[0], sums[1], sums[2]


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
    is re-derived here, the normalizer too: the sum of the terms over 1..K,
    or mpmath's zeta on the unbounded support.
    """
    obs = np.asarray(obs)
    n = obs.size
    kmax = int(obs.max())
    if model.support.is_finite:
        terms = np.exp(-model.gamma * natural_logs(model.support.k)[1:])
        norm = float(terms.sum())
    else:
        terms = np.exp(-model.gamma * natural_logs(kmax)[1:])
        norm = float(mp_zeta(model.gamma))
    terms = terms[:kmax] * (1.0 / norm)
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


def scalar_mle(drawn: Sample, support: Support) -> float:
    """The estimator's fit of one sample, one exponent at a time.

    The same target as mle_gamma (the one-row log mean with its ln 2 nudge
    for all ones, the K - 1 nudge for all at K, never below the all-ones
    target), the same start
    (estimate._start) and the same stopping rule: Newton steps on the
    oracle's own sums (log_moments) until a step is within 1e-5.  Stopping
    where the estimator stops keeps the KS statistic at this exponent
    comparable to 1e-12 with the batch's.
    Where the estimator's safeguarded loop replaces an iterate leaving its
    bracket by the bracket's midpoint, this fit instead bisects [-20, 20]
    ([1.05, 20] on the unbounded support) to a width of 1e-8, as do fits
    that have not converged after 200 steps.  A target at or beyond the
    model's mean log at an end of that range, which has no root inside it,
    takes that end: there the likelihood is largest on the range.
    """
    k = support.k
    target = float(log_mean(as_rows(drawn, support), support)[0])
    if k is not None and int(drawn.observations.min()) == k:
        target = max(target - (math.log(k) - math.log(k - 1)) / drawn.n, math.log(2.0) / drawn.n)
    low, high = (-20.0, 20.0) if k is not None else (1.05, 20.0)

    def mean_and_variance(gamma: float) -> tuple[float, float]:
        s0, s1, s2 = log_moments(gamma, k)
        mean = s1 / s0
        return mean, s2 / s0 - mean * mean

    x = float(_start(np.array([target]), support)[0])
    for _ in range(200):
        mean, variance = mean_and_variance(x)
        x_new = x + (mean - target) / variance
        if not low <= x_new <= high:  # also NaN
            break
        if abs(x_new - x) <= 1e-5:
            return x_new
        x = x_new
    f_low = target - mean_and_variance(low)[0]
    f_high = target - mean_and_variance(high)[0]
    if f_low >= 0.0 or f_high <= 0.0:
        return low if f_low >= 0.0 else high
    a, b = low, high
    while b - a > 1e-8:
        mid = 0.5 * (a + b)
        if (target - mean_and_variance(mid)[0]) * f_low <= 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def scalar_score(drawn: Sample, support: Support) -> tuple[float, float]:
    """(KS statistic, gamma_hat) of one sample against its own re-fit."""
    gamma_hat = scalar_mle(drawn, support)
    return ks_statistic(drawn, ZipfModel(gamma_hat, support)).statistic, gamma_hat


def expand_counts(counts) -> Sample:
    """The sample, in sorted order, whose count vector over 1..K is ``counts``."""
    counts = np.asarray(counts)
    return Sample(np.repeat(np.arange(1, counts.size + 1), counts))


def count_rows(table, n: int) -> ValueRows:
    """The batch over 1..K whose rows' counts of 1..K are the rows of ``table``: a head of
    K columns, and no values above it."""
    table = np.asarray(table)
    none = np.zeros(0, dtype=np.int64)
    return ValueRows(table, none, none, np.zeros(table.shape[0] + 1, dtype=np.int64), n)


def value_rows(samples: list[Sample]) -> ValueRows:
    """The ValueRows batch of these equal-size samples, each reduced as one observed sample is.

    Each sample is its batch of one row on the unbounded support (as_rows),
    and the rows are joined.
    """
    return concatenate_rows(as_rows(s, Support.unbounded()) for s in samples)


def expand_value_rows(drawn: ValueRows) -> list[Sample]:
    """The samples, each in sorted order, that a ValueRows batch holds: its head counts of
    1..H, then its values above H."""
    bounds = zip(drawn.head, drawn.starts[:-1], drawn.starts[1:])
    return [Sample(np.concatenate((np.repeat(np.arange(1, head.size + 1), head),
                                   np.repeat(drawn.observations[a:b], drawn.counts[a:b]))))
            for head, a, b in bounds]


def limit_ks(gamma: float, k: int, draws: int, seed: int, refit: bool = True) -> np.ndarray:
    """Draws of the Gaussian limit of sqrt(n) D_n for Zipf over 1..k, the exponent re-fitted.

    With gamma re-fitted by maximum likelihood, sqrt(n) times the KS statistic
    converges to max_j |Z_j| for a Gaussian vector Z (Durbin, Ann. Statist. 1
    (1973) 279-290; for discrete models Henze, Canad. J. Statist. 24 (1996)
    81-93).  With p the pmf and eps ~ N(0, I_k), Y = sqrt(p) eps - p (sqrt(p) . eps)
    has the multinomial covariance diag(p) - p p^T of sqrt(n) (p_hat - p); the
    fit moves gamma by -(sum_i ln i Y_i) / Var(ln X) / sqrt(n), and the fitted
    cdf with it by dF(j)/dgamma = sum_{i<=j} p_i (E ln X - ln i), so

        Z_j = sum_{i<=j} Y_i + dF(j)/dgamma (sum_i ln i Y_i) / Var(ln X).

    Without ``refit``, Z_j = sum_{i<=j} Y_i: the limit of the statistic scored
    against the generating exponent.  A draw costs O(k) whatever n is.
    """
    logs = np.log(np.arange(1, k + 1))
    p = np.exp(-gamma * logs)
    p /= p.sum()
    mean = p @ logs
    slope = np.cumsum(p * (mean - logs)) / (p @ (logs - mean) ** 2)
    root = np.sqrt(p)
    rng = np.random.default_rng(seed)
    out = np.empty(draws)
    step = max(1, (1 << 18) // k)
    for lo in range(0, draws, step):
        eps = rng.standard_normal((min(step, draws - lo), k))
        y = eps * root - np.outer(eps @ root, p)
        z = np.cumsum(y, axis=1)
        if refit:
            z += np.outer(y @ logs, slope)
        out[lo : lo + step] = np.abs(z).max(axis=1)
    return out


def chi_square_p(values: np.ndarray, pmf: np.ndarray, edges=None) -> float:
    """Pearson chi-square p-value of draws from 1..pmf.size against pmf.

    Bins are [edges[i], edges[i + 1]); by default [2^j, 2^(j + 1)) up to
    pmf.size.  From the top down, bins are merged until each expects at
    least five draws.  1.0 when fewer than two bins remain.
    """
    if edges is None:
        edges = 2 ** np.arange(int(math.log2(pmf.size)) + 1)
    edges = np.append(np.asarray(edges), pmf.size + 1)
    expected = values.size * np.add.reduceat(pmf, edges[:-1] - 1)
    observed = np.histogram(values, edges)[0]
    merged: list[list[float]] = []
    pending = [0.0, 0.0]
    for got, want in zip(observed[::-1], expected[::-1]):
        pending = [pending[0] + got, pending[1] + want]
        if pending[1] >= 5.0:
            merged.append(pending)
            pending = [0.0, 0.0]
    if merged:
        merged[-1] = [merged[-1][0] + pending[0], merged[-1][1] + pending[1]]
    if len(merged) < 2:
        return 1.0
    got, want = np.array(merged).T
    return float(stats.chi2.sf(((got - want) ** 2 / want).sum(), len(merged) - 1))


def assert_draw_properties(drawn: ValueRows, model: ZipfModel, rows: int, n: int,
                           fitted: bool = True) -> list[Sample]:
    """Check a batch drawn from the unbounded model; return its samples.

    Each row holds head counts of 1..H, H = _head_size, and strictly
    increasing values in H+1..65535 with positive counts, summing to n in
    all, and has a log sum equal to its expanded sum of ln x.
    With ``fitted``, the batch's fit and KS statistic match the one-sample
    pipeline on each expanded row, and the pooled draws pass a chi-square test against the sampling pmf.
    """
    head = _head_size(model, n)
    assert drawn.n == n and drawn.starts.size == rows + 1 and drawn.starts[0] == 0
    assert drawn.starts[-1] == drawn.observations.size == drawn.counts.size
    assert drawn.head.shape == (rows, head) and drawn.head.dtype == np.min_scalar_type(n)
    samples = expand_value_rows(drawn)
    for row, one in enumerate(samples):
        values = drawn.observations[drawn.starts[row] : drawn.starts[row + 1]]
        counts = drawn.counts[drawn.starts[row] : drawn.starts[row + 1]]
        assert (np.diff(values) > 0).all() and (values > head).all() and (values <= 65535).all()
        assert (counts > 0).all() and int(drawn.head[row].sum()) + counts.sum() == n
    want = np.array([np.log(one.observations.astype(np.float64)).sum() for one in samples])
    got = _log_sums(drawn)  # the fit's reduction
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    if not fitted:
        return samples
    gamma_hat = mle_gamma(drawn, model.support)
    ks = ks_statistic(drawn, ZipfRows(gamma_hat, model.support))
    for row, one in enumerate(samples):
        want_ks, want_gamma = scalar_score(one, model.support)
        assert abs(gamma_hat[row] - want_gamma) <= 1e-9
        assert abs(ks[row] - want_ks) <= 1e-12
    pooled = np.concatenate([one.observations for one in samples])
    assert chi_square_p(pooled, model._sampling_pmf) > 1e-6
    return samples


def token_loop_observations(path) -> np.ndarray:
    """The observation reader as a plain token loop: the reference for parse_observations.

    Lines are those of text-mode iteration (ended by \\n, \\r or \\r\\n), tokens
    those of str.split(), and a token is read when it is all Unicode decimal
    digits (str.isdecimal, what int() reads).  The first token that is not a
    positive int64 raises, naming its line and place on the line.
    """
    values: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            for token_no, token in enumerate(line.split(), start=1):
                where = f"{path}: line {line_no}, token {token_no}: {token!r}"
                if not token.isdecimal() or int(token) == 0:
                    raise ObservationParseError(f"{where} is not a positive integer")
                if int(token) >= 2**63:
                    raise ObservationParseError(f"{where} exceeds {2**63 - 1}")
                values.append(int(token))
    if not values:
        raise ObservationParseError(f"{path}: no observations found")
    return np.array(values, dtype=np.int64)
