"""The engine's cutoffs against the exact null distribution of the re-fitted KS statistic.

On a small cell (K, gamma, n) every sample is one of the C(n + K - 1, K - 1)
count vectors over 1..K, with its multinomial probability.  Fitting and
scoring every vector gives the exact law F of the statistic T that the
calibration samples: draw, re-fit gamma, KS against the re-fitted model.

Tolerance.  With R replicates in one repetition, the engine's cutoff at
level q is c = T_(r+1), the (r+1)-th smallest of R draws from F, where
r = floor(R q).  So at most r draws lie below c and at least r + 1 at or
below it.  If P(T < c) exceeded q + d, the first point t with
F(t) >= q + d would lie below c, so the draws at or below t, a
Binomial(R, >= q + d) count, would number at most r <= R q: by the normal
approximation that has probability about Phi(-d sqrt(R) / sqrt(q (1 - q))).
Likewise for P(T <= c) < q - d.  With d = 4 sqrt(q (1 - q) / R) each of
the 80 one-sided checks of the ten cells fails a correct engine with
probability about 3e-5.  At R = 20,000, d runs from 8.5e-3 at q = 0.9 down
to 8.9e-4 at q = 0.999, far above the 1e-12 by which the enumerated masses
may miss 1.

The engine's own kernels score the vectors in one batch, bit for bit as
they score drawn replicates, so atoms (n = 1, all at 1, all at K) compare
exactly.  On cells of at most 10^4 vectors the law is also taken from the
independent oracles: the golden-section likelihood maximizer on [-20, 20]
(one observation scored as K - 1 when all sit at K, as the estimator nudges
them) and the brute-force KS scan.  Those statistics differ from the
engine's by a few 1e-8, so that check widens c by 1e-6 either way.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import gammaln

from zipfks import montecarlo
from zipfks.distribution import Support, ZipfModel
from zipfks.estimate import mle_gamma
from zipfks.gof import ZipfRows, ks_statistic
from zipfks.montecarlo import DEFAULT_LEVELS, SimulationConfig, run_simulation

from oracles import brute_force_ks, count_rows, expand_counts, golden_section_mle

REPLICATES = 20_000
LEVELS = np.array(DEFAULT_LEVELS)
TOLERANCE = 4.0 * np.sqrt(LEVELS * (1.0 - LEVELS) / REPLICATES)

# (K, gamma, n)
CELLS = [
    (5, 1.0, 10),
    (6, 2.0, 8),
    (10, 1.0, 10),  # 92,378 vectors: engine scores only
    (20, 1.0, 4),
    (20, -2.0, 4),  # piles onto K: some vectors fit -20, the search range's end
    (3, -1.0, 30),
    (8, 0.5, 1),  # one atom
    (4, 3.0, 3),  # all at 1 carries 0.62
    (3, -2.0, 3),  # all at K carries 0.27
    (2, 1.0, 5),
]
INDEPENDENT_CELLS = [(k, g, n) for k, g, n in CELLS if math.comb(n + k - 1, k - 1) <= 10**4]


@lru_cache(maxsize=None)
def count_vectors(k: int, n: int) -> np.ndarray:
    """Every count vector of n observations over 1..k, one per row (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(n + k - 1), k - 1)), dtype=np.int64)
    ends = np.full((bars.shape[0], 1), n + k - 1)
    return np.diff(np.hstack([-np.ones_like(ends), bars.reshape(-1, k - 1), ends]), axis=1) - 1


def probabilities(k: int, gamma: float, n: int) -> np.ndarray:
    """Multinomial probability of each count vector under Zipf(gamma) on 1..k."""
    log_p = -gamma * np.log(np.arange(1.0, k + 1.0))
    log_p -= math.log(np.exp(log_p).sum())
    table = count_vectors(k, n)
    weights = np.exp(gammaln(n + 1) - gammaln(table + 1).sum(axis=1) + table @ log_p)
    assert abs(weights.sum() - 1.0) < 1e-12
    return weights


@lru_cache(maxsize=None)
def engine_statistics(k: int, n: int) -> np.ndarray:
    rows, support = count_rows(count_vectors(k, n), n), Support.finite(k)
    return ks_statistic(rows, ZipfRows(mle_gamma(rows, support), support))


@lru_cache(maxsize=None)
def oracle_statistics(k: int, n: int) -> np.ndarray:
    """Golden-section fit and brute-force KS of every vector; one fit per product of values."""
    support = Support.finite(k)
    fits: dict[int, float] = {}
    out = []
    for row in count_vectors(k, n):
        obs = expand_counts(row).observations
        scored = obs.copy()
        if scored[0] == k:
            scored[0] = k - 1
        key = math.prod(scored.tolist())  # the likelihood sees only sum(ln x)
        if key not in fits:
            fits[key] = golden_section_mle(scored, k, -20.0, 20.0)
        out.append(brute_force_ks(obs, ZipfModel(fits[key], support))[0])
    return np.array(out)


def engine_cutoffs(k: int, gamma: float, n: int) -> np.ndarray:
    config = SimulationConfig(n=n, support=Support.finite(k), gamma=gamma, base_seed=4,
                              replicates=REPLICATES, repetitions=1)
    return np.array([cutoff for _, cutoff in run_simulation(config, workers=1)])


def levels_passed(statistics, weights, cutoffs, slack=0.0) -> np.ndarray:
    """Per level: P(T < c) <= q + d and P(T <= c) >= q - d, c widened by ``slack``."""
    order = np.argsort(statistics, kind="stable")
    mass = np.concatenate(([0.0], np.cumsum(weights[order])))
    ranked = statistics[order]
    below = mass[np.searchsorted(ranked, cutoffs - slack, side="left")]
    at_or_below = mass[np.searchsorted(ranked, cutoffs + slack, side="right")]
    return (below <= LEVELS + TOLERANCE) & (at_or_below >= LEVELS - TOLERANCE)


@pytest.mark.parametrize("k,gamma,n", CELLS)
def test_engine_cutoffs_are_exact_null_quantiles(k, gamma, n):
    passed = levels_passed(engine_statistics(k, n), probabilities(k, gamma, n),
                           engine_cutoffs(k, gamma, n))
    assert passed.all(), passed


@pytest.mark.parametrize("k,gamma,n", INDEPENDENT_CELLS)
def test_independently_scored_null_agrees(k, gamma, n):
    passed = levels_passed(oracle_statistics(k, n), probabilities(k, gamma, n),
                           engine_cutoffs(k, gamma, n), slack=1e-6)
    assert passed.all(), passed


def test_ks_against_the_generating_exponent_fails(monkeypatch):
    # cutoffs of the statistic scored against the generating exponent are
    # not quantiles of the re-fitted one: every cell fails at level 0.9
    for k, gamma, n in CELLS:
        monkeypatch.setattr(montecarlo, "mle_gamma",
                            lambda drawn, support, g=gamma: np.full(drawn.head.shape[0], g))
        passed = levels_passed(engine_statistics(k, n), probabilities(k, gamma, n),
                               engine_cutoffs(k, gamma, n))
        assert not passed[0], (k, gamma, n)


def test_vectors_piled_at_k_fit_the_range_end():
    # four vectors of this cell, 0.48% of its mass, have their likelihood
    # maximum below -20 and fit the range's end; the engine's cutoffs above
    # count them as the exact law does
    table = count_vectors(20, 4)
    at_end = mle_gamma(count_rows(table, 4), Support.finite(20)) == -20.0
    assert np.count_nonzero(at_end) == 4 and (table[at_end, -3:].sum(axis=1) == 4).all()
    assert probabilities(20, -2.0, 4)[at_end].sum() > 4e-3
