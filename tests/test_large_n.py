"""Large-n cutoffs against the Gaussian limit of the re-fitted KS statistic.

The acceptance gate checks no cutoff above n = 1000.  Past it, sqrt(n)
times the engine's cutoff must approach the same quantile of the limit
max_j |Z_j| (oracles.limit_ks), whose draws cost O(K) whatever n is.

Tolerance.  The ratio of the engine's cutoff times sqrt(n) to the limit's
quantile was measured on every cell below at q90 and q95 (serial runs):
- engine, 8,192 x 1 replicates over 20 seeds (6 at K = 1000): relative
  standard deviation 0.47-0.89% at K = 20, 0.15-0.45% at K = 1000;
- limit over 5 seeds: 0.06-0.17% at 2x10^5 draws, 0.31-0.40% at 2x10^4;
- finite-n offset, the seed-averaged ratio minus one: -0.1% to +0.3%, each
  within two of its standard errors (0.06-0.20%) of zero;
- all 860 engine-seed x limit-seed ratios lay in 0.982-1.024.
So the ratio's standard deviation is at most 0.91%, and the offset plus
four of those is 3.9%; the band is 5%.  Scored against the generating
exponent instead of the fitted one, the limit's q90 and q95 are 1.50-1.84
times these (test_band_rejects_the_generating_exponent), far outside it.
"""
import math

import numpy as np
import pytest

from zipfks.distribution import Support
from zipfks.montecarlo import SimulationConfig, run_simulation

from oracles import limit_ks

LEVELS = (0.9, 0.95)
REL_TOL = 0.05
ENGINE_SEED = 3
LIMIT_SEED = 1


@pytest.mark.parametrize("k,gamma,n,draws", [
    (20, 1.0, 10_000, 200_000), (20, 2.0, 10_000, 200_000),
    (20, 1.0, 50_000, 200_000), (20, 2.0, 50_000, 200_000),
    (1000, 1.0, 10_000, 20_000),
])
def test_cutoffs_approach_the_limit(k, gamma, n, draws):
    config = SimulationConfig(n=n, support=Support.finite(k), gamma=gamma, base_seed=ENGINE_SEED,
                              replicates=8192, repetitions=1)
    cutoffs = [cutoff for level, cutoff in run_simulation(config, workers=1) if level in LEVELS]
    limit = np.quantile(limit_ks(gamma, k, draws, LIMIT_SEED), LEVELS)
    np.testing.assert_allclose(np.array(cutoffs) * math.sqrt(n), limit, rtol=REL_TOL)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_band_rejects_the_generating_exponent(gamma):
    # KS scored against the generating exponent converges to the known-gamma limit
    refit = np.quantile(limit_ks(gamma, 20, 50_000, LIMIT_SEED), LEVELS)
    known = np.quantile(limit_ks(gamma, 20, 50_000, LIMIT_SEED, refit=False), LEVELS)
    assert (known / refit > 1.5).all()  # ten bands away
