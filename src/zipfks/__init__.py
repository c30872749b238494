"""Discrete power-law (Zipf) fitting with simulation-calibrated KS cutoffs."""

from .distribution import RandomStream, Sample, Support, ZipfModel, sample
from .estimate import mle_gamma
from .gof import judge, ks_statistic
from .montecarlo import SimulationConfig, run_simulation

__version__ = "1.0.0"

__all__ = [
    "RandomStream",
    "Sample",
    "SimulationConfig",
    "Support",
    "ZipfModel",
    "judge",
    "ks_statistic",
    "mle_gamma",
    "run_simulation",
    "sample",
]
