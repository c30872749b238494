"""Discrete power-law (Zipf) fitting with simulation-calibrated KS cutoffs."""

from .distribution import (
    MIN_UNBOUNDED_GAMMA,
    UNBOUNDED_SAMPLE_LIMIT,
    RandomStream,
    Sample,
    Support,
    ZipfModel,
    cdf,
    normalization,
    pmf,
    sample,
)
from .estimate import DEFAULT_SETTINGS, MleSettings, NoRootError, log_mean, mle_gamma
from .gof import KsResult, Verdict, judge, ks_statistic
from .montecarlo import (
    DEFAULT_LEVELS,
    GAMMA_LOOKUP_WINDOW,
    CutoffLookupError,
    CutoffTable,
    SimulationConfig,
    SimulationError,
    build_table,
    order_quantiles,
    run_simulation,
)
from .observations import ObservationParseError, parse_observations, write_observations
from .reporting import FitReport, format_human, format_machine
from .series import zeta_log_moments, zeta_value
from .tablefile import TableFormatError, load_table, write_table

__version__ = "1.0.0"

__all__ = [
    "MIN_UNBOUNDED_GAMMA",
    "UNBOUNDED_SAMPLE_LIMIT",
    "DEFAULT_LEVELS",
    "DEFAULT_SETTINGS",
    "GAMMA_LOOKUP_WINDOW",
    "CutoffLookupError",
    "CutoffTable",
    "FitReport",
    "KsResult",
    "MleSettings",
    "NoRootError",
    "ObservationParseError",
    "RandomStream",
    "Sample",
    "SimulationConfig",
    "SimulationError",
    "Support",
    "TableFormatError",
    "Verdict",
    "ZipfModel",
    "build_table",
    "cdf",
    "format_human",
    "format_machine",
    "judge",
    "ks_statistic",
    "load_table",
    "log_mean",
    "mle_gamma",
    "normalization",
    "order_quantiles",
    "parse_observations",
    "pmf",
    "run_simulation",
    "sample",
    "write_observations",
    "write_table",
    "zeta_log_moments",
    "zeta_value",
]
