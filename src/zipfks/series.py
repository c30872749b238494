"""Log tables and power-sum series underlying the Zipf family.

Everything here reduces to sums of the form

    sum_{k} k^(-gamma) * (ln k)^p      for p = 0, 1, 2

over either a finite range 1..K or all positive integers.  Terms are
always evaluated as exp(-gamma * ln k) from a precomputed table of
natural logarithms; infinite sums are truncated and closed with an
Euler-Maclaurin tail whose error bound is checked explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest admissible finite support; dense log tables never exceed it by much.
MAX_FINITE_SUPPORT = 32766

# Relative accuracy target for infinite sums.
SERIES_RTOL = 1e-12

# Direct terms are summed up to at least this index before a tail is attached.
_TAIL_MIN_START = 64

_log_cache = np.zeros(1)


def natural_logs(limit: int) -> np.ndarray:
    """Array ``a`` with ``a[k] = ln k`` for ``k = 1..limit`` (``a[0]`` is 0 padding).

    Backed by a shared cache that grows geometrically; returned views must be
    treated as read-only.
    """
    global _log_cache
    if len(_log_cache) < limit + 1:
        size = 1024
        while size < limit + 1:
            size *= 2
        fresh = np.log(np.arange(1, size, dtype=np.float64))
        _log_cache = np.concatenate(([0.0], fresh))
    return _log_cache[: limit + 1]


@dataclass(frozen=True)
class LogTable:
    """Precomputed natural logarithms of 1..limit, indexable by integer value."""

    logs: np.ndarray
    limit: int


def build_log_table(limit: int) -> LogTable:
    """Table of ln k for k = 1..limit; entry 0 is padding, entry 1 is exactly 0."""
    if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool):
        raise ValueError(f"log table limit must be an integer, got {limit!r}")
    if limit < 1 or limit > MAX_FINITE_SUPPORT:
        raise ValueError(
            f"log table limit must be in [1, {MAX_FINITE_SUPPORT}], got {limit}"
        )
    view = natural_logs(int(limit))
    view.flags.writeable = False
    return LogTable(logs=view, limit=int(limit))


def finite_log_moments(gamma: float, k: int) -> tuple[float, float, float]:
    """(s0, s1, s2) with s_p = sum_{j=1..k} j^(-gamma) (ln j)^p."""
    logs = natural_logs(k)[1 : k + 1]
    w = np.exp(-gamma * logs)
    wl = w * logs
    return float(w.sum()), float(wl.sum()), float(wl @ logs)


def power_rows(gammas: np.ndarray, k: int) -> np.ndarray:
    """(rows x k) array of j^(-gamma) for j = 1..k, one row per exponent."""
    w = np.multiply.outer(-np.asarray(gammas, dtype=np.float64), natural_logs(k)[1 : k + 1])
    return np.exp(w, out=w)


def row_dots(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Dot product of each row with the vector.

    Each row is its own BLAS call: BLAS blocks a many-row product
    differently for different row counts, and a row's result must not depend
    on how many rows share the call.
    """
    return (rows[:, None, :] @ vector)[:, 0]


def _tail_log_moment(gamma: float, start: int, p: int) -> tuple[float, float]:
    """(value, error bound) for sum_{k=start..inf} k^(-gamma) (ln k)^p.

    Euler-Maclaurin through the first-derivative term; the bound is
    |f'''(start)| / 720, valid because the third derivative is monotone on
    [start, inf) for start >= 16.
    """
    a = float(start)
    L = math.log(a)
    g1 = gamma - 1.0
    apow1 = math.exp(-g1 * L)  # a^(1-gamma)
    if p == 0:
        integral = apow1 / g1
    elif p == 1:
        integral = apow1 * (L / g1 + 1.0 / g1**2)
    else:
        integral = apow1 * (L * L / g1 + 2.0 * L / g1**2 + 2.0 / g1**3)
    lp = L**p
    f = math.exp(-gamma * L) * lp
    fprime = math.exp(-(gamma + 1.0) * L) * ((p * L ** (p - 1) if p else 0.0) - gamma * lp)
    # conservative |f'''| bound: three differentiations of x^(-gamma) (ln x)^p
    # each contribute a factor below (gamma + p + 3) / x once ln x >= 1
    f3_bound = (gamma + p + 3.0) ** 3 * math.exp(-(gamma + 3.0) * L) * lp
    return integral + 0.5 * f - fprime / 12.0, f3_bound / 720.0


def zeta_log_moments(gamma: float) -> tuple[float, float, float]:
    """(s0, s1, s2) with s_p = sum_{k>=1} k^(-gamma) (ln k)^p, gamma > 1.

    Direct summation over 1..m plus the Euler-Maclaurin tail, doubling m until
    every tail bound is below SERIES_RTOL relative to its sum.
    """
    if gamma <= 1.0:
        raise ValueError(f"series diverges for gamma <= 1, got {gamma}")
    m = 256
    while True:
        s0, s1, s2 = finite_log_moments(gamma, m)
        (t0, e0) = _tail_log_moment(gamma, m + 1, 0)
        (t1, e1) = _tail_log_moment(gamma, m + 1, 1)
        (t2, e2) = _tail_log_moment(gamma, m + 1, 2)
        s0 += t0
        s1 += t1
        s2 += t2
        if e0 <= SERIES_RTOL * s0 and e1 <= SERIES_RTOL * s1 and e2 <= SERIES_RTOL * s2:
            return s0, s1, s2
        m *= 2
        if m > 1 << 22:
            raise RuntimeError(f"tail bound not converging at gamma={gamma}")


def zeta_value(gamma: float) -> float:
    """sum_{k>=1} k^(-gamma) for gamma > 1, relative error <= SERIES_RTOL."""
    if gamma <= 1.0:
        raise ValueError(f"series diverges for gamma <= 1, got {gamma}")
    m = 256
    while True:
        logs = natural_logs(m)[1 : m + 1]
        s0 = float(np.exp(-gamma * logs).sum())
        t0, e0 = _tail_log_moment(gamma, m + 1, 0)
        s0 += t0
        if e0 <= SERIES_RTOL * s0:
            return s0
        m *= 2


def tail_mass(gamma: float, start: np.ndarray | int) -> np.ndarray | float:
    """sum_{k>=start} k^(-gamma), vectorized over ``start`` (each >= 65).

    Euler-Maclaurin through the third-derivative term; the next term is below
    1e-13 of the tail for every admissible (gamma, start).
    """
    a = np.asarray(start, dtype=np.float64)
    if np.any(a < _TAIL_MIN_START + 1):
        raise ValueError("tail_mass requires start > 64; sum small ranges directly")
    L = np.log(a)
    g1 = gamma - 1.0
    value = (
        np.exp(-g1 * L) / g1
        + 0.5 * np.exp(-gamma * L)
        + (gamma / 12.0) * np.exp(-(gamma + 1.0) * L)
        - (gamma * (gamma + 1.0) * (gamma + 2.0) / 720.0) * np.exp(-(gamma + 3.0) * L)
    )
    if np.ndim(start) == 0:
        return float(value)
    return value
