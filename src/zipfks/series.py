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

import numpy as np

# Largest admissible finite support; dense log tables never exceed it by much.
MAX_FINITE_SUPPORT = 32766

# Relative accuracy target for infinite sums.
SERIES_RTOL = 1e-12

# Direct terms are summed up to at least this index before a tail is attached.
_TAIL_MIN_START = 64

# Batched evaluations take their rows in blocks of about this many elements.
# No result depends on it: a row's values do not depend on its block.
CHUNK_ELEMENTS = 1 << 16

_log_cache = np.zeros(1)


def natural_logs(limit: int) -> np.ndarray:
    """Read-only array ``a`` with ``a[k] = ln k`` for ``k = 1..limit`` (``a[0]`` is 0 padding).

    Backed by a shared cache that grows geometrically.
    """
    global _log_cache
    if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool) or limit < 1:
        raise ValueError(f"log table limit must be a positive integer, got {limit!r}")
    if len(_log_cache) < limit + 1:
        size = 1024
        while size < limit + 1:
            size *= 2
        fresh = np.log(np.arange(1, size, dtype=np.float64))
        _log_cache = np.concatenate(([0.0], fresh))
        _log_cache.flags.writeable = False
    return _log_cache[: limit + 1]


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


def zeta_moments(gammas: np.ndarray, moments: int = 3) -> np.ndarray:
    """(moments x rows) array of s_p = sum_{k>=1} k^(-gamma) (ln k)^p, p < moments, gamma > 1.

    Direct summation over 1..m plus the Euler-Maclaurin tail from a = m + 1
    through the first-derivative term, whose error is below |f'''(a)| / 720
    (the third derivative is monotone on [a, inf) for a >= 16).  Each exponent
    doubles its own m from 256 until that bound is below SERIES_RTOL of every
    requested sum, so its sums do not depend on the other exponents of the call.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if not (gammas > 1.0).all():
        raise ValueError(f"series diverges for gamma <= 1, got {gammas[~(gammas > 1.0)][0]}")
    out = np.empty((moments, gammas.size))
    todo = np.arange(gammas.size)
    m = 256
    while todo.size:
        if m > 1 << 22:
            raise RuntimeError(f"tail bound not converging at gamma={gammas[todo[0]]}")
        g = gammas[todo]
        a = m + 1
        L = math.log(a)
        p = np.arange(moments)[:, None]
        lp = L**p
        power = np.exp(-g * L)  # a^(-gamma)
        # the integral of x^(-gamma) (ln x)^p over [a, inf) is a^(1-gamma) I_p,
        # where I_0 = 1 / (gamma - 1) and, by parts, I_p = (L^p + p I_(p-1)) / (gamma - 1)
        integral = [1.0 / (g - 1.0)]
        for q in range(1, moments):
            integral.append((L**q + q * integral[-1]) / (g - 1.0))
        fprime = (p * L ** (p - 1.0) - g * lp) / a  # f'(a) / a^(-gamma)
        sums = power * (a * np.array(integral) + 0.5 * lp - fprime / 12.0)
        # conservative |f'''| bound: three differentiations of x^(-gamma) (ln x)^p
        # each contribute a factor below (gamma + p + 3) / x once ln x >= 1
        bounds = (g + p + 3.0) ** 3 * power * lp / (720.0 * a**3)
        logs = natural_logs(m)[1 : m + 1]
        step = max(1, CHUNK_ELEMENTS // m)
        for lo in range(0, g.size, step):
            w = power_rows(g[lo : lo + step], m)
            for q in range(moments):
                sums[q, lo : lo + step] += w.sum(axis=1)
                w *= logs
        done = (bounds <= SERIES_RTOL * sums).all(axis=0)
        out[:, todo[done]] = sums[:, done]
        todo = todo[~done]
        m *= 2
    return out


def zeta_log_moments(gamma: float) -> tuple[float, float, float]:
    """(s0, s1, s2) with s_p = sum_{k>=1} k^(-gamma) (ln k)^p, gamma > 1."""
    s0, s1, s2 = zeta_moments(np.array([gamma], dtype=np.float64))[:, 0]
    return float(s0), float(s1), float(s2)


def zeta_value(gamma: float) -> float:
    """sum_{k>=1} k^(-gamma) for gamma > 1, relative error <= SERIES_RTOL."""
    return float(zeta_moments(np.array([gamma], dtype=np.float64), 1)[0, 0])


def tail_mass(gamma: float | np.ndarray, start: np.ndarray | int) -> np.ndarray | float:
    """sum_{k>=start} k^(-gamma), vectorized over ``gamma`` and ``start`` (each >= 65).

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
    if np.ndim(value) == 0:
        return float(value)
    return value
