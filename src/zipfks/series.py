"""Log tables and power-sum series underlying the Zipf family.

Everything here reduces to sums of the form

    sum_{k} k^(-gamma) * (ln k)^p      for p = 0, 1, 2

over either a finite range 1..K or all positive integers.  Terms are
always evaluated as exp(-gamma * ln k) from a precomputed table of
natural logarithms; infinite sums are truncated and closed with an
Euler-Maclaurin tail whose error bound is checked explicitly.
"""
from __future__ import annotations

import numpy as np

# Largest admissible finite support; dense log tables never exceed it by much.
MAX_FINITE_SUPPORT = 32766

# Relative accuracy target for infinite sums.
SERIES_RTOL = 1e-12

# Direct terms of a sum over all positive integers, before its tail; also
# where the unbounded model's cdf turns from a running sum to a tail.
HEAD_TERMS = 32

# w_j = B_(j+1) / (j+1)!, the weights of f^(j)(a), j = 1, 3, 5, 7, in the
# Euler-Maclaurin tail sum_{k>=a} f(k); shaped to scale (4 x moments x rows).
_EM_WEIGHTS = np.repeat([[[1 / 12]], [[-1 / 720]], [[1 / 30240]], [[-1 / 1209600]]], 3, axis=1)

# A column of 0, 1, 2, ...: shifts of the exponent and powers of ln k.
_SHIFTS = np.arange(10.0)[:, None]

# Where the tail of a zeta sum starts, and its remainder bound's scale
# (9 + 9 ln a)^p |B_8| / (8! a^7), p = 0, 1, 2 (see zeta_moments).
_TAIL_START = np.full(1, HEAD_TERMS + 1.0)
_BOUND_SCALE = (9.0 + 9.0 * np.log(_TAIL_START)) ** _SHIFTS[:3] / (1209600.0 * _TAIL_START**7)

# Batched evaluations take their rows in blocks of about this many elements.
# No result depends on it: a row's values do not depend on its block.
CHUNK_ELEMENTS = 1 << 16

_log_cache = np.zeros(1)


def natural_logs(limit: int) -> np.ndarray:
    """Read-only array ``a`` with ``a[k] = ln k`` for ``k = 1..limit`` (``a[0]`` is 0 padding).

    Backed by a shared cache that grows geometrically.  Threads may call it at
    once: each slices the table it read or built, never one another thread
    swapped in, and a table replaces only a shorter one.
    """
    global _log_cache
    if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool) or limit < 1:
        raise ValueError(f"log table limit must be a positive integer, got {limit!r}")
    table = _log_cache
    if len(table) < limit + 1:
        size = 1024
        while size < limit + 1:
            size *= 2
        table = np.concatenate(([0.0], np.log(np.arange(1, size, dtype=np.float64))))
        table.flags.writeable = False
        if len(_log_cache) < size:
            _log_cache = table
    return table[: limit + 1]


def power_rows(gammas: np.ndarray, k: int) -> np.ndarray:
    """(rows x k) array of j^(-gamma) for j = 1..k, one row per exponent."""
    w = np.multiply.outer(-np.asarray(gammas, dtype=np.float64), natural_logs(k)[1 : k + 1])
    return np.exp(w, out=w)


def finite_moments(gammas: np.ndarray, k: int, moments: int = 3) -> np.ndarray:
    """(moments x rows) array of s_p = sum_{j=1..k} j^(-gamma) (ln j)^p, p < moments.

    Each s_p is numpy's pairwise sum along a row of one (rows x k) array: the
    powers, then the same array times ln j once more per moment, in place.
    No BLAS call: a row's sums depend neither on the rows beside it nor on
    the BLAS library or its thread count.
    """
    logs = natural_logs(k)[1 : k + 1]
    w = power_rows(gammas, k)
    sums = np.empty((moments, w.shape[0]))
    sums[0] = w.sum(axis=1)
    for p in range(1, moments):
        w *= logs
        sums[p] = w.sum(axis=1)
    return sums


def finite_log_moments(gamma: float, k: int) -> tuple[float, float, float]:
    """(s0, s1, s2) with s_p = sum_{j=1..k} j^(-gamma) (ln j)^p."""
    s0, s1, s2 = finite_moments(np.array([gamma], dtype=np.float64), k).ravel().tolist()
    return s0, s1, s2


def _tail_factors(
    gammas: np.ndarray, starts: np.ndarray, moments: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a^(-gamma), b, (gamma)_7): sum_{k>=a} k^(-gamma) (ln k)^p = a^(-gamma) b[p], p < moments.

    Elementwise over 1-d gammas and starts a (starts may have one element),
    or with each start under gammas[rows], rows broadcast against starts (a
    column of row indices takes every start under every row).  Euler-Maclaurin:
    the integral, f(a)/2 and the f', f''', f^(5), f^(7) terms.  As f = (-d/dgamma)^p x^(-gamma),
    f^(j)(a) = (-1)^j a^(-gamma-j) sum_i C(p, i) (-1)^i D_i L^(p-i), L = ln a, with
    D_i the i-th gamma-derivative of (gamma)_j: D_1 = D_0 H_1, D_2 = D_0 (H_1^2 - H_2),
    H_q = sum_{c<j} (gamma + c)^(-q).  zeta_moments bounds the remainder.
    """
    L = np.log(starts)
    shifted = gammas + _SHIFTS[:7]  # gamma + c, c = 0..6
    rising = np.multiply.accumulate(shifted, axis=0)  # (gamma)_j, j = 1..7
    d = rising[::2, None] * _EM_WEIGHTS[:, :moments]  # w_j D_i, j = 1, 3, 5, 7
    if moments > 1:
        np.reciprocal(shifted, out=shifted)
        h = np.add.accumulate(shifted, axis=0)[::2]
        d[:, 1] *= h
        if moments > 2:
            shifted *= shifted
            h *= h
            h -= np.add.accumulate(shifted, axis=0)[::2]
            d[:, 2] *= h
    r = np.reciprocal(gammas - 1.0)
    if rows is not None:  # np.take: a gather on the last axis, far faster than d[..., rows]
        r = np.take(r, rows)
    # a^(-gamma) first: the exponents' gather, and ln a when only s_0 is asked
    # for, then go before the arrays of the sum below
    power = (gammas if rows is None else np.take(gammas, rows)) * -L
    np.exp(power, out=power)
    if moments == 1:
        del L

    def coefficient(j: int) -> np.ndarray:
        """w_j D_i under each start's exponent, gathered one j at a time."""
        return d[j] if rows is None else np.take(d[j], rows, axis=-1)

    inv = np.reciprocal(starts)
    step = inv * inv
    e = coefficient(3) * step  # e_i = sum over j of w_j a^(-j) D_i, by Horner in a^-2
    e += coefficient(2)
    for j in (1, 0):
        e *= step
        e += coefficient(j)
    e *= inv
    del inv, step  # a batch's tails are arrays of its values: each is freed once spent
    # The integral is a^(1-gamma) J_p, J_0 = r = 1 / (gamma - 1) and, by parts,
    # J_p = (L^p + p J_(p-1)) r.  In powers of L, with u = a r: b_0 = c_0,
    # b_1 = c_0 L + c_1 and b_2 = (c_0 L + 2 c_1) L + c_2, where
    # c_0 = 1/2 + u + e_0, c_1 = u r - e_1 and c_2 = 2 u r^2 + e_2.
    u = starts * r
    b = e
    b[0] += u + 0.5
    if moments > 1:
        c1 = u * r - e[1]
        if moments > 2:
            b[2] += 2.0 * u * r * r + (b[0] * L + 2.0 * c1) * L
        b[1] = b[0] * L + c1
    return power, b, rising[6]


def zeta_moments(gammas: np.ndarray, moments: int = 3) -> np.ndarray:
    """(moments x rows) array of s_p = sum_{k>=1} k^(-gamma) (ln k)^p, p < moments, gamma > 1.

    Terms 1..HEAD_TERMS plus the tail from a = HEAD_TERMS + 1, whose remainder
    is below |B_8| / 8! times the integral of |f^(8)|: each differentiation of
    x^(-gamma) (ln x)^p scales its polynomial in ln x >= 1 by at most
    gamma + p + j, so that is below (gamma + p)_8 a^(-gamma-7) (1 + ln a)^p /
    (gamma + 7), and the first factor over the last is below 9^p (gamma)_7.
    A row whose bound is not below SERIES_RTOL of each requested sum raises
    RuntimeError.  No exponent from 1 + 1e-6 to 1e3 does; the bound comes
    closest, 0.8 SERIES_RTOL, for s_2 at gamma = 2.5.  Every row is summed on
    its own, so no row depends on the others.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if not (gammas > 1.0).all():
        raise ValueError(f"series diverges for gamma <= 1, got {gammas[~(gammas > 1.0)][0]}")
    power, sums, rising = _tail_factors(gammas, _TAIL_START, moments)
    sums *= power
    sums += finite_moments(gammas, HEAD_TERMS, moments)
    open_rows = (rising * power * _BOUND_SCALE[:moments] > SERIES_RTOL * sums).any(axis=0)
    if open_rows.any():
        raise RuntimeError(f"tail bound above SERIES_RTOL at gamma={gammas[open_rows][0]}")
    return sums


def zeta_log_moments(gamma: float) -> tuple[float, float, float]:
    """(s0, s1, s2) with s_p = sum_{k>=1} k^(-gamma) (ln k)^p, gamma > 1."""
    s0, s1, s2 = zeta_moments(np.array([gamma], dtype=np.float64)).ravel().tolist()
    return s0, s1, s2


def zeta_value(gamma: float) -> float:
    """sum_{k>=1} k^(-gamma) for gamma > 1, relative error <= SERIES_RTOL."""
    return float(zeta_moments(np.array([gamma], dtype=np.float64), 1)[0, 0])


def zeta_cdf(
    gammas: np.ndarray, rows: np.ndarray, values: np.ndarray, columns: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(F(v - 1), F(v)) at each value v >= 1 under the unbounded model of row rows[i],
    then (F(k - 1), F(k)) at k = 1..columns under every row's, two rows x columns arrays.

    Row r's exponent is gammas[r].  Its zeta sum is that of zeta_moments, but
    with the terms 1..HEAD_TERMS taken as the running sum S that its cdf is
    read from: up to HEAD_TERMS, F = S / zeta; above, with t = sum_{k>=v}
    k^(-gamma) = v^(-gamma) b, F(v - 1) = 1 - t / zeta and F(v) = 1 -
    v^(-gamma) (b - 1) / zeta.  Columns above HEAD_TERMS take the values'
    arithmetic in one rows x columns pass, each row's factors broadcast over
    ln k, 1/k and 1/k^2, so a column gives the bits a value gives.  A NaN
    exponent gives NaN.
    """
    count = gammas.size
    power, b, _ = _tail_factors(gammas, _TAIL_START, 1)  # each row's tail from HEAD_TERMS + 1
    head = np.zeros((count, HEAD_TERMS + 1))  # head[r, k] = S(k), then F(k), for k <= HEAD_TERMS
    np.cumsum(power_rows(gammas, HEAD_TERMS), axis=1, out=head[:, 1:])
    scale = 1.0 / (head[:, -1] + power * b[0])  # 1 / zeta
    head *= scale[:, None]

    def above_head(starts: np.ndarray, of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F(v - 1), F(v)) at each start v above HEAD_TERMS under the model of row ``of``."""
        power, b, _ = _tail_factors(gammas, starts, 1, of)
        power *= scale[of]
        b = b[0]
        below = np.multiply(power, b)
        np.subtract(1.0, below, out=below)
        b -= 1.0
        b *= power
        return below, np.subtract(1.0, b, out=b)

    if values.size and values.min() > HEAD_TERMS:  # as drawn rows hold: no masks, no copies
        below, at = above_head(values.astype(np.float64), rows)
    else:
        below, at = np.empty(values.size), np.empty(values.size)
        big = values > HEAD_TERMS
        small = ~big
        row, value = rows[small], values[small]
        below[small], at[small] = head[row, value - 1], head[row, value]
        below[big], at[big] = above_head(values[big].astype(np.float64), rows[big])
    listed = min(columns, HEAD_TERMS)
    column_below, column_at = head[:, :listed], head[:, 1 : listed + 1]
    if columns > listed:
        dense = above_head(np.arange(HEAD_TERMS + 1.0, columns + 1.0), np.arange(count)[:, None])
        return below, at, np.hstack((column_below, dense[0])), np.hstack((column_at, dense[1]))
    return below, at, column_below.copy(), column_at.copy()
