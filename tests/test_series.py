import math

import mpmath
import numpy as np
import pytest

from zipfks.series import (
    MAX_FINITE_SUPPORT,
    finite_log_moments,
    natural_logs,
    tail_mass,
    zeta_log_moments,
    zeta_value,
)

from oracles import mp_zeta


class TestLogTable:
    def test_small_tables(self):
        logs = natural_logs(3)
        assert logs.size == 4
        assert logs[0] == 0.0  # padding
        assert logs[1] == 0.0
        assert logs[2] == pytest.approx(0.693147, abs=1e-6)
        assert logs[3] == pytest.approx(1.098612, abs=1e-6)

    def test_limit_one(self):
        logs = natural_logs(1)
        assert logs.size == 2
        assert logs[1] == 0.0

    def test_entry_matches_high_precision_log(self):
        # independent oracle: 50-digit logarithm
        logs = natural_logs(20)
        assert logs[20] == pytest.approx(float(mpmath.log(20)), abs=1e-15)
        assert logs[20] == pytest.approx(2.995732, abs=1e-6)

    @pytest.mark.parametrize("limit", [0, -3, 2.5, "20"])
    def test_rejects_bad_limits(self, limit):
        with pytest.raises(ValueError):
            natural_logs(limit)

    def test_read_only(self):
        # every caller shares the cache, so no view of it may be written
        for limit in (20, MAX_FINITE_SUPPORT + 1):
            logs = natural_logs(limit)
            assert not logs.flags.writeable
            with pytest.raises(ValueError):
                logs[2] = 0.0

    def test_cache_growth_keeps_values(self):
        first = natural_logs(10)[7]
        natural_logs(1 << 17)
        assert natural_logs(10)[7] == first == np.log(7.0)
        assert not natural_logs(1 << 17).flags.writeable


class TestInfiniteSums:
    @pytest.mark.parametrize("gamma", [1.05, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_moments_match_zeta_derivatives(self, gamma):
        s0, s1, s2 = zeta_log_moments(gamma)
        # d/ds sum k^-s = -sum ln(k) k^-s, so s1 = -zeta', s2 = zeta''
        assert s0 == pytest.approx(float(mp_zeta(gamma)), rel=1e-12)
        assert s1 == pytest.approx(float(-mp_zeta(gamma, 1)), rel=1e-12)
        assert s2 == pytest.approx(float(mp_zeta(gamma, 2)), rel=1e-12)

    def test_known_zeta_values(self):
        assert zeta_value(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-9)
        assert zeta_value(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-9)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            zeta_value(1.0)
        with pytest.raises(ValueError):
            zeta_log_moments(0.8)

    @pytest.mark.parametrize("gamma", [1.1, 1.7, 3.0])
    @pytest.mark.parametrize("start", [100, 4097, 65536])
    def test_tail_mass_matches_zeta_minus_head(self, gamma, start):
        head = mpmath.fsum(mpmath.power(j, -gamma) for j in range(1, start))
        expected = float(mp_zeta(gamma) - head)
        assert tail_mass(gamma, start) == pytest.approx(expected, rel=1e-10)

    def test_tail_mass_vectorized(self):
        starts = np.array([100, 1000, 10000])
        values = tail_mass(1.5, starts)
        for start, value in zip(starts, values):
            assert value == pytest.approx(tail_mass(1.5, int(start)), rel=0)

    def test_tail_mass_guards_small_starts(self):
        with pytest.raises(ValueError):
            tail_mass(1.5, 10)


class TestFiniteMoments:
    def test_against_direct_power_sums(self):
        for gamma in (0.25, 1.0, 2.5, 4.0, -1.5):
            k = 50
            js = np.arange(1, k + 1, dtype=np.float64)
            s0, s1, s2 = finite_log_moments(gamma, k)
            assert s0 == pytest.approx(float((js**-gamma).sum()), rel=1e-12)
            assert s1 == pytest.approx(float((js**-gamma * np.log(js)).sum()), rel=1e-12)
            assert s2 == pytest.approx(float((js**-gamma * np.log(js) ** 2).sum()), rel=1e-12)
