import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks import series
from zipfks.series import (
    MAX_FINITE_SUPPORT,
    finite_log_moments,
    finite_moments,
    natural_logs,
    zeta_log_moments,
    zeta_moments,
    zeta_value,
)

from oracles import log_moments, mp_finite_norm, mp_zeta


def tail_sum(gamma, start):
    """sum_{k>=start} k^(-gamma) by the Euler-Maclaurin tail alone, elementwise over the starts."""
    starts = np.atleast_1d(np.asarray(start, dtype=np.float64))
    power, b, _ = series._tail_factors(np.full(starts.size, float(gamma)), starts, 1)
    value = power * b[0]
    return value if np.ndim(start) else float(value[0])


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

    def test_table_built_meanwhile_is_not_replaced_by_a_shorter_one(self, monkeypatch):
        # another call (as from a second thread) grows the cache while this one builds
        monkeypatch.setattr(series, "_log_cache", np.zeros(1))
        concatenate, nested = np.concatenate, []

        def meanwhile(arrays, *args, **kwargs):
            if not nested:
                nested.append(None)
                nested.append(natural_logs(5000))
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(series.np, "concatenate", meanwhile)
        logs = natural_logs(10)
        assert logs.size == 11 and logs[7] == np.log(7.0)
        assert nested[1].size == 5001
        assert series._log_cache.size == 8192  # the longer table stays


class TestInfiniteSums:
    @pytest.mark.parametrize("gamma", [1.05, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_moments_match_zeta_derivatives(self, gamma):
        s0, s1, s2 = zeta_log_moments(gamma)
        # d/ds sum k^-s = -sum ln(k) k^-s, so s1 = -zeta', s2 = zeta''
        assert s0 == pytest.approx(float(mp_zeta(gamma)), rel=1e-12)
        assert s1 == pytest.approx(float(-mp_zeta(gamma, 1)), rel=1e-12)
        assert s2 == pytest.approx(float(mp_zeta(gamma, 2)), rel=1e-12)

    @pytest.mark.parametrize("gamma", [1.05, 1.25, 2.5, 7.0, 20.0])
    def test_oracle_moments_match_zeta_derivatives(self, gamma):
        # the test oracle's own sums, which the scalar fit oracle runs on
        want = [float((-1) ** p * mp_zeta(gamma, p)) for p in range(3)]
        assert log_moments(gamma, None) == pytest.approx(want, rel=1e-14)
        finite = float(mp_finite_norm(gamma, 1000))
        assert log_moments(gamma, 1000)[0] == pytest.approx(finite, rel=1e-14)

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
        assert tail_sum(gamma, start) == pytest.approx(expected, rel=1e-10)

    def test_tail_mass_vectorized(self):
        starts = np.array([100, 1000, 10000])
        values = tail_sum(1.5, starts)
        for start, value in zip(starts, values):
            assert value == pytest.approx(tail_sum(1.5, int(start)), rel=0)


GAMMAS = st.floats(1.05, 20.0)

# Tail starts: the first tail index, the unbounded sampling limit and the
# logarithm table boundaries around them, and values far past both.
TAIL_STARTS = [33, 34, 4096, 4097, 65536, 2**20 + 1, 10**10]


def mp_tail(gamma: float, start: int, p: int) -> float:
    """sum_{k>=start} k^(-gamma) (ln k)^p from the Hurwitz zeta function, 120 digits."""
    with mpmath.workdps(120):
        return float((-1) ** p * mpmath.zeta(mpmath.mpf(gamma), start, p))


class TestSeriesProperties:
    @settings(max_examples=60, deadline=None)
    @given(gamma=GAMMAS)
    def test_zeta_moments_match_mpmath(self, gamma):
        got = zeta_moments(np.array([gamma]))[:, 0]
        for p in range(3):
            want = float((-1) ** p * mp_zeta(gamma, p))
            assert got[p] == pytest.approx(want, rel=1e-12)

    def test_row_whose_tail_bound_misses_the_target_raises(self):
        # at a target no 32-term series meets, the row raises, naming its exponent
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series, "SERIES_RTOL", 1e-16)
            with pytest.raises(RuntimeError, match="gamma=2.5"):
                zeta_moments(np.array([20.0, 2.5]))

    @settings(max_examples=40, deadline=None)
    @given(gammas=st.lists(GAMMAS, min_size=1, max_size=12), moments=st.integers(1, 3))
    def test_rows_bit_identical_alone_and_in_a_batch(self, gammas, moments):
        together = zeta_moments(np.array(gammas), moments)
        for row, gamma in enumerate(gammas):
            alone = zeta_moments(np.array([gamma]), moments)[:, 0]
            assert together[:, row].tolist() == alone.tolist()

    def test_every_exponent_closes_at_the_head_terms(self):
        # no exponent from 1 + 1e-6 to 1e3 raises; the remainder bound comes
        # closest to SERIES_RTOL, at 0.78 of it, for s_2 near gamma = 2.5
        gammas = np.concatenate((np.linspace(1.05, 20.0, 20001), [1 + 1e-6, 50.0, 200.0, 1e3]))
        sums = zeta_moments(gammas)
        power, _, rising = series._tail_factors(gammas, series._TAIL_START, 3)
        ratio = rising * power * series._BOUND_SCALE / (series.SERIES_RTOL * sums)
        p, row = np.unravel_index(np.argmax(ratio), ratio.shape)
        assert ratio.max() == pytest.approx(0.78, abs=0.01)
        assert p == 2 and gammas[row] == pytest.approx(2.5, abs=0.05)

    @settings(max_examples=60, deadline=None)
    @given(gamma=GAMMAS, start=st.sampled_from(TAIL_STARTS), p=st.integers(0, 2))
    def test_tail_matches_mpmath_partial_sums(self, gamma, start, p):
        # within 1e-12 of the tail, or of 1e-15 of the whole sum where the
        # tail is negligible (steep exponents at the first tail indices)
        power, brackets, _ = series._tail_factors(np.array([gamma]), np.array([float(start)]), 3)
        got = float(power[0] * brackets[p, 0])
        want = mp_tail(gamma, start, p)
        whole = float((-1) ** p * mp_zeta(gamma, p))
        assert abs(got - want) <= 1e-12 * want + 1e-15 * whole
        if p == 0:
            assert tail_sum(gamma, start) == got

    @pytest.mark.parametrize("start", TAIL_STARTS)
    def test_tail_at_moderate_exponents_to_1e12_of_itself(self, start):
        for gamma in (1.05, 1.5, 2.0, 4.0):
            got = tail_sum(gamma, start)
            assert got == pytest.approx(mp_tail(gamma, start, 0), rel=1e-12)


class TestFiniteMoments:
    def test_against_direct_power_sums(self):
        for gamma in (0.25, 1.0, 2.5, 4.0, -1.5):
            k = 50
            js = np.arange(1, k + 1, dtype=np.float64)
            s0, s1, s2 = finite_log_moments(gamma, k)
            assert s0 == pytest.approx(float((js**-gamma).sum()), rel=1e-12)
            assert s1 == pytest.approx(float((js**-gamma * np.log(js)).sum()), rel=1e-12)
            assert s2 == pytest.approx(float((js**-gamma * np.log(js) ** 2).sum()), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        gammas=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
        k=st.integers(2, 64) | st.integers(2, MAX_FINITE_SUPPORT),
        moments=st.integers(1, 3),
        more=st.integers(0, 2040),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_bit_identical_alone_and_in_a_batch(self, gammas, k, moments, more, seed):
        # the one-sample fit and the normalizer are one-row calls of the batch;
        # at K <= 64 a batch has up to 2048 rows, as a calibration batch at K = 20 does
        if k <= 64:
            gammas = gammas + np.random.default_rng(seed).uniform(-20.0, 20.0, more).tolist()
        together = finite_moments(np.array(gammas), k, moments)
        assert together.tolist() == finite_moments(np.array(gammas), k)[:moments].tolist()
        for row, gamma in enumerate(gammas):
            alone = finite_moments(np.array([gamma]), k, moments)[:, 0]
            assert together[:, row].tolist() == alone.tolist()
        assert list(finite_log_moments(gammas[0], k))[:moments] == together[:, 0].tolist()

    def test_independent_of_the_blas_thread_count(self):
        # sums taken by a BLAS product are blocked by thread: at K = 32766 they,
        # and the cutoffs calibrated from them, moved in their last bits
        script = (
            "import numpy as np\n"
            "from zipfks.distribution import Support\n"
            "from zipfks.montecarlo import SimulationConfig, run_simulation\n"
            "from zipfks.series import finite_moments\n"
            "print(finite_moments(np.linspace(-3, 5, 64), 32766).tobytes().hex())\n"
            "config = SimulationConfig(n=10, support=Support.finite(32766), gamma=1.0,\n"
            "                          base_seed=7, replicates=512, repetitions=1)\n"
            "print(run_simulation(config, workers=1))\n"
        )
        src = str(Path(series.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
