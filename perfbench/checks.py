"""Output checks for the benchmark and the tally that feeds ``failed_share``.

The reference values are copied from the package's acceptance gate so that
the benchmark stands on its own; they are the published reference-grid
values, not numbers produced by this code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from zipfks.series import finite_log_moments, zeta_log_moments

LEVELS = (0.9, 0.95, 0.99, 0.999)

# K=20 reference grid excerpt: (gamma, n) -> cutoffs at the four levels.
K20_REFERENCE = {
    (0.5, 10): (0.2387, 0.2640, 0.3159, 0.3770),
    (0.5, 100): (0.0755, 0.0838, 0.1007, 0.1212),
    (0.5, 1000): (0.0239, 0.0265, 0.0318, 0.0387),
    (1.0, 10): (0.2128, 0.2353, 0.2812, 0.3387),
    (1.0, 100): (0.0671, 0.0742, 0.0886, 0.1059),
    (1.0, 1000): (0.0212, 0.0235, 0.0280, 0.0334),
    (2.0, 10): (0.1531, 0.1727, 0.2183, 0.2869),
    (2.0, 100): (0.0480, 0.0544, 0.0680, 0.0855),
    (2.0, 1000): (0.0152, 0.0172, 0.0215, 0.0271),
    (4.0, 10): (0.0821, 0.0821, 0.1074, 0.1455),
    (4.0, 100): (0.0178, 0.0206, 0.0272, 0.0360),
    (4.0, 1000): (0.0055, 0.0064, 0.0082, 0.0104),
}
K20_TOLERANCE = 0.10
# Levels compared with K20_REFERENCE.  At the 2,048 replicates per cell a
# benchmark round can afford, the Monte Carlo error of the 0.99 and 0.999
# order statistics reaches 7% and 36% (six seeds, twelve cells), so those two
# levels get the structural checks only.
K20_CHECKED_LEVELS = (0.9, 0.95)

# Unbounded reference cells: (gamma, n) -> (0.9 cutoff, band).
INF_REFERENCE = {
    (1.25, 1000): (0.0569, 0.0020),
    (4.0, 1000): (0.0056, 0.0004),
    (2.0, 100): (0.0576, 0.0015),
}

# A fitted exponent may sit this many standard errors from the generating one.
GAMMA_HAT_SIGMAS = 5.0


@dataclass
class Tally:
    """Checks attempted and the descriptions of those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


Rows = dict[tuple[float, int], tuple[float, ...]]


def check_rows_ordered(tally: Tally, rows: Rows) -> None:
    """Every cutoff row lies in (0, 1) and is nondecreasing in the level."""
    for (gamma, n), row in rows.items():
        ok = all(0.0 < c < 1.0 for c in row) and all(b >= a for a, b in zip(row, row[1:]))
        tally.check(ok, f"cell gamma={gamma} n={n}: cutoffs {row} not ordered in (0, 1)")


def check_k20_grid(tally: Tally, rows: Rows, reference: Rows = K20_REFERENCE) -> None:
    """Checked levels within K20_TOLERANCE of the reference grid."""
    for (gamma, n), ref in reference.items():
        got = rows[(gamma, n)]
        for level in K20_CHECKED_LEVELS:
            i = LEVELS.index(level)
            rel = abs(got[i] - ref[i]) / ref[i]
            tally.check(
                rel < K20_TOLERANCE,
                f"K=20 cell gamma={gamma} n={n} level={level}: got {got[i]:.5f}, "
                f"reference {ref[i]} (off by {rel:.1%})",
            )


def check_inf_cells(
    tally: Tally, rows: Rows, reference: dict[tuple[float, int], tuple[float, float]] = INF_REFERENCE
) -> None:
    """Each 0.9 cutoff inside its acceptance-gate band."""
    for (gamma, n), (ref, band) in reference.items():
        got = rows[(gamma, n)][LEVELS.index(0.9)]
        tally.check(
            abs(got - ref) <= band,
            f"inf cell gamma={gamma} n={n}: 0.9 cutoff {got:.5f} outside {ref} +- {band}",
        )


@dataclass(frozen=True)
class ExpectedFit:
    """What a ``zipfks fit --machine`` call must print, from the library directly."""

    gamma: float
    gamma_se: float
    gamma_hat: float
    ks: float
    cutoffs: tuple[float, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.ks > self.cutoffs[LEVELS.index(0.9)] else 0


def _level_tag(level: float) -> str:
    digits = repr(level).replace("0.", "", 1)
    return digits + "0" if len(digits) == 1 else digits


def check_fit(tally: Tally, what: str, code: int, output: str, expected: ExpectedFit) -> None:
    """Exit code, fitted exponent, KS statistic and per-level verdicts of one fit call."""
    fields = dict(line.split("=", 1) for line in output.splitlines() if "=" in line)
    tally.check(code in (0, 1) and code == expected.exit_code,
                f"{what}: exit code {code}, expected {expected.exit_code}")
    gamma_hat = float(fields.get("gamma_hat", "nan"))
    tally.check(gamma_hat == expected.gamma_hat,
                f"{what}: gamma_hat {gamma_hat!r} != library {expected.gamma_hat!r}")
    tally.check(
        abs(gamma_hat - expected.gamma) <= GAMMA_HAT_SIGMAS * expected.gamma_se,
        f"{what}: gamma_hat {gamma_hat:.5f} more than {GAMMA_HAT_SIGMAS:g} standard errors "
        f"({expected.gamma_se:.2e}) from the generating {expected.gamma}",
    )
    ks = float(fields.get("ks", "nan"))
    tally.check(ks == expected.ks, f"{what}: ks {ks!r} != library {expected.ks!r}")
    for level, cutoff in zip(LEVELS, expected.cutoffs):
        tag = _level_tag(level)
        printed = float(fields.get(f"cutoff_q{tag}", "nan"))
        rejected = fields.get(f"rejected_q{tag}")
        want = "true" if expected.ks > cutoff else "false"
        tally.check(
            printed == cutoff and rejected == want,
            f"{what}: level {level} printed cutoff {printed!r} rejected={rejected}, "
            f"library {cutoff!r} rejected={want}",
        )


def gamma_standard_error(gamma: float, k: int | None, n: int) -> float:
    """Asymptotic standard error of the exponent MLE: 1 / sqrt(n Var[ln X])."""
    s0, s1, s2 = finite_log_moments(gamma, k) if k is not None else zeta_log_moments(gamma)
    mean = s1 / s0
    return 1.0 / math.sqrt(n * (s2 / s0 - mean * mean))
