"""Fit reports: the result of testing one dataset against the Zipf family."""
from __future__ import annotations

from dataclasses import dataclass

from .distribution import Support
from .gof import Verdict


@dataclass(frozen=True)
class FitReport:
    n: int
    support: Support
    gamma_hat: float
    gamma_hat_at_bound: bool  # the fit took an end of its search range
    gamma_hat_se: float  # Fisher-information standard error at gamma_hat
    ks: float
    ks_argmax: int
    cutoff_source: str
    verdicts: tuple[Verdict, ...]

    def rejected_at(self, level: float) -> bool:
        for verdict in self.verdicts:
            if verdict.level == level:
                return verdict.rejected
        raise ValueError(f"no verdict at level {level}")


def format_human(report: FitReport) -> str:
    support = "unbounded" if report.support.k is None else f"1..{report.support.k}"
    lines = [
        f"observations:  {report.n}",
        f"support:       {support}",
        f"gamma_hat:     {report.gamma_hat:.4f}",
        *(["note:          gamma_hat is an end of the search range; the likelihood "
           "still rises beyond it"] if report.gamma_hat_at_bound else []),
        f"gamma_hat_se:  {report.gamma_hat_se:.3g} (Fisher information at gamma_hat)",
        f"ks_statistic:  {report.ks:.4f} (attained at k={report.ks_argmax})",
        f"cutoffs from:  {report.cutoff_source}",
    ]
    for verdict in report.verdicts:
        outcome = "REJECTED" if verdict.rejected else "not rejected"
        lines.append(f"  level {verdict.level:<5}  cutoff {verdict.cutoff:.4f}  {outcome}")
    return "\n".join(lines)


def _level_tag(level: float) -> str:
    """0.9 -> '90', 0.95 -> '95', 0.999 -> '999'."""
    digits = repr(float(level)).replace("0.", "", 1)
    return digits + "0" if len(digits) == 1 else digits


def format_machine(report: FitReport) -> str:
    """Flat key=value block, full precision."""
    lines = [
        f"n={report.n}",
        f"k_support={report.support}",
        f"gamma_hat={report.gamma_hat!r}",
        f"ks={report.ks!r}",
        f"ks_argmax={report.ks_argmax}",
        f"cutoff_source={report.cutoff_source}",
    ]
    for verdict in report.verdicts:
        tag = _level_tag(verdict.level)
        lines.append(f"cutoff_q{tag}={verdict.cutoff!r}")
        lines.append(f"rejected_q{tag}={str(verdict.rejected).lower()}")
    lines.append(f"gamma_hat_at_bound={str(report.gamma_hat_at_bound).lower()}")
    lines.append(f"gamma_hat_se={report.gamma_hat_se!r}")
    return "\n".join(lines)
