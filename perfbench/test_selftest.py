"""Self-test of the benchmark at minimal length (``--seconds 1``: one round).

Run from the repository root:

    python3 -m pytest perfbench/test_selftest.py

It is not part of the package's test suite (pytest collects ``tests/`` by
default) because it runs every workload once, about two minutes on two cores.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("grid_k20", "cells_inf")

END_TO_END = {
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "replicates_per_s_serial": "1/s",
    "cpu_ms_per_replicate": "ms",
    "fit_table_s": "s",
    "fit_bespoke_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}

PER_LAYER = {
    "distribution.sample.us_per_call": "us",
    "distribution.sample.share": "ratio",
    "distribution.ZipfModel.us_per_call": "us",
    "series.zeta_value.calls_per_replicate": "calls/replicate",
    "estimate.mle_gamma.us_per_call": "us",
    "estimate.mle_gamma.share": "ratio",
    "estimate.log_mean.us_per_call": "us",
    "estimate.moment_evals_per_fit": "evals/fit",
    "series.finite_log_moments.us_per_call": "us",
    "series.finite_log_moments.calls_per_replicate": "calls/replicate",
    "series.zeta_log_moments.us_per_call": "us",
    "series.zeta_log_moments.calls_per_replicate": "calls/replicate",
    "gof.ks_statistic.us_per_call": "us",
    "gof.ks_statistic.share": "ratio",
    "gof.sparse_share": "ratio",
    "montecarlo.order_quantiles.ms_per_call": "ms",
    "montecarlo.retry_share": "ratio",
    "montecarlo.parallel_efficiency": "ratio",
    "observations.parse_observations.s": "s",
    "observations.parse_observations.mb_per_s": "MB/s",
    "tablefile.load_table.ms": "ms",
    "tablefile.write_table.ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _printed_units(stdout: str) -> dict[str, str]:
    return {
        parts[1]: parts[3]
        for parts in (line.split() for line in stdout.splitlines())
        if len(parts) == 4 and parts[0] == "metric"
    }


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    printed = _printed_units(done.stdout)
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        assert printed.get(name) == unit, f"{name}: printed unit {printed.get(name)!r}"
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "provenance {" in done.stdout


def test_wrong_reference_counted_in_failed_share(monkeypatch):
    wrong = tuple(2.0 * c for c in checks.K20_REFERENCE[(1.0, 1000)])
    monkeypatch.setitem(checks.K20_REFERENCE, (1.0, 1000), wrong)
    result = harness.run(workloads.WORKLOADS["grid_k20"], seed=3, seconds=1, trace=False)
    tally = result["tally"]
    assert tally.failed == len(checks.K20_CHECKED_LEVELS)
    assert result["metrics"]["failed_share"][0] == tally.failed / tally.attempted > 0.0


def test_unbounded_band_violation_counted():
    tally = checks.Tally()
    rows = {cell: (ref, ref, ref, ref) for cell, (ref, _) in checks.INF_REFERENCE.items()}
    checks.check_inf_cells(tally, rows)
    assert (tally.attempted, tally.failed) == (3, 0)
    shifted = {cell: (ref + 1.01 * band, band) for cell, (ref, band) in checks.INF_REFERENCE.items()}
    checks.check_inf_cells(tally, rows, reference=shifted)
    assert (tally.attempted, tally.failed) == (6, 3)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("grid_k20", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
