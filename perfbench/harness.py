"""One benchmark run: set-up, timed rounds until the time is up, checks, metrics."""
from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh-process set-ups per run; setup_s is their median.
COLD_STARTS = 15
COLD_START_TIMEOUT_S = 60


@dataclass
class Rounds:
    """Per-round measurements.

    End-to-end timings are totals over the run divided by the work done.
    On a shared two-vCPU virtual machine, CPU speed was seen to switch between a
    fast and a slow state for seconds at a time (one parse of 10^5 numbers
    takes 50 or 90 ms, in CPU time as in wall time), so a median over a few
    rounds jumps between the two states from run to run, while a total moves
    only with the share of the run spent in the slow state.
    """

    serial_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    traced_block_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    fit_table_s: list[float] = field(default_factory=list)
    fit_bespoke_s: list[float] = field(default_factory=list)
    cell_s: dict[str, dict[int, list[float]]] = field(default_factory=dict)

    def add_cells(self, workers: int, seconds: dict[str, float]) -> None:
        for label, s in seconds.items():
            self.cell_s.setdefault(label, {}).setdefault(workers, []).append(s)

    def pass_seconds(self, workers: int) -> float:
        """Mean time of one pass over the cells, from the cells' own timings."""
        total = sum(sum(by_workers[workers]) for by_workers in self.cell_s.values())
        return total / len(self.serial_s)


def _cpu_seconds() -> float:
    """User+system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def cold_start_seconds(cell: workloads.Cell) -> float:
    """Wall time from launching a fresh interpreter to its first-operation-ready line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, str(HERE / "coldstart.py"),
            "inf" if cell.k is None else str(cell.k), repr(cell.gamma)]
    started = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=COLD_START_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"cold-start probe failed (exit {code}, first line {line!r})")
    return seconds


def provenance(workload: workloads.Workload, seed: int, seconds: int, trace: bool) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": sha,
        "cells": [
            {"cell": c.label, "replicates": c.replicates, "repetitions": c.repetitions}
            for c in workload.cells
        ],
        "fit": {
            "n_table": workload.fit.n_table,
            "n_bespoke": workload.fit.n_bespoke,
            "bespoke_replicates": workload.fit.bespoke_replicates,
            "bespoke_repetitions": 1,
        },
    }


def _check_round(tally: checks.Tally, workload: workloads.Workload,
                 serial: workloads.Calibration, others: dict[str, workloads.Calibration]) -> None:
    for what, other in others.items():
        tally.check(serial.rows == other.rows and serial.table_bytes == other.table_bytes,
                    f"{what} cutoffs differ from the workers=1 pass")
    checks.check_rows_ordered(tally, serial.rows)
    workload.check_cells(tally, serial.rows)


def _fit_calls(tally: checks.Tally, fixture: workloads.FitFixture, rounds: Rounds,
               table_calls: int, bespoke_calls: int, bespoke_workers: int,
               tracer: tracing.Tracer | None) -> None:
    for _ in range(table_calls):
        code, out, s = _traced_cli(tracer, "cli.fit_table", fixture.table_argv)
        rounds.fit_table_s.append(s)
        checks.check_fit(tally, "fit --table", code, out, fixture.expected_table)
    for _ in range(bespoke_calls):
        code, out, s = _traced_cli(tracer, "cli.fit_bespoke", fixture.bespoke_argv(bespoke_workers))
        rounds.fit_bespoke_s.append(s)
        checks.check_fit(tally, "fit --bespoke", code, out, fixture.expected_bespoke)


def _traced_cli(tracer: tracing.Tracer | None, name: str, argv: list[str]) -> tuple[int, str, float]:
    if tracer is None:
        return workloads.run_cli(argv)
    with tracer.span(name):
        return workloads.run_cli(argv)


def run(workload: workloads.Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run the workload for about ``seconds`` of timed rounds and return the result."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload: workloads.Workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    setup = [] if trace else [cold_start_seconds(workload.cells[0]) for _ in range(COLD_STARTS)]
    fixture = workloads.prepare_fit(workload.fit, seed, workdir)
    tally = checks.Tally()
    # one untimed call fills the allocator and file caches the first call pays for
    code, out, _ = workloads.run_cli(fixture.table_argv)
    checks.check_fit(tally, "fit --table", code, out, fixture.expected_table)
    rounds = Rounds()
    fit = workload.fit
    # fit calls are split around the serial pass to sample more moments of the run
    table_early = fit.table_calls // 2
    bespoke_early = fit.bespoke_calls // 2
    tracer = tracing.Tracer() if trace else None
    table_path = workdir / "grid_table.csv"

    started = time.perf_counter()
    shortest = float("inf")
    while True:
        round_started = time.perf_counter()
        cpu0 = _cpu_seconds()
        parallel = workloads.calibrate(workload, seed, 2, table_path)
        rounds.cpu_s.append(_cpu_seconds() - cpu0)
        rounds.add_cells(2, parallel.cell_seconds)
        if tracer is None:
            _fit_calls(tally, fixture, rounds, table_early, bespoke_early, 2, None)

        t0 = time.perf_counter()
        serial = workloads.calibrate(workload, seed, 1, table_path)
        rounds.serial_s.append(time.perf_counter() - t0)
        rounds.add_cells(1, serial.cell_seconds)
        others = {"workers=2": parallel}

        if tracer is None:
            _fit_calls(tally, fixture, rounds, fit.table_calls - table_early,
                       fit.bespoke_calls - bespoke_early, 2, None)
        else:
            block_started = time.perf_counter()
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span("bench.calibrate"):
                    traced = workloads.calibrate(workload, seed, 1, table_path)
                rounds.traced_s.append(time.perf_counter() - t0)
                _fit_calls(tally, fixture, rounds, fit.table_calls, fit.bespoke_calls, 1, tracer)
            rounds.traced_block_s.append(time.perf_counter() - block_started)
            others["traced pass"] = traced
        _check_round(tally, workload, serial, others)

        # start another round only if at least half of it fits, so that the
        # measured time is ``seconds`` on average whatever the round length
        now = time.perf_counter()
        shortest = min(shortest, now - round_started)
        if now - started + shortest / 2 > seconds:
            break

    totals = {c.label: c.replicates * c.repetitions for c in workload.cells}
    result = {
        "provenance": provenance(workload, seed, seconds, trace),
        "rounds": len(rounds.serial_s),
        "checks": {"attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures[:20]},
        "cell_ms_per_replicate": {
            label: {f"workers={w}": statistics.median(v) * 1e3 / totals[label]
                    for w, v in sorted(by_workers.items())}
            for label, by_workers in rounds.cell_s.items()
        },
    }
    if tracer is None:
        replicates = workload.replicates
        result["metrics"] = {
            "setup_s": (statistics.median(setup), "s"),
            "replicates_per_s": (replicates / rounds.pass_seconds(2), "1/s"),
            "replicates_per_s_serial": (replicates / rounds.pass_seconds(1), "1/s"),
            "cpu_ms_per_replicate": (statistics.mean(rounds.cpu_s) * 1e3 / replicates, "ms"),
            "fit_table_s": (statistics.mean(rounds.fit_table_s), "s"),
            "fit_bespoke_s": (statistics.mean(rounds.fit_bespoke_s), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "failed_share": (tally.failed_share, "ratio"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, sum(rounds.traced_block_s), fixture.table_input_bytes,
                                        fixture.table_write_seconds)
        metrics["montecarlo.parallel_efficiency"] = (
            rounds.pass_seconds(1) / (2.0 * rounds.pass_seconds(2)), "ratio")
        metrics["trace.overhead_ratio"] = (sum(rounds.traced_s) / sum(rounds.serial_s), "ratio")
        result["metrics"] = metrics
        tracer.save(OUT / f"spans-{workload.name}.npz")
    result["tally"] = tally
    return result

