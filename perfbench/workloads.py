"""Benchmark workloads and the operations each round times.

Every workload has calibration cells, run once with two pool workers and
once serially, and a fit part: ``zipfks fit --table`` and
``zipfks fit --bespoke`` on datasets the benchmark draws from its seed.
All inputs derive from the workload seed; the same seed gives the same
inputs and, the engine being deterministic, the same outputs.
"""
from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from zipfks import cli, montecarlo
from zipfks.distribution import RandomStream, Support, ZipfModel, sample
from zipfks.estimate import mle_gamma
from zipfks.gof import ks_statistic
from zipfks.montecarlo import CutoffTable, SimulationConfig, build_table
from zipfks.observations import write_observations
from zipfks.tablefile import load_table, write_table

import checks

# Stream tags for the two fit datasets; calibration streams use three-part keys.
_TABLE_DATA_TAG = 1
_BESPOKE_DATA_TAG = 2


@dataclass(frozen=True)
class Cell:
    """One calibration cell: support bound (None = unbounded), exponent, sample size."""

    k: int | None
    gamma: float
    n: int
    replicates: int
    repetitions: int = 1

    def config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(n=self.n, support=Support(k=self.k), gamma=self.gamma,
                                base_seed=seed, replicates=self.replicates,
                                repetitions=self.repetitions)

    @property
    def label(self) -> str:
        return f"k={'inf' if self.k is None else self.k} gamma={self.gamma:g} n={self.n}"


@dataclass(frozen=True)
class FitSpec:
    """Datasets for the two ``fit`` calls and how often each call runs per round."""

    k: int | None
    gamma: float
    n_table: int
    n_bespoke: int
    bespoke_replicates: int
    table_calls: int
    bespoke_calls: int


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    # True when the cells form one (gamma, n) grid built by build_table and
    # written with write_table; otherwise each cell is one run_simulation.
    grid: bool
    fit: FitSpec
    check_cells: Callable[[checks.Tally, checks.Rows], None]

    @property
    def replicates(self) -> int:
        return sum(c.replicates * c.repetitions for c in self.cells)


def _grid(k: int, gammas: tuple[float, ...], ns: tuple[int, ...], replicates: int) -> tuple[Cell, ...]:
    return tuple(Cell(k, g, n, replicates) for g in gammas for n in ns)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_k20",
            cells=_grid(20, (0.5, 1.0, 2.0, 4.0), (10, 100, 1000), replicates=2048),
            grid=True,
            fit=FitSpec(k=20, gamma=1.0, n_table=100_000, n_bespoke=1000,
                        bespoke_replicates=2048, table_calls=10, bespoke_calls=4),
            check_cells=checks.check_k20_grid,
        ),
        Workload(
            name="cells_inf",
            cells=(
                Cell(None, 1.25, 1000, replicates=2048),
                Cell(None, 4.0, 1000, replicates=2048),
                # the n=100 cell is cheap but lumpy: 8,192 replicates keep its
                # 0.9 cutoff about four standard errors inside the band
                Cell(None, 2.0, 100, replicates=4096, repetitions=2),
            ),
            grid=False,
            # the table-reading side: parse_observations dominates --table at
            # 10^6 observations and the draw dominates --bespoke at 5x10^4.
            # The unbounded sampler draws from 1..65535, which biases gamma_hat
            # by about six standard errors at gamma=1.5, n=10^5 (the package
            # documents this); at gamma=2 the bias is negligible
            fit=FitSpec(k=None, gamma=2.0, n_table=1_000_000, n_bespoke=50_000,
                        bespoke_replicates=1024, table_calls=2, bespoke_calls=2),
            check_cells=checks.check_inf_cells,
        ),
    )
}


@dataclass(frozen=True)
class Calibration:
    rows: checks.Rows
    cell_seconds: dict[str, float]
    table_bytes: bytes


def calibrate(workload: Workload, seed: int, workers: int, table_path: Path) -> Calibration:
    """One pass over the workload's cells; grids are also written to table_path."""
    cell_seconds: dict[str, float] = {}
    if workload.grid:
        first = workload.cells[0]
        ns = tuple(dict.fromkeys(c.n for c in workload.cells))
        gammas = tuple(dict.fromkeys(c.gamma for c in workload.cells))

        def progress(gamma: float, n: int, seconds: float, row: tuple[float, ...]) -> None:
            cell_seconds[Cell(first.k, gamma, n, first.replicates).label] = seconds

        table = build_table(ns, gammas, Support(k=first.k), base_seed=seed,
                            replicates=first.replicates, repetitions=first.repetitions,
                            workers=workers, progress=progress)
        write_table(table, table_path)
        return Calibration(dict(table.cells), cell_seconds, table_path.read_bytes())
    rows: checks.Rows = {}
    for cell in workload.cells:
        started = time.perf_counter()
        pairs = montecarlo.run_simulation(cell.config(seed), workers)
        cell_seconds[cell.label] = time.perf_counter() - started
        rows[(cell.gamma, cell.n)] = tuple(cutoff for _, cutoff in pairs)
    return Calibration(rows, cell_seconds, b"")


@dataclass(frozen=True)
class FitFixture:
    table_argv: list[str]
    bespoke_argv: Callable[[int], list[str]]
    expected_table: checks.ExpectedFit
    expected_bespoke: checks.ExpectedFit
    table_input_bytes: int
    table_write_seconds: float


def _dataset(spec: FitSpec, n: int, seed: int, tag: int, path: Path) -> tuple[float, float]:
    """Draw n observations from the generating model into path; return (gamma_hat, ks)."""
    support = Support(k=spec.k)
    drawn = sample(ZipfModel(spec.gamma, support), n, RandomStream([seed, tag]))
    write_observations(drawn, path)
    gamma_hat = mle_gamma(drawn, support)
    return gamma_hat, ks_statistic(drawn, ZipfModel(gamma_hat, support)).statistic


def _fixture_table(spec: FitSpec, gamma_hat: float, seed: int, path: Path) -> float:
    """Write a one-exponent table that holds n_table and a gamma within the lookup window.

    Cutoffs come from one small simulation at min(n_table, 1000) observations,
    scaled to every tabulated n by sqrt(n0 / n), the KS statistic's rate.
    Returns the write_table seconds.
    """
    gamma = round(gamma_hat, 3)
    n0 = min(spec.n_table, 1000)
    cell = Cell(spec.k, gamma, n0, replicates=1024)
    row = tuple(c for _, c in montecarlo.run_simulation(cell.config(seed), workers=1))
    ns = tuple(sorted(set(cli.REFERENCE_NS) | {spec.n_table}))
    cells = {(gamma, n): tuple(min(c * math.sqrt(n0 / n), 0.99) for c in row) for n in ns}
    table = CutoffTable(support=Support(k=spec.k), levels=checks.LEVELS, gammas=(gamma,),
                        ns=ns, cells=cells, replicates=cell.replicates, repetitions=1,
                        base_seed=seed)
    started = time.perf_counter()
    write_table(table, path)
    return time.perf_counter() - started


def prepare_fit(spec: FitSpec, seed: int, workdir: Path) -> FitFixture:
    """Draw both datasets, write the fixture table and compute the expected outputs."""
    label = "inf" if spec.k is None else str(spec.k)
    table_input = workdir / "table_data.txt"
    bespoke_input = workdir / "bespoke_data.txt"
    table_path = workdir / "fixture_table.csv"

    gh_t, ks_t = _dataset(spec, spec.n_table, seed, _TABLE_DATA_TAG, table_input)
    write_seconds = _fixture_table(spec, gh_t, seed, table_path)
    expected_table = checks.ExpectedFit(
        gamma=spec.gamma, gamma_se=checks.gamma_standard_error(spec.gamma, spec.k, spec.n_table),
        gamma_hat=gh_t, ks=ks_t,
        cutoffs=load_table(table_path).cutoffs_for(gh_t, spec.n_table),
    )

    gh_b, ks_b = _dataset(spec, spec.n_bespoke, seed, _BESPOKE_DATA_TAG, bespoke_input)
    bespoke_cell = Cell(spec.k, gh_b, spec.n_bespoke, spec.bespoke_replicates)
    expected_bespoke = checks.ExpectedFit(
        gamma=spec.gamma, gamma_se=checks.gamma_standard_error(spec.gamma, spec.k, spec.n_bespoke),
        gamma_hat=gh_b, ks=ks_b,
        cutoffs=tuple(c for _, c in montecarlo.run_simulation(bespoke_cell.config(seed), workers=2)),
    )

    def bespoke_argv(workers: int) -> list[str]:
        return ["fit", "--input", str(bespoke_input), "--k", label, "--bespoke",
                "--seed", str(seed), "--replicates", str(spec.bespoke_replicates),
                "--reps", "1", "--workers", str(workers), "--machine"]

    return FitFixture(
        table_argv=["fit", "--input", str(table_input), "--k", label,
                    "--table", str(table_path), "--machine"],
        bespoke_argv=bespoke_argv,
        expected_table=expected_table,
        expected_bespoke=expected_bespoke,
        table_input_bytes=table_input.stat().st_size,
        table_write_seconds=write_seconds,
    )


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, wall seconds) of one in-process ``cli.main`` call."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        started = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - started
    return code, buffer.getvalue(), seconds
