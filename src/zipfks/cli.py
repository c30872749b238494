"""Command-line interface: ``simulate``, ``fit`` and ``tables`` subcommands."""
from __future__ import annotations

import argparse
import sys
import time

from .distribution import Support, ZipfModel, MIN_UNBOUNDED_GAMMA
from .estimate import _search_range, mle_gamma, standard_error
from .gof import judge, ks_statistic
from .montecarlo import (
    DEFAULT_REPETITIONS,
    DEFAULT_REPLICATES,
    CutoffLookupError,
    SimulationConfig,
    SimulationError,
    build_table,
    run_simulation,
)
from .observations import ObservationParseError, parse_observations
from .reporting import FitReport, format_human, format_machine
from .tablefile import TableFormatError, load_table, write_table

# Sample-size and exponent grids of the shipped reference tables.
REFERENCE_NS = (10, 20, 30, 40, 50, 100, 500, 1000, 2000, 3000, 4000, 5000, 10000, 20000, 50000)
REFERENCE_GAMMAS_FINITE = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0)
REFERENCE_GAMMAS_UNBOUNDED = (1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0)


class UsageError(Exception):
    """Bad flag combination or unusable input; exits with status 2."""


def _parse_support(text: str) -> Support:
    if text.strip().lower() == "inf":
        return Support.unbounded()
    try:
        return Support.finite(int(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _list_of(cast: type, what: str):
    """An argparse type: comma-separated values, each read by ``cast``."""

    def parse(text: str) -> tuple:
        try:
            return tuple(cast(tok) for tok in text.split(",") if tok.strip())
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}: {err}") from None

    return parse


def _parse_workers(text: str) -> int | None:
    if text.strip().lower() == "auto":
        return None
    try:
        value = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto': {err}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("worker count must be >= 1")
    return value


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    derived = time.time_ns() & ((1 << 63) - 1)
    print(
        f"warning: --seed not given; using time-derived seed {derived} "
        f"(pass --seed for reproducible output)",
        file=sys.stderr,
    )
    return derived


def _check_gamma_grid(gammas: tuple[float, ...], support: Support) -> None:
    if support.k is None:
        bad = [g for g in gammas if g < MIN_UNBOUNDED_GAMMA]
        if bad:
            raise UsageError(
                f"gamma values {bad} are invalid with --k inf "
                f"(the unbounded model needs gamma >= {MIN_UNBOUNDED_GAMMA})"
            )
    else:
        bad = [g for g in gammas if g <= 0.0]
        if bad:
            raise UsageError(f"gamma values {bad} are invalid: simulation needs gamma > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipfks",
        description=(
            "Fit the discrete power-law (Zipf) distribution by maximum likelihood and "
            "test the fit with simulation-calibrated Kolmogorov-Smirnov cutoffs."
        ),
    )
    # the flags every subcommand takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=_parse_support, required=True, metavar="INT|inf",
                        help="support bound, or 'inf' for the unbounded model")
    common.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    common.add_argument("--reps", type=int, default=DEFAULT_REPETITIONS,
                        help="independent repetitions averaged per cell")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--workers", type=_parse_workers, default=None, metavar="INT|auto")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", parents=[common],
        help="compute cutoff tables over an (n, gamma) grid and write a CSV",
    )
    simulate.add_argument("--n", type=_list_of(int, "integers"), required=True, metavar="LIST",
                          help="comma-separated sample sizes")
    simulate.add_argument("--gamma", type=_list_of(float, "numbers"), required=True,
                          metavar="LIST", help="comma-separated exponents")
    simulate.add_argument("--out", required=True, help="output CSV path")

    fit = sub.add_parser("fit", parents=[common], help="fit one observation file and judge the fit")
    fit.add_argument("--input", required=True, help="observation file (positive integers)")
    source = fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--table", help="cutoff CSV; requires an exact (n, gamma) grid match")
    source.add_argument("--bespoke", action="store_true",
                        help="simulate cutoffs at the estimated exponent and exact n")
    fit.add_argument("--machine", action="store_true",
                     help="emit a key=value block instead of the human report")

    tables = sub.add_parser(
        "tables", parents=[common], help="compute the full reference grid for one support"
    )
    tables.add_argument("--out", required=True)
    return parser


def _write_grid(
    ns: tuple[int, ...],
    gammas: tuple[float, ...],
    support: Support,
    replicates: int,
    reps: int,
    seed: int | None,
    out: str,
    workers: int | None,
) -> int:
    """Compute the (n, gamma) cutoff grid, printing each cell, and write it to ``out``."""
    _check_gamma_grid(gammas, support)
    seed = _resolve_seed(seed)

    def progress(gamma: float, n: int, seconds: float, row: tuple[float, ...]) -> None:
        cutoffs = " ".join(f"{c:.4f}" for c in row)
        print(f"cell gamma={gamma:g} n={n}: {seconds:.2f}s  cutoffs {cutoffs}", flush=True)

    table = build_table(
        ns=ns,
        gammas=gammas,
        support=support,
        base_seed=seed,
        replicates=replicates,
        repetitions=reps,
        workers=workers,
        progress=progress,
    )
    write_table(table, out)
    print(
        f"wrote {out}: {len(gammas) * len(ns)} cells, "
        f"replicates={replicates}, repetitions={reps}, seed={seed}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _write_grid(args.n, args.gamma, args.k, args.replicates, args.reps, args.seed,
                       args.out, args.workers)


def _cmd_tables(args: argparse.Namespace) -> int:
    gammas = REFERENCE_GAMMAS_UNBOUNDED if args.k.k is None else REFERENCE_GAMMAS_FINITE
    return _write_grid(REFERENCE_NS, gammas, args.k, args.replicates, args.reps, args.seed,
                       args.out, args.workers)


def _cmd_fit(args: argparse.Namespace) -> int:
    support = args.k
    try:
        sample = parse_observations(args.input)
    except ObservationParseError as err:
        raise UsageError(str(err)) from None
    if not support.contains(sample.distinct[0]):
        raise UsageError(
            f"{args.input}: observations exceed the declared support 1..{support}"
        )
    gamma_hat = mle_gamma(sample, support)
    fitted = ZipfModel(gamma=gamma_hat, support=support)
    ks = ks_statistic(sample, fitted)

    if args.table is not None:
        try:
            table = load_table(args.table)
        except TableFormatError as err:
            raise UsageError(str(err)) from None
        if table.support != support:
            raise UsageError(
                f"{args.table} tabulates support {table.support}, but --k {support} was given"
            )
        try:
            cutoffs = table.cutoffs_for(gamma_hat, sample.n)
        except CutoffLookupError as err:
            raise UsageError(f"{err} (rerun with --bespoke)") from None
        levels = table.levels
        source = f"table {args.table}"
    else:
        seed = _resolve_seed(args.seed)
        config = SimulationConfig(
            n=sample.n,
            support=support,
            gamma=gamma_hat,
            base_seed=seed,
            replicates=args.replicates,
            repetitions=args.reps,
        )
        pairs = run_simulation(config, args.workers)
        levels = tuple(level for level, _ in pairs)
        cutoffs = tuple(cutoff for _, cutoff in pairs)
        source = (
            f"bespoke simulation (replicates={args.replicates}, "
            f"repetitions={args.reps}, seed={seed})"
        )

    verdicts = tuple(
        judge(ks.statistic, cutoff, level) for level, cutoff in zip(levels, cutoffs)
    )
    report = FitReport(
        n=sample.n,
        support=support,
        gamma_hat=gamma_hat,
        gamma_hat_at_bound=gamma_hat in _search_range(support),
        gamma_hat_se=standard_error(gamma_hat, sample.n, support),
        ks=ks.statistic,
        ks_argmax=ks.argmax_k,
        cutoff_source=source,
        verdicts=verdicts,
    )
    print(format_machine(report) if args.machine else format_human(report))
    return 1 if report.rejected_at(0.9) else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_tables(args)
    except (UsageError, SimulationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # a missing file, a directory, a denied permission
        where = f"{err.filename}: " if err.filename is not None else ""
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
