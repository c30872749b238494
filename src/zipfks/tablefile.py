"""Cutoff-table CSV files.

Layout (round-trips exactly; floats are written with repr precision):

    # replicates=50000
    # repetitions=10
    # seed=1
    k_support,gamma,n,q90,q95,q99,q999
    20,0.25,10,0.2486,...

k_support is an integer or the literal ``inf``.  The three comment lines
are required: a table without them cannot say how it was made.
"""
from __future__ import annotations

import os

from .distribution import Support
from .montecarlo import DEFAULT_LEVELS, CutoffTable

_HEADER = "k_support,gamma,n,q90,q95,q99,q999"

# Comment lines every table file must hold: how its cutoffs were simulated.
_PROVENANCE = ("replicates", "repetitions", "seed")


class TableFormatError(ValueError):
    """The file does not parse back into a cutoff table."""


def write_table(table: CutoffTable, path: str | os.PathLike) -> None:
    """Serialize; only tables at the standard four quantile levels fit the schema."""
    if table.levels != DEFAULT_LEVELS:
        raise TableFormatError(
            f"the table file schema holds levels {DEFAULT_LEVELS}, got {table.levels}"
        )
    label = str(table.support)
    lines = [
        f"# replicates={table.replicates}",
        f"# repetitions={table.repetitions}",
        f"# seed={table.base_seed}",
        _HEADER,
    ]
    for gamma in table.gammas:
        for n in table.ns:
            row = table.cells[(gamma, n)]
            cutoffs = ",".join(repr(c) for c in row)
            lines.append(f"{label},{gamma!r},{n},{cutoffs}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_table(path: str | os.PathLike) -> CutoffTable:
    """Round-trip inverse of write_table, with format validation."""
    metadata: dict[str, int] = {}
    rows: list[tuple[str, float, int, tuple[float, ...]]] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, _, value = body.partition("=")
                key = key.strip()
                if key in _PROVENANCE:
                    try:
                        metadata[key] = int(value.strip())
                    except ValueError as err:
                        raise TableFormatError(f"{path}: line {line_no}: bad {key}") from err
                continue
            if not header_seen:
                if line != _HEADER:
                    raise TableFormatError(
                        f"{path}: line {line_no}: header must be exactly {_HEADER!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise TableFormatError(f"{path}: line {line_no}: expected 7 columns")
            label = parts[0]
            try:
                gamma = float(parts[1])
                n = int(parts[2])
                cutoffs = tuple(float(c) for c in parts[3:])
            except ValueError as err:
                raise TableFormatError(f"{path}: line {line_no}: {err}") from err
            if any(b < a for a, b in zip(cutoffs, cutoffs[1:])):
                raise TableFormatError(
                    f"{path}: line {line_no}: quantile columns must be nondecreasing"
                )
            if any(not 0.0 < c < 1.0 for c in cutoffs):
                raise TableFormatError(f"{path}: line {line_no}: cutoffs must lie in (0, 1)")
            rows.append((label, gamma, n, cutoffs))
    if not header_seen:
        raise TableFormatError(f"{path}: missing header line {_HEADER!r}")
    if not rows:
        raise TableFormatError(f"{path}: no table rows")
    labels = {label for label, _, _, _ in rows}
    if len(labels) != 1:
        raise TableFormatError(f"{path}: mixed k_support values {sorted(labels)}")
    label = labels.pop()
    if label == "inf":
        support = Support.unbounded()
    else:
        try:
            support = Support.finite(int(label))
        except ValueError as err:
            raise TableFormatError(f"{path}: bad k_support {label!r}: {err}") from err
    gammas: list[float] = []
    ns: list[int] = []
    cells: dict[tuple[float, int], tuple[float, ...]] = {}
    for _, gamma, n, cutoffs in rows:
        if gamma not in gammas:
            gammas.append(gamma)
        if n not in ns:
            ns.append(n)
        if (gamma, n) in cells:
            raise TableFormatError(f"{path}: duplicate cell (gamma={gamma}, n={n})")
        cells[(gamma, n)] = cutoffs
    missing = [(g, n) for g in gammas for n in ns if (g, n) not in cells]
    if missing:
        raise TableFormatError(f"{path}: incomplete grid, missing cells {missing[:4]}")
    for key in _PROVENANCE:
        if key not in metadata:
            raise TableFormatError(f"{path}: missing provenance line '# {key}='")
    return CutoffTable(
        support=support,
        levels=DEFAULT_LEVELS,
        gammas=tuple(gammas),
        ns=tuple(ns),
        cells=cells,
        replicates=metadata["replicates"],
        repetitions=metadata["repetitions"],
        base_seed=metadata["seed"],
    )
