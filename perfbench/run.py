"""Calibration benchmark for zipfks.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid_k20|cells_inf --seed N \
        --seconds S --trace 0|1

Prints one ``metric NAME VALUE UNIT`` line per metric, the run's provenance,
and as the last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the serial passes with spans and reports the per-layer
metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Printed but left out of the result line, so that BENCHMARK.json puts no
# bound on them: failed_share is 0 on correct code (the result line's
# failed/attempted carry it), and fit_table_s, a pure-Python parse, moved by
# up to 0.42 (quartile spread over median, ten seeds) when the host was busy.
PRINT_ONLY = {"failed_share", "fit_table_s"}


def parse_args(argv: list[str] | None, workload_names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must lie in [0, 2^63)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "zipfks" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/zipfks", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    result = harness.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    tally = result.pop("tally")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    for label, ms in result["cell_ms_per_replicate"].items():
        print(f"cell {label} ms/replicate " + " ".join(f"{w}={v:.4f}" for w, v in ms.items()))
    for failure in tally.failures:
        print(f"check failed: {failure}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items() if name not in PRINT_ONLY}
    harness.OUT.mkdir(exist_ok=True)
    record = dict(result, metrics=metrics)
    path = harness.OUT / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
