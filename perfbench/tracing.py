"""Traced runs: spans around the module attributes the engine calls.

Wrappers are installed only while a traced segment runs, and only serial
(workers=1) work is traced, because spans recorded inside forked pool
workers would be lost.  Spans stay in memory, in flat arrays, and are
written out once at the end of the run.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from zipfks import cli, distribution, estimate, montecarlo

import workloads

# KS calls on unbounded fits switch to the sparse endpoint scan above this
# largest observation (the engine's dense-scan limit).
_SPARSE_ABOVE = 4096


class Tracer:
    """Spans as (name, parent, start, end) rows plus event counters."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()

    @property
    def names(self) -> list[str]:
        return list(self._ids)

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, before: Callable | None = None) -> Callable:
        name_id = self._id(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self._close(index)

        return traced

    def _count_replicates(self, config, workers=None) -> None:
        self.counts["replicates"] += config.replicates * config.repetitions

    def _count_sparse_ks(self, drawn, model) -> None:
        if model.support.k is None and int(drawn.observations.max()) > _SPARSE_ABOVE:
            self.counts["gof.sparse"] += 1

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Replace the traced attributes for the duration of the block."""
        targets = [
            (montecarlo, "run_simulation", "montecarlo.run_simulation", self._count_replicates),
            (cli, "run_simulation", "montecarlo.run_simulation", self._count_replicates),
            (montecarlo, "sample", "distribution.sample", None),
            (montecarlo, "mle_gamma", "estimate.mle_gamma", None),
            (montecarlo, "ZipfModel", "distribution.ZipfModel", None),
            (montecarlo, "ks_statistic", "gof.ks_statistic", self._count_sparse_ks),
            (montecarlo, "order_quantiles", "montecarlo.order_quantiles", None),
            (estimate, "log_mean", "estimate.log_mean", None),
            (estimate, "finite_log_moments", "series.finite_log_moments", None),
            (estimate, "zeta_log_moments", "series.zeta_log_moments", None),
            (distribution, "zeta_value", "series.zeta_value", None),
            (cli, "parse_observations", "observations.parse_observations", None),
            (cli, "load_table", "tablefile.load_table", None),
            (workloads, "write_table", "tablefile.write_table", None),
        ]
        saved = []
        try:
            for module, attr, name, before in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, before))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# Spans whose self time is reported, in the order they are printed.
SELF_TIME_SPANS = (
    "bench.calibrate",
    "montecarlo.run_simulation",
    "distribution.sample",
    "estimate.mle_gamma",
    "estimate.log_mean",
    "series.finite_log_moments",
    "series.zeta_log_moments",
    "distribution.ZipfModel",
    "series.zeta_value",
    "gof.ks_statistic",
    "montecarlo.order_quantiles",
    "tablefile.write_table",
    "cli.fit_table",
    "cli.fit_bespoke",
    "observations.parse_observations",
    "tablefile.load_table",
)


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    table_input_bytes: int,
    table_write_fallback_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans: name -> (value, unit)."""
    a = tracer.arrays()
    name_id, parent = a["name_id"], a["parent"]
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
    count = len(dur)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=count)
    self_time = dur - child_time
    # root span of every span; parents always precede their children
    root = np.where(nested, parent, np.arange(count))
    while True:
        up = parent[root] >= 0
        if not up.any():
            break
        root = np.where(up, parent[root], root)

    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name: str) -> np.ndarray:
        return name_id == ids.get(name, -1)

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def total_s(name: str) -> float:
        return float(dur[mask(name)].sum()) * 1e-9

    def us_per_call(name: str) -> float:
        n = calls(name)
        return total_s(name) * 1e6 / n if n else 0.0

    replicates = tracer.counts["replicates"]
    loop_s = total_s("montecarlo.run_simulation")
    fits = calls("estimate.mle_gamma")
    moments = np.isin(name_id, [ids.get("series.finite_log_moments", -1),
                                ids.get("series.zeta_log_moments", -1)])
    in_fit = np.zeros(count, dtype=bool)
    in_fit[nested] = name_id[parent[nested]] == ids.get("estimate.mle_gamma", -1)
    parse_in_table = mask("observations.parse_observations") & (
        name_id[root] == ids.get("cli.fit_table", -1)
    )
    parse_s = float(np.median(dur[parse_in_table])) * 1e-9 if parse_in_table.any() else 0.0
    writes = calls("tablefile.write_table")
    write_ms = (total_s("tablefile.write_table") / writes if writes else table_write_fallback_s) * 1e3
    loads = calls("tablefile.load_table")

    m: dict[str, tuple[float, str]] = {
        "distribution.sample.us_per_call": (us_per_call("distribution.sample"), "us"),
        "distribution.sample.share": (total_s("distribution.sample") / loop_s, "ratio"),
        "distribution.ZipfModel.us_per_call": (us_per_call("distribution.ZipfModel"), "us"),
        "series.zeta_value.calls_per_replicate": (calls("series.zeta_value") / replicates,
                                                  "calls/replicate"),
        "estimate.mle_gamma.us_per_call": (us_per_call("estimate.mle_gamma"), "us"),
        "estimate.mle_gamma.share": (total_s("estimate.mle_gamma") / loop_s, "ratio"),
        "estimate.log_mean.us_per_call": (us_per_call("estimate.log_mean"), "us"),
        "estimate.moment_evals_per_fit": (int((moments & in_fit).sum()) / fits, "evals/fit"),
        "series.finite_log_moments.us_per_call": (us_per_call("series.finite_log_moments"), "us"),
        "series.finite_log_moments.calls_per_replicate": (
            calls("series.finite_log_moments") / replicates, "calls/replicate"),
        "series.zeta_log_moments.us_per_call": (us_per_call("series.zeta_log_moments"), "us"),
        "series.zeta_log_moments.calls_per_replicate": (
            calls("series.zeta_log_moments") / replicates, "calls/replicate"),
        "gof.ks_statistic.us_per_call": (us_per_call("gof.ks_statistic"), "us"),
        "gof.ks_statistic.share": (total_s("gof.ks_statistic") / loop_s, "ratio"),
        "gof.sparse_share": (tracer.counts["gof.sparse"] / calls("gof.ks_statistic"), "ratio"),
        "montecarlo.order_quantiles.ms_per_call": (us_per_call("montecarlo.order_quantiles") / 1e3,
                                                   "ms"),
        "montecarlo.retry_share": (tracer.counts["estimate.mle_gamma.raised"] / replicates, "ratio"),
        "montecarlo.run_simulation.us_per_replicate": (loop_s * 1e6 / replicates, "us"),
        "observations.parse_observations.s": (parse_s, "s"),
        "observations.parse_observations.mb_per_s": (
            table_input_bytes / 1e6 / parse_s if parse_s else 0.0, "MB/s"),
        "tablefile.load_table.ms": (total_s("tablefile.load_table") * 1e3 / loads if loads else 0.0,
                                    "ms"),
        "tablefile.write_table.ms": (write_ms, "ms"),
    }
    for name in SELF_TIME_SPANS:
        share = float(self_time[mask(name)].sum()) * 1e-9 / traced_wall_s
        m[f"{name}.self_share"] = (share, "ratio")
    m["trace.unattributed_share"] = (1.0 - float(self_time.sum()) * 1e-9 / traced_wall_s, "ratio")
    m["trace.spans"] = (float(count), "count")
    return m
