"""What the benchmark in perfbench/ needs of the package, checked by the test suite.

The tracer replaces engine functions by module attribute for a traced run,
and the cold-start probe imports its names from the package root.  A change
that removes one of them would otherwise first fail in a benchmark run.
"""
import contextlib
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from zipfks import estimate

    before = estimate.finite_log_moments
    with tracing.Tracer().installed():
        assert estimate.finite_log_moments is not before
    assert estimate.finite_log_moments is before


def test_cold_start_names_at_the_package_root():
    from zipfks import RandomStream, Support, ZipfModel, sample

    drawn = sample(ZipfModel(2.0, Support(k=None)), 1, RandomStream.for_replicate(0, 0, 0))
    assert drawn.n == 1


def test_fit_reads_its_input_through_the_cli_attribute(tmp_path, capsys, monkeypatch):
    # the tracer times the reader by wrapping cli.parse_observations; a fit
    # that reached the reader another way would read 0 in its metrics
    from zipfks import cli

    calls = []
    parse = cli.parse_observations

    def counting(path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(cli, "parse_observations", counting)
    path = tmp_path / "obs.txt"
    path.write_text("1 1 2\n")
    argv = ["fit", "--input", str(path), "--k", "2", "--bespoke", "--replicates", "100",
            "--reps", "1", "--seed", "1", "--workers", "1", "--machine"]
    assert cli.main(argv) in (0, 1)
    assert calls == [str(path)]
    assert capsys.readouterr().out.startswith("n=3\n")


def test_finite_draws_go_through_the_sample_attribute(monkeypatch, tmp_path):
    # the tracer times the draw by wrapping montecarlo.sample; finite spans
    # must draw their blocks through it, so that grid_k20's traced pass
    # reports the draw layer instead of counting it as engine self time
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    from zipfks import montecarlo
    from zipfks.distribution import Support

    calls = []
    draw = montecarlo.sample

    def counting(model, n, stream, rows=None):
        calls.append(rows)
        return draw(model, n, stream, rows)

    with monkeypatch.context() as patched:
        patched.setattr(montecarlo, "sample", counting)
        config = montecarlo.SimulationConfig(n=100, support=Support.finite(20), gamma=1.0,
                                             base_seed=1, replicates=1100, repetitions=1)
        montecarlo.run_simulation(config, workers=1)
    assert calls == [512, 512, 76]  # one block of rows per span

    tracer = tracing.Tracer()
    with tracer.installed():
        started = time.perf_counter()
        with tracer.span("bench.calibrate"):
            workloads.calibrate(workloads.WORKLOADS["grid_k20"], 1, 1, tmp_path / "grid.csv")
        wall = time.perf_counter() - started
    metrics = tracing.layer_metrics(tracer, wall, 1, 0.0)
    assert metrics["distribution.sample.us_per_call"][0] > 0.0
    assert metrics["distribution.sample.share"][0] > 0.0


def test_the_benchmarks_calls_keep_their_runners(monkeypatch, tmp_path):
    # which runner each benchmark call takes: a change to the rule in
    # montecarlo._runner that moves one of them shows here before it shows
    # as a benchmark regression
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from zipfks import montecarlo

    chosen = []  # (workers, map-like callable) of each runner the engine picks
    runner = montecarlo._runner

    @contextlib.contextmanager
    def recording(workers, seconds):
        with runner(workers, seconds) as picked:
            chosen.append((workers, picked[0]))
            yield picked

    cells = []  # the workers argument of each cell a table runs
    run = montecarlo.run_simulation

    def recorded(config, workers=None):
        cells.append(workers)
        return run(config, workers)

    monkeypatch.setattr(montecarlo, "_runner", recording)
    monkeypatch.setattr(montecarlo, "run_simulation", recorded)
    threads = (2, montecarlo._on_two_threads)
    for name, workload in workloads.WORKLOADS.items():
        chosen.clear()
        cells.clear()
        workloads.calibrate(workload, 1, 2, tmp_path / f"{name}.csv")
        if workload.grid:  # one runner for the grid, whose cells run whole
            assert chosen == [threads]
            assert cells == [(map, 1)] * len(workload.cells)
        else:
            assert chosen == [threads] * len(workload.cells)
        chosen.clear()
        fixture = workloads.prepare_fit(workload.fit, 1, tmp_path)
        # _fixture_table's call, then the expected fit --bespoke cutoffs
        assert chosen == [(1, map), threads]
        chosen.clear()
        code, _, _ = workloads.run_cli(fixture.bespoke_argv(2))
        assert code in (0, 1) and chosen == [threads]
