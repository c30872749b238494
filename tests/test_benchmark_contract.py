"""What the benchmark in perfbench/ needs of the package, checked by the test suite.

The tracer replaces engine functions by module attribute for a traced run,
and the cold-start probe imports its names from the package root.  A change
that removes one of them would otherwise first fail in a benchmark run.
"""
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
