import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfks.distribution import Support
from zipfks.montecarlo import DEFAULT_LEVELS, CutoffTable, build_table
from zipfks.tablefile import TableFormatError, load_table, write_table


def small_table():
    return build_table(
        ns=(20, 50),
        gammas=(1.0, 1.5),
        support=Support.finite(20),
        base_seed=5,
        replicates=200,
        repetitions=1,
        workers=1,
    )


def test_round_trip_identity(tmp_path):
    table = small_table()
    path = tmp_path / "t.csv"
    write_table(table, path)
    assert load_table(path) == table


def test_unbounded_label_round_trip(tmp_path):
    table = CutoffTable(
        support=Support.unbounded(),
        levels=DEFAULT_LEVELS,
        gammas=(1.25,),
        ns=(10,),
        cells={(1.25, 10): (0.2792, 0.3092, 0.3668, 0.4315)},
        replicates=50000,
        repetitions=10,
        base_seed=1,
    )
    path = tmp_path / "inf.csv"
    write_table(table, path)
    loaded = load_table(path)
    assert loaded == table
    assert loaded.support.k is None
    # first reference row of the unbounded grid: lookup returns the 0.9 cell
    assert loaded.cutoffs_for(1.25, 10)[0] == 0.2792


CUTOFFS = st.lists(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=4, max_size=4
).map(lambda row: tuple(sorted(row)))


@st.composite
def tables(draw):
    """A table on a finite or unbounded support, with any grid, cutoffs and provenance."""
    gammas = draw(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4, unique=True))
    ns = draw(st.lists(st.integers(1, 10**7), min_size=1, max_size=4, unique=True))
    return CutoffTable(
        support=Support(k=draw(st.one_of(st.none(), st.integers(2, 32766)))),
        levels=DEFAULT_LEVELS,
        gammas=tuple(gammas),
        ns=tuple(ns),
        cells={(g, n): draw(CUTOFFS) for g in gammas for n in ns},
        replicates=draw(st.integers(1, 10**6)),
        repetitions=draw(st.integers(1, 100)),
        base_seed=draw(st.integers(0, 2**63 - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_round_trip_property(table):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "t.csv"
        write_table(table, path)
        assert load_table(path) == table


def test_metadata_comments(tmp_path):
    table = small_table()
    path = tmp_path / "t.csv"
    write_table(table, path)
    text = path.read_text()
    assert "# replicates=200" in text
    assert "# repetitions=1" in text
    assert "# seed=5" in text
    assert text.splitlines()[3] == "k_support,gamma,n,q90,q95,q99,q999"


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# seed=1\nk_support,gamma,n,q90,q95,q99\n20,1.0,10,0.1,0.2,0.3\n")
    with pytest.raises(TableFormatError, match="header"):
        load_table(path)


def test_non_monotone_quantiles_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "k_support,gamma,n,q90,q95,q99,q999\n20,1.0,10,0.2,0.1,0.3,0.4\n"
    )
    with pytest.raises(TableFormatError, match="nondecreasing"):
        load_table(path)


def test_short_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k_support,gamma,n,q90,q95,q99,q999\n20,1.0,10,0.1,0.2,0.3\n")
    with pytest.raises(TableFormatError, match="7 columns"):
        load_table(path)


def test_mixed_supports_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "k_support,gamma,n,q90,q95,q99,q999\n"
        "20,1.0,10,0.1,0.2,0.3,0.4\n"
        "50,1.0,10,0.1,0.2,0.3,0.4\n"
    )
    with pytest.raises(TableFormatError, match="mixed"):
        load_table(path)


def test_incomplete_grid_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "k_support,gamma,n,q90,q95,q99,q999\n"
        "20,1.0,10,0.1,0.2,0.3,0.4\n"
        "20,1.5,20,0.1,0.2,0.3,0.4\n"
    )
    with pytest.raises(TableFormatError, match="incomplete"):
        load_table(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(TableFormatError, match="missing header"):
        load_table(path)


def test_cutoffs_outside_unit_interval_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k_support,gamma,n,q90,q95,q99,q999\n20,1.0,10,0.1,0.2,0.3,1.4\n")
    with pytest.raises(TableFormatError, match=r"\(0, 1\)"):
        load_table(path)


@pytest.mark.parametrize("key", ["replicates", "repetitions", "seed"])
def test_missing_provenance_rejected(tmp_path, key):
    table = small_table()
    path = tmp_path / "t.csv"
    write_table(table, path)
    lines = [line for line in path.read_text().splitlines() if not line.startswith(f"# {key}=")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableFormatError, match=f"missing provenance line '# {key}='"):
        load_table(path)
