import pytest

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
    assert loaded.cutoff(1.25, 10, 0.9) == 0.2792


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
