"""End-to-end command-line behaviour, including the exit-code contract."""
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from zipfks import cli
from zipfks.distribution import RandomStream, Sample, Support, ZipfModel, sample
from zipfks.montecarlo import SimulationConfig, run_simulation
from zipfks.observations import write_observations
from zipfks.tablefile import load_table

from oracles import token_loop_observations


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "zipfks", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_sample(tmp_path, gamma, support_k, n, seed, name="obs.txt"):
    model = ZipfModel(gamma, Support(k=support_k))
    drawn = sample(model, n, RandomStream.for_replicate(seed, 0, 0))
    path = tmp_path / name
    write_observations(drawn, path)
    return path


class TestSimulate:
    def test_writes_table_and_reports_cells(self, tmp_path):
        out = tmp_path / "t.csv"
        result = run_cli(
            "simulate", "--n", "20,50", "--gamma", "1.5", "--k", "20",
            "--replicates", "200", "--reps", "1", "--seed", "9",
            "--out", str(out), "--workers", "1",
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()
        assert "cell gamma=1.5 n=20" in result.stdout
        assert "wrote" in result.stdout
        table = load_table(out)
        assert table.ns == (20, 50)
        assert table.base_seed == 9

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outputs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            result = run_cli(
                "simulate", "--n", "30", "--gamma", "1.0,2.0", "--k", "20",
                "--replicates", "200", "--reps", "2", "--seed", "4",
                "--out", str(out), "--workers", workers,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unbounded_with_low_gamma_is_usage_error(self, tmp_path):
        out = tmp_path / "t.csv"
        result = run_cli(
            "simulate", "--n", "10", "--gamma", "0.5", "--k", "inf",
            "--out", str(out),
        )
        assert result.returncode == 2
        assert "unbounded support requires gamma >= 1.05" in result.stderr
        assert "cell" not in result.stdout
        assert not out.exists()

    def test_non_positive_exponents_on_finite_support(self, tmp_path):
        # fit --bespoke calibrates negative estimates, so simulate takes them too;
        # a list that starts with a minus sign needs the --gamma=LIST form
        out = tmp_path / "t.csv"
        result = run_cli(
            "simulate", "--k", "20", "--n", "10", "--gamma=-1,0", "--replicates", "200",
            "--reps", "1", "--seed", "3", "--out", str(out), "--workers", "1",
        )
        assert result.returncode == 0, result.stderr
        table = load_table(out)
        assert table.gammas == (-1.0, 0.0)
        for gamma in table.gammas:
            config = SimulationConfig(n=10, support=Support.finite(20), gamma=gamma,
                                      base_seed=3, replicates=200, repetitions=1)
            pairs = run_simulation(config, 1)
            assert table.cells[(gamma, 10)] == tuple(cutoff for _, cutoff in pairs)

    @pytest.mark.parametrize("flag,values,repeated", [("--n", "10,10", "10"),
                                                       ("--gamma", "1.0,1", "1.0")])
    def test_repeated_grid_value_is_usage_error(self, tmp_path, flag, values, repeated):
        # a repeated value would simulate its cells twice and write a table
        # that load_table rejects as holding duplicate cells
        grid = {"--n": "10", "--gamma": "1.5", flag: values}
        out = tmp_path / "t.csv"
        result = run_cli(
            "simulate", "--n", grid["--n"], "--gamma", grid["--gamma"], "--k", "20",
            "--replicates", "100", "--reps", "1", "--seed", "1", "--out", str(out),
            "--workers", "1",
        )
        assert result.returncode == 2
        assert f"grid repeats the value {repeated}" in result.stderr
        assert not out.exists()

    def test_missing_seed_warns_on_stderr(self, tmp_path):
        result = run_cli(
            "simulate", "--n", "10", "--gamma", "1.5", "--k", "20",
            "--replicates", "100", "--reps", "1",
            "--out", str(tmp_path / "t.csv"), "--workers", "1",
        )
        assert result.returncode == 0, result.stderr
        assert "time-derived seed" in result.stderr

    def test_bad_flag_combination_exits_2(self, tmp_path):
        result = run_cli("simulate", "--n", "ten", "--gamma", "1.5", "--k", "20",
                         "--out", str(tmp_path / "t.csv"))
        assert result.returncode == 2

    def test_non_standard_quantiles_rejected_before_running(self, tmp_path):
        # the table schema holds the four standard levels only, so there is
        # no flag to choose others: argparse rejects it before any work
        out = tmp_path / "t.csv"
        result = run_cli(
            "simulate", "--n", "10", "--gamma", "1.5", "--k", "20",
            "--quantiles", "0.9,0.95,0.99,0.999", "--seed", "1", "--out", str(out),
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --quantiles" in result.stderr
        assert result.stdout == ""
        assert not out.exists()


class TestFit:
    def test_perfect_tiny_fit(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1 1 2\n")
        result = run_cli(
            "fit", "--input", str(path), "--k", "2", "--bespoke",
            "--replicates", "100", "--reps", "1", "--seed", "3", "--workers", "1",
        )
        assert result.returncode == 0, result.stderr
        assert "gamma_hat:     1.0000" in result.stdout
        assert "ks_statistic:  0.0000" in result.stdout
        assert "not rejected" in result.stdout

    def test_machine_output_block(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1 1 2\n")
        result = run_cli(
            "fit", "--input", str(path), "--k", "2", "--bespoke",
            "--replicates", "100", "--reps", "1", "--seed", "3",
            "--workers", "1", "--machine",
        )
        assert result.returncode == 0, result.stderr
        lines = dict(line.split("=", 1) for line in result.stdout.strip().splitlines())
        assert lines["n"] == "3"
        assert lines["k_support"] == "2"
        assert float(lines["gamma_hat"]) == pytest.approx(1.0, abs=1e-5)
        assert float(lines["ks"]) < 1e-12
        assert lines["rejected_q90"] == "false"
        assert "cutoff_q999" in lines
        assert list(lines)[-3:] == ["rejected_q999", "gamma_hat_at_bound", "gamma_hat_se"]
        assert lines["gamma_hat_at_bound"] == "false"

    def test_data_piled_near_k_calibrates(self, tmp_path, capsys):
        # gamma_hat = -16.1: some replicates pile onto K and fit -20, the
        # search range's end; before they did, replicate 12 aborted the run
        path = tmp_path / "obs.txt"
        path.write_text("20 20 19 20 18 20 17 20 20 19\n")
        args = ["fit", "--input", str(path), "--k", "20", "--bespoke", "--seed", "3",
                "--replicates", "2000", "--reps", "1"]
        assert cli.main(args) in (0, 1)
        assert "note:" not in capsys.readouterr().out
        assert cli.main(args + ["--machine"]) in (0, 1)
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert -20.0 < float(lines["gamma_hat"]) < -16.0
        assert lines["gamma_hat_at_bound"] == "false"

    def test_estimate_at_the_search_range_end_is_reported(self, tmp_path, capsys):
        # the all-at-K nudge cannot bring the root of 20 20 20 into [-20, 20]
        path = tmp_path / "obs.txt"
        path.write_text("20 20 20\n")
        args = ["fit", "--input", str(path), "--k", "20", "--bespoke", "--seed", "3",
                "--replicates", "200", "--reps", "1"]
        assert cli.main(args + ["--machine"]) in (0, 1)
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["gamma_hat"] == "-20.0"
        assert lines["gamma_hat_at_bound"] == "true"
        assert cli.main(args) in (0, 1)
        human = capsys.readouterr().out.splitlines()
        assert human[2] == "gamma_hat:     -20.0000"
        assert human[3].startswith("note:          gamma_hat is an end of the search range")

    @pytest.mark.parametrize("gamma,support_k,n", [(1.0, 20, 500), (2.0, None, 1000)])
    def test_gamma_hat_standard_error_against_mpmath(self, tmp_path, capsys, gamma, support_k, n):
        # 1 / sqrt(n Var ln X) at gamma_hat, the sums taken in 50 digits
        path = write_sample(tmp_path, gamma, support_k, n, seed=4)
        args = ["fit", "--input", str(path), "--k", "inf" if support_k is None else str(support_k),
                "--bespoke", "--seed", "3", "--replicates", "100", "--reps", "1", "--workers", "1"]
        assert cli.main(args + ["--machine"]) in (0, 1)
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        with mpmath.workdps(50):
            gamma_hat = mpmath.mpf(float(lines["gamma_hat"]))
            if support_k is None:
                s0, s1, s2 = (mpmath.zeta(gamma_hat, 1, p) * (-1) ** p for p in range(3))
            else:
                s0, s1, s2 = (mpmath.fsum(mpmath.power(j, -gamma_hat) * mpmath.log(j) ** p
                                          for j in range(1, support_k + 1)) for p in range(3))
            want = 1 / mpmath.sqrt(n * (s2 / s0 - (s1 / s0) ** 2))
        assert float(lines["gamma_hat_se"]) == pytest.approx(float(want), rel=1e-9)
        assert cli.main(args) in (0, 1)
        human = capsys.readouterr().out.splitlines()
        assert human[3] == f"gamma_hat_se:  {float(lines['gamma_hat_se']):.3g} (Fisher information at gamma_hat)"

    def test_table_lookup_flow(self, tmp_path):
        from zipfks.estimate import mle_gamma
        from zipfks.observations import parse_observations

        obs = write_sample(tmp_path, 2.0, 100, 200, seed=6)
        # tabulate the estimate rounded to 2 decimals so the +-0.005 lookup
        # window applies deterministically
        gamma_hat = mle_gamma(parse_observations(obs), Support.finite(100))
        table_path = tmp_path / "t.csv"
        build = run_cli(
            "simulate", "--n", "200", "--gamma", f"{round(gamma_hat, 2)}", "--k", "100",
            "--replicates", "400", "--reps", "1", "--seed", "11",
            "--out", str(table_path), "--workers", "2",
        )
        assert build.returncode == 0, build.stderr
        result = run_cli("fit", "--input", str(obs), "--k", "100", "--table", str(table_path))
        assert result.returncode in (0, 1), result.stderr + result.stdout
        assert f"table {table_path}" in result.stdout
        # the exit code must mirror the 0.9-level verdict line
        line09 = next(
            line for line in result.stdout.splitlines()
            if line.strip().startswith("level 0.9 ")
        )
        assert result.returncode == (1 if "REJECTED" in line09 else 0)

    def test_table_lookup_without_grid_match_directs_to_bespoke(self, tmp_path):
        table_path = tmp_path / "t.csv"
        build = run_cli(
            "simulate", "--n", "200", "--gamma", "3.5", "--k", "100",
            "--replicates", "400", "--reps", "1", "--seed", "11",
            "--out", str(table_path), "--workers", "1",
        )
        assert build.returncode == 0, build.stderr
        obs = write_sample(tmp_path, 2.0, 100, 200, seed=6)
        result = run_cli("fit", "--input", str(obs), "--k", "100", "--table", str(table_path))
        assert result.returncode == 2
        assert "--bespoke" in result.stderr

    def test_table_support_mismatch_is_usage_error(self, tmp_path):
        table_path = tmp_path / "t.csv"
        run_cli(
            "simulate", "--n", "50", "--gamma", "2.0", "--k", "50",
            "--replicates", "200", "--reps", "1", "--seed", "11",
            "--out", str(table_path), "--workers", "1",
        )
        obs = write_sample(tmp_path, 2.0, 50, 50, seed=6)
        result = run_cli("fit", "--input", str(obs), "--k", "100", "--table", str(table_path))
        assert result.returncode == 2
        assert "tabulates support" in result.stderr

    def test_geometric_data_rejected(self, tmp_path):
        # exponential decay is far from any power law at this sample size
        rng = np.random.default_rng(2)
        values = np.minimum(rng.geometric(0.5, size=2000), 100)
        path = tmp_path / "geo.txt"
        path.write_text("\n".join(str(int(v)) for v in values))
        result = run_cli(
            "fit", "--input", str(path), "--k", "100", "--bespoke",
            "--replicates", "400", "--reps", "1", "--seed", "8", "--workers", "2",
        )
        assert result.returncode == 1, result.stderr + result.stdout
        assert "REJECTED" in result.stdout

    def test_observations_above_support_are_usage_error(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1 2 300\n")
        result = run_cli("fit", "--input", str(path), "--k", "100", "--bespoke")
        assert result.returncode == 2
        assert "exceed the declared support" in result.stderr

    def test_parse_error_is_usage_error(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1 0 2\n")
        result = run_cli("fit", "--input", str(path), "--k", "100", "--bespoke")
        assert result.returncode == 2
        assert "token 2" in result.stderr

    def test_undecodable_input_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "obs.txt"
        path.write_bytes(b"1 2\n3 4\xff\n")
        assert cli.main(["fit", "--input", str(path), "--k", "20", "--bespoke"]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2, token 2: b'4\\xff' is not UTF-8\n"

    def test_unreadable_paths_exit_2(self, tmp_path, capsys):
        # exit 1 means "rejected at the 0.9 level", so an unusable path must not crash into it
        obs = tmp_path / "obs.txt"
        obs.write_text("1 1 2\n")
        folder = tmp_path / "folder"
        folder.mkdir()
        missing = tmp_path / "missing.txt"
        simulate = ["simulate", "--n", "3", "--gamma", "1.0", "--k", "2", "--replicates", "100",
                    "--reps", "1", "--seed", "1", "--workers", "1", "--out"]
        tables = ["tables", "--k", "20", "--replicates", "100", "--reps", "1", "--seed", "1",
                  "--out"]
        for argv, reason in [
            (["fit", "--input", str(folder), "--k", "2", "--bespoke"], f"{folder}: Is a directory"),
            (["fit", "--input", str(obs), "--k", "2", "--table", str(folder)],
             f"{folder}: Is a directory"),
            (["fit", "--input", str(missing), "--k", "2", "--bespoke"],
             f"{missing}: No such file or directory"),
            (simulate + [str(folder)], f"{folder}: Is a directory"),
            (simulate + [str(missing / "t.csv")], f"{missing / 't.csv'}: No such file or directory"),
            (tables + [str(folder)], f"{folder}: Is a directory"),
        ]:
            assert cli.main(argv) == 2
            # the --out path is checked before any cell runs and prints its line
            assert capsys.readouterr() == ("", f"error: {reason}\n")

    @pytest.mark.parametrize("k", [20, None])
    def test_machine_output_equals_the_token_loop_fit(self, tmp_path, capsys, monkeypatch, k):
        # the file's block-by-block (value, count) pairs give the same report,
        # bit for bit, as a Sample of every observation in file order; on the
        # unbounded support some values lie above the draw's 65535
        values = sample(ZipfModel(1.5, Support(k=k)), 30_000, RandomStream([12])).observations
        path = tmp_path / "obs.txt"
        extra = [] if k is not None else [70_000, 123_456, 10**7, 70_000, 2**40]
        path.write_text("\n".join(map(str, values.tolist() + extra)) + "\n")
        argv = ["fit", "--input", str(path), "--k", "inf" if k is None else str(k), "--bespoke",
                "--replicates", "128", "--reps", "1", "--seed", "5", "--workers", "1", "--machine"]
        code = cli.main(argv)
        by_counts = capsys.readouterr().out
        monkeypatch.setattr(cli, "parse_observations",
                            lambda where: Sample(token_loop_observations(where)))
        assert cli.main(argv) == code
        assert capsys.readouterr().out == by_counts
        assert f"n={values.size + len(extra)}\n" in by_counts

    def test_requires_exactly_one_cutoff_source(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1 1 2\n")
        neither = run_cli("fit", "--input", str(path), "--k", "2")
        assert neither.returncode == 2
        both = run_cli("fit", "--input", str(path), "--k", "2", "--bespoke", "--table", "x.csv")
        assert both.returncode == 2

    def test_table_and_bespoke_verdicts_agree_away_from_cutoff(self, tmp_path):
        # a perfect tiny fit sits far below every cutoff, so both cutoff
        # sources must return the same verdicts and exit code
        obs = tmp_path / "obs.txt"
        obs.write_text("1 1 2\n")
        table_path = tmp_path / "t.csv"
        build = run_cli(
            "simulate", "--n", "3", "--gamma", "1.0", "--k", "2",
            "--replicates", "2000", "--reps", "1", "--seed", "21",
            "--out", str(table_path), "--workers", "1",
        )
        assert build.returncode == 0, build.stderr
        via_table = run_cli("fit", "--input", str(obs), "--k", "2",
                            "--table", str(table_path))
        via_bespoke = run_cli(
            "fit", "--input", str(obs), "--k", "2", "--bespoke",
            "--replicates", "2000", "--reps", "1", "--seed", "21", "--workers", "1",
        )
        assert via_table.returncode == 0, via_table.stderr + via_table.stdout
        assert via_bespoke.returncode == 0, via_bespoke.stderr
        assert via_table.stdout.count("not rejected") == 4
        assert via_bespoke.stdout.count("not rejected") == 4


class TestTables:
    def test_full_grid_shape_for_finite_support(self, tmp_path):
        out = tmp_path / "grid.csv"
        result = run_cli(
            "tables", "--k", "20", "--replicates", "100", "--reps", "1",
            "--seed", "13", "--out", str(out), "--workers", "2",
            timeout=1200,
        )
        assert result.returncode == 0, result.stderr
        table = load_table(out)
        assert len(table.gammas) == 12
        assert len(table.ns) == 15
        assert len(table.cells) == 180
