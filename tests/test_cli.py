import io
import json

import numpy as np
import pytest

from convexgof import cli, load_table, p_value, simulate_null
from convexgof.generators import parse_generator_spec


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def data_files(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    z = tmp_path / "z.csv"
    x.write_text("1.0\n3.0\n")
    y.write_text("2.0\n4.0\n")
    z.write_text("0.5\n1.5\n2.5\n")
    return tmp_path, str(x), str(y), str(z)


class TestTest2Command:
    def test_worked_example_report(self, data_files):
        _, x, y, _ = data_files
        code, out, err = run_cli(["test2", "--h", "power:2", "--x", x, "--y", y,
                                  "--B", "999", "--seed", "42", "--deterministic"])
        assert code == 0, err
        doc = json.loads(out)
        assert abs(doc["statistic"]["value"] - 1.0 / 12.0) < 1e-12
        assert doc["statistic"]["raw_functional"] == 0.75
        assert doc["null_table"]["B"] == 999
        assert doc["null_table"]["seed"] == 42
        # at sizes (2,2) the exact null support is {1/12, 1/3}; the observed
        # value is its minimum, so every replicate ties or exceeds it and the
        # add-one p-value is exactly 1
        assert doc["p_value"] == 1.0
        assert "timestamp" not in doc

    def test_deterministic_output_is_byte_identical(self, data_files):
        _, x, y, _ = data_files
        argv = ["test2", "--h", "power:2", "--x", x, "--y", y,
                "--B", "199", "--seed", "7", "--deterministic"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    def test_report_round_trips_through_table_metadata(self, data_files):
        _, x, y, _ = data_files
        code, out, _ = run_cli(["test2", "--h", "power:2", "--x", x, "--y", y,
                                "--B", "299", "--seed", "5", "--deterministic",
                                "--no-cache"])
        assert code == 0
        doc = json.loads(out)
        meta = doc["null_table"]
        table = simulate_null(meta["kind"], parse_generator_spec(doc["generator"]),
                              tuple(meta["sizes"]), B=meta["B"], seed=meta["seed"])
        assert p_value(table, doc["statistic"]["value"]) == doc["p_value"]

    def test_csv_format(self, data_files):
        _, x, y, _ = data_files
        code, out, _ = run_cli(["test2", "--h", "power:2", "--x", x, "--y", y,
                                "--B", "99", "--seed", "1", "--format", "csv",
                                "--deterministic"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("command,generator,value")
        assert row.startswith("test2,power:2,")

    def test_mid_convention_accepted(self, data_files):
        _, x, y, _ = data_files
        code, out, _ = run_cli(["test2", "--h", "power:2", "--x", x, "--y", y,
                                "--B", "99", "--seed", "1", "--convention", "mid",
                                "--deterministic"])
        assert code == 0
        assert json.loads(out)["convention"] == "mid"

    def test_permutation_method(self, data_files):
        _, x, y, _ = data_files
        code, out, _ = run_cli(["test2", "--h", "power:2", "--x", x, "--y", y,
                                "--B", "99", "--seed", "1", "--method", "permutation",
                                "--deterministic"])
        assert code == 0
        assert json.loads(out)["method"] == "permutation"


class TestErrorPaths:
    def test_testk_needs_two_samples(self, data_files):
        _, x, _, _ = data_files
        code, _, err = run_cli(["testk", "--h", "power:2", "--inputs", x])
        assert code == cli.EXIT_CONFIG
        assert "testk requires at least two samples" in err

    def test_unknown_generator_family(self, data_files):
        _, x, y, _ = data_files
        code, _, err = run_cli(["test2", "--h", "gauss:1", "--x", x, "--y", y])
        assert code == cli.EXIT_CONFIG
        assert "gauss" in err

    def test_wrong_generator_kind_for_tau(self, data_files):
        _, x, y, _ = data_files
        # expsq:1e-20 rounds xi to 1: a log-linear xi whose every statistic is 0
        for spec, named in (("power:2", "power:2"), ("expsq:1e-20", "alpha")):
            code, out, err = run_cli(["tau", "--xi", spec, "--x", x, "--y", y])
            assert code == cli.EXIT_CONFIG and out == ""
            assert named in err

    def test_missing_file_is_data_error(self, data_files):
        tmp, x, _, _ = data_files
        code, _, err = run_cli(["test2", "--h", "power:2", "--x", x,
                                "--y", str(tmp / "absent.csv")])
        assert code == cli.EXIT_DATA
        assert "absent.csv" in err

    def test_unparsable_token_is_data_error(self, data_files):
        tmp, x, _, _ = data_files
        bad = tmp / "bad.csv"
        bad.write_text("1.0\noops\n")
        code, _, err = run_cli(["test2", "--h", "power:2", "--x", x, "--y", str(bad)])
        assert code == cli.EXIT_DATA
        assert "bad.csv:2" in err

    def test_bad_levels_rejected(self, data_files):
        _, x, y, _ = data_files
        code, _, err = run_cli(["test2", "--h", "power:2", "--x", x, "--y", y,
                                "--levels", "1.5"])
        assert code == cli.EXIT_CONFIG

    def test_argparse_failure_maps_to_config_error(self):
        code, _, _ = run_cli(["test2"])  # missing required flags
        assert code == cli.EXIT_CONFIG

    def test_non_utf8_file_is_data_error(self, data_files):
        tmp, x, _, _ = data_files
        bad = tmp / "utf16.csv"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(["test2", "--h", "power:2", "--x", x, "--y", str(bad)])
        assert code == cli.EXIT_DATA
        assert err.startswith("error:") and str(bad) in err and err.count("\n") == 1

    def test_generator_of_the_wrong_family_is_config_error(self, data_files):
        _, x, y, _ = data_files
        code, _, err = run_cli(["test2", "--h", "expsq:1e308", "--x", x, "--y", y])  # no quadrature
        assert code == cli.EXIT_CONFIG
        assert "not a convex generator" in err

    def test_quadrature_overflow_is_numerical_error(self, data_files):
        _, x, y, _ = data_files
        code, _, err = run_cli(["tau", "--xi", "expsq:400", "--x", x, "--y", y])
        assert code == cli.EXIT_NUMERICAL
        assert "quadrature" in err

    def test_non_finite_statistic_is_numerical_error(self, data_files):
        tmp, _, _, z = data_files
        w = tmp / "w.csv"
        w.write_text("0.7\n1.7\n2.7\n")
        code, out, err = run_cli(["test2", "--h", "poly:0,1e308", "--x", z, "--y", str(w),
                                  "--B", "99"])
        assert code == cli.EXIT_NUMERICAL and out == ""
        assert err.startswith("error:") and "non-finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["test2", "--h", "poly:0,1e308"],  # the kernel's sums overflow
        ["tau", "--xi", "expsq:800"],  # quadrature of xi^2 overflows
        ["test2", "--h", "bernstein:poly:0,1e308:2"],  # sums of finite Bernstein values overflow
        ["test2", "--h", "bernstein:poly:0,1e308:8"],  # the knot values' sum overflows
    ], ids=["poly_overflow", "expsq_quadrature", "bernstein_overflow", "bernstein_knot_sum"])
    def test_numerical_failure_writes_no_warning(self, data_files, argv):
        _, x, y, _ = data_files
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv + ["--x", x, "--y", y, "--B", "99"])
        assert code == cli.EXIT_NUMERICAL
        assert err.startswith("error:") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("case", ["out_is_directory", "cache_dir_is_file", "csv_dir_missing"])
    def test_unusable_path_is_config_error(self, data_files, case):
        tmp, x, y, _ = data_files
        (tmp / "taken").write_text("")
        argv = {
            "out_is_directory": ["null-table", "--kind", "two_sample", "--generator", "power:2",
                                 "--sizes", "2,2", "--B", "9", "--out", str(tmp)],
            "cache_dir_is_file": ["test2", "--h", "power:2", "--x", x, "--y", y, "--B", "9",
                                  "--cache-dir", str(tmp / "taken")],
            "csv_dir_missing": ["verify", "--csv", str(tmp / "absent" / "battery.csv")],
        }[case]
        code, _, err = run_cli(argv)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error:") and err.count("\n") == 1
        flag, path = {
            "out_is_directory": ("--out", tmp),
            "cache_dir_is_file": ("--cache-dir", tmp / "taken"),
            "csv_dir_missing": ("--csv", tmp / "absent" / "battery.csv"),
        }[case]
        assert f"{flag} '{path}'" in err


class TestTauAndKSample:
    def test_tau_command(self, data_files):
        _, x, y, _ = data_files
        code, out, _ = run_cli(["tau", "--xi", "expsq:1", "--x", x, "--y", y,
                                "--B", "199", "--seed", "3", "--deterministic"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["statistic"]["value"] - 0.188632456297257) < 1e-9

    def test_testk_three_samples_with_weights(self, data_files):
        _, x, y, z = data_files
        code, out, _ = run_cli(["testk", "--h", "power:2", "--inputs", x, y, z,
                                "--weights", "0.25,0.25,0.5", "--B", "199",
                                "--seed", "3", "--deterministic"])
        assert code == 0
        doc = json.loads(out)
        assert doc["null_table"]["weights"] == [0.25, 0.25, 0.5]
        assert doc["kind"] == "k_sample"


class TestNullTableCommand:
    def test_saves_and_reloads_bit_identical(self, data_files):
        tmp, _, _, _ = data_files
        out_path = tmp / "table.csv"
        code, out, _ = run_cli(["null-table", "--kind", "two_sample",
                                "--generator", "power:2", "--sizes", "6,6",
                                "--B", "250", "--seed", "11", "--out", str(out_path),
                                "--deterministic"])
        assert code == 0
        loaded = load_table(out_path)
        regenerated = simulate_null("two_sample", parse_generator_spec("power:2"),
                                    (6, 6), B=250, seed=11)
        assert np.array_equal(loaded.replicates, regenerated.replicates)

    def test_cache_hit_reported(self, data_files):
        argv = ["null-table", "--kind", "two_sample", "--generator", "power:2",
                "--sizes", "4,4", "--B", "50", "--seed", "2", "--deterministic"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert json.loads(first)["cache_hit"] is False
        assert json.loads(second)["cache_hit"] is True

    def test_cached_test_reports_match_uncached(self, data_files):
        _, x, y, _ = data_files
        argv = ["test2", "--h", "power:2", "--x", x, "--y", y, "--B", "149",
                "--seed", "9", "--deterministic"]
        _, cold, _ = run_cli(argv)           # populates the cache
        _, warm, _ = run_cli(argv)           # reads it back
        _, bypass, _ = run_cli(argv + ["--no-cache"])
        assert cold == warm == bypass


class TestCacheFiles:
    @pytest.mark.parametrize("damage", [
        lambda text: text[:-7],            # cut inside the last hex token
        lambda text: "not a table\n",      # garbage
    ], ids=["truncated", "garbage"])
    def test_damaged_cache_file_is_rebuilt(self, data_files, damage):
        tmp, x, y, _ = data_files
        argv = ["test2", "--h", "power:2", "--x", x, "--y", y, "--B", "149",
                "--seed", "9", "--deterministic"]
        _, cold, _ = run_cli(argv)
        (path,) = (tmp / "cache").glob("*.csv")
        intact = path.read_text()
        path.write_text(damage(intact))
        code, rebuilt, err = run_cli(argv)
        assert code == 0 and rebuilt == cold
        assert err.startswith("warning:") and str(path) in err and err.count("\n") == 1
        assert path.read_text() == intact
        code, warm, err = run_cli(argv)
        assert code == 0 and warm == cold and err == ""

    @pytest.mark.parametrize("changed", ["sizes", "seed"])
    def test_cache_file_of_another_request_is_rebuilt(self, data_files, changed):
        tmp, x, _, z = data_files

        def argv(y=z, seed="9"):
            return ["test2", "--h", "power:2", "--x", z, "--y", y, "--B", "149",
                    "--seed", seed, "--deterministic"]

        _, cold, _ = run_cli(argv())
        (path,) = (tmp / "cache").glob("*.csv")
        intact = path.read_text()
        assert run_cli(argv(y=x) if changed == "sizes" else argv(seed="10"))[0] == 0
        (foreign,) = set((tmp / "cache").glob("*.csv")) - {path}
        path.write_text(foreign.read_text())
        code, rebuilt, err = run_cli(argv())
        assert code == 0 and rebuilt == cold
        assert err.startswith("warning:") and str(path) in err and err.count("\n") == 1
        assert path.read_text() == intact


    def test_default_weight_k_sample_table_is_a_hit(self, data_files):
        tmp, x, y, z = data_files
        argv = ["testk", "--h", "power:2", "--inputs", x, y, z, "--B", "149",
                "--seed", "9", "--deterministic"]
        code, cold, err = run_cli(argv)
        assert code == 0 and err == ""
        (path,) = (tmp / "cache").glob("*.csv")
        stamp = path.stat().st_mtime_ns
        code, warm, err = run_cli(argv)
        assert code == 0 and warm == cold and err == ""
        assert path.stat().st_mtime_ns == stamp

    def test_default_and_explicit_uniform_weights_share_a_cache_file(self, data_files):
        tmp, x, y, _ = data_files
        argv = ["testk", "--h", "power:2", "--inputs", x, y, "--B", "149", "--seed", "9",
                "--deterministic"]
        code, default, _ = run_cli(argv)
        assert code == 0
        code, explicit, err = run_cli(argv + ["--weights", "0.5,0.5"])
        assert code == 0 and explicit == default and err == ""
        assert len(list((tmp / "cache").glob("*.csv"))) == 1


class TestPowerCommand:
    def test_null_power_near_level(self, data_files):
        code, out, _ = run_cli(["power", "--generator", "power:2",
                                "--alternative", "shift:0", "--sizes", "15,15",
                                "--B-null", "99", "--B-power", "200", "--seed", "4",
                                "--deterministic"])
        assert code == 0
        doc = json.loads(out)
        est = doc["power"]["0.05"]["estimate"]
        assert abs(est - 0.05) < 3.0 * np.sqrt(0.05 * 0.95 / 200) + 1e-9

    def test_csv_output(self, data_files):
        code, out, _ = run_cli(["power", "--generator", "power:2",
                                "--alternative", "shift:0.5", "--sizes", "10,10",
                                "--B-null", "49", "--B-power", "20", "--seed", "4",
                                "--format", "csv", "--deterministic"])
        assert code == 0
        assert out.splitlines()[0].startswith("level,power,std_error")

    def test_unknown_alternative_is_config_error(self, data_files):
        code, _, err = run_cli(["power", "--generator", "power:2",
                                "--alternative", "wiggle:1", "--sizes", "10,10"])
        assert code == cli.EXIT_CONFIG
        assert "wiggle" in err


class TestVerifyCommand:
    def test_battery_passes_and_exports_csv(self, data_files):
        tmp, _, _, _ = data_files
        csv_path = tmp / "battery.csv"
        code, out, _ = run_cli(["verify", "--csv", str(csv_path)])
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert csv_path.exists()
