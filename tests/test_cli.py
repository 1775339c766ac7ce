import contextlib
import datetime
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexgof import cli, generators, load_table, nulldist, oracle, p_value, simulate_null
from convexgof.oracle import BatteryCase
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

    def test_report_without_deterministic_is_timestamped(self, data_files):
        _, x, y, _ = data_files
        argv = ["test2", "--h", "power:2", "--x", x, "--y", y, "--B", "199", "--seed", "7"]
        stamped = json.loads(run_cli(argv)[1])
        plain = json.loads(run_cli(argv + ["--deterministic"])[1])
        stamp = datetime.datetime.fromisoformat(stamped.pop("timestamp"))
        assert stamp.tzinfo is not None
        assert stamped == plain

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

    def test_method_flag_is_accepted_and_changes_nothing(self, data_files):
        # every test takes the permutation null of its data's ties; "method" says whether there were any
        tmp, x, y, _ = data_files
        tied = tmp / "tied.csv"
        tied.write_text("2.0\n3.0\n3.0\n")
        for other, method in ((y, "simulation"), (str(tied), "permutation")):
            argv = ["test2", "--h", "power:2", "--x", x, "--y", other, "--B", "99", "--seed", "1", "--deterministic"]
            runs = [run_cli(argv + extra) for extra in ([], ["--method", "permutation"], ["--method", "simulation"])]
            assert runs[0][0] == 0 and runs == [runs[0]] * 3
            assert json.loads(runs[0][1])["method"] == method


class TestErrorPaths:
    def test_shared_parser_keeps_nothing_between_runs(self, data_files):
        _, x, y, _ = data_files
        parser = cli.build_parser()
        assert run_cli(["test2", "--h", "power:3", "--x", x, "--y", y, "--B", "99", "--seed", "5",
                        "--method", "permutation", "--deterministic"])[0] == 0
        assert run_cli(["test2", "--h", "power:2", "--x", x, "--bogus"])[0] == cli.EXIT_CONFIG
        code, out, _ = run_cli(["test2", "--h", "power:2", "--x", x, "--y", y, "--B", "99", "--deterministic"])
        doc = json.loads(out)
        assert code == 0 and doc["method"] == "simulation" and doc["null_table"]["seed"] == 0
        assert doc["generator"] == "power:2" and cli.build_parser() is parser

    def test_generator_parsed_once_per_kind_and_spec(self, data_files, monkeypatch):
        _, x, y, _ = data_files
        built = []
        for name in ("power_generator", "polynomial_generator"):
            builder = getattr(generators, name)
            monkeypatch.setattr(generators, name, lambda arg, _b=builder: built.append(arg) or _b(arg))
        parse_generator_spec.cache_clear()
        try:
            runs = [run_cli(["test2", "--h", spec, "--x", x, "--y", y, "--B", "99", "--deterministic"])
                    for spec in ("power:2", "power:2", "power:3", "poly:1,1e-14", "poly:1,1e-14")]
        finally:
            parse_generator_spec.cache_clear()
        assert [code for code, _, _ in runs] == [0, 0, 0, cli.EXIT_CONFIG, cli.EXIT_CONFIG]
        assert runs[0] == runs[1] and runs[3] == runs[4]
        assert built == [2, 3, [1.0, 1e-14], [1.0, 1e-14]]  # a failing spec is not cached

    # bytes a sample file may hold: numbers, non-finite and malformed tokens, separators, line
    # breaks of every kind, a byte order mark, NUL and bytes that are not UTF-8
    _SAMPLE_BYTES = [b"1", b"2.5", b"-0", b"1e-320", b"1e308", b"nan", b"inf", b"1e999", b"0x1p3", b"1_0",
                     b"#", b",", b" ", b"\t", b"\n", b"\r", b"\x0c", b"\xef\xbb\xbf", b"\x00", b"\xff",
                     b"\xc2\x85", b"\xe2\x80\xa8", b"\xd9\xa3"]

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # the file is rewritten per example
    @given(st.binary(max_size=40) | st.lists(st.sampled_from(_SAMPLE_BYTES), max_size=24).map(b"".join))
    def test_any_sample_file_runs_or_is_a_data_error(self, data_files, content):
        tmp, _, y, _ = data_files
        x = tmp / "fuzzed.csv"
        x.write_bytes(content)
        code, _, err = run_cli(["test2", "--h", "power:2", "--x", str(x), "--y", y, "--B", "9",
                                "--no-cache", "--deterministic"])
        assert code in (0, cli.EXIT_DATA), err
        assert err == "" if code == 0 else (err.startswith("error: ") and err.count("\n") == 1), err

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
        for spec, named in (("power:2", "power:2"), ("expsq:1e-20", "failed validation")):
            code, out, err = run_cli(["tau", "--xi", spec, "--x", x, "--y", y])
            assert code == cli.EXIT_CONFIG and out == ""
            assert named in err

    @pytest.mark.parametrize("command, flag, spec", [
        ("tau", "--xi", "expsq:1e-8"), ("tau", "--xi", "expsq:6e-8"),
        ("test2", "--h", "power:160"), ("test2", "--h", "poly:1,1e-14"),
    ])
    def test_generator_failing_validation_is_config_error(self, data_files, command, flag, spec):
        _, x, y, _ = data_files
        code, out, err = run_cli([command, flag, spec, "--x", x, "--y", y, "--B", "99"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith("error:") and "failed validation" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("argv, named", [
        (["test2", "--h", "power:2", "--levels", "0.05,abc"], "levels '0.05,abc': not numbers"),
        (["null-table", "--kind", "two_sample", "--generator", "power:2", "--sizes", ","],
         "no sizes given in ','"),
    ], ids=["levels_token", "sizes_empty"])
    def test_malformed_list_is_config_error(self, data_files, argv, named):
        _, x, y, _ = data_files
        files = ["--x", x, "--y", y] if argv[0] == "test2" else []
        code, out, err = run_cli(argv + files + ["--B", "9"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith("error:") and named in err and err.count("\n") == 1

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

    def test_non_finite_multi_slab_table_is_numerical_error(self, data_files):
        # a 150/150 table has several work units, scored on the unit pool; the next table builds as usual
        tmp = data_files[0]
        argv = ["null-table", "--kind", "two_sample", "--sizes", "150,150", "--B", "1100",
                "--no-cache", "--out", str(tmp / "t.csv")]
        code, out, err = run_cli(argv + ["--generator", "poly:0,1e308"])
        assert code == cli.EXIT_NUMERICAL and out == "" and not (tmp / "t.csv").exists()
        assert err.startswith("error:") and "non-finite" in err and err.count("\n") == 1
        code, _, err = run_cli(argv + ["--generator", "power:2"])
        assert code == cli.EXIT_OK and err == ""
        expected = simulate_null("two_sample", parse_generator_spec("power:2"), (150, 150), B=1100, seed=0)
        assert load_table(tmp / "t.csv").replicates.tobytes() == expected.replicates.tobytes()

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


# Random command lines: the real subcommands and flags with small values (B <= 99, sizes <= 20), files
# named by placeholders that the test maps under its own directory, and some arbitrary tokens.  Flags
# come with their values, so an arbitrary token never names a file to write.
_FILES = ["<x>", "<y>", "<tied>", "<z>", "<empty>", "<text>", "<nan>", "<missing>", "<dir>"]
_FLAG_VALUES = {
    "--h": ["power:2", "power:3", "poly:0,1,1", "bernstein:power:2:4", "expsq:1", "power:1", "poly:0,1e308",
            "expsq:800", "bogus", ""],
    "--xi": ["expsq:1", "expsq:0.5", "power:2", "expsq:-1"],
    "--generator": ["power:2", "poly:0,1,1", "expsq:1", "bernstein:power:2:3", "power:x"],
    "--x": _FILES, "--y": _FILES,
    "--weights": ["0.5,0.5", "0.2,0.3,0.5", "0.25,0.25,0.25,0.25", "1,1", "-1,2", "x", ""],
    "--B": ["-1", "0", "1", "9", "99", "x"], "--B-null": ["0", "9", "99"], "--B-power": ["0", "1", "3"],
    "--seed": ["-1", "0", "7", str(2**64 - 1), str(2**64)],
    "--levels": ["0.05", "0.05,0.01", "0", "1.5", "x", "0.5,0.5"],
    "--convention": ["mid", "right-continuous", "left"], "--method": ["simulation", "permutation", "bogus"],
    "--format": ["json", "csv", "xml"], "--kind": ["two_sample", "k_sample", "tau", "bogus"],
    "--sizes": ["3,4", "1,1", "20,20", "2,3,4", "0,3", "a", "", "5"],
    "--alternative": ["shift:0.3", "scale:2", "lehmann:2", "lehmann:1e300", "shift:x", "scale:-1", "bogus:1"],
    "--cache-dir": ["<cache>", "<x>"], "--out": ["<out>", "<dir>", "<missing>/t.csv"],
    "--csv": ["<battery>", "<missing>/b.csv"],
}
_SWITCHES = ["--deterministic", "--no-cache", "--help", "--version"]
_COMMANDS = ["test2", "testk", "tau", "null-table", "power", "verify", "bogus"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command] + {"power": ["--B-null", "9", "--B-power", "2"], "verify": []}.get(command, ["--B", "9"])
    for _ in range(draw(st.integers(0, 9))):
        choice = draw(st.integers(0, 9))
        if choice < 6:
            flag = draw(st.sampled_from(sorted(_FLAG_VALUES)))
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
        elif choice < 7:
            argv += ["--inputs"] + draw(st.lists(st.sampled_from(_FILES), min_size=1, max_size=4))
        elif choice < 8:
            argv.append(draw(st.sampled_from(_SWITCHES)))
        else:  # an arbitrary token: a positional, or one of a few dashed ones
            argv.append(draw(st.text(max_size=6).filter(lambda t: not t.startswith("-"))
                             | st.sampled_from(["--", "-", "-1", "--bogus", "-x", "two\nlines"])))
    return argv


class TestRandomArgv:
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # the files are only read
    @given(_argv())
    def test_nothing_raises_and_every_failure_is_one_line(self, random_argv_files, argv):
        argv = [random_argv_files.get(token, token) for token in argv]
        argv = [token.replace("<missing>", random_argv_files["<missing>"]) for token in argv]
        out, err, stray = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stray):
            code = cli.run(argv, out=out, err=err)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERICAL), (argv, code)
        if code != cli.EXIT_OK:
            assert stray.getvalue() == "", argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())


@pytest.fixture
def random_argv_files(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "default-cache"))
    monkeypatch.chdir(tmp_path)
    contents = {"x": "0.3\n1.2\n2.5\n-0.7\n4.0\n", "y": "1.1\n0.2\n3.3\n2.2\n-1.5\n0.9\n",
                "tied": "1.2\n1.2\n0.3\n5.0\n", "z": "7\n8\n", "empty": "", "text": "abc\n", "nan": "nan\n"}
    files = {}
    for name, text in contents.items():
        (tmp_path / f"{name}.txt").write_text(text)
        files[f"<{name}>"] = str(tmp_path / f"{name}.txt")
    (tmp_path / "dir").mkdir()
    files.update({"<missing>": str(tmp_path / "missing"), "<dir>": str(tmp_path / "dir"),
                  "<cache>": str(tmp_path / "cache"), "<out>": str(tmp_path / "out.csv"),
                  "<battery>": str(tmp_path / "battery.csv")})
    return files


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

    def test_no_cache_without_out_fails_before_building(self, data_files, monkeypatch):
        def unwanted(*args, **kwargs):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli, "simulate_null", unwanted)
        code, out, err = run_cli(["null-table", "--kind", "two_sample", "--generator", "power:2",
                                  "--sizes", "1000,1000", "--no-cache"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == "error: --no-cache requires --out to store the table\n"

    @pytest.mark.parametrize("case, flag, message", [
        ("out_dir_missing", "--out", "No such file or directory"),
        ("out_under_a_file", "--out", "Not a directory"),
        ("out_is_a_directory", "--out", "Is a directory"),
        ("cache_dir_is_file", "--cache-dir", "File exists"),
        ("cache_dir_under_a_file", "--cache-dir", "Not a directory"),
        ("test2_cache_dir_is_file", "--cache-dir", "File exists"),
    ])
    def test_unwritable_destination_fails_before_building(self, data_files, monkeypatch, case, flag, message):
        # the error the write would raise once the table was built, raised before it is built;
        # nothing is written
        def unwanted(*args, **kwargs):
            raise AssertionError("the table was built")

        tmp, x, y, _ = data_files
        (tmp / "taken").write_text("kept\n")
        path = {"out_dir_missing": tmp / "absent" / "t.csv", "out_under_a_file": tmp / "taken" / "t.csv",
                "cache_dir_under_a_file": tmp / "taken" / "cache", "out_is_a_directory": tmp}.get(case, tmp / "taken")
        argv = (["test2", "--h", "power:2", "--x", x, "--y", y] if case.startswith("test2")
                else ["null-table", "--kind", "two_sample", "--generator", "power:2", "--sizes", "1000,1000"])
        before = sorted(tmp.rglob("*"))
        monkeypatch.setattr(cli, "simulate_null", unwanted)
        code, out, err = run_cli(argv + ["--B", "99999", flag, str(path)] + ["--no-cache"] * (flag == "--out"))
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == f"error: {flag} '{path}': {message}\n"
        assert sorted(tmp.rglob("*")) == before and (tmp / "taken").read_text() == "kept\n"

    def test_out_linked_to_a_directory_is_replaced_by_the_table(self, data_files):
        # os.replace replaces the link itself, so only a directory that is no link is refused early
        tmp, _, _, _ = data_files
        (tmp / "target").mkdir()
        (tmp / "link").symlink_to(tmp / "target", target_is_directory=True)
        code, out, err = run_cli(["null-table", "--kind", "two_sample", "--generator", "power:2",
                                  "--sizes", "3,4", "--B", "20", "--no-cache", "--out", str(tmp / "link")])
        assert code == 0 and err == ""
        assert not (tmp / "link").is_symlink() and load_table(tmp / "link").B == 20
        assert (tmp / "target").is_dir() and not any((tmp / "target").iterdir())

    def test_csv_format(self, data_files):
        tmp, _, _, _ = data_files
        out_path = tmp / "table.csv"
        code, out, _ = run_cli(["null-table", "--kind", "k_sample", "--generator", "power:2",
                                "--sizes", "3,4,5", "--weights", "0.25,0.4,0.35", "--B", "20",
                                "--seed", "1", "--out", str(out_path), "--format", "csv",
                                "--deterministic"])
        assert code == 0
        assert out.splitlines() == [
            "command,version,kind,generator,sizes,weights,B,seed,cache_hit,path",
            f'null-table,{cli.__version__},k_sample,power:2,"3,4,5","0.25,0.4,0.35",20,1,False,{out_path}',
        ]

    def test_default_cache_is_under_xdg_cache_home(self, data_files, monkeypatch):
        tmp, _, _, _ = data_files
        monkeypatch.delenv(cli.CACHE_ENV)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp / "xdg"))
        code, out, _ = run_cli(["null-table", "--kind", "two_sample", "--generator", "power:2",
                                "--sizes", "3,3", "--B", "20", "--deterministic"])
        assert code == 0
        path = Path(json.loads(out)["path"])
        assert path.parent == tmp / "xdg" / "convexgof" and path.is_file()

    @pytest.mark.parametrize("values", [
        ((cli.CACHE_ENV, ""),),
        (("XDG_CACHE_HOME", ""),),
        ((cli.CACHE_ENV, ""), ("XDG_CACHE_HOME", "")),
        (("XDG_CACHE_HOME", "rel"),),
        (("XDG_CACHE_HOME", "~/.cache"),),
    ], ids=["cache_dir", "xdg", "both", "xdg_relative", "xdg_tilde"])
    def test_empty_cache_variable_counts_as_unset(self, tmp_path, monkeypatch, values):
        # an empty CONVEXGOF_CACHE_DIR or XDG_CACHE_HOME counts as unset, and so does a relative
        # XDG_CACHE_HOME, which the XDG Base Directory spec calls invalid; so the table lands under
        # $HOME/.cache/convexgof, not in the working directory, its ./convexgof, ./rel or ./~
        work, home = tmp_path / "work", tmp_path / "home"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("HOME", str(home))
        for name in (cli.CACHE_ENV, "XDG_CACHE_HOME"):
            monkeypatch.delenv(name, raising=False)
        for name, value in values:
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(["null-table", "--kind", "two_sample", "--generator", "power:2",
                                  "--sizes", "3,3", "--B", "20", "--deterministic"])
        assert code == 0, err
        path = Path(json.loads(out)["path"])
        assert path.parent == home / ".cache" / "convexgof" and path.is_file()
        assert not any(work.iterdir())

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
        lambda text: text[:-7],            # cut inside the last hex word
        lambda text: "not a table\n",      # garbage
        # the first replicate as a format-6 hex float out of float range: not a 16-digit word
        lambda text: re.sub("replicate_hex\n.*\n", "replicate_hex\n0x1p99999\n", text),
    ], ids=["truncated", "garbage", "out_of_range"])
    def test_damaged_cache_file_is_rebuilt(self, data_files, damage):
        tmp, x, y, _ = data_files
        argv = ["test2", "--h", "power:2", "--x", x, "--y", y, "--B", "149",
                "--seed", "9", "--deterministic"]
        _, cold, _ = run_cli(argv)
        (path,) = (tmp / "cache").glob("*.csv")
        intact = path.read_text()
        path.write_text(damage(intact))
        code, rebuilt, err = run_cli(argv)
        assert code == 0 and rebuilt == cold == run_cli(argv + ["--no-cache"])[1]
        assert err.startswith("warning:") and f"'{path}' is corrupt: " in err and err.count("\n") == 1
        assert path.read_text() == intact
        code, warm, err = run_cli(argv)
        assert code == 0 and warm == cold and err == ""

    # a damaged table file: any bytes, or a header of keys in order, each with a value of this request,
    # of another, a bad one or none, then maybe the marker and pieces of a body: hex words, line
    # breaks, a byte order mark, NUL and bytes that are not UTF-8
    _HEADER_VALUES = {"format_version": ("8", "7", "x"), "statistic_kind": ("two_sample", "tau"),
                      "generator_name": ("power:2", "power:3"), "sample_sizes": ("5,5", "4,6", "0", "5;5"),
                      "weights": ("-", "0.5,0.5", "x"), "seed": ("9", "10", "-9"), "B": ("99", "1", "0", "-1", "1e9"),
                      "sha256": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "x")}
    _HEADERS = st.tuples(*(st.sampled_from([f"# {key}={value}\n".encode() for value in values] + [b""])
                           for key, values in _HEADER_VALUES.items())).map(b"".join)
    _WORDS = [b"3fe0000000000000\n", b"bfe0000000000000\n", b"7ff0000000000000\n", b"3FE0000000000000\n"]
    _BODIES = (st.lists(st.sampled_from(_WORDS), max_size=3)
               | st.lists(st.sampled_from(_WORDS + [b"0x1p-3\n", b"\n", b"\r\n", b"#", b"=", b"\xef\xbb\xbf",
                                                   b"\x00", b"\xff", b"\xc2\x85"]), max_size=12)).map(b"".join)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # one cache directory for all
    @given(st.binary(max_size=64)
           | st.builds(lambda head, marker, body: head + marker + body, _HEADERS,
                       st.sampled_from([b"replicate_hex\n", b"", b"replicate_hex"]), _BODIES))
    def test_any_cache_file_bytes_are_rebuilt_with_one_warning(self, data_files, content):
        # no example is a well-formed table of this request, which needs 99 body lines with the header's
        # sha256 digest; a file of other replicates that has both is the one that would be a hit
        tmp = data_files[0]
        for name, values in (("x5", "0.1 0.2 0.3 2.4 0.5"), ("y5", "2.1 0.25 2.3 2.5 2.9")):
            (tmp / f"{name}.csv").write_text(values.replace(" ", "\n") + "\n")
        argv = ["test2", "--h", "power:2", "--x", str(tmp / "x5.csv"), "--y", str(tmp / "y5.csv"),
                "--B", "99", "--seed", "9", "--deterministic"]
        assert run_cli(argv)[0] == 0  # writes the cache file, or hits the one the last example rebuilt
        (path,) = (tmp / "cache").glob("*.csv")
        path.write_bytes(content)
        code, out, err = run_cli(argv)
        assert code == 0 and out == run_cli(argv + ["--no-cache"])[1]
        assert err.startswith("warning: ") and err.count("\n") == 1, err

    def test_cache_file_of_copied_replicates_is_rebuilt(self, data_files):
        # 99 copies of the first replicate keep the file sorted, finite and of B lines; only the header's
        # sha256 digest tells it from the request's table, which gives p = 0.15 (the copies would give 0.01)
        tmp = data_files[0]
        for name, values in (("x5", "0.1 0.2 0.3 2.4 0.5"), ("y5", "2.1 0.25 2.3 2.5 2.9")):
            (tmp / f"{name}.csv").write_text(values.replace(" ", "\n") + "\n")
        argv = ["test2", "--h", "power:2", "--x", str(tmp / "x5.csv"), "--y", str(tmp / "y5.csv"),
                "--B", "99", "--seed", "9", "--deterministic"]
        code, cold, _ = run_cli(argv)
        (path,) = (tmp / "cache").glob("*.csv")
        head, marker, body = path.read_text().partition("replicate_hex\n")
        path.write_text(head + marker + body[:17] * 99)
        code, out, err = run_cli(argv)
        assert code == 0 and out == cold and json.loads(out)["p_value"] == 0.15
        assert err.startswith("warning:") and "sha256" in err and err.count("\n") == 1, err
        code, out, err = run_cli(argv)
        assert code == 0 and out == cold and err == ""

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

    def test_format_bump_rewrites_the_request_file_in_place(self, data_files, monkeypatch):
        # the file name hashes the request alone: a bump to format 9 and back rejects the other
        # format's file each time and rebuilds it under the same name, so one file stays per request
        tmp = data_files[0]
        argv = ["null-table", "--kind", "two_sample", "--generator", "power:2", "--sizes", "4,4",
                "--B", "50", "--seed", "2", "--deterministic"]
        code, _, err = run_cli(argv)
        assert code == 0 and err == ""
        for version, old in ((9, 8), (8, 9)):
            monkeypatch.setattr(nulldist, "TABLE_FORMAT_VERSION", version)
            monkeypatch.setattr(cli, "TABLE_FORMAT_VERSION", version, raising=False)
            code, out, err = run_cli(argv)
            assert code == 0 and json.loads(out)["cache_hit"] is False
            assert err.startswith("warning:") and f"format version '{old}'" in err and err.count("\n") == 1, err
            assert len(list((tmp / "cache").iterdir())) == 1
        (path,) = (tmp / "cache").iterdir()
        assert path.read_text().split("\n", 1)[0] == f"# format_version={nulldist.TABLE_FORMAT_VERSION}"
        code, out, err = run_cli(argv)
        assert code == 0 and json.loads(out)["cache_hit"] is True and err == ""

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

    def test_tie_free_requests_keep_their_cache_file_names(self, data_files):
        # the names format-8 caches already hold: a tie-free identity carries no tie key
        tmp, x, y, z = data_files
        common = ["--B", "149", "--seed", "9", "--deterministic"]
        for argv, name in (
                (["test2", "--h", "power:2", "--x", x, "--y", y, "--convention", "mid"],
                 "c1a8207846f20b3176e735283af8382fd683c534bdb035dd4c315f602a7e64ce"),
                (["tau", "--xi", "expsq:1", "--x", x, "--y", z],
                 "61641fb47b9a2ba8903d9ef9c336e3acbd77c734facc28221872f119857e52fe"),
                (["testk", "--h", "power:2", "--inputs", x, y, z, "--weights", "0.2,0.3,0.5"],
                 "1c97d92e1fe0e6a317c4ee593d5f5935a7416b3d5cf2792f0cae20557d69c536")):
            assert run_cli(argv + common)[0] == 0
            assert (tmp / "cache" / f"{name}.csv").is_file()
            assert "ties" not in (tmp / "cache" / f"{name}.csv").read_text()
        assert len(list((tmp / "cache").iterdir())) == 3

    def test_tied_data_share_a_cache_file_by_tie_pattern(self, data_files):
        # the second pair is the first times 10 plus 3: other values, the same tie-block lengths
        tmp = data_files[0]
        pairs = []
        for scale, shift in ((1.0, 0.0), (10.0, 3.0)):
            files = [tmp / f"tied-{g}-{shift:g}.csv" for g in "xy"]
            for path, values in zip(files, ([0.5, 1.0, 1.0, 2.0, 3.5], [1.0, 2.0, 2.5, 4.0])):
                path.write_text("".join(f"{v * scale + shift!r}\n" for v in values))
            pairs.append(["test2", "--h", "power:2", "--x", str(files[0]), "--y", str(files[1]),
                          "--B", "199", "--seed", "3", "--deterministic"])
        reports = []
        for argv in pairs:
            code, out, err = run_cli(argv)
            assert code == 0 and err == ""
            reports.append(json.loads(out))
        (path,) = (tmp / "cache").glob("*.csv")
        assert reports[0]["method"] == "permutation" and reports[0]["statistic"]["tie_count"] == 3
        for key in ("null_table", "p_value", "critical_values", "statistic"):
            assert reports[0][key] == reports[1][key]
        table = load_table(path)
        assert table.ties.startswith("right-continuous:") and table.identity[6] == table.ties
        assert f"# ties={table.ties}\n# sha256=" in path.read_text()
        code, out, err = run_cli(pairs[1] + ["--no-cache"])
        assert code == 0 and json.loads(out) == reports[1]
        assert run_cli(pairs[0] + ["--convention", "mid"])[0] == 0
        assert len(list((tmp / "cache").glob("*.csv"))) == 2

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

    def test_level_below_table_resolution_is_reported(self, data_files):
        # the smallest p-value of a 9-replicate table is 0.1, so no trial can reject
        # at 0.01 or 0.05 although the groups never overlap
        code, out, err = run_cli(["power", "--generator", "power:2", "--sizes", "20,20",
                                  "--alternative", "shift:2", "--B-null", "9", "--B-power", "20",
                                  "--levels", "0.01,0.05", "--deterministic"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["power"]["0.05"]["estimate"] == 0.0
        assert doc["warnings"] == [f"null table too small for level {a}; critical value clamped"
                                   for a in ("0.01", "0.05")]

    def test_csv_output(self, data_files):
        code, out, _ = run_cli(["power", "--generator", "power:2",
                                "--alternative", "shift:0.5", "--sizes", "10,10",
                                "--B-null", "49", "--B-power", "20", "--seed", "4",
                                "--format", "csv", "--deterministic"])
        assert code == 0
        assert out.splitlines()[0].startswith("level,power,std_error")

    def test_repeated_level_counts_once(self, data_files):
        # counting the level twice pushed the estimate past 1 and sqrt raised
        docs = []
        for levels in ("0.5", "0.5,0.5"):
            code, out, err = run_cli(["power", "--generator", "power:2",
                                      "--alternative", "shift:0.5", "--sizes", "5,5",
                                      "--B-null", "9", "--B-power", "3", "--levels", levels,
                                      "--deterministic"])
            assert code == 0, err
            docs.append(json.loads(out)["power"])
        assert docs[1] == docs[0]

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

    def test_failed_case_exits_one(self, monkeypatch):
        cases = [BatteryCase("ok", "identity", "power:2", "uniform", "uniform", 0.0, 1e-9, True),
                 BatteryCase("broken", "inequality", "power:2", "uniform", "power[2]", -1.0, 1e-9, False)]
        # cli reaches the battery through the oracle module, so a hook there sees every verify
        monkeypatch.setattr(oracle, "run_battery", lambda: cases)
        code, out, _ = run_cli(["verify"])
        assert code == cli.EXIT_BATTERY_FAIL
        assert "[FAIL] broken" in out and out.endswith("1/2 oracle checks passed\n")


# Loads scipy only in the quadrature fallback, not for Bernstein generators or the
# oracle battery, and the unit pool's concurrent.futures not for tables of one work
# unit; prints the scipy and concurrent modules loaded after each stage as one JSON object.
_START_UP_PROBE = textwrap.dedent("""
    import io, json, sys, tempfile
    from pathlib import Path

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))

    import convexgof.cli as cli
    stages = {"import": loaded()}
    work = Path(tempfile.mkdtemp())
    for name, text in (("x", "1\\n3\\n6\\n"), ("y", "2\\n4\\n5\\n"), ("z", "0.5\\n7\\n")):
        (work / f"{name}.csv").write_text(text)
    x, y, z = (str(work / f"{name}.csv") for name in "xyz")
    codes = [cli.run(argv + ["--B", "99", "--no-cache"], out=io.StringIO(), err=io.StringIO())
             for argv in (["test2", "--h", "power:2", "--x", x, "--y", y],
                          ["tau", "--xi", "expsq:1", "--x", x, "--y", y],
                          ["testk", "--h", "poly:0,1,1", "--inputs", x, y, z],
                          ["null-table", "--kind", "two_sample", "--generator", "power:2",
                           "--sizes", "3,3", "--out", str(work / "table.csv")])]
    stages["commands"] = loaded()
    from convexgof.generators import adaptive_quad, parse_generator_spec
    parse_generator_spec("bernstein:power:2:8")
    stages["bernstein"] = loaded()
    codes.append(cli.run(["verify"], out=io.StringIO(), err=io.StringIO()))
    stages["verify"] = loaded()
    value = adaptive_quad(lambda u: abs(u - 1.0 / 3.0), 0.0, 1.0)
    stages["fallback"] = loaded()
    print(json.dumps({"stages": stages, "codes": codes, "value": value}))
""")


def test_start_up_imports_numpy_only():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _START_UP_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    stages = doc["stages"]
    assert doc["codes"] == [0, 0, 0, 0, 0]
    assert stages["import"] == stages["commands"] == stages["bernstein"] == stages["verify"] == []
    assert "scipy.integrate" in stages["fallback"]
    assert abs(doc["value"] - 5.0 / 18.0) < 1e-12
