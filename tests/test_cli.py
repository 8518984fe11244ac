import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import threshold_lab
from threshold_lab import BinomialOutcome, TailConvention, p_rep, p_value
from threshold_lab.cli import build_parser, parse_and_dispatch

import reference
from check import check
from workloads import WORKLOADS, make_plan

COMMANDS = ["posterior", "critical", "sweep", "crossing", "prep", "power", "diagnosticity"]


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPosteriorCommand:
    def test_two_flips_one_head(self, capsys):
        code, out, err = run_cli(capsys, "posterior", "--n", "2", "--s", "1")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["bf01"] == pytest.approx(1.5, abs=1e-11)
        assert data["posterior_h0"] == pytest.approx(0.6, abs=1e-11)
        assert data["posterior_odds_h1"] == pytest.approx(2.0 / 3.0, abs=1e-11)

    def test_prior_and_pi0_flags(self, capsys):
        code, out, _ = run_cli(capsys, "posterior", "--n", "100", "--s", "60",
                               "--prior-a", "2", "--prior-b", "3", "--pi0", "0.3")
        assert code == 0
        data = json.loads(out)
        assert data["prior_a"] == 2.0 and data["prior_b"] == 3.0 and data["pi0"] == 0.3
        assert 0.0 < data["posterior_h0"] < 1.0

    def test_s_larger_than_n_rejected(self, capsys):
        code, out, err = run_cli(capsys, "posterior", "--n", "5", "--s", "9")
        assert code == 2 and out == "" and err.startswith("error:")


class TestCriticalCommand:
    def test_n100_default_mode(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--n", "100", "--alpha", "0.05")
        assert code == 0
        data = json.loads(out)
        assert data["s"] == 60 and data["mode"] == "nearest" and data["tail"] == "two"
        want = p_value(BinomialOutcome(100, 60), TailConvention.TWO_SIDED_SYMMETRIC)
        assert data["p_achieved"] == pytest.approx(want, rel=1e-11)

    def test_strict_mode_changes_the_answer(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--n", "100", "--alpha", "0.05",
                               "--mode", "strict")
        assert code == 0 and json.loads(out)["s"] == 61

    def test_strict_infeasibility_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "critical", "--n", "4", "--alpha", "0.05",
                                 "--mode", "strict")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "n=4" in err

    @pytest.mark.parametrize("mode", ["nearest", "strict"])
    def test_unattainable_alpha_is_infeasible_in_both_modes(self, capsys, tmp_path, mode):
        # s = 20 has p = 2**-19 > 1e-10: nearest mode used to print it; now it agrees with sweep and crossing
        code, out, err = run_cli(capsys, "critical", "--n", "20", "--alpha", "1e-10", "--mode", mode)
        assert (code, out) == (1, "")
        assert err == "error: no success count reaches p <= 1e-10 at n=20 (most extreme p is 1.90735e-06)\n"
        code, out, err = run_cli(capsys, "diagnosticity", "--a", "1e-10,20", "--b", "0.05,100", "--mode", mode)
        assert code == 1 and out == "" and "n=20" in err
        grid = tmp_path / "grid.json"
        grid.write_text("[20]", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--grid", str(grid), "--alphas", "1e-10", "--mode", mode)
        assert code == 0 and out.splitlines()[1] == f"1e-10,20,,,,,{mode},two"
        code, out, err = run_cli(capsys, "crossing", "--alpha", "1e-10", "--level", "0.01", "--n-max", "20",
                                 "--mode", mode)
        assert code == 0 and json.loads(out)["n"] is None

    def test_bad_count_token_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "critical", "--n", "abc", "--alpha", "0.05")
        assert code == 2 and out == "" and "abc" in err

    @pytest.mark.parametrize("alpha", ["1e-310", "5e-324"])
    def test_subnormal_alpha(self, capsys, alpha):
        # attainable at n = 1100, where 2 * 2**-1100 underflows to 0; at n = 100 neither mode has an s
        for mode in ("nearest", "strict"):
            code, out, err = run_cli(capsys, "critical", "--n", "1100", "--alpha", alpha, "--mode", mode)
            assert code == 0 and err == "" and json.loads(out)["p_achieved"] <= float(alpha)
            code, out, err = run_cli(capsys, "critical", "--n", "100", "--alpha", alpha, "--mode", mode)
            assert code == 1 and out == ""
            assert err.startswith("error: no success count reaches") and "n=100" in err
        # one-sided: the reference's normal guess cannot take 5e-324 / 2
        code, out, err = run_cli(capsys, "critical", "--n", "1100", "--alpha", alpha,
                                 "--mode", "strict", "--tail", "one")
        assert json.loads(out)["s"] == reference.select(1100, float(alpha), True, False)

    def test_n_above_limit_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "critical", "--n", "10000001", "--alpha", "0.05")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and "at most 10000000" in err


class TestSweepCommand:
    def test_default_csv_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "sweep")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 61
        assert lines[0] == "alpha,n,s_selected,p_achieved,log_bf01,posterior_h0,mode,tail"
        assert lines[1] == "0.05,20,15,0.041389465332,-1.16956783934,0.236933108226,nearest,two"

    def test_default_csv_matches_golden_and_ignores_thread_variable(self, capsys, monkeypatch, expected):
        # sweeps run in one thread; the variable that once set a pool size is not read
        monkeypatch.setenv("THRESHOLD_LAB_THREADS", "banana")
        code, out, err = run_cli(capsys, "sweep")
        assert code == 0 and err == ""
        assert out == expected("default_sweep.csv")

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out, _ = run_cli(capsys, "sweep", "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert len(payload) == 60
        assert payload[0]["n"] == 20 and payload[0]["alpha"] == 0.05

    def test_custom_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[10, 50]")
        code, out, _ = run_cli(capsys, "sweep", "--grid", str(grid), "--alphas", "0.05,0.01")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert [line.split(",")[1] for line in lines[1:]] == ["10", "50", "10", "50"]

    def test_missing_grid_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, out, err = run_cli(capsys, "sweep", "--grid", str(missing))
        assert code == 2 and out == "" and str(missing) in err

    def test_a_file_error_names_its_path_once(self, capsys, tmp_path):
        # the OSError's own text repeated the path: a 4,000-character one made an 8,069-character line
        path = (str(tmp_path / "missing") + "/g" * 2000)[:3999] + "g"  # 4,000 characters, within PATH_MAX
        for argv, code, message in ((["--grid", path], 2, "cannot read grid file"),
                                    (["--out", path], 1, "cannot write sweep output to")):
            want = f"error: {message} {path!r}: No such file or directory\n"
            assert run_cli(capsys, "sweep", *argv) == (code, "", want)

    def test_a_grid_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        # a UTF-16 byte-order mark: the codec's error escaped with no path
        grid = tmp_path / "grid.json"
        grid.write_bytes(b"\xff\xfe[\x002\x000\x00]\x00")
        want = (f"error: cannot read grid file {str(grid)!r}: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte\n")
        assert run_cli(capsys, "sweep", "--grid", str(grid)) == (2, "", want)

    def test_grid_file_must_hold_integers(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('["twenty"]')
        code, out, err = run_cli(capsys, "sweep", "--grid", str(bad))
        assert code == 2 and out == "" and "integers" in err

    def test_increasing_alphas_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--alphas", "0.01,0.05")
        assert code == 2 and out == "" and "decreasing" in err

    def test_non_numeric_alpha_names_the_flag_not_the_parser(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--alphas", "0.05,abc")
        assert code == 2 and out == "" and "--alphas" in err and "_alpha" not in err

    def test_unwritable_out_path_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--out", "/no-such-dir/rows.csv")
        assert code == 1 and out == "" and "/no-such-dir/rows.csv" in err


class TestCrossingCommand:
    def test_even_money_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "crossing", "--alpha", "0.05", "--level", "0.5")
        assert code == 0
        assert json.loads(out)["n"] == 82

    def test_touch_between_doubling_probes_is_found(self, capsys):
        code, out, _ = run_cli(capsys, "crossing", "--alpha", "0.05", "--level", "0.4",
                               "--n-max", "40")
        assert code == 0
        assert json.loads(out)["n"] == 36

    def test_absent_crossing_is_null_but_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "crossing", "--alpha", "0.0001", "--level", "0.5",
                               "--n-max", "10000")
        assert code == 0
        data = json.loads(out)
        assert data["n"] is None and data["n_max"] == 10000


class TestPrepCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "prep", "--p", "0.05")
        assert code == 0
        data = json.loads(out)
        assert data["p_in"] == 0.05
        assert data["p_rep"] == pytest.approx(p_rep(0.05).p_rep, abs=1e-11)
        assert data["failure_prob"] == pytest.approx(1.0 - data["p_rep"], abs=1e-11)

    def test_out_of_range_p_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "prep", "--p", "1.0")
        assert code == 2 and out == "" and "1.0" in err


class TestPowerCommand:
    def test_lenient_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--mu0", "40", "--mu-alt", "43",
                               "--sigma", "8", "--alpha", "0.05", "--beta", "0.02")
        assert code == 0
        data = json.loads(out)
        assert data["required_n"] == 98
        assert data["achieved_power"] >= 0.98
        assert data["power_at"] is None

    def test_strict_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--mu0", "40", "--mu-alt", "43",
                               "--sigma", "8", "--alpha", "0.01", "--beta", "0.02")
        assert json.loads(out)["required_n"] == 137

    def test_show_power_at(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--mu0", "40", "--mu-alt", "43",
                               "--sigma", "8", "--alpha", "0.05", "--beta", "0.02",
                               "--show-power-at", "97")
        data = json.loads(out)
        assert data["power_at"]["n"] == 97
        assert data["power_at"]["power"] < 0.98

    def test_equal_means_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "power", "--mu0", "40", "--mu-alt", "40",
                                 "--sigma", "8", "--alpha", "0.05", "--beta", "0.02")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_tiny_effect_far_above_2_to_53_returns_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "power", "--mu0", "0", "--mu-alt", "1e-11",
                               "--sigma", "1", "--alpha", "0.05", "--beta", "0.2")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["required_n"] > 2**53

    def test_required_n_overflow_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "power", "--mu0", "0", "--mu-alt", "1e-200",
                                 "--sigma", "1e200", "--alpha", "0.05", "--beta", "0.2")
        assert code == 2 and out == "" and err.startswith("error: effect/sigma ratio")


class TestDiagnosticityCommand:
    def test_operating_point_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "diagnosticity", "--a", "0.05,98", "--b", "0.01,137")
        assert code == 0
        data = json.loads(out)
        assert data["a"] == {"alpha": 0.05, "n": 98}
        assert 0.5 <= data["odds_a"] <= 1.5
        assert 1.5 <= data["odds_b"] <= 4.5
        assert data["ratio"] == pytest.approx(data["odds_b"] / data["odds_a"], rel=1e-9)

    def test_overflowed_bayes_factors_give_a_finite_ratio(self, capsys):
        code, out, err = run_cli(capsys, "diagnosticity", "--a", "0.05,200", "--b", "0.01,300",
                                 "--prior-a", "1e6", "--prior-b", "0.001")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["odds_a"] == data["odds_b"] == 0.0
        assert data["ratio"] == pytest.approx(1.05e-133, rel=1e-2)

    def test_malformed_pair_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "diagnosticity", "--a", "0.05", "--b", "0.01,137")
        assert code == 2 and out == "" and "0.05" in err

    def test_non_integer_n_names_the_flag_not_the_parser(self, capsys):
        code, out, err = run_cli(capsys, "diagnosticity", "--a", "0.05,20.5", "--b", "0.01,30")
        assert code == 2 and out == "" and "--a" in err and "_alpha" not in err

    @pytest.mark.parametrize("pair,message", [("0.05,1e3", "N must be an integer, got '1e3'"),
                                              ("x,30", "ALPHA must be a real number, got 'x'")])
    def test_a_pair_of_two_says_which_value_is_wrong(self, capsys, pair, message):
        code, out, err = run_cli(capsys, "diagnosticity", "--a", pair, "--b", "0.01,30")
        assert code == 2 and out == ""
        assert f"argument --a: {message}" in err and "comma-separated" not in err


class TestParsingAndHelp:
    def test_no_command_exits_2(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 2 and out == ""

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "prep", "--p", "0.05", "--bogus")
        assert code == 2 and "--bogus" in err

    def test_top_level_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "posterior" in out and "sweep" in out and "10000" in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and out != ""

    @pytest.mark.parametrize("command,needle", [
        ("critical", "nearest"),
        ("sweep", "10000"),
        ("crossing", "20000"),
        ("diagnosticity", "Beta(1,1)"),
    ])
    def test_help_documents_defaults(self, capsys, command, needle):
        _, out, _ = run_cli(capsys, command, "--help")
        assert needle in out


@pytest.mark.parametrize("argv,value", [
    (["critical", "--n", "-7", "--alpha", "0.05"], "-7"),
    (["critical", "--n", "100", "--alpha", "1.5"], "1.5"),
    (["posterior", "--n", "5", "--s", "-3"], "-3"),
    (["posterior", "--n", "5", "--s", "2", "--pi0", "2.5"], "2.5"),
    (["posterior", "--n", "5", "--s", "2", "--prior-a", "1e+300"], "1e+300"),
    (["posterior", "--n", "5", "--s", "2", "--prior-a", "1000001"], "1000001"),
    (["posterior", "--n", "5", "--s", "2", "--prior-b", "-2.5"], "-2.5"),
    (["crossing", "--alpha", "0.05", "--level", "1.25"], "1.25"),
    (["crossing", "--alpha", "0.05", "--level", "0.5", "--n-max", "-4"], "-4"),
    (["prep", "--p", "3.5"], "3.5"),
    (["power", "--mu0", "inf", "--mu-alt", "1", "--sigma", "1", "--alpha", "0.05", "--beta", "0.2"], "inf"),
    (["power", "--mu0", "0", "--mu-alt", "nan", "--sigma", "1", "--alpha", "0.05", "--beta", "0.2"], "nan"),
    (["power", "--mu0", "0", "--mu-alt", "1", "--sigma", "-8.5", "--alpha", "0.05", "--beta", "0.2"], "-8.5"),
    (["power", "--mu0", "0", "--mu-alt", "1", "--sigma", "1", "--alpha", "1.75", "--beta", "0.2"], "1.75"),
    (["power", "--mu0", "0", "--mu-alt", "1", "--sigma", "1", "--alpha", "0.05", "--beta", "1.5"], "1.5"),
    (["power", "--mu0", "0", "--mu-alt", "1", "--sigma", "1", "--alpha", "0.05", "--beta", "0.2",
      "--show-power-at", "-2"], "-2"),
    (["posterior", "--n", str(10**400), "--s", "5"], "at most 1e+305"),
    (["power", "--mu0", "0", "--mu-alt", "1", "--sigma", "1", "--alpha", "0.05", "--beta", "0.2",
      "--show-power-at", str(10**400)], "at most 1.79769"),
    (["sweep", "--alphas", "0.05,1.5"], "1.5"),
    (["diagnosticity", "--a", "2.5,98", "--b", "0.01,137"], "2.5"),
    (["diagnosticity", "--a", "0.05,98", "--b", "0.01,-137"], "-137"),
])
def test_out_of_range_flag_is_the_library_error(capsys, argv, value):
    # flags parse as plain ints and floats; the range check is the library's, with no usage line
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and value in err and "usage" not in err


def test_a_huge_n_flag_is_one_short_error_line(capsys):
    # a 4,001-digit n was printed whole, in a 4,053-character line
    code, out, err = run_cli(capsys, "critical", "--n", str(10**4000), "--alpha", "0.05")
    assert code == 2 and out == ""
    assert err == "error: trial count n must be at most 10000000, got a 4001-digit integer\n"


@pytest.mark.parametrize("argv,key", [
    (["posterior", "--n", "2000", "--s", "0"], "posterior_odds_h1"),
    (["diagnosticity", "--a", "0.05,20", "--b", "5e-324,1000000"], "ratio"),
])
def test_non_finite_values_print_as_json_null(capsys, argv, key):
    def reject(constant):
        raise AssertionError(f"{constant} is not RFC 8259 JSON")

    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out, parse_constant=reject)[key] is None


GOLDEN_ARGV = [
    ("posterior.json", ["posterior", "--n", "100", "--s", "60", "--pi0", "0.9"]),
    ("critical.json", ["critical", "--n", "100", "--alpha", "0.05"]),
    ("crossing.json", ["crossing", "--alpha", "0.05", "--level", "0.4"]),
    ("prep.json", ["prep", "--p", "0.05"]),
    ("power.json", ["power", "--mu0", "0", "--mu-alt", "0.5", "--sigma", "1", "--alpha", "0.05",
                    "--beta", "0.2", "--show-power-at", "50"]),
    ("diagnosticity.json", ["diagnosticity", "--a", "0.05,98", "--b", "0.01,137"]),
    ("sweep_strict_one.json", ["sweep", "--format", "json", "--mode", "strict", "--tail", "one",
                               "--alphas", "0.05,1e-10"]),
]


@pytest.mark.parametrize("golden_file,argv", GOLDEN_ARGV)
def test_json_output_matches_golden(capsys, golden, golden_file, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == golden(golden_file)
    assert check(argv, 0, out) is None


# The library modules each golden's command loads in a fresh interpreter: prep loads neither the kernel nor the
# sweep, and critical none of the modules that score, price or sweep.
_SCORED = {"bayes_evidence", "binomial_kernel", "gaussian_numerics"}
GOLDEN_MODULES = {
    "posterior.json": _SCORED,
    "critical.json": {"binomial_kernel", "gaussian_numerics"},
    "crossing.json": {*_SCORED, "sweep_report"},
    "prep.json": {"gaussian_numerics", "replicability"},
    "power.json": {*_SCORED, "power_design"},
    "diagnosticity.json": {*_SCORED, "power_design"},
    "sweep_strict_one.json": {*_SCORED, "sweep_report"},
}


def test_each_golden_matches_in_a_fresh_interpreter(golden):
    # in process, a command that imports too little passes on what an earlier call loaded; here each golden runs in
    # its own interpreter, as a shell user's call does, and names the modules it loaded
    script = ("import json, sys\nfrom threshold_lab.cli import parse_and_dispatch\n"
              "code = parse_and_dispatch(sys.argv[1:])\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
              "sys.exit(code)")
    src = str(Path(threshold_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = {name: subprocess.Popen([sys.executable, "-c", script, *argv], env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True) for name, argv in GOLDEN_ARGV}
    results = {name: (*proc.communicate(timeout=60), proc.returncode) for name, proc in runs.items()}
    for name, (out, err, code) in results.items():
        assert (code, out) == (0, golden(name)), (name, err)
        loaded = set(json.loads(err))
        library = {m.split(".")[1] for m in loaded if m.startswith("threshold_lab.")} - {"cli", "_checks", "_format"}
        assert library == GOLDEN_MODULES[name], name
        assert ("csv" in loaded) == ("sweep_report" in library), name  # only the sweep writes CSV


def _check_script_runs(command, golden, **kwargs):
    """The script prints the top-level help, and a command's JSON, taking its arguments from sys.argv."""
    result = subprocess.run([*command, "--help"], capture_output=True, text=True, timeout=60, **kwargs)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: threshold-lab")
    result = subprocess.run([*command, "critical", "--n", "100", "--alpha", "0.05"],
                            capture_output=True, text=True, timeout=60, **kwargs)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == golden("critical.json")


def test_installed_entry_point_runs(golden):
    # Start the threshold-lab script that pyproject.toml declares, as an installer's
    # launcher would, from the tree under test rather than from whatever is on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "threshold-lab" in scripts, "pyproject.toml declares no threshold-lab script"
    module, _, attr = scripts["threshold-lab"].partition(":")
    launcher = (f"import sys; from {module} import {attr}; "
                f"sys.argv[0] = 'threshold-lab'; sys.exit({attr}())")
    src = str(Path(threshold_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    _check_script_runs([sys.executable, "-c", launcher], golden, env=env)


_SCRIPT_ON_PATH = shutil.which("threshold-lab")


@pytest.mark.skipif(_SCRIPT_ON_PATH is None, reason="no threshold-lab console script on PATH")
def test_console_script_on_path_runs(golden):
    _check_script_runs([_SCRIPT_ON_PATH], golden)


# help, errors at the top level and in a subparser, an abbreviated flag, and every golden's argv
PARITY_ARGV = [
    ["--help"], *([command, "--help"] for command in COMMANDS), ["-h", "critical"], [], ["bogus"],
    ["critical", "--n", "100"], ["critical", "--n", "5", "--alpha", ".05", "--bogus"], ["critical", "--mode", "wrong"],
    ["critical", "--n", "100", "--alph", "0.05"], ["prep", "--p", "x"], *(argv for _, argv in GOLDEN_ARGV),
]


# The flags' samples: an int, a real, an ALPHA,N pair and a word.
TYPE_SAMPLES = ("7", "0.25", "0.05,20", "x")


def _returns(kind, sample):
    # the value, or "refused" for a ValueError (argparse's message) or an ArgumentTypeError (the type's)
    try:
        return repr(sample if kind is None else kind(sample))
    except (ValueError, argparse.ArgumentTypeError):
        return "refused"


def cli_surface(parser):
    """Each command's help, description and flags in order: option strings, dest, default, required, choices,
    metavar, help, and what its type returns for each of TYPE_SAMPLES (the tests above pin the messages).  It
    reads what the parser declares, not its --help text, which differs across Python versions (3.10 says
    "optional arguments:")."""
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {name: {"help": helps[name], "description": command.description, "flags": [
        {"options": action.option_strings, "dest": action.dest, "default": repr(action.default),
         "required": action.required, "choices": action.choices and list(action.choices), "metavar": action.metavar,
         "help": action.help, "type": [_returns(action.type, sample) for sample in TYPE_SAMPLES]}
        for action in command._actions if not isinstance(action, argparse._HelpAction)]}
        for name, command in sub.choices.items()}


def test_the_parser_declares_the_pinned_surface(golden):
    # cli_surface.json is json.dumps(cli_surface(build_parser()), indent=1) + "\n" of the parser that declared
    # each command in its own block, before the tables; a command or flag declared wrongly in them shows here
    assert cli_surface(build_parser()) == json.loads(golden("cli_surface.json"))
    assert list(cli_surface(build_parser("sweep"))) == ["sweep"]


def parsed(parser, argv, capsys):
    """The namespace parser makes of argv, or the exit status of its help or error, with what it printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "no arguments")
def test_the_command_parser_reads_argv_as_the_full_tree_does(capsys, argv):
    # parse_and_dispatch builds build_parser(argv[0]); help text, errors and values must not tell it apart
    assert parsed(build_parser(argv[0] if argv else None), argv, capsys) == parsed(build_parser(), argv, capsys)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_command_parser_reads_every_benchmark_request_as_the_full_tree_does(capsys, workload):
    full = build_parser()
    for seed in (1, 2, 3):
        for argv in make_plan(workload, seed).requests:
            assert parsed(build_parser(argv[0]), argv, capsys) == parsed(full, argv, capsys), argv


@pytest.mark.parametrize("argv,parsers", [
    (["critical", "--n", "100", "--alpha", "0.05"], 2),
    (["prep", "--p", "x"], 2),
    (["sweep", "--help"], 2),
    (["--help"], 8),
    (["-h", "critical"], 8),
    (["bogus"], 8),
    ([], 8),
])
def test_a_known_command_builds_only_its_own_parser(capsys, monkeypatch, argv, parsers):
    # the top level and one subparser; help, no command and an unknown one get the top level and all seven
    built = 0
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    parse_and_dispatch(argv)
    assert built == parsers


@pytest.mark.parametrize("argv,message", [
    (["critical", "--n", "9" * 5000, "--alpha", "0.05"], "argument --n: invalid int value: a 5000-character value"),
    (["critical", "--n", "100", "--alpha", "x" * 31], "argument --alpha: invalid float value: a 31-character value"),
    (["sweep", "--alphas", "0.05," + "x" * 40],
     "argument --alphas: expected comma-separated real numbers, got a 45-character value"),
    (["diagnosticity", "--a", "0.05," * 10, "--b", "0.01,30"],
     "argument --a: expected ALPHA,N (two comma-separated values), got a 50-character value"),
    (["diagnosticity", "--a", "x" * 40 + ",30", "--b", "0.01,30"],
     "argument --a: ALPHA must be a real number, got a 40-character value"),
    (["diagnosticity", "--a", "0.05," + "9" * 5000, "--b", "0.01,30"],
     "argument --a: N must be an integer, got a 5000-character value"),
    # 30 characters or fewer: the value itself, as argparse shows it
    (["critical", "--n", "abc", "--alpha", "0.05"], "argument --n: invalid int value: 'abc'"),
    (["critical", "--n", "9" * 29 + "x", "--alpha", "0.05"], f"argument --n: invalid int value: '{'9' * 29}x'"),
    (["prep", "--p", "x"], "argument --p: invalid float value: 'x'"),
    (["sweep", "--alphas", "0.05,x"], "argument --alphas: expected comma-separated real numbers, got '0.05,x'"),
])
def test_a_refused_flag_value_over_30_characters_is_shown_by_its_length(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: threshold-lab ") and err.endswith(f": error: {message}\n") and len(err) < 600


@pytest.mark.parametrize("argv,echo", [
    (["critical", "--n", "5", "--alpha", ".05", "--mode", "x" * 5000], "invalid choice: a 5000-character value ("),
    (["critical", "--n", "5", "--alpha", ".05", "--mode=" + "x" * 5000], "invalid choice: a 5000-character value ("),
    (["prep", "--p", ".5", "y" * 5000], "unrecognized arguments: a 5000-character value\n"),
    (["prep", "--p", ".5", "y" * 50, "z"], "unrecognized arguments: a 50-character value z\n"),
    (["c" * 5000], "invalid choice: a 5000-character value ("),
    (["posterior", "--n", "5", "--s", "1", "--p=" + "q" * 5000], "ambiguous option: a 5004-character value could"),
    # 30 characters or fewer: as argparse prints them
    (["critical", "--n", "5", "--alpha", ".05", "--mode", "x" * 30], f"invalid choice: '{'x' * 30}' ("),
    (["prep", "--p", ".5", "y" * 30], f"unrecognized arguments: {'y' * 30}\n"),
    (["c" * 30], f"invalid choice: '{'c' * 30}' ("),
], ids=["choice", "choice-after-equals", "unrecognized", "unrecognized-and-short", "command", "ambiguous",
        "choice-30", "unrecognized-30", "command-30"])
def test_argparse_shows_a_value_over_30_characters_by_its_length(capsys, argv, echo):
    # its own messages printed the whole value: 5,231 characters for the invalid choice, 5,085 for the
    # unrecognized argument and 5,190 for the unknown command
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and echo in err and len(err) < 400
