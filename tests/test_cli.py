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
from threshold_lab.cli import parse_and_dispatch


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

    def test_bad_count_token_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "critical", "--n", "abc", "--alpha", "0.05")
        assert code == 2 and out == "" and "abc" in err

    @pytest.mark.parametrize("alpha", ["1e-310", "5e-324"])
    def test_subnormal_alpha(self, capsys, alpha):
        code, out, err = run_cli(capsys, "critical", "--n", "100", "--alpha", alpha)
        assert code == 0 and err == "" and json.loads(out)["s"] == 100
        code, out, err = run_cli(capsys, "critical", "--n", "100", "--alpha", alpha, "--mode", "strict")
        assert code == 1 and out == ""
        assert err.startswith("error: no success count reaches") and "n=100" in err

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

    def test_default_csv_matches_golden_and_ignores_thread_variable(self, capsys, monkeypatch, golden):
        # sweeps run in one thread; the variable that once set a pool size is not read
        monkeypatch.setenv("THRESHOLD_LAB_THREADS", "banana")
        code, out, err = run_cli(capsys, "sweep")
        assert code == 0 and err == ""
        assert out == golden("default_sweep.csv")

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

    def test_grid_file_must_hold_integers(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('["twenty"]')
        code, out, err = run_cli(capsys, "sweep", "--grid", str(bad))
        assert code == 2 and out == "" and "integers" in err

    def test_increasing_alphas_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--alphas", "0.01,0.05")
        assert code == 2 and out == "" and "decreasing" in err

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

    def test_malformed_pair_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "diagnosticity", "--a", "0.05", "--b", "0.01,137")
        assert code == 2 and out == "" and "0.05" in err


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

    @pytest.mark.parametrize("command", [
        "posterior", "critical", "sweep", "crossing", "prep", "power", "diagnosticity",
    ])
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
    (["sweep", "--alphas", "0.05,1.5"], "1.5"),
    (["diagnosticity", "--a", "2.5,98", "--b", "0.01,137"], "2.5"),
    (["diagnosticity", "--a", "0.05,98", "--b", "0.01,-137"], "-137"),
])
def test_out_of_range_flag_is_the_library_error(capsys, argv, value):
    # flags parse as plain ints and floats; the range check is the library's, with no usage line
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and value in err and "usage" not in err


@pytest.mark.parametrize("argv,key", [
    (["posterior", "--n", "2000", "--s", "0"], "posterior_odds_h1"),
    (["diagnosticity", "--a", "5e-324,1000000", "--b", "5e-324,2000000"], "ratio"),
])
def test_non_finite_values_print_as_json_null(capsys, argv, key):
    def reject(constant):
        raise AssertionError(f"{constant} is not RFC 8259 JSON")

    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out, parse_constant=reject)[key] is None


@pytest.mark.parametrize("golden_file,argv", [
    ("posterior.json", ["posterior", "--n", "100", "--s", "60", "--pi0", "0.9"]),
    ("critical.json", ["critical", "--n", "100", "--alpha", "0.05"]),
    ("crossing.json", ["crossing", "--alpha", "0.05", "--level", "0.4"]),
    ("prep.json", ["prep", "--p", "0.05"]),
    ("power.json", ["power", "--mu0", "0", "--mu-alt", "0.5", "--sigma", "1", "--alpha", "0.05",
                    "--beta", "0.2", "--show-power-at", "50"]),
    ("diagnosticity.json", ["diagnosticity", "--a", "0.05,98", "--b", "0.01,137"]),
    ("sweep_strict_one.json", ["sweep", "--format", "json", "--mode", "strict", "--tail", "one",
                               "--alphas", "0.05,1e-10"]),
])
def test_json_output_matches_golden(capsys, golden, golden_file, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == golden(golden_file)


def test_installed_entry_point_runs():
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
    result = subprocess.run([sys.executable, "-c", launcher, "--help"],
                            capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: threshold-lab")


_SCRIPT_ON_PATH = shutil.which("threshold-lab")


@pytest.mark.skipif(_SCRIPT_ON_PATH is None, reason="no threshold-lab console script on PATH")
def test_console_script_on_path_runs():
    result = subprocess.run([_SCRIPT_ON_PATH, "--help"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: threshold-lab")
