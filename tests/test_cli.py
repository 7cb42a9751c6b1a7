"""Tests for the command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from zsmg.cli import main
from zsmg.estimators import plan_sample_budget
from zsmg.gamegen import load_game, random_game, save_game, save_policy
from zsmg.groundtruth import shapley_solve
from zsmg.metrics import read_metrics_csv


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


# ---------------------------------------------------------------------------
# Exit codes and top-level behavior
# ---------------------------------------------------------------------------

class TestExitCodes:
    def test_no_command_is_usage_error(self, cli):
        code, _, err = cli()
        assert code == 1
        assert err.startswith("usage error:")

    def test_unknown_command_is_usage_error(self, cli):
        code, _, err = cli("frobnicate")
        assert code == 1

    def test_missing_required_flag_is_usage_error(self, cli, tmp_path):
        code, _, err = cli("gen", "--seed", "1")
        assert code == 1
        assert "required" in err

    def test_runtime_failure_exits_two(self, cli, tmp_path):
        code, _, err = cli("solve", "--game", str(tmp_path / "missing.json"))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["run", "rational"])
    def test_bad_eta_is_usage_error(self, cli, tmp_path, command):
        code, out, err = cli(command, "--game", "mp1", "--iterations", "5", "--eta", "abc",
                             "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("usage error:") and "--eta" in err and "'abc'" in err
        assert out == "" and not list(tmp_path.iterdir())

    def test_version_flag_raises_system_exit(self, cli):
        with pytest.raises(SystemExit) as excinfo:
            cli("--version")
        assert excinfo.value.code == 0


# ---------------------------------------------------------------------------
# gen / solve
# ---------------------------------------------------------------------------

class TestGenSolve:
    def test_gen_writes_loadable_game(self, cli, tmp_path):
        out = tmp_path / "g.json"
        code, stdout, _ = cli("gen", "--seed", "5", "--states", "2",
                              "--actions-p1", "2", "--actions-p2", "3",
                              "--gamma", "0.9", "--out", str(out))
        assert code == 0
        assert str(out) in stdout and "2x3" in stdout
        game = load_game(out)
        assert game.n_states == 2 and game.gamma == 0.9

    def test_gen_deterministic_bytes(self, cli, tmp_path):
        args = ["gen", "--seed", "5", "--states", "2", "--actions-p1", "2",
                "--actions-p2", "2", "--gamma", "0.9"]
        cli(*args, "--out", str(tmp_path / "a.json"))
        cli(*args, "--out", str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("flag, field", [("--states", "n_states"),
                                             ("--actions-p1", "n_actions_p1"),
                                             ("--actions-p2", "n_actions_p2")])
    def test_gen_rejects_empty_dimension(self, cli, tmp_path, flag, field):
        sizes = {"--states": "2", "--actions-p1": "2", "--actions-p2": "2", flag: "0"}
        out = tmp_path / "g.json"
        code, _, err = cli("gen", "--seed", "1", "--gamma", "0.9", "--out", str(out),
                           *(item for pair in sizes.items() for item in pair))
        assert code == 2
        assert err.startswith(f"error: ValueError: {field} must be an integer >= 1")
        assert not out.exists()

    def test_solve_rejects_infinite_tol(self, cli):
        code, stdout, err = cli("solve", "--game", "switching-mp", "--tol", "inf")
        assert code == 2
        assert stdout == "" and "tol must be positive and finite, got tol=inf" in err

    def test_solve_prints_values_and_sidecar(self, cli, tmp_path):
        sidecar = tmp_path / "gt.json"
        code, stdout, _ = cli("solve", "--game", "mp1", "--out", str(sidecar))
        assert code == 0
        line = next(l for l in stdout.splitlines() if l.startswith("V*[0]"))
        assert abs(float(line.split("=")[1]) - 5.0) < 1e-7
        data = json.loads(sidecar.read_text())
        assert set(data) == {"schema_version", "tol", "v_star", "q_star",
                             "x_star", "y_star"}
        assert abs(data["v_star"][0] - 5.0) < 1e-7
        np.testing.assert_allclose(data["x_star"][0], [0.5, 0.5], atol=1e-7)

    def test_solve_gamma_override(self, cli):
        code, stdout, _ = cli("solve", "--game", "mp1", "--gamma", "0.5")
        assert code == 0
        value = float(stdout.splitlines()[0].split("=")[1])
        assert abs(value - 1.0) < 1e-7  # pennies: 0.5 per stage, horizon 2

    def test_solve_gamma_override_applies_to_game_file(self, cli, tmp_path):
        out = tmp_path / "g.json"
        cli("gen", "--seed", "1", "--states", "2", "--actions-p1", "2",
            "--actions-p2", "2", "--gamma", "0.9", "--out", str(out))
        code, stdout, _ = cli("solve", "--game", str(out), "--gamma", "0.5")
        assert code == 0
        expected = shapley_solve(replace(load_game(out), gamma=0.5)).v_star
        assert stdout.splitlines() == [f"V*[{s}] = {float(v)!r}" for s, v in enumerate(expected)]

    def test_solve_game_file(self, cli, tmp_path):
        out = tmp_path / "g.json"
        cli("gen", "--seed", "1", "--states", "2", "--actions-p1", "2",
            "--actions-p2", "2", "--gamma", "0.8", "--out", str(out))
        code, stdout, _ = cli("solve", "--game", str(out))
        assert code == 0
        assert stdout.count("V*[") == 2


# ---------------------------------------------------------------------------
# run / rational
# ---------------------------------------------------------------------------

class TestRunCommands:
    def test_run_writes_metrics_csv(self, cli, tmp_path):
        code, stdout, _ = cli("run", "--game", "const", "--iterations", "40",
                              "--eta", "0.05", "--cadence", "10",
                              "--out-dir", str(tmp_path))
        assert code == 0
        path = tmp_path / "run_rep0.csv"
        assert str(path) in stdout
        meta, rows = read_metrics_csv(path)
        assert [row.t for row in rows] == [10, 20, 30, 40]
        assert meta["label"] == "run"

    def test_default_cadence_yields_hundred_rows(self, cli, tmp_path):
        cli("run", "--game", "const", "--iterations", "300", "--eta", "0.05",
            "--out-dir", str(tmp_path))
        _, rows = read_metrics_csv(tmp_path / "run_rep0.csv")
        assert len(rows) == 100
        assert rows[0].t == 3 and rows[-1].t == 300

    def test_run_repetitions_and_aggregate(self, cli, tmp_path):
        code, stdout, _ = cli("run", "--game", "mp1", "--iterations", "20",
                              "--eta", "0.05", "--cadence", "10", "--reps", "2",
                              "--estimator", "sampled", "--rollout-len", "30",
                              "--epsilon", "0.5", "--out-dir", str(tmp_path),
                              "--label", "pen")
        assert code == 0
        assert (tmp_path / "pen_rep0.csv").exists()
        assert (tmp_path / "pen_rep1.csv").exists()
        assert "pen_aggregate.csv" in stdout

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_run_without_repetitions_fails(self, cli, tmp_path, reps):
        code, _, err = cli("run", "--game", "mp1", "--iterations", "20", "--eta", "0.05",
                           "--reps", reps, "--out-dir", str(tmp_path))
        assert code != 0
        assert "repetitions" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("label", ["", "../escaped", "a\nb"])
    def test_run_label_that_is_no_file_name_stem_fails(self, cli, tmp_path, label):
        code, _, err = cli("run", "--game", "mp1", "--iterations", "20", "--eta", "0.05",
                           "--label", label, "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"label={label!r}" in err
        assert list(tmp_path.iterdir()) == []

    def test_run_byte_identical_across_directories(self, cli, tmp_path):
        args = ["run", "--game", "mp1", "--iterations", "50", "--eta", "0.05",
                "--cadence", "10", "--seed", "3"]
        cli(*args, "--out-dir", str(tmp_path / "one"))
        cli(*args, "--out-dir", str(tmp_path / "two"))
        assert (tmp_path / "one" / "run_rep0.csv").read_bytes() == \
            (tmp_path / "two" / "run_rep0.csv").read_bytes()

    def test_run_config_file_with_flag_override(self, cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "game": "const", "label": "fromfile",
            "run": {"iterations": 10, "eta": 0.05, "cadence": 5},
        }))
        code, _, _ = cli("run", "--config", str(cfg), "--iterations", "20",
                         "--out-dir", str(tmp_path))
        assert code == 0
        _, rows = read_metrics_csv(tmp_path / "fromfile_rep0.csv")
        assert [row.t for row in rows] == [5, 10, 15, 20]

    def test_non_numeric_config_eta_fails_naming_it(self, cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"game": "mp1", "run": {"iterations": 10, "eta": "abc"}}))
        code, out, err = cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error:") and "eta='abc'" in err
        assert out == "" and not (tmp_path / "out").exists()

    def test_string_strict_in_config_fails_naming_it(self, cli, tmp_path):
        # "false" is a non-empty string, so it used to turn strict mode on.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"game": "mp1", "run": {"iterations": 10, "strict": "false"}}))
        code, out, err = cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error:") and "strict='false'" in err
        assert out == "" and not (tmp_path / "out").exists()

    def test_negative_cadence_fails_naming_it(self, cli, tmp_path):
        code, out, err = cli("run", "--game", "mp1", "--iterations", "10", "--cadence", "-3",
                             "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error:") and "cadence=-3" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("run, shown", [
        ({"iterations": "abc"}, "iterations='abc'"),
        ({"iterations": 10, "cadence": False}, "cadence=False"),
    ], ids=["iterations_str", "cadence_false"])
    def test_fields_behind_default_cadence_fail_naming_them(self, cli, tmp_path, run, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"game": "mp1", "run": {"eta": 0.05, **run}}))
        code, out, err = cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: ValueError:") and shown in err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "rational"])
    def test_gamma_override_applies_to_game_file(self, cli, tmp_path, command):
        game = random_game(seed=2, n_states=2, n_actions_p1=2, n_actions_p2=2, gamma=0.9)
        save_game(game, tmp_path / "g9.json")
        save_game(replace(game, gamma=0.5), tmp_path / "g5.json")
        args = [command, "--iterations", "20", "--eta", "0.05", "--cadence", "10"]

        def rows(name, *extra):
            cli(*args, "--game", str(tmp_path / f"{name}.json"), *extra,
                "--out-dir", str(tmp_path / f"{name}{len(extra)}"))
            return read_metrics_csv(tmp_path / f"{name}{len(extra)}" / "run_rep0.csv")[1]

        flagged = rows("g9", "--gamma", "0.5")
        assert flagged == rows("g5")
        assert flagged != rows("g9")

    def test_rational_uniform_opponent(self, cli, tmp_path):
        code, _, _ = cli("rational", "--game", "mp1", "--iterations", "40",
                         "--eta", "0.05", "--cadence", "40",
                         "--out-dir", str(tmp_path))
        assert code == 0
        _, rows = read_metrics_csv(tmp_path / "run_rep0.csv")
        assert rows[-1].game_gap <= 1e-9

    def test_rational_opponent_file(self, cli, tmp_path):
        opp = tmp_path / "opp.json"
        save_policy(np.array([[0.8, 0.2]]), opp)
        code, _, _ = cli("rational", "--game", "mp1", "--iterations", "2000",
                         "--eta", "0.05", "--cadence", "2000",
                         "--opponent", str(opp), "--out-dir", str(tmp_path))
        assert code == 0
        _, rows = read_metrics_csv(tmp_path / "run_rep0.csv")
        assert rows[-1].game_gap < 0.05

    def test_rational_reads_the_config_opponent(self, cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"game": "mp1", "opponent": [[0.9, 0.1]],
                                   "run": {"iterations": 10, "eta": 0.05, "cadence": 10}}))

        def last_gap(*args):
            out_dir = tmp_path / str(len(list(tmp_path.iterdir())))
            assert cli(*args, "--config", str(cfg), "--out-dir", str(out_dir))[0] == 0
            return read_metrics_csv(out_dir / "run_rep0.csv")[1][-1].game_gap

        # The file's opponent stands unless --opponent names another.
        assert last_gap("rational") == last_gap("run") > 1.0
        assert last_gap("rational", "--opponent", "uniform") <= 1e-9


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

class TestPlan:
    def test_samples_mode_matches_library(self, cli):
        code, stdout, _ = cli("plan", "--mode", "samples", "--gamma", "0.9",
                              "--mu", "0.5", "--epsilon", "0.1",
                              "--actions-p1", "3", "--actions-p2", "2")
        assert code == 0
        budget = plan_sample_budget(n_actions_p1=3, n_actions_p2=2, gamma=0.9,
                                    mu=0.5, epsilon=0.1, horizon=1e4, delta=0.05)
        assert f"rollout_len = {budget.rollout_len}" in stdout
        assert f"epsilon_prime = {budget.epsilon_prime!r}" in stdout

    def test_samples_mode_can_probe_game_for_mu(self, cli):
        code, stdout, _ = cli("plan", "--mode", "samples", "--gamma", "0.9",
                              "--game", "mp1", "--epsilon", "0.1")
        assert code == 0
        assert "mu_estimate = 1.0" in stdout

    def test_samples_mode_reducible_game_fails_cleanly(self, cli):
        code, _, err = cli("plan", "--mode", "samples", "--gamma", "0.5",
                           "--game", "chain2", "--epsilon", "0.1")
        assert code == 2
        assert "ReducibleChainError" in err

    def test_average_gap_mode(self, cli):
        code, stdout, _ = cli("plan", "--mode", "average-gap", "--gamma", "0.9",
                              "--states", "4", "--xi", "0.1", "--eta", "0.01")
        assert code == 0
        assert "iterations = " in stdout
        assert "log_factor = " in stdout

    def test_last_iterate_mode_frozen_output(self, cli):
        code, stdout, _ = cli("plan", "--mode", "last-iterate", "--gamma", "0.9",
                              "--xi", "0.1", "--eta", "0.01", "--c-hat", "2.0")
        assert code == 0
        assert "iterations = 625000000001" in stdout
        assert "epsilon = 3.999999999999998e-06" in stdout
        assert "log_factor" not in stdout

    @pytest.mark.parametrize("mode_args", [
        ["--mode", "samples", "--mu", "0.5", "--epsilon", "0.1"],
        ["--mode", "average-gap", "--xi", "0.1", "--eta", "0.01"],
    ])
    def test_gamma_outside_unit_interval_fails(self, cli, mode_args):
        code, stdout, err = cli("plan", "--gamma", "1.5", *mode_args)
        assert code != 0
        assert "gamma" in err
        assert "rollout_len =" not in stdout
        assert "log_factor =" not in stdout

    def test_impossible_budget_input_fails_naming_it(self, cli):
        # It used to print rollout_len = -47676227 and exit 0.
        code, stdout, err = cli("plan", "--mode", "samples", "--gamma", "0.9", "--mu", "0.5",
                                "--epsilon", "0.1", "--c-l", "-1")
        assert code == 2
        assert "c_l must be positive and finite, got c_l=-1.0" in err
        assert "rollout_len =" not in stdout

    def test_budget_that_overflows_fails_naming_the_input(self, cli):
        # It used to exit with a ZeroDivisionError traceback.
        code, stdout, err = cli("plan", "--mode", "samples", "--gamma", "0.9", "--mu", "0.5",
                                "--epsilon", "1e-120")
        assert code == 2
        assert "the budget overflows" in err and "epsilon=1e-120" in err
        assert "rollout_len =" not in stdout

    @pytest.mark.parametrize("argv,fragment", [
        (["plan", "--mode", "samples", "--gamma", "0.9", "--mu", "0.5"],
         "--epsilon"),
        (["plan", "--mode", "samples", "--gamma", "0.9", "--epsilon", "0.1"],
         "--mu or --game"),
        (["plan", "--mode", "average-gap", "--gamma", "0.9", "--eta", "0.01"],
         "--xi"),
        (["plan", "--mode", "last-iterate", "--gamma", "0.9", "--xi", "0.1",
          "--eta", "0.01"], "--c-hat"),
        (["plan", "--mode", "samples", "--mu", "0.5", "--epsilon", "0.1"],
         "--gamma"),
    ])
    def test_usage_errors(self, cli, argv, fragment):
        code, _, err = cli(*argv)
        assert code == 1
        assert fragment in err


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

class TestPlot:
    @pytest.fixture
    def metrics_csv(self, cli, tmp_path):
        game = tmp_path / "g.json"
        cli("gen", "--seed", "2", "--states", "2", "--actions-p1", "2",
            "--actions-p2", "2", "--gamma", "0.9", "--out", str(game))
        cli("run", "--game", str(game), "--iterations", "100", "--eta", "0.05",
            "--cadence", "10", "--out-dir", str(tmp_path))
        return tmp_path / "run_rep0.csv"

    def test_plot_writes_svg(self, cli, metrics_csv, tmp_path):
        out = tmp_path / "chart.svg"
        code, stdout, _ = cli("plot", "--input", str(metrics_csv),
                              "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "game_gap" in text and "mean_dist_sq" in text

    def test_plot_deterministic(self, cli, metrics_csv, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli("plot", "--input", str(metrics_csv), "--out", str(a))
        cli("plot", "--input", str(metrics_csv), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_plot_linear_axis(self, cli, metrics_csv, tmp_path):
        out = tmp_path / "lin.svg"
        code, _, _ = cli("plot", "--input", str(metrics_csv), "--linear",
                         "--columns", "game_gap", "--out", str(out))
        assert code == 0 and out.exists()

    def test_unknown_column_is_usage_error(self, cli, metrics_csv, tmp_path):
        code, _, err = cli("plot", "--input", str(metrics_csv),
                           "--columns", "velocity", "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert "velocity" in err

    def test_empty_column_is_usage_error(self, cli, metrics_csv, tmp_path):
        code, _, err = cli("plot", "--input", str(metrics_csv),
                           "--columns", "est_err_max",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert "est_err_max" in err

    def test_no_rows_is_usage_error(self, cli, tmp_path):
        empty = tmp_path / "empty.csv"
        from zsmg.metrics import write_metrics_csv
        write_metrics_csv(empty, [])
        code, _, err = cli("plot", "--input", str(empty),
                           "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert "no data rows" in err
