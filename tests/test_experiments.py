"""Tests for the multi-repetition experiment driver."""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import zsmg.experiments as experiments_mod
import zsmg.groundtruth as groundtruth_mod
import zsmg.learner as learner_mod
from zsmg import __version__
from zsmg.experiments import ExperimentConfig, resolve_game, run_experiment
from zsmg.gamegen import builtin, game_to_dict, save_game, save_policy
from zsmg.groundtruth import shapley_solve
from zsmg.learner import RunConfig, run_selfplay, run_single_player
from zsmg.metrics import (aggregate_metrics, config_digest, read_metrics_csv,
                          write_aggregate_csv, write_metrics_csv)


def _fast_cfg(**overrides) -> ExperimentConfig:
    run = RunConfig(iterations=40, eta=0.05, cadence=10)
    kwargs = dict(game="mp1", run=run, label="t")
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Game resolution
# ---------------------------------------------------------------------------

class TestResolveGame:
    def test_builtin_name_string(self):
        game = resolve_game("mp1")
        assert game.name == "mp1"

    def test_file_path_string(self, tmp_path):
        path = tmp_path / "g.json"
        save_game(builtin("const"), path)
        game = resolve_game(str(path))
        assert game.name == "const"

    def test_builtin_dict_with_gamma_override(self):
        game = resolve_game({"builtin": "mp1", "gamma": 0.5})
        assert game.gamma == 0.5

    def test_file_dict(self, tmp_path):
        path = tmp_path / "g.json"
        save_game(builtin("chain2"), path)
        assert resolve_game({"file": str(path)}).n_states == 2

    def test_random_dict(self):
        game = resolve_game({"random": {"seed": 3, "n_states": 2, "n_actions_p1": 2,
                                        "n_actions_p2": 3, "gamma": 0.9}})
        assert game.n_states == 2 and game.n_actions_p2 == 3
        repeat = resolve_game({"random": {"seed": 3, "n_states": 2, "n_actions_p1": 2,
                                          "n_actions_p2": 3, "gamma": 0.9}})
        np.testing.assert_array_equal(game.loss, repeat.loss)

    def test_inline_dict(self):
        from zsmg.gamegen import game_to_dict
        data = game_to_dict(builtin("const"))
        game = resolve_game({"inline": data})
        assert game.gamma == 0.5

    def test_unintelligible_spec_rejected(self):
        with pytest.raises(ValueError, match="game source"):
            resolve_game({"mystery": 1})
        with pytest.raises(ValueError):
            resolve_game(42)


# ---------------------------------------------------------------------------
# Config parsing and seeds
# ---------------------------------------------------------------------------

class TestExperimentConfig:
    def test_from_dict_nested_run(self):
        cfg = ExperimentConfig.from_dict(
            {"game": "const", "run": {"iterations": 17, "eta": 0.01},
             "repetitions": 3, "label": "demo"}
        )
        assert cfg.run.iterations == 17
        assert cfg.run.eta == 0.01
        assert cfg.repetitions == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment-config"):
            ExperimentConfig.from_dict({"games": "mp1"})

    def test_unknown_run_field_rejected(self):
        with pytest.raises(ValueError, match="unknown run-config"):
            ExperimentConfig.from_dict({"run": {"iters": 5}})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"game": "mp1", "run": {"iterations": 9}}))
        assert ExperimentConfig.from_json_file(path).run.iterations == 9

    def test_default_seeds_offset_from_run_seed(self):
        cfg = _fast_cfg(repetitions=3, run=RunConfig(seed=10))
        assert cfg.seed_list() == [10, 11, 12]

    def test_explicit_seeds_used_verbatim(self):
        cfg = _fast_cfg(repetitions=2, seeds=[7, 99])
        assert cfg.seed_list() == [7, 99]

    def test_seed_count_mismatch_rejected(self):
        cfg = _fast_cfg(repetitions=3, seeds=[1, 2])
        with pytest.raises(ValueError, match="3 repetitions"):
            cfg.seed_list()

    def test_out_dir_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ZSMG_OUT_DIR", str(tmp_path / "envdir"))
        assert _fast_cfg().resolve_out_dir() == tmp_path / "envdir"
        assert _fast_cfg(out_dir=str(tmp_path)).resolve_out_dir() == tmp_path
        monkeypatch.delenv("ZSMG_OUT_DIR")
        assert str(_fast_cfg().resolve_out_dir()) == "."


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------

class TestRunExperiment:
    def test_single_repetition_outputs(self, tmp_path):
        out = run_experiment(_fast_cfg(out_dir=str(tmp_path)))
        assert out.aggregate_path is None
        assert [p.name for p in out.rep_paths] == ["t_rep0.csv"]
        meta, rows = read_metrics_csv(out.rep_paths[0])
        assert set(meta) == {"schema", "tool_version", "label", "rep", "seed",
                             "config_hash"}
        assert meta["label"] == "t" and meta["rep"] == "0" and meta["seed"] == "0"
        assert [row.t for row in rows] == [10, 20, 30, 40]

    def test_aggregate_recomputable_from_reps(self, tmp_path):
        cfg = _fast_cfg(
            out_dir=str(tmp_path), repetitions=3,
            game={"random": {"seed": 4, "n_states": 2, "n_actions_p1": 2,
                             "n_actions_p2": 2, "gamma": 0.9}},
            run=RunConfig(iterations=30, eta=0.05, cadence=10,
                          estimator="sampled", rollout_len=50, epsilon=0.5),
        )
        out = run_experiment(cfg)
        assert out.aggregate_path is not None
        assert out.aggregate_path.name == "t_aggregate.csv"
        runs = [read_metrics_csv(p)[1] for p in out.rep_paths]
        expected = aggregate_metrics(runs)
        text = out.aggregate_path.read_text().splitlines()
        header = next(l for l in text if not l.startswith("#")).split(",")
        first_data = next(l for l in text if not l.startswith("#") and l != ",".join(header))
        values = dict(zip(header, first_data.split(",")))
        assert float(values["game_gap_med"]) == expected["game_gap_med"][0]
        # Sampled runs with distinct seeds must actually differ.
        gaps = {tuple(row.game_gap for row in rows) for rows in runs}
        assert len(gaps) == 3

    def test_workers_do_not_change_bytes(self, tmp_path):
        run = RunConfig(iterations=30, eta=0.05, cadence=10, estimator="sampled",
                        rollout_len=40, epsilon=0.4)
        opponent = tmp_path / "opp.json"
        save_policy(np.random.default_rng(5).dirichlet(np.ones(2), size=3), opponent)
        cases = {
            "const": dict(game="const"),
            # The prepared game shipped to the workers is the opponent-reduced one.
            "random-opponent": dict(
                game={"random": {"seed": 8, "n_states": 3, "n_actions_p1": 3,
                                 "n_actions_p2": 2, "gamma": 0.9}},
                opponent=str(opponent)),
        }
        # Three distinct sampled runs over two workers: batches of one and two.
        cases["const-3"] = dict(game="const", repetitions=3)
        for name, case in cases.items():
            case = {"repetitions": 2, **case}
            serial = run_experiment(_fast_cfg(out_dir=str(tmp_path / name / "s"),
                                              workers=1, run=run, **case))
            parallel = run_experiment(_fast_cfg(out_dir=str(tmp_path / name / "p"),
                                                workers=2, run=run, **case))
            assert len(serial.rep_paths) == len(parallel.rep_paths) == case["repetitions"]
            for a, b in zip(serial.rep_paths, parallel.rep_paths):
                assert a.read_bytes() == b.read_bytes()
            assert serial.aggregate_path.read_bytes() == \
                parallel.aggregate_path.read_bytes()

    @pytest.mark.parametrize("reps, workers", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_exact_bytes_equal_separate_learner_runs(self, tmp_path, reps, workers):
        # Every exact repetition is its own run_selfplay call, written with its own header.
        cfg = _fast_cfg(out_dir=str(tmp_path / "exp"), repetitions=reps, workers=workers,
                        game={"random": {"seed": 6, "n_states": 3, "n_actions_p1": 3,
                                         "n_actions_p2": 2, "gamma": 0.9}},
                        run=RunConfig(iterations=60, eta=0.05, cadence=15, seed=5,
                                      gamma=0.8))
        out = run_experiment(cfg)
        game = resolve_game(cfg.game)
        ground_truth = shapley_solve(replace(game, gamma=0.8), tol=cfg.gt_tol)
        header = {"schema": 1, "tool_version": __version__, "label": "t"}
        runs = []
        for rep, seed in enumerate(range(5, 5 + reps)):
            run = replace(cfg.run, seed=seed)
            rows = run_selfplay(game, run, ground_truth=ground_truth).rows
            runs.append(rows)
            digest = config_digest({"game": game_to_dict(game), "gt_tol": cfg.gt_tol,
                                    "label": "t", "run": run.to_dict()})
            expected = tmp_path / f"rep{rep}.csv"
            write_metrics_csv(expected, rows, metadata={**header, "rep": rep, "seed": seed,
                                                        "config_hash": digest})
            assert out.rep_paths[rep].read_bytes() == expected.read_bytes()
        assert len(out.rep_paths) == reps
        if reps == 1:
            assert out.aggregate_path is None
            return
        expected = tmp_path / "aggregate.csv"
        write_aggregate_csv(expected, aggregate_metrics(runs), metadata={
            **header, "repetitions": reps, "seeds": ",".join(map(str, range(5, 5 + reps)))})
        assert out.aggregate_path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("estimator, calls", [("exact", 1), ("sampled", 3)])
    def test_one_learner_run_per_distinct_repetition(self, tmp_path, monkeypatch,
                                                     estimator, calls):
        # The distinct runs go through the learner as one batch.
        seeds, batches = [], []
        real = experiments_mod._run_batch

        def counting(runs, ground_truths, *args):
            batches.append(len(runs))
            seeds.extend(run.seed for run in runs)
            return real(runs, ground_truths, *args)

        monkeypatch.setattr(experiments_mod, "_run_batch", counting)
        run = RunConfig(iterations=20, eta=0.05, cadence=10, estimator=estimator,
                        rollout_len=10, epsilon=0.5)
        out = run_experiment(_fast_cfg(out_dir=str(tmp_path), repetitions=3, run=run))
        assert len(set(seeds)) == len(seeds) == calls
        assert batches == [calls]
        assert len(out.rep_paths) == 3 and out.aggregate_path is not None

    @pytest.mark.parametrize("reps, workers", [(1, 1), (3, 1), (3, 2), (4, 3)])
    def test_sampled_bytes_equal_separate_learner_runs(self, tmp_path, reps, workers):
        # Every sampled repetition's CSV, and the aggregate, has the bytes of
        # its own run_selfplay call, whatever batches the runs stepped in.
        cfg = _fast_cfg(out_dir=str(tmp_path / "exp"), repetitions=reps, workers=workers,
                        game={"random": {"seed": 6, "n_states": 3, "n_actions_p1": 3,
                                         "n_actions_p2": 2, "gamma": 0.9}},
                        run=RunConfig(iterations=40, eta=0.05, cadence=10, seed=5,
                                      estimator="sampled", rollout_len=25, epsilon=0.5))
        out = run_experiment(cfg)
        game = resolve_game(cfg.game)
        ground_truth = shapley_solve(game, tol=cfg.gt_tol)
        header = {"schema": 1, "tool_version": __version__, "label": "t"}
        runs = []
        for rep, seed in enumerate(range(5, 5 + reps)):
            run = replace(cfg.run, seed=seed)
            rows = run_selfplay(game, run, ground_truth=ground_truth).rows
            runs.append(rows)
            digest = config_digest({"game": game_to_dict(game), "gt_tol": cfg.gt_tol,
                                    "label": "t", "run": run.to_dict()})
            expected = tmp_path / f"rep{rep}.csv"
            write_metrics_csv(expected, rows, metadata={**header, "rep": rep, "seed": seed,
                                                        "config_hash": digest})
            assert out.rep_paths[rep].read_bytes() == expected.read_bytes()
        assert len({tuple(row.game_gap for row in rows) for rows in runs}) == reps
        if reps == 1:
            assert out.aggregate_path is None
            return
        expected = tmp_path / "aggregate.csv"
        write_aggregate_csv(expected, aggregate_metrics(runs), metadata={
            **header, "repetitions": reps, "seeds": ",".join(map(str, range(5, 5 + reps)))})
        assert out.aggregate_path.read_bytes() == expected.read_bytes()

    def test_config_hash_independent_of_out_dir(self, tmp_path):
        a = run_experiment(_fast_cfg(out_dir=str(tmp_path / "a")))
        b = run_experiment(_fast_cfg(out_dir=str(tmp_path / "b")))
        meta_a, _ = read_metrics_csv(a.rep_paths[0])
        meta_b, _ = read_metrics_csv(b.rep_paths[0])
        assert meta_a["config_hash"] == meta_b["config_hash"]
        assert a.rep_paths[0].read_bytes() == b.rep_paths[0].read_bytes()

    def test_config_hash_sensitive_to_run_settings(self, tmp_path):
        a = run_experiment(_fast_cfg(out_dir=str(tmp_path / "a")))
        b = run_experiment(_fast_cfg(
            out_dir=str(tmp_path / "b"),
            run=RunConfig(iterations=40, eta=0.01, cadence=10)))
        meta_a, _ = read_metrics_csv(a.rep_paths[0])
        meta_b, _ = read_metrics_csv(b.rep_paths[0])
        assert meta_a["config_hash"] != meta_b["config_hash"]

    def test_debug_columns_flag(self, tmp_path):
        out = run_experiment(_fast_cfg(out_dir=str(tmp_path), debug_columns=True))
        header = out.rep_paths[0].read_text().splitlines()
        data_header = next(l for l in header if not l.startswith("#"))
        assert "wall_clock" in data_header and "est_err_max" in data_header


class TestOpponentModes:
    def test_uniform_opponent(self, tmp_path):
        out = run_experiment(_fast_cfg(out_dir=str(tmp_path), opponent="uniform"))
        _, rows = read_metrics_csv(out.rep_paths[0])
        assert len(rows) == 4
        # Against a uniform pennies opponent every strategy ties, so the best
        # response keeps the gap at zero from the start.
        assert rows[-1].game_gap <= 1e-9

    def test_array_opponent(self, tmp_path):
        out = run_experiment(_fast_cfg(
            out_dir=str(tmp_path), opponent=[[0.8, 0.2]],
            run=RunConfig(iterations=2000, eta=0.05, cadence=2000)))
        _, rows = read_metrics_csv(out.rep_paths[0])
        # Exploiting a fixed biased opponent drives the learner's gap down.
        assert rows[-1].game_gap < 0.05

    def test_policy_file_opponent_matches_array(self, tmp_path):
        policy = np.array([[0.8, 0.2]])
        path = tmp_path / "opp.json"
        save_policy(policy, path)
        by_file = run_experiment(_fast_cfg(out_dir=str(tmp_path / "f"),
                                           opponent=str(path)))
        by_array = run_experiment(_fast_cfg(out_dir=str(tmp_path / "a"),
                                            opponent=policy.tolist()))
        assert by_file.rep_paths[0].read_text().splitlines()[1:] == \
            by_array.rep_paths[0].read_text().splitlines()[1:]


# ---------------------------------------------------------------------------
# One ground-truth solve per experiment
# ---------------------------------------------------------------------------

def _gt_bytes(gt) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for a in (gt.v_star, gt.q_star, gt.x_star, gt.y_star))


def _recorded_ground_truth(cfg: ExperimentConfig, monkeypatch):
    """The ground truth ``run_experiment`` solves once and hands to every repetition."""
    shared = []
    real = experiments_mod.shapley_solve

    def recording(game, *args, **kwargs):
        shared.append(real(game, *args, **kwargs))
        return shared[-1]

    with monkeypatch.context() as patch:
        patch.setattr(experiments_mod, "shapley_solve", recording)
        run_experiment(cfg)
    assert len(shared) == 1
    return shared[0]


class TestSharedGroundTruth:
    @pytest.fixture()
    def solves(self, monkeypatch):
        calls = []
        real = groundtruth_mod.shapley_solve

        def counting(game, *args, **kwargs):
            calls.append(game.name)
            return real(game, *args, **kwargs)

        monkeypatch.setattr(experiments_mod, "shapley_solve", counting)
        monkeypatch.setattr(groundtruth_mod, "shapley_solve", counting)
        return calls

    def test_one_solve_for_all_repetitions(self, tmp_path, solves):
        run_experiment(_fast_cfg(out_dir=str(tmp_path), repetitions=3))
        assert solves == ["mp1"]

    def test_no_solve_without_metric_rows(self, tmp_path, solves):
        run_experiment(_fast_cfg(out_dir=str(tmp_path), repetitions=2,
                                 run=RunConfig(iterations=20, eta=0.05, cadence=0)))
        assert solves == []

    def test_selfplay_solves_the_repetition_game(self, tmp_path, monkeypatch):
        cfg = _fast_cfg(out_dir=str(tmp_path),
                        run=RunConfig(iterations=10, eta=0.05, cadence=10, gamma=0.8))
        game = resolve_game(cfg.game)
        shared = _recorded_ground_truth(cfg, monkeypatch)
        own = run_selfplay(game, cfg.run).ground_truth
        assert _gt_bytes(shared) == _gt_bytes(own)

    def test_single_player_solves_the_reduced_game(self, tmp_path, monkeypatch):
        opponent = [[0.8, 0.2]]
        cfg = _fast_cfg(out_dir=str(tmp_path), opponent=opponent,
                        run=RunConfig(iterations=10, eta=0.05, cadence=10, gamma=0.8))
        game = resolve_game(cfg.game)
        shared = _recorded_ground_truth(cfg, monkeypatch)
        own = run_single_player(game, np.array(opponent), cfg.run).ground_truth
        assert shared.q_star.shape == (1, 2, 1)
        assert _gt_bytes(shared) == _gt_bytes(own)

    @pytest.mark.parametrize("run, match", [
        (dict(estimator="sampled", rollout_len=0), "rollout_len"),
        (dict(init_x=[[0.7, 0.7]]), "init_x"),
        (dict(alpha="bogus"), "alpha schedule"),
        (dict(iterations=0), "iterations"),
        (dict(eta=-1), "step size"),
        (dict(eta=float("nan")), "step size must be finite and positive, got eta=nan"),
        (dict(eta=float("inf")), "step size must be finite and positive, got eta=inf"),
        (dict(estimator="bogus"), "estimator"),
        (dict(gamma=1.0), r"gamma=1\.0"),
        (dict(gamma=float("nan")), "gamma=nan"),
    ], ids=["rollout_len", "init_x", "alpha", "iterations", "eta", "eta_nan", "eta_inf",
            "estimator", "gamma_one", "gamma_nan"])
    def test_run_config_error_raised_before_solving(self, tmp_path, solves, run, match):
        run = RunConfig(**{"iterations": 10, "eta": 0.05, "cadence": 10, **run})
        with pytest.raises(ValueError, match=match):
            run_experiment(_fast_cfg(out_dir=str(tmp_path), repetitions=2, run=run))
        assert solves == []
        assert list(tmp_path.rglob("*.csv")) == []

    def test_bad_exploration_weight_rejected_before_solving(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("ground truth solved before the config was checked")

        monkeypatch.setattr(experiments_mod, "shapley_solve", no_solve)
        monkeypatch.setattr(groundtruth_mod, "shapley_solve", no_solve)
        run = RunConfig(iterations=10, eta=0.05, cadence=10, estimator="sampled",
                        rollout_len=20, epsilon=30.0)
        with pytest.raises(ValueError, match=r"epsilon_prime = \(1 - gamma\) \* epsilon"):
            run_experiment(_fast_cfg(out_dir=str(tmp_path), run=run))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("reps, seeds", [(0, None), (-2, None), (0, [])])
    def test_no_repetitions_rejected_before_solving(self, tmp_path, solves, reps, seeds):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            run_experiment(_fast_cfg(out_dir=str(tmp_path), repetitions=reps, seeds=seeds))
        assert solves == []
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("run, seeds, match", [
        (dict(iterations=2.5), None, "got iterations=2.5"),
        (dict(iterations=True), None, "got iterations=True"),
        (dict(seed="x"), None, "got seed='x'"),
        (dict(seed=2.5), None, "got seed=2.5"),
        (dict(estimator="sampled", rollout_len=2.5), None, "got rollout_len=2.5"),
        ({}, [1, 2.5], "got seeds=2.5"),
    ], ids=["iterations_float", "iterations_bool", "seed_str", "seed_float",
            "rollout_len_float", "explicit_seed_float"])
    def test_integer_field_rejected_before_solving(self, tmp_path, solves, run, seeds, match):
        run = RunConfig(**{"iterations": 10, "eta": 0.05, "cadence": 10, **run})
        with pytest.raises(ValueError, match=re.escape(match)):
            run_experiment(_fast_cfg(out_dir=str(tmp_path), repetitions=2, seeds=seeds,
                                     run=run))
        assert solves == []
        assert list(tmp_path.rglob("*.csv")) == []

    def test_non_numeric_eta_rejected_before_solving(self, tmp_path, solves):
        run = RunConfig(iterations=10, eta="abc", cadence=10)
        with pytest.raises(ValueError, match="step size must be a number or 'auto', got eta='abc'"):
            run_experiment(_fast_cfg(out_dir=str(tmp_path), run=run))
        assert solves == []
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("cadence", [-3, 2.5])
    def test_bad_cadence_rejected_before_solving(self, tmp_path, solves, cadence):
        run = RunConfig(iterations=10, eta=0.05, cadence=cadence)
        with pytest.raises(ValueError, match=f"got cadence={cadence}"):
            run_experiment(_fast_cfg(out_dir=str(tmp_path), run=run))
        assert solves == []
        assert list(tmp_path.rglob("*.csv")) == []

    def test_invalid_game_rejected_before_solving(self, tmp_path, solves):
        run = RunConfig(iterations=10, eta=0.05, cadence=10, gamma=0.3, strict=True)
        with pytest.raises(ValueError, match="invalid game: gamma"):
            run_experiment(_fast_cfg(out_dir=str(tmp_path), run=run))
        assert solves == []


# ---------------------------------------------------------------------------
# One set-up pass: every field checked once, before anything is solved
# ---------------------------------------------------------------------------

class _Solved(Exception):
    """Raised by the patched ground-truth solver: the set-up let the run through."""


_RUN_FIELDS = [f.name for f in fields(RunConfig)]
_EXPERIMENT_FIELDS = ["gt_tol", "out_dir", "repetitions", "seeds", "label",
                      "debug_columns", "workers"]
_ODD_VALUES = [True, 2.5, "x", math.nan, math.inf, -math.inf, -1]
# The (field, value) pairs above that run, each with its README meaning: a
# step size, exploration scale or ground-truth tolerance of 2.5, a bool flag
# set, and "x" as a label or as an out_dir relative to the working directory.
_ACCEPTED = {("eta", 2.5), ("epsilon", 2.5), ("gt_tol", 2.5), ("strict", True),
             ("rollout_reset", True), ("debug_columns", True), ("label", "x"),
             ("out_dir", "x")}


def _odd_cfg(field: str, value) -> ExperimentConfig:
    """A sampled two-repetition experiment on switching-mp with ``field`` set to ``value``."""
    run = RunConfig(iterations=6, eta="auto", cadence=3, estimator="sampled", rollout_len=5,
                    epsilon=1.0)
    cfg = ExperimentConfig(game="switching-mp", run=run, repetitions=2, label="t",
                           out_dir="out")
    setattr(cfg.run if field in _RUN_FIELDS else cfg, field, value)
    return cfg


class TestEveryFieldChecked:
    """Every RunConfig field and every ExperimentConfig value field (game, run
    and opponent are sources with their own resolvers) either runs with its
    documented meaning or raises ValueError naming the field and its value,
    before the ground truth is solved or any CSV is written."""

    def test_tables_list_every_field(self):
        assert list(learner_mod._RUN_FIELDS) == _RUN_FIELDS
        assert set(experiments_mod._EXPERIMENT_FIELDS) == set(_EXPERIMENT_FIELDS)
        assert {f.name for f in fields(ExperimentConfig)} - set(_EXPERIMENT_FIELDS) == \
            {"game", "run", "opponent"}

    @pytest.mark.parametrize("value", _ODD_VALUES,
                             ids=["bool", "float", "str", "nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("field", _RUN_FIELDS + _EXPERIMENT_FIELDS)
    def test_odd_value_runs_or_is_named(self, tmp_path, monkeypatch, field, value):
        monkeypatch.chdir(tmp_path)
        solves = []

        def solve(game, *args, **kwargs):
            solves.append(game.name)
            raise _Solved

        monkeypatch.setattr(experiments_mod, "shapley_solve", solve)
        monkeypatch.setattr(groundtruth_mod, "shapley_solve", solve)
        cfg = _odd_cfg(field, value)
        if (field, value) in _ACCEPTED:
            with pytest.raises(_Solved):
                run_experiment(cfg)
            assert solves == ["switching-mp"]
        else:
            with pytest.raises(ValueError) as caught:
                run_experiment(cfg)
            assert f"{field}={value!r}" in str(caught.value)
            assert solves == []
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("field, value", sorted(_ACCEPTED, key=str))
    def test_accepted_values_run_to_the_end(self, tmp_path, monkeypatch, field, value):
        monkeypatch.chdir(tmp_path)
        out = run_experiment(_odd_cfg(field, value))
        label, out_dir = ("x", "out") if field == "label" else ("t", "x" if field == "out_dir"
                                                                 else "out")
        assert out.rep_paths == [Path(out_dir) / f"{label}_rep{rep}.csv" for rep in (0, 1)]
        header, rows = read_metrics_csv(out.rep_paths[0])
        assert [row.t for row in rows] == [3, 6]
        assert (rows[0].wall_clock is not None) == (field == "debug_columns")

    @pytest.mark.parametrize("field, value", [
        ("workers", 0), ("workers", np.int64(-2)), ("repetitions", np.bool_(True)),
        ("seeds", "12"), ("seeds", [1, True]), ("gt_tol", 0.0), ("gt_tol", "inf"),
        ("debug_columns", "false"), ("debug_columns", 1), ("label", 5), ("out_dir", 2),
    ])
    def test_experiment_field_rejected_before_solving(self, tmp_path, monkeypatch,
                                                      field, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("ground truth solved before the config was checked")

        monkeypatch.setattr(experiments_mod, "shapley_solve", no_solve)
        cfg = _odd_cfg(field, value)
        if field != "out_dir":
            cfg.out_dir = str(tmp_path)
        shown = value[1] if field == "seeds" and isinstance(value, list) else value
        with pytest.raises(ValueError, match=re.escape(f"{field}={shown!r}")):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field, value, shown", [
        ("game", "nosuchgame", "game='nosuchgame'"),
        ("game", {"file": "missing.json"}, "game='missing.json'"),
        ("opponent", "missing.json", "opponent='missing.json'"),
        ("run", True, "run=True"),
    ], ids=["game_name", "game_file", "opponent_file", "run"])
    def test_source_rejected_before_solving(self, tmp_path, monkeypatch, field, value, shown):
        def no_solve(*args, **kwargs):
            raise AssertionError("ground truth solved before the sources were checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments_mod, "shapley_solve", no_solve)
        cfg = _odd_cfg("label", "t")
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=re.escape(shown)):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_run_config_that_is_not_an_object_rejected(self):
        with pytest.raises(ValueError, match=re.escape("run=True")):
            ExperimentConfig.from_dict({"game": "mp1", "run": True})

    def test_numpy_bools_and_numeric_strings_run(self, tmp_path):
        run = RunConfig(iterations=12, eta=0.05, cadence=4, estimator="sampled",
                        rollout_len=5, epsilon_prime=0.1, strict=np.False_,
                        rollout_reset=np.bool_(False))
        as_text = replace(run, eta="0.05", epsilon_prime="0.1")
        paths = [run_experiment(ExperimentConfig(game="switching-mp", run=cfg, gt_tol="1e-9",
                                                 debug_columns=np.False_, label=label,
                                                 out_dir=str(tmp_path))).rep_paths[0]
                 for cfg, label in ((run, "number"), (as_text, "text"))]
        # Only the config_hash header line differs: it hashes the fields as given.
        number, text = (path.read_text().splitlines() for path in paths)
        assert [line for line in number if "config_hash" not in line] == \
            [line.replace("# label: text", "# label: number") for line in text
             if "config_hash" not in line]

    def test_each_game_validated_once(self, tmp_path, monkeypatch):
        calls = []
        real = learner_mod.validate_game

        def counting(game, *args, **kwargs):
            calls.append(game.name)
            return real(game, *args, **kwargs)

        monkeypatch.setattr(learner_mod, "validate_game", counting)
        run = RunConfig(iterations=6, eta=0.05, cadence=3, estimator="sampled", rollout_len=5,
                        epsilon=1.0)
        run_experiment(ExperimentConfig(game="switching-mp", run=run, repetitions=3,
                                        out_dir=str(tmp_path)))
        assert calls == ["switching-mp"]
        calls.clear()
        run_single_player(builtin("switching-mp"), np.full((2, 2), 0.5), run)
        assert calls == ["switching-mp|fixed-opponent"]
