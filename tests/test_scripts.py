"""Smoke tests: the experiment scripts run end to end on a short budget."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from zsmg.gamegen import random_game
from zsmg.games import JointPolicy, best_response, evaluate_policy_pair
from zsmg.learner import RunConfig, run_single_player
from zsmg.metrics import write_metrics_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str, args: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert done.value.code == 0


def test_run_convergence(tmp_path, monkeypatch):
    _run_script("run_convergence.py",
                ["--iterations", "200", "--out-dir", str(tmp_path)], monkeypatch)
    for name in ("convergence_rep0.csv", "convergence.svg"):
        assert (tmp_path / name).stat().st_size > 0


def test_run_rationality(tmp_path, monkeypatch):
    _run_script("run_rationality.py",
                ["--iterations", "200", "--seeds", "2", "--out-dir", str(tmp_path)],
                monkeypatch)
    # The script runs its seeds as one batch; each seed's CSV and the summary
    # must equal a run made through separate run_single_player calls, with the
    # script's defaults (2 states, 2x2 actions, gamma 0.9, kappa 0.1).
    summary = ["seed,exploitability"]
    for k in range(2):
        game = random_game(seed=100 + k, n_states=2, n_actions_p1=2, n_actions_p2=2,
                           gamma=0.9, kappa=0.1)
        opponent = np.random.default_rng(1000 + k).dirichlet(np.ones(2), size=2)
        result = run_single_player(game, opponent,
                                   RunConfig(iterations=200, eta=0.05, cadence=2, seed=k))
        v_pair = evaluate_policy_pair(game, JointPolicy(x=result.state.x_hat, y=opponent))
        v_best, _ = best_response(game, opponent, fixed_side=2)
        summary.append(f"{k},{float(np.max(v_pair - v_best))!r}")
        expected = tmp_path / f"expected_seed{k}.csv"
        write_metrics_csv(expected, result.rows, metadata={"seed": k, "game": game.name or ""})
        assert len(result.rows) == 100
        assert (tmp_path / f"rationality_seed{k}.csv").read_bytes() == expected.read_bytes()
    assert (tmp_path / "rationality_summary.csv").read_text() == "\n".join(summary) + "\n"
