"""Acceptance gate: one end-to-end behavioral criterion per test.

Run with ``pytest -v`` to get a single pass/fail line per criterion.  Each
test pins the tolerance and (where stated) the runtime budget it must meet;
printed diagnostics show the measured margins when a test fails or when
pytest runs with ``-rA``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from oracles import (
    grid_minimax_value,
    matrix_ogda_run,
    scalar_mat_vec,
    scalar_vec_mat,
    sort_projection_1d,
)
from zsmg.cli import main
from zsmg.estimators import exact_triple_from_q, rollout, sampled_estimates
from zsmg.gamegen import builtin, random_game
from zsmg.games import JointPolicy, best_response, evaluate_policy_pair, q_from_v
from zsmg.groundtruth import game_duality_gap, shapley_solve, solve_matrix_game
from zsmg.learner import (
    RunConfig,
    alpha_schedule,
    initial_state,
    ogda_step,
    reduce_game_for_opponent,
    run_selfplay,
    run_selfplay_batch,
    run_single_player,
)
from zsmg.metrics import read_metrics_csv


@pytest.fixture(scope="module")
def convergence_runs():
    """Long self-play runs shared by the convergence/diagnostics criteria.

    Both builtin games, eta=0.05 (non-strict), T=2e5, metric rows every 100
    iterations, skewed initial strategies so the runs start away from the
    equilibrium.
    """
    runs = {}
    specs = {
        "mp1": ([[0.9, 0.1]], [[0.2, 0.8]]),
        "switching-mp": ([[0.9, 0.1], [0.9, 0.1]], [[0.2, 0.8], [0.2, 0.8]]),
    }
    for name, (init_x, init_y) in specs.items():
        cfg = RunConfig(iterations=200_000, eta=0.05, cadence=100,
                        init_x=init_x, init_y=init_y)
        started = time.perf_counter()
        result = run_selfplay(builtin(name), cfg)
        runs[name] = (result, time.perf_counter() - started)
    return runs


def test_criterion_01_matrix_solver_matches_grid_search():
    """Minimax LP value within 2e-3 of fine-grid search on 200 matrices, <10 s."""
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        for _ in range(100):
            q = rng.uniform(size=(n, n))
            lp_value = solve_matrix_game(q).value
            grid_value = grid_minimax_value(q, step=1e-3)
            worst = max(worst, abs(lp_value - grid_value))
    elapsed = time.perf_counter() - started
    print(f"criterion 1: worst |lp - grid| = {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 2e-3
    assert elapsed < 10.0


def test_criterion_02_shapley_consistency_and_witness_gap():
    """Per-state value consistency <= tol and witness duality gap <= 2*tol, <30 s."""
    tol = 1e-8
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst_val = 0.0
    worst_gap = 0.0
    for i in range(50):
        gamma = 0.5 if i % 2 == 0 else 0.9
        n_states = int(rng.integers(1, 6))
        n_a = int(rng.integers(1, 5))
        n_b = int(rng.integers(1, 5))
        game = random_game(seed=5000 + i, n_states=n_states, n_actions_p1=n_a,
                           n_actions_p2=n_b, gamma=gamma)
        gt = shapley_solve(game, tol=tol)
        q = q_from_v(game, gt.v_star)
        for s in range(n_states):
            value = solve_matrix_game(q[s]).value
            worst_val = max(worst_val, abs(value - gt.v_star[s]))
        worst_gap = max(worst_gap, game_duality_gap(game, gt.witness_policy))
    elapsed = time.perf_counter() - started
    print(f"criterion 2: worst value error = {worst_val:.3e}, "
          f"worst witness gap = {worst_gap:.3e}, {elapsed:.1f}s")
    assert worst_val <= tol
    assert worst_gap <= 2 * tol
    assert elapsed < 30.0


def test_criterion_03_frozen_critic_reduces_to_matrix_ogda():
    """With the critic frozen at V*, learner steps are bit-identical to an
    independently coded matrix-game OGDA loop for 1e4 iterations."""
    game = builtin("mp1")
    gt = shapley_solve(game)
    q_frozen = q_from_v(game, gt.v_star)
    eta = 0.05
    x0, y0 = np.array([0.9, 0.1]), np.array([0.2, 0.8])

    state = initial_state(game, eta=eta, init_x=x0[None, :], init_y=y0[None, :])
    q = q_frozen[0]
    x_hat, x = x0.copy(), x0.copy()
    y_hat, y = y0.copy(), y0.copy()
    est_ell, est_r = np.empty((1, 2)), np.empty((1, 2))
    for _ in range(10_000):
        rho = exact_triple_from_q(q_frozen, state.x, state.y, est_ell, est_r)
        state = ogda_step(state, est_ell, est_r, rho)
        ell = scalar_mat_vec(q, y)
        r = scalar_vec_mat(x, q)
        x_hat = sort_projection_1d(x_hat - eta * ell)
        x = sort_projection_1d(x_hat - eta * ell)
        y_hat = sort_projection_1d(y_hat + eta * r)
        y = sort_projection_1d(y_hat + eta * r)
        assert (state.x_hat[0] == x_hat).all() and (state.x[0] == x).all()
        assert (state.y_hat[0] == y_hat).all() and (state.y[0] == y).all()

    final = matrix_ogda_run(q, eta, 10_000, x0, y0)
    for lib, ref in zip((state.x_hat[0], state.x[0], state.y_hat[0], state.y[0]), final):
        assert (lib == ref).all()
    print("criterion 3: 10000 steps bit-identical to the matrix OGDA oracle")


def test_criterion_04_single_player_equals_selfplay_on_reduced_game():
    """run_single_player iterate streams are bit-identical to run_selfplay on
    the opponent-reduced game, 20 random games/opponents, T=1e3."""

    def capture_stream(run):
        stream = []
        run(lambda t, st: stream.append(
            (st.x_hat.copy(), st.x.copy(), st.y_hat.copy(), st.y.copy(), st.v.copy())
        ))
        return stream

    for i in range(20):
        game = random_game(seed=4000 + i, n_states=1 + i % 3,
                           n_actions_p1=2 + i % 2, n_actions_p2=2 + (i // 2) % 2,
                           gamma=0.9, kappa=0.1)
        opponent = np.random.default_rng(4100 + i).dirichlet(
            np.ones(game.n_actions_p2), size=game.n_states)
        cfg = RunConfig(iterations=1000, eta=0.05, cadence=0, seed=i)

        direct = capture_stream(
            lambda hook: run_single_player(game, opponent, cfg, iteration_hook=hook))
        reduced = reduce_game_for_opponent(game, opponent)
        manual = capture_stream(
            lambda hook: run_selfplay(reduced, cfg, iteration_hook=hook))

        assert len(direct) == len(manual) == 1000
        for tuple_a, tuple_b in zip(direct, manual):
            for arr_a, arr_b in zip(tuple_a, tuple_b):
                assert (arr_a == arr_b).all()
    print("criterion 4: 20 games x 1000 iterations bit-identical on both paths")


def test_criterion_05_last_iterate_convergence(convergence_runs):
    """mean_dist_sq at T=2e5 is < 1e-3 and < 1% of its value at t=100, <2 min."""
    total_elapsed = 0.0
    for name, (result, elapsed) in convergence_runs.items():
        total_elapsed += elapsed
        rows = result.rows
        assert rows[0].t == 100 and rows[-1].t == 200_000
        d_early, d_final = rows[0].mean_dist_sq, rows[-1].mean_dist_sq
        print(f"criterion 5 [{name}]: dist_sq t=100 {d_early:.3e} -> "
              f"t=2e5 {d_final:.3e} ({elapsed:.1f}s)")
        assert d_final < 1e-3
        assert d_final < 0.01 * d_early
    assert total_elapsed < 120.0


def test_criterion_06_average_gap_decreases(convergence_runs):
    """Running average of the duality gap at T is < 10% of its value at t=1e3."""
    for name, (result, _) in convergence_runs.items():
        gaps = np.array([row.game_gap for row in result.rows])
        ts = np.array([row.t for row in result.rows])
        avg_early = gaps[ts <= 1000].mean()
        avg_final = gaps.mean()
        print(f"criterion 6 [{name}]: running avg gap t=1e3 {avg_early:.4f} -> "
              f"t=2e5 {avg_final:.6f}")
        assert avg_final < 0.10 * avg_early


def test_criterion_07_rationality_against_fixed_opponents():
    """After T=1e5 exact-mode iterations vs a fixed random opponent, the
    learned strategy's exploitability is < 1e-2 (max over states, 5 seeds).

    The five opponent-reduced games share one shape, so their runs step
    together as one batch; each run keeps the bits of its own
    ``run_single_player`` call (see ``TestRunSelfplayBatch`` in test_learner.py)."""
    games = [random_game(seed=100 + k, n_states=2, n_actions_p1=2,
                         n_actions_p2=2, gamma=0.9, kappa=0.1) for k in range(5)]
    opponents = [np.random.default_rng(1000 + k).dirichlet(np.ones(2), size=2)
                 for k in range(5)]
    results = run_selfplay_batch(
        [reduce_game_for_opponent(game, opponent) for game, opponent in zip(games, opponents)],
        [RunConfig(iterations=100_000, eta=0.05, cadence=0, seed=k) for k in range(5)],
    )
    worst = 0.0
    for game, opponent, result in zip(games, opponents, results):
        learned = result.state.x_hat
        v_pair = evaluate_policy_pair(game, JointPolicy(x=learned, y=opponent))
        v_best, _ = best_response(game, opponent, fixed_side=2)
        worst = max(worst, float(np.max(v_pair - v_best)))
    print(f"criterion 7: worst exploitability over 5 seeds = {worst:.3e}")
    assert worst < 1e-2


def test_criterion_08_sampled_estimates_consistency():
    """Median payoff-estimate error decreases across rollout budgets
    {1e3, 1e4, 1e5} over 20 seeds; zero-visit entries are exactly 0."""
    game = random_game(seed=8, n_states=2, n_actions_p1=2, n_actions_p2=2,
                       gamma=0.9, kappa=0.2)
    x = np.full((2, 2), 0.5)
    y = np.full((2, 2), 0.5)
    v_prev = np.array([0.3, 0.7])
    exact_ell, exact_r = np.empty((2, 2)), np.empty((2, 2))
    exact_triple_from_q(q_from_v(game, v_prev), x, y, exact_ell, exact_r)
    ell, r = np.empty((2, 2)), np.empty((2, 2))

    medians = []
    for length in (1_000, 10_000, 100_000):
        errors = []
        for k in range(20):
            traj = rollout(game, x, y, n_steps=length, s_init=0,
                           rng=np.random.default_rng(9000 + k))
            sampled_estimates(traj, v_prev, game.gamma, ell, r)
            errors.append(float(np.max(np.abs(ell - exact_ell))))
        medians.append(float(np.median(errors)))
    print(f"criterion 8: median ell error by budget = {medians}")
    assert medians[0] > medians[1] > medians[2]

    # Player 1 never plays action 1, so those estimate entries have no visits.
    x_pure = np.array([[1.0, 0.0], [1.0, 0.0]])
    traj = rollout(game, x_pure, y, n_steps=2000, s_init=0,
                   rng=np.random.default_rng(77))
    ell.fill(np.nan)
    sampled_estimates(traj, v_prev, game.gamma, ell, r)
    assert ell[0, 1] == 0.0 and ell[1, 1] == 0.0
    assert ell[0, 0] != 0.0


def test_criterion_09_diagnostics_sanity(convergence_runs):
    """Critic-to-truth distance shrinks below 10% of its initial value, and the
    logged stage-game drift respects the schedule bound at every row."""
    for name, (result, _) in convergence_runs.items():
        game, gt, rows = result.game, result.ground_truth, result.rows
        gamma = game.gamma
        # At t=1 the critic is all zeros, so the stage games equal the stage loss.
        gamma_1 = float(np.max(np.abs(game.loss - gt.q_star)))
        gamma_T = rows[-1].q_err_max
        print(f"criterion 9 [{name}]: Gamma_1 = {gamma_1:.6f}, "
              f"Gamma_T = {gamma_T:.3e}")
        assert gamma_T < 0.10 * gamma_1
        for row in rows:
            alpha_prev = alpha_schedule(row.t - 1, gamma) if row.t >= 2 else 1.0
            bound = gamma * alpha_prev / (1.0 - gamma)
            assert row.q_step_max <= bound + 1e-12, f"t={row.t}"


def test_criterion_10_runs_are_byte_deterministic(tmp_path, capsys):
    """Two executions of the same `run` command produce byte-identical CSVs."""
    argv = ["run", "--game", "switching-mp", "--iterations", "500",
            "--eta", "0.05", "--cadence", "50", "--estimator", "sampled",
            "--rollout-len", "100", "--epsilon", "0.5", "--seed", "11",
            "--label", "det"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out-dir", str(dir_a)]) == 0
    assert main(argv + ["--out-dir", str(dir_b)]) == 0
    capsys.readouterr()
    bytes_a = (dir_a / "det_rep0.csv").read_bytes()
    bytes_b = (dir_b / "det_rep0.csv").read_bytes()
    assert bytes_a == bytes_b
    meta, rows = read_metrics_csv(dir_a / "det_rep0.csv")
    assert len(rows) == 10
    print(f"criterion 10: {len(bytes_a)} CSV bytes identical across executions")
