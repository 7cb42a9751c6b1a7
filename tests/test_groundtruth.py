"""Tests for the minimax solvers and the distance-to-equilibrium machinery."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zsmg import games as games_mod, groundtruth as groundtruth_mod
from zsmg.games import (DimensionMismatchError, JointPolicy, MarkovGame, evaluate_policy_pair,
                        q_from_v, uniform_policy)
from zsmg.gamegen import BUILTIN_NAMES, builtin, random_game
from zsmg.groundtruth import (
    GroundTruth,
    LpSolveError,
    MatrixGameSolution,
    _kkt_residual,
    _plane_basis,
    _project_polytope,
    dist_state,
    dist_to_optimal_sets,
    duality_gap_state,
    game_duality_gap,
    shapley_solve,
    solve_matrix_game,
)

from oracles import (
    certify_sweeps,
    cold_start_shapley,
    enumerate_projection,
    grid_distance_sq,
    grid_minimax_value,
    per_state_shapley,
    settle_every_sweep_shapley,
    simplex_grid,
    two_nnls_project_point,
)

# sha256 of the <f8 bytes of v_star, x_star and y_star, recorded with the
# cold-start simplex.  A solver change that moves these moves the ground truth,
# and with it every metric CSV; that must be a deliberate change.
GOLDEN_SOLVE_SHA256 = {
    "switching-mp": "a4ef052ef75df2a236f65b55c306c33d666201189fe56e4845a9e4d71413e93c",
    "random-11": "48d1234c5042d732450d8e7e3286b0f0d719c9d84e23f9ae3c6e4b799a2dbf55",
    "random-22": "7902a1717a25f6bb460d54d6c71c832df2bb9596ef1b9cb82c823c6826b4a8ad",
    "random-33": "63e74d22ef7d2b3055d4a4f1270bd1af0ba6d1ee980a22a79c75a7cae87ba6bd",
}
GOLDEN_GAMES = {
    "switching-mp": lambda: builtin("switching-mp"),
    "random-11": lambda: random_game(seed=11, n_states=4, n_actions_p1=3,
                                     n_actions_p2=4, gamma=0.9),
    "random-22": lambda: random_game(seed=22, n_states=3, n_actions_p1=5,
                                     n_actions_p2=5, gamma=0.7),
    "random-33": lambda: random_game(seed=33, n_states=6, n_actions_p1=2,
                                     n_actions_p2=3, gamma=0.95),
}


def _solve_bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


@st.composite
def payoff_matrices(draw):
    """Small payoff matrices: generic floats, or integers in [-2, 2] full of ties."""
    n_a, n_b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        entries = st.integers(-2, 2).map(float)
    else:
        entries = st.floats(-1.0, 1.0, allow_nan=False)
    cells = draw(st.lists(entries, min_size=n_a * n_b, max_size=n_a * n_b))
    return np.array(cells, dtype=np.float64).reshape(n_a, n_b)


def _fat(gt: GroundTruth, tol: float) -> GroundTruth:
    """Same equilibrium data with an inflated tolerance, so the relaxed
    optimal sets are wide enough for grid oracles to resolve."""
    return GroundTruth(v_star=gt.v_star, q_star=gt.q_star, x_star=gt.x_star,
                       y_star=gt.y_star, tol=tol)


def _projection_case(seed: int, n: int, m: int, game: str, tol: float, point: str,
                     side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, a_mat, b_vec) for projecting onto one player's tol-relaxed optimal set.

    ``game`` is "random" (a random one-state Markov game, whose optimal sets
    are often slivers around an x* with zero entries), "tied" (an integer
    matrix game in [-2, 2], whose optimal sets are often whole faces) or
    "near-tied" (the same, each entry moved by about 1e-9).  The point z is
    interior, has zero entries, lies near the witness, or is a vertex.
    """
    rng = np.random.default_rng(seed)
    if game == "random":
        gt = shapley_solve(random_game(seed=seed, n_states=1, n_actions_p1=n if side == 1 else m,
                                       n_actions_p2=m if side == 1 else n, gamma=0.9))
        q, value = gt.q_star[0], gt.v_star[0]
        witness = gt.x_star[0] if side == 1 else gt.y_star[0]
    else:
        q = rng.integers(-2, 3, size=(n, m) if side == 1 else (m, n)).astype(np.float64)
        if game == "near-tied":
            q += rng.normal(scale=1e-9, size=q.shape)
        sol = solve_matrix_game(q)
        value, witness = sol.value, sol.x if side == 1 else sol.y
    # Player 2's set {y : -Q y <= -(v - tol)} has the same form as player 1's.
    a_mat, b_vec = (q.T, np.full(m, value + tol)) if side == 1 else (-q, np.full(m, tol - value))
    z = rng.dirichlet(np.ones(n))
    if point == "zeros":
        z[rng.permutation(n)[: int(rng.integers(1, n))]] = 0.0
        z /= z.sum()
    elif point == "near":
        z = np.maximum(witness + rng.normal(scale=10.0 ** rng.uniform(-8, -2), size=n), 0.0)
        z /= z.sum()
    elif point == "vertex":
        z = np.eye(n)[rng.integers(n)]
    return z, a_mat, b_vec


# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------

class TestSolveMatrixGame:
    def test_constant_matrix(self):
        sol = solve_matrix_game(np.full((3, 2), 0.25))
        assert sol.value == pytest.approx(0.25, abs=1e-9)
        np.testing.assert_allclose(sol.col_payoffs, 0.25, atol=1e-9)

    def test_matching_pennies(self):
        sol = solve_matrix_game(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sol.value == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(sol.y, [0.5, 0.5], atol=1e-9)

    def test_dominated_row(self):
        # Row 0 is never worse for the minimizer, so it gets all the mass.
        sol = solve_matrix_game(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_certificate_fields(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = rng.uniform(size=(3, 4))
            sol = solve_matrix_game(q)
            assert sol.col_payoffs.max() <= sol.value + 1e-9
            assert sol.row_payoffs.min() >= sol.value - 1e-9
            np.testing.assert_allclose(sol.col_payoffs, sol.x @ q, atol=0)
            np.testing.assert_allclose(sol.row_payoffs, q @ sol.y, atol=0)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(42)
        for i in range(20):
            shape = (2, 2) if i % 2 == 0 else (3, 3)
            q = rng.uniform(size=shape)
            sol = solve_matrix_game(q)
            assert abs(sol.value - grid_minimax_value(q, step=1e-3)) <= 2e-3

    def test_affine_scaling(self):
        rng = np.random.default_rng(9)
        q = rng.uniform(size=(3, 3))
        base = solve_matrix_game(q)
        scaled = solve_matrix_game(2.5 * q - 0.7)
        assert scaled.value == pytest.approx(2.5 * base.value - 0.7, abs=1e-8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            solve_matrix_game(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            solve_matrix_game(np.zeros((0, 2)))

    def test_error_carries_matrix(self):
        err = LpSolveError("boom", np.eye(2))
        assert isinstance(err, ArithmeticError)
        np.testing.assert_array_equal(err.matrix, np.eye(2))

    @given(seed=st.integers(0, 10_000))
    def test_value_between_matrix_extremes(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 5), rng.integers(1, 5)))
        sol = solve_matrix_game(q)
        assert q.min() - 1e-9 <= sol.value <= q.max() + 1e-9
        assert sol.x.min() >= 0.0 and sol.y.min() >= 0.0
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.y.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf"), "a", True])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_matrix_game(np.eye(2), tol=tol)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_payoffs(self, bad):
        q = np.array([[0.0, 1.0], [bad, 0.5]])
        with pytest.raises(ValueError, match=rf"non-finite payoff at \(a=1, b=0\): {bad!r}"):
            solve_matrix_game(q)

    def test_rejects_malformed_basis(self):
        # The 2x2 LP has columns [x_0, x_1, v, s_0, s_1] and 3 rows.
        for basis in ([0, 2], [0, 2, 2], [0, 2, 5], [-1, 0, 2]):
            with pytest.raises(ValueError, match="basis"):
                solve_matrix_game(np.eye(2), basis=basis)
        # Entries that an integer cast would read as [0, 1, 2].
        for basis in ([0.9, 1.2, 2.7], [True, False, 2], ["0", "1", "2"],
                      np.array([0.0, 1.0, 2.0]), [np.True_, 1, 2]):
            with pytest.raises(ValueError, match=r"^basis must hold 3 distinct column indices "
                                                 r"in \[0, 5\), got \["):
                solve_matrix_game(np.eye(2), basis=basis)

    def test_unusable_basis_falls_back_to_cold_start(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        cold = solve_matrix_game(q)
        # {v, s_0, s_1} is singular (no column covers the simplex row);
        # {x_0, v, s_0} sets s_0 = Q[0, 1] - Q[0, 0] = -1 < 0, so it is infeasible.
        for basis in ([2, 3, 4], [0, 2, 3]):
            warm = solve_matrix_game(q, basis=basis)
            assert _solve_bytes(warm.value, warm.x, warm.y) == \
                _solve_bytes(cold.value, cold.x, cold.y)
            np.testing.assert_array_equal(warm.basis, cold.basis)
            assert warm.pivots == cold.pivots

    def test_near_tied_matrices_are_certified(self):
        # Entries tied up to ~1e-9 make the simplex bases nearly singular.  The
        # first matrix used to end the simplex at an infeasible basis (failed
        # certificate), the second used to cycle until the iteration cap.
        tied = np.array([[0.0, 2.0, 2.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        cycling = np.array([
            [-3.6222054214636003e-10, -2.0000000009917422, 1.0000000002950011, 1.0000000001890623],
            [-7.2512247026073448e-10, 1.0000000000648224, 1.0000000009392589, 2.0000000008790897],
            [2.0000000006694960, -0.99999999977576526, 0.99999999998848899, 1.0000000007329823],
            [-1.9999999993019775, -1.9999999994458968, 1.0000000006189325, 1.0000000002577394],
            [2.0000000005067680, -1.9999999998656481, -2.0000000007893366, -1.0000000005597645],
        ])
        noise = np.random.default_rng(1).uniform(-1.0, 1.0, size=tied.shape)
        for q in (tied + 1e-9 * noise, cycling):
            sol = solve_matrix_game(q)
            assert sol.col_payoffs.max() <= sol.value + 1e-9
            assert sol.row_payoffs.min() >= sol.value - 1e-9
            assert solve_matrix_game(q, basis=sol.basis).pivots == 0

    @given(q=payoff_matrices())
    def test_resolve_from_own_basis_takes_no_pivot(self, q):
        sol = solve_matrix_game(q)
        again = solve_matrix_game(q, basis=sol.basis)
        assert again.pivots == 0
        np.testing.assert_array_equal(again.basis, sol.basis)
        assert _solve_bytes(again.value, again.x, again.y) == \
            _solve_bytes(sol.value, sol.x, sol.y)

    @given(q=payoff_matrices())
    def test_default_start_is_the_cold_basis(self, q):
        cold = groundtruth_mod._cold_bases(groundtruth_mod._value_lp(q[None])[1])[0]
        default, given_cold = solve_matrix_game(q), solve_matrix_game(q, basis=cold)
        for field in dataclasses.fields(MatrixGameSolution):
            assert np.asarray(getattr(default, field.name)).tobytes() == \
                np.asarray(getattr(given_cold, field.name)).tobytes()

    @given(q=payoff_matrices(), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-9, 1e-6, 1e-3, 0.1, 1.0]), whole=st.booleans())
    def test_warm_start_from_neighbour_basis(self, q, seed, scale, whole):
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=q.shape)
        neighbour = q + (np.round(noise) if whole else scale * noise)
        warm = solve_matrix_game(q, basis=solve_matrix_game(neighbour).basis)
        assert warm.col_payoffs.max() <= warm.value + 1e-9
        assert warm.row_payoffs.min() >= warm.value - 1e-9
        assert abs(warm.value - solve_matrix_game(q).value) <= 1e-9


# ---------------------------------------------------------------------------
# Markov-game ground truth
# ---------------------------------------------------------------------------

class TestShapleySolve:
    def test_const_game(self, const_game):
        gt = shapley_solve(const_game)
        assert gt.v_star[0] == pytest.approx(0.8, abs=1e-9)
        np.testing.assert_allclose(gt.q_star[0], 0.4 + 0.5 * gt.v_star[0], atol=1e-9)

    def test_matching_pennies_value_and_witness(self, mp1):
        gt = shapley_solve(mp1)
        assert gt.v_star[0] == pytest.approx(5.0, abs=1e-8)
        np.testing.assert_allclose(gt.x_star, [[0.5, 0.5]], atol=1e-8)
        np.testing.assert_allclose(gt.y_star, [[0.5, 0.5]], atol=1e-8)

    def test_chain2(self, chain2):
        gt = shapley_solve(chain2)
        np.testing.assert_allclose(gt.v_star, [1.0, 0.0], atol=1e-9)

    def test_fixed_point_consistency(self):
        for i in range(4):
            game = random_game(seed=5000 + i, n_states=3, n_actions_p1=2,
                               n_actions_p2=3, gamma=0.9 if i % 2 else 0.5)
            gt = shapley_solve(game, tol=1e-8)
            q = q_from_v(game, gt.v_star)
            for s in range(game.n_states):
                assert solve_matrix_game(q[s]).value == pytest.approx(
                    gt.v_star[s], abs=1e-8)

    def test_backup_moves_solution_at_most_tol(self, switching_mp):
        gt = shapley_solve(switching_mp, tol=1e-9)
        q = q_from_v(switching_mp, gt.v_star)
        backed_up = np.array([solve_matrix_game(q[s]).value for s in range(2)])
        assert np.max(np.abs(backed_up - gt.v_star)) <= 2e-9

    def test_witness_gap_within_contract(self):
        for i in range(3):
            game = random_game(seed=5100 + i, n_states=2, n_actions_p1=3,
                               n_actions_p2=2, gamma=0.9)
            gt = shapley_solve(game, tol=1e-8)
            assert game_duality_gap(game, gt.witness_policy) <= 2e-8

    def test_iteration_cap_raises(self, mp1):
        with pytest.raises(ArithmeticError):
            shapley_solve(mp1, tol=1e-9, max_iter=1)

    def test_rejects_bad_arguments(self, mp1):
        for max_iter in (0, 2.5, "a", True):
            with pytest.raises(ValueError, match="max_iter"):
                shapley_solve(mp1, max_iter=max_iter)
        for tol in (0.0, -1e-9, float("nan"), float("inf"), "a", True):
            with pytest.raises(ValueError, match="tol must be positive"):
                shapley_solve(mp1, tol=tol)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, -0.1, float("nan")])
    def test_rejects_discount_outside_unit_interval(self, mp1, gamma):
        game = MarkovGame(loss=mp1.loss, transition=mp1.transition, gamma=gamma)
        with pytest.raises(ValueError, match="gamma must lie in"):
            shapley_solve(game, max_iter=10)

    def test_zero_discount_takes_one_sweep(self, monkeypatch):
        base = random_game(seed=4, n_states=3, n_actions_p1=2, n_actions_p2=3, gamma=0.9)
        game = MarkovGame(loss=base.loss, transition=base.transition, gamma=0.0)
        calls = []
        monkeypatch.setattr(groundtruth_mod, "q_from_v",
                            lambda *args: calls.append(1) or q_from_v(*args))
        gt = shapley_solve(game)
        assert len(calls) == 2  # one sweep, then the witness solves
        assert gt.v_star.tolist() == [solve_matrix_game(q).value for q in game.loss]

    @pytest.mark.parametrize("field, index, message", [
        ("loss", (1, 0, 1), r"non-finite loss at \(s=1, a=0, b=1\): nan"),
        ("transition", (0, 1, 1, 0),
         r"non-finite transition probability at \(s=0, a=1, b=1, s'=0\): inf"),
    ], ids=["loss", "transition"])
    def test_rejects_non_finite_game_entries(self, field, index, message):
        game = random_game(seed=3, n_states=2, n_actions_p1=2, n_actions_p2=2, gamma=0.9)
        arrays = {"loss": game.loss.copy(), "transition": game.transition.copy()}
        arrays[field][index] = np.nan if field == "loss" else np.inf
        with pytest.raises(ValueError, match=message):
            shapley_solve(MarkovGame(gamma=0.9, **arrays))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("gamma", [None, 0.5, 0.95])
    def test_warm_start_matches_cold_start_on_builtins(self, name, gamma):
        game = builtin(name, gamma=gamma)
        gt = shapley_solve(game)
        assert _solve_bytes(gt.v_star, gt.x_star, gt.y_star) == \
            _solve_bytes(*cold_start_shapley(game))

    @given(seed=st.integers(0, 10_000), n_states=st.integers(1, 4),
           n_a=st.integers(1, 4), n_b=st.integers(1, 4),
           gamma=st.sampled_from([0.5, 0.7, 0.9, 0.95]))
    def test_warm_start_matches_cold_start_on_random_games(self, seed, n_states,
                                                          n_a, n_b, gamma):
        game = random_game(seed=seed, n_states=n_states, n_actions_p1=n_a,
                           n_actions_p2=n_b, gamma=gamma)
        gt = shapley_solve(game)
        assert _solve_bytes(gt.v_star, gt.x_star, gt.y_star) == \
            _solve_bytes(*cold_start_shapley(game))

    @pytest.mark.parametrize("name", sorted(GOLDEN_SOLVE_SHA256))
    def test_solution_bytes_are_frozen(self, name):
        gt = shapley_solve(GOLDEN_GAMES[name]())
        digest = hashlib.sha256(_solve_bytes(gt.v_star, gt.x_star, gt.y_star)).hexdigest()
        assert digest == GOLDEN_SOLVE_SHA256[name]

    def test_witness_policy_property(self, mp1):
        gt = shapley_solve(mp1)
        pol = gt.witness_policy
        np.testing.assert_array_equal(pol.x, gt.x_star)
        np.testing.assert_array_equal(pol.y, gt.y_star)


class TestStackedSweep:
    """Each sweep checks every kept basis at once and solves only the rest alone."""

    @staticmethod
    def _tied_game(seed: int, n_states: int, n_a: int, n_b: int, gamma: float) -> MarkovGame:
        # Losses in {0, 1/2, 1} and transition weights in {1, 2}: full of ties.
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 3, size=(n_states, n_a, n_b, n_states)).astype(np.float64)
        return MarkovGame(loss=rng.integers(0, 3, size=(n_states, n_a, n_b)) / 2.0,
                          transition=weights / weights.sum(axis=-1, keepdims=True),
                          gamma=gamma)

    @staticmethod
    def _traced_solve(monkeypatch, game, run=shapley_solve):
        """``run(game)``, recording per ``q_from_v`` call the pivot loops that followed.

        Returns the result and one list per sweep (and one for the witness
        step) of ``(start basis, pivots)`` per ``_simplex_pivot`` call.  Calls
        before any ``q_from_v`` call, as in a direct ``_stage_solutions``
        call, go into one first list.
        """
        sweeps = []
        q_from_v_, pivot_ = groundtruth_mod.q_from_v, groundtruth_mod._simplex_pivot

        def traced_q_from_v(*args, **kwargs):
            sweeps.append([])
            return q_from_v_(*args, **kwargs)

        def traced_pivot(q, a_stack, basis, read):
            start = basis.tolist()
            read, basis, pivots = pivot_(q, a_stack, basis, read)
            if not sweeps:
                sweeps.append([])
            sweeps[-1].append((start, pivots))
            return read, basis, pivots

        monkeypatch.setattr(groundtruth_mod, "q_from_v", traced_q_from_v)
        monkeypatch.setattr(groundtruth_mod, "_simplex_pivot", traced_pivot)
        return run(game), sweeps

    @staticmethod
    def _assert_matches_oracle(gt, expected):
        v, q, x, y = expected
        assert _solve_bytes(gt.v_star, gt.q_star, gt.x_star, gt.y_star) == \
            _solve_bytes(v, q, x, y)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10_000), n_states=st.integers(1, 8),
           n_a=st.integers(1, 6), n_b=st.integers(1, 6), gamma=st.floats(0.5, 0.95),
           tied=st.booleans())
    def test_matches_per_state_oracle(self, seed, n_states, n_a, n_b, gamma, tied):
        game = (self._tied_game(seed, n_states, n_a, n_b, gamma) if tied else
                random_game(seed=seed, n_states=n_states, n_actions_p1=n_a,
                            n_actions_p2=n_b, gamma=gamma))
        self._assert_matches_oracle(shapley_solve(game), per_state_shapley(game))

    @staticmethod
    def _outcome(run, game) -> tuple:
        """``run(game)``'s result bytes, or its error's type, message and matrix."""
        try:
            v, q, x, y = run(game)
        except Exception as error:  # noqa: BLE001 - the error is the outcome compared
            return type(error), str(error), getattr(error, "matrix", np.empty(0)).tobytes()
        return (_solve_bytes(v, q, x, y),)

    @staticmethod
    def _inject(monkeypatch, game, inject, max_iter) -> list:
        """Patch ``_solve_bases`` to fail on the LP stack of sweep ``k`` of the reference.

        ``inject`` is ``(kind, k)``: ``"singular"`` raises ``LinAlgError`` on
        every stacked read of that stack (each state read alone succeeds);
        ``"nan"`` makes state 1's ``x_b`` NaN, which fails its certificate.
        Returns a list that counts the injections.
        """
        kind, sweep = inject
        qs, q_from_v_ = [], games_mod.q_from_v
        monkeypatch.setattr(games_mod, "q_from_v", lambda *args: qs.append(q_from_v_(*args))
                            or qs[-1])
        settle_every_sweep_shapley(game, max_iter=max_iter)
        monkeypatch.undo()
        assert sweep < len(qs) - 1
        target = groundtruth_mod._value_lp(qs[sweep])[1]
        solve_, fired = groundtruth_mod._solve_bases, []

        def injected(a_mat, bases):
            hit = len(a_mat) > 1 and np.array_equal(a_mat, target)
            if hit and kind == "singular":
                fired.append(kind)
                raise np.linalg.LinAlgError("Singular matrix")
            b_inv_ab = solve_(a_mat, bases)
            if hit:
                fired.append(kind)
                b_inv_ab[1, :, 0] = np.nan
            return b_inv_ab

        monkeypatch.setattr(groundtruth_mod, "_solve_bases", injected)
        return fired

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), n_states=st.integers(1, 8),
           n_a=st.integers(1, 5), n_b=st.integers(1, 5), gamma=st.floats(0.5, 0.95),
           tied=st.booleans(), scale=st.sampled_from([1.0, 1e6]), inject=st.just(None))
    # Golden random-11, which pivots at sweeps 1 and 2.
    @example(seed=11, n_states=4, n_a=3, n_b=4, gamma=0.9, tied=False, scale=1.0, inject=None)
    # Seed-0 solve-large input 7, which discards one checked sweep.
    @example(seed=1710807516, n_states=10, n_a=5, n_b=5, gamma=0.9, tied=False, scale=1.0,
             inject=None)
    # random-11 checks sweeps 10 to 17 in one stack and starts the next at 18.
    @example(seed=11, n_states=4, n_a=3, n_b=4, gamma=0.9, tied=False, scale=1.0,
             inject=("singular", 13))
    @example(seed=11, n_states=4, n_a=3, n_b=4, gamma=0.9, tied=False, scale=1.0,
             inject=("singular", 17))
    @example(seed=11, n_states=4, n_a=3, n_b=4, gamma=0.9, tied=False, scale=1.0,
             inject=("singular", 18))
    @example(seed=11, n_states=4, n_a=3, n_b=4, gamma=0.9, tied=False, scale=1.0,
             inject=("nan", 13))
    @example(seed=11, n_states=4, n_a=3, n_b=4, gamma=0.9, tied=False, scale=1.0,
             inject=("nan", 17))
    @example(seed=11, n_states=4, n_a=3, n_b=4, gamma=0.9, tied=False, scale=1.0,
             inject=("nan", 18))
    def test_matches_settle_every_sweep_oracle(self, seed, n_states, n_a, n_b, gamma, tied,
                                               scale, inject):
        # Checking settlement once per stack of sweeps, redoing an unsettled
        # sweep and discarding the rest of its stack, gives the bits and the
        # errors of running _settle on every sweep.  Losses scaled by 1e6 make
        # certificates fail by a few ulps and some solves reach the cap.
        game = (self._tied_game(seed, n_states, n_a, n_b, gamma) if tied else
                random_game(seed=seed, n_states=n_states, n_actions_p1=n_a,
                            n_actions_p2=n_b, gamma=gamma))
        game = MarkovGame(loss=game.loss * scale, transition=game.transition, gamma=gamma)
        max_iter = 2_000
        with pytest.MonkeyPatch.context() as patch:
            fired = [] if inject is None else self._inject(patch, game, inject, max_iter)
            expected = self._outcome(
                lambda g: settle_every_sweep_shapley(g, max_iter=max_iter), game)
            injected_in_reference = len(fired)
            got = self._outcome(lambda g: dataclasses.astuple(shapley_solve(
                g, max_iter=max_iter))[:4], game)
        assert got == expected
        if inject is not None:
            assert 0 < injected_in_reference < len(fired)
            assert len(expected) == (1 if inject[0] == "singular" else 3)

    @staticmethod
    def _read_and_certify(q, bases):
        shift, a_mat = groundtruth_mod._value_lp(q)
        read = groundtruth_mod._read_bases(a_mat, bases)
        return (shift, a_mat) + read + groundtruth_mod._certify(q, shift, bases, *read[:2], 1e-9)

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 8),
           n_a=st.integers(1, 6), n_b=st.integers(1, 6), tied=st.booleans(),
           scale=st.sampled_from([1.0, 1e3]))
    def test_stacked_read_matches_each_state_alone(self, seed, n_states, n_a, n_b, tied, scale):
        # The design rests on this: a state's numbers from a stack of S are
        # byte-equal to its numbers from a stack of one, so the sweep settles
        # a state exactly when the scalar simplex would take no pivot.
        rng = np.random.default_rng(seed)
        shape = (n_states, n_a, n_b)
        q = scale * (rng.integers(-2, 3, size=shape) if tied else rng.uniform(-1.0, 1.0, shape))
        # Each state's own optimal basis, or that of a neighbouring matrix.
        moved = rng.integers(-1, 2, size=shape) * rng.integers(0, 2, size=(n_states, 1, 1))
        bases = np.array([solve_matrix_game(m).basis for m in q + moved])
        singular = []
        for s in range(n_states):
            try:
                self._read_and_certify(q[s:s + 1], bases[s:s + 1])
            except np.linalg.LinAlgError:
                singular.append(s)
        if singular:
            with pytest.raises(np.linalg.LinAlgError):
                self._read_and_certify(q, bases)
            return
        stacked = self._read_and_certify(q, bases)
        for s in range(n_states):
            alone = self._read_and_certify(q[s:s + 1], bases[s:s + 1])
            for part, part_alone in zip(stacked, alone, strict=True):
                assert part[s].tobytes() == part_alone[0].tobytes()

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 8),
           n_a=st.integers(1, 6), n_b=st.integers(1, 6), tied=st.booleans(),
           singular=st.booleans(), scale=st.sampled_from([1.0, 1e3]))
    def test_stage_solutions_match_each_state_alone(self, seed, n_states, n_a, n_b, tied,
                                                    singular, scale):
        rng = np.random.default_rng(seed)
        shape = (n_states, n_a, n_b)
        q = scale * (rng.integers(-2, 3, size=shape) if tied else rng.uniform(-1.0, 1.0, shape))
        moved = rng.integers(-1, 2, size=shape) * rng.integers(0, 2, size=(n_states, 1, 1))
        bases = np.array([solve_matrix_game(m).basis for m in q + moved])
        if singular:
            # The value column and every slack: the simplex row is zero on them.
            bases[rng.integers(n_states)] = np.arange(n_a, n_a + 1 + n_b)
        alone = [solve_matrix_game(q[s], basis=bases[s]) for s in range(n_states)]
        values, x, y, *_ = groundtruth_mod._stage_solutions(q, bases, 1e-9)
        for stacked, field in ((values, "value"), (x, "x"), (y, "y"), (bases, "basis")):
            assert stacked.tobytes() == np.array([getattr(sol, field) for sol in alone]).tobytes()

    def test_first_sweep_solves_every_state_alone(self, monkeypatch):
        game = random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3, gamma=0.9)
        expected = per_state_shapley(game)
        starts, loops = [], []
        settle, pivot_ = groundtruth_mod._settle, groundtruth_mod._simplex_pivot

        def traced_settle(q, bases):
            # A None start is every state's cold basis.
            starts.append(groundtruth_mod._cold_bases(groundtruth_mod._value_lp(q)[1])
                          if bases is None else bases.copy())
            loops.append([])
            return settle(q, bases)

        def traced_pivot(q, a_stack, basis, read):
            loops[-1].append(basis.tolist())
            return pivot_(q, a_stack, basis, read)

        monkeypatch.setattr(groundtruth_mod, "_settle", traced_settle)
        monkeypatch.setattr(groundtruth_mod, "_simplex_pivot", traced_pivot)
        gt, sweeps = self._traced_solve(monkeypatch, game)
        self._assert_matches_oracle(gt, expected)
        # The simplex's cold start x = e_0, v = max_b Q[0, b]: x_0, v and the
        # slacks of every column but the binding one.
        cold = [[0, 3] + [4 + b for b in range(3) if b != np.argmax(game.loss[s, 0])]
                for s in range(4)]
        assert starts[0].tolist() == cold
        # Only _settle pivots, and each of its pivot loops starts from a basis
        # that call was given or a cold one.
        assert sweeps[0]
        assert sum(map(len, loops)) == sum(map(len, sweeps))
        assert all(start in kept.tolist() + cold
                   for kept, calls in zip(starts, loops, strict=True) for start in calls)
        assert sweeps[-1] == []  # every final basis settles: no pivot in the witness step

    def test_pivoting_state_falls_back_beside_settled_states(self, monkeypatch):
        game = random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3, gamma=0.9)
        expected = per_state_shapley(game)
        gt, sweeps = self._traced_solve(monkeypatch, game)
        self._assert_matches_oracle(gt, expected)
        inner = sweeps[1:-1]
        assert any(0 < len(calls) < 4 and all(pivots > 0 for _, pivots in calls)
                   for calls in inner)
        # Almost every state settles in the stacked check.
        assert sum(map(len, inner)) < len(inner)

    def test_singular_stack_sends_every_state_alone(self, monkeypatch):
        game = random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3, gamma=0.9)
        expected = per_state_shapley(game)
        solve, settle = np.linalg.solve, groundtruth_mod._settle
        in_settle = []

        def singular_when_stacked(a, b):
            sizes.append((len(a), bool(in_settle)))
            if np.ndim(a) == 3 and len(a) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        def flagged_settle(*args):
            in_settle.append(1)
            try:
                return settle(*args)
            finally:
                in_settle.pop()

        _, unpatched = self._traced_solve(monkeypatch, game)
        monkeypatch.undo()
        sizes = []
        monkeypatch.setattr(np.linalg, "solve", singular_when_stacked)
        monkeypatch.setattr(groundtruth_mod, "_settle", flagged_settle)
        gt, sweeps = self._traced_solve(monkeypatch, game)
        self._assert_matches_oracle(gt, expected)
        # Each failed stacked read in _settle is followed by one read per state,
        # and the same states pivot, from the same bases, as in the unpatched solve.
        after_stacked = [[size for size, _ in sizes[i + 1:i + 5]]
                         for i, (size, inside) in enumerate(sizes) if size > 1 and inside]
        assert after_stacked and all(reads == [1] * 4 for reads in after_stacked)
        assert sweeps == unpatched
        # A sweep's own solve that raises is redone by _settle on the same stack.
        own = [i for i, (size, inside) in enumerate(sizes) if not inside]
        assert own and all(sizes[i] == (4, False) and sizes[i + 1] == (4, True) for i in own)

    def test_singular_basis_restarts_only_its_state(self, monkeypatch):
        game = random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3, gamma=0.9)
        gt = shapley_solve(game)
        bases = np.array([solve_matrix_game(q).basis for q in gt.q_star])
        expected = np.array([solve_matrix_game(q, basis=b).value for q, b in zip(gt.q_star, bases)])

        def stage(q):
            return groundtruth_mod._stage_solutions(q, bases, 1e-9)

        (values, *_), calls = self._traced_solve(monkeypatch, gt.q_star, stage)
        assert calls == []  # every state settles
        assert values.tobytes() == expected.tobytes()
        monkeypatch.undo()
        # The value column and every slack: the simplex row is zero on them.
        bases[2] = np.arange(3, 7)
        cold = groundtruth_mod._cold_bases(groundtruth_mod._value_lp(gt.q_star[2:3])[1])[0]
        (values, *_), calls = self._traced_solve(monkeypatch, gt.q_star, stage)
        # The stacked read raises; read alone, only state 2 is singular, and
        # it alone pivots, from its cold basis, while the others settle.
        assert [[start for start, _ in c] for c in calls] == [[cold.tolist()]]
        assert values.tobytes() == expected.tobytes()

    def test_cold_restart_without_a_pivot_reads_its_cold_basis_next(self, monkeypatch):
        # State 0 ends sweep 0 at [x_0, x_1, v]; in sweep 1 that basis is primal
        # infeasible, and it restarts cold at [x_0, v, s_1], which is optimal, so it
        # takes no pivot.  v moved from basis position 2 to 1, so sweep 2 must read
        # the cold basis's cost row, not the one from before the restart.
        game = random_game(seed=254, n_states=2, n_actions_p1=3, n_actions_p2=2, gamma=0.7)
        expected = per_state_shapley(game)
        starts = []
        settle = groundtruth_mod._settle

        def traced_settle(q, bases):
            starts.append(None if bases is None else bases.tolist())
            return settle(q, bases)

        monkeypatch.setattr(groundtruth_mod, "_settle", traced_settle)
        gt, sweeps = self._traced_solve(monkeypatch, game)
        self._assert_matches_oracle(gt, expected)
        assert starts[1][0] == [0, 1, 3]
        assert sweeps[1] == [([0, 3, 5], 0)]

    @pytest.mark.parametrize("before, after", [
        # Player 2's best column moves: the old basis is primal infeasible.
        ([[1e-10, 0.0]], [[0.0, 1e-10]]),
        # Player 1's best row moves: the old basis has a negative reduced cost.
        ([[0.0], [1e-10]], [[1e-10], [0.0]]),
    ], ids=["primal", "dual"])
    def test_basis_stale_by_less_than_tol_does_not_settle(self, monkeypatch, before, after):
        # The minimax certificate alone would pass the old basis (it is off by
        # 1e-10 < tol); the scalar simplex would leave it, so the check must too.
        other = np.array(after) + 0.5 + np.arange(np.size(after)).reshape(np.shape(after))
        q_before = np.array([before, other])
        q_after = np.array([after, other])
        bases = np.array([solve_matrix_game(q).basis for q in q_before])
        stale = solve_matrix_game(q_after[0], basis=bases[0])
        assert stale.basis.tolist() != bases[0].tolist()
        value_1 = solve_matrix_game(q_after[1], basis=bases[1]).value
        (values, *_), calls = self._traced_solve(
            monkeypatch, q_after, lambda q: groundtruth_mod._stage_solutions(q, bases, 1e-9))
        # One pivot loop, state 0's, which left the stale basis; state 1 settles.
        assert [len(c) for c in calls] == [1]
        assert bases[0].tolist() == stale.basis.tolist()
        assert values.tolist() == [stale.value, value_1]

    @staticmethod
    def _ill_conditioned() -> np.ndarray:
        # Entries tied to about 1e-9 beside exact zeros: the simplex ends at an
        # ill-conditioned basis whose row certificate fails by about 1e-9.
        return np.array([[0.0, 0.0, 0.0, 1.0, 0.0],
                         [0.2265625, 0.0, 0.0625, -2.2389526869789182e-09, 0.0625],
                         [-1.0, 0.015625, 0.0, 0.0, 0.0],
                         [0.0, 1e-10, -1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, -1.0]])

    def test_failed_certificate_carries_its_state_matrix(self):
        # Only state 2, the ill-conditioned matrix, fails; the error is the one
        # it raises alone, with its matrix.
        hard = self._ill_conditioned()
        q = np.array([np.eye(5), np.ones((5, 5)), hard, -np.eye(5)])
        bases = groundtruth_mod._cold_bases(groundtruth_mod._value_lp(q)[1])
        with pytest.raises(LpSolveError) as alone:
            groundtruth_mod._stage_solutions(q[2:3], bases[2:3].copy(), 1e-9)
        with pytest.raises(LpSolveError, match="^minimax certificate failed: value=") as caught:
            groundtruth_mod._stage_solutions(q, bases, 1e-9)
        assert str(caught.value) == str(alone.value)
        assert caught.value.matrix.tobytes() == hard.tobytes()

    def test_certificate_miss_of_a_few_ulps_says_so(self):
        # Losses near 5e6: the first sweep's certificate of state 0 misses by
        # 1.86e-9, above tol = 1e-9 but only 2 ulps of the value.
        base = random_game(seed=0, n_states=3, n_actions_p1=3, n_actions_p2=3, gamma=0.9)
        game = MarkovGame(loss=base.loss * 1e6, transition=base.transition, gamma=0.9)
        with pytest.raises(LpSolveError, match=r"^minimax certificate failed: value=") as caught:
            shapley_solve(game)
        assert str(caught.value).endswith(
            ", min row payoff=4598414.86364317 (miss = 2.0 ulps of the value: "
            "tol is below the float resolution at this payoff scale)")
        assert "np.float64" not in str(caught.value)
        # A miss of many ulps, as on an ill-conditioned basis, is not rounding.
        q = self._ill_conditioned()[None]
        bases = groundtruth_mod._cold_bases(groundtruth_mod._value_lp(q)[1])
        with pytest.raises(LpSolveError, match=r"^minimax certificate failed: ") as caught:
            groundtruth_mod._stage_solutions(q, bases, 1e-9)
        assert "ulps" not in str(caught.value)

    @pytest.mark.parametrize("spoil, message", [
        ("x_b", r"^minimax certificate failed: value=nan, "),
        ("duals", r"^dual strategy sum nan far from 1$"),
    ])
    def test_nan_read_in_one_state_fails_its_certificate(self, monkeypatch, spoil, message):
        # A NaN read passes both settlement tests (NaN is not below -tol), so
        # the state settles, and the certificate must name it.
        q = np.array([[[1.0, -1.0], [-1.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]],
                      [[0.5, -1.0], [-1.0, 0.5]]])
        bases = np.array([solve_matrix_game(m).basis for m in q])
        read_ = groundtruth_mod._read_bases

        def nan_in_state_1(*args):
            read = read_(*args)
            read[("x_b", "duals").index(spoil)][1] = np.nan
            return read

        monkeypatch.setattr(groundtruth_mod, "_read_bases", nan_in_state_1)
        with pytest.raises(LpSolveError, match=message) as caught:
            groundtruth_mod._stage_solutions(q, bases, 1e-9)
        assert caught.value.matrix.tobytes() == q[1].tobytes()

    @pytest.mark.parametrize("spoil", ["zero_x", "nan_entry"])
    def test_certificate_rejects_a_nan_strategy(self, spoil):
        # Matching pennies read at its optimal basis [x_1, x_2, v]; a spoiled
        # read makes x all NaN, and NaN must fail the payoff test, not pass it.
        q = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        bases = np.array([[0, 1, 2]])
        shift, a_mat = groundtruth_mod._value_lp(q)
        x_b, duals = groundtruth_mod._read_bases(a_mat, bases)[:2]
        assert groundtruth_mod._certify(q, shift, bases, x_b, duals, 1e-9)[-1].all()
        if spoil == "zero_x":
            x_b[:, :2] = 0.0
        else:
            x_b[0, 0] = np.nan
        _, x, *_, dual_ok, payoff_ok = groundtruth_mod._certify(q, shift, bases, x_b, duals,
                                                                1e-9)
        assert np.isnan(x).all() and dual_ok.all()
        assert not payoff_ok.any()

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 5), min_size=2,
                          max_size=groundtruth_mod._CERTIFY_EVERY),
           n_a=st.integers(1, 6), n_b=st.integers(1, 6), tied=st.booleans(),
           scale=st.sampled_from([1.0, 1e3]), spoil=st.booleans())
    # A full queue of solve-large's shape: _CERTIFY_EVERY sweeps of 10 states, 5x5.
    @example(seed=0, sizes=[10] * groundtruth_mod._CERTIFY_EVERY, n_a=5, n_b=5, tied=False,
             scale=1.0, spoil=False)
    @example(seed=1, sizes=[10] * groundtruth_mod._CERTIFY_EVERY, n_a=5, n_b=5, tied=True,
             scale=1.0, spoil=True)
    def test_certificate_over_queued_sweeps_matches_each_sweep_alone(
            self, seed, sizes, n_a, n_b, tied, scale, spoil):
        # Value iteration certifies a stack of sweeps in one call over their
        # concatenated stacks, as the reference loop certifies its queue.  Each
        # sweep's numbers and verdicts from that call must be byte-equal to its
        # own call's, and the error raised must be the first failing sweep's own.
        rng = np.random.default_rng(seed)
        sweeps = []
        for n_states in sizes:
            shape = (n_states, n_a, n_b)
            q = scale * (rng.integers(-2, 3, size=shape) if tied
                         else rng.uniform(-1.0, 1.0, shape))
            moved = rng.integers(-1, 2, size=shape) * rng.integers(0, 2, size=(n_states, 1, 1))
            shift, a_mat = groundtruth_mod._value_lp(q)
            try:
                bases = np.array([solve_matrix_game(m).basis for m in q + moved])
                x_b, duals = groundtruth_mod._read_bases(a_mat, bases)[:2]
            except np.linalg.LinAlgError:
                bases = np.array([solve_matrix_game(m).basis for m in q])
                x_b, duals = groundtruth_mod._read_bases(a_mat, bases)[:2]
            if spoil:
                # Failing verdicts of both kinds: a moved basic solution, scaled duals.
                x_b[rng.integers(n_states)] += rng.uniform(-0.5, 0.5, size=n_b + 1)
                duals[rng.integers(n_states)] *= 3.0
            sweeps.append((q, shift, bases, x_b, duals))
        whole = groundtruth_mod._certify(*(np.concatenate(part) for part in zip(*sweeps)), 1e-9)
        start, first_error = 0, None
        for sweep in sweeps:
            alone = groundtruth_mod._certify(*sweep, 1e-9)
            stop = start + len(sweep[0])
            for part, part_alone in zip(whole, alone, strict=True):
                assert part[start:stop].tobytes() == part_alone.tobytes()
            start = stop
            if first_error is None:
                try:
                    groundtruth_mod._certified(*sweep, 1e-9)
                except LpSolveError as error:
                    first_error = error
        queue = list(sweeps)
        if first_error is None:
            certify_sweeps(queue, 1e-9)
        else:
            with pytest.raises(LpSolveError) as caught:
                certify_sweeps(queue, 1e-9)
            assert str(caught.value) == str(first_error)
            assert caught.value.matrix.tobytes() == first_error.matrix.tobytes()
        assert queue == []

    @staticmethod
    def _spoil_reads(monkeypatch, spoils: dict) -> dict:
        """Let ``spoils[k]`` change in place the first read of sweep k (counted
        from 0): the ``[B^-1 b | B^-1]`` of the first ``_solve_bases`` call after
        the sweep's ``q_from_v`` call, the sweep's own stacked solve or
        ``_settle``'s.  Setting ``log["fresh"]`` to a key spoils the next call alike.

        Returns a log, filled as calls are made: every ``q_from_v`` result, the
        bases of each first read, and the number of ``q_from_v`` calls.
        """
        log = {"q": [], "bases": [], "q_from_v": 0, "fresh": None}
        solve_, q_from_v_ = groundtruth_mod._solve_bases, groundtruth_mod.q_from_v

        def spoiled_solve(a_mat, bases):
            b_inv_ab = solve_(a_mat, bases)
            if log["fresh"] is not None:
                log["bases"].append(bases.copy())
                if log["fresh"] in spoils:
                    spoils[log["fresh"]](b_inv_ab)
            log["fresh"] = None
            return b_inv_ab

        def counted_q_from_v(*args):
            log["q"].append(q_from_v_(*args))
            log["fresh"] = log["q_from_v"]
            log["q_from_v"] += 1
            return log["q"][-1]

        monkeypatch.setattr(groundtruth_mod, "_solve_bases", spoiled_solve)
        monkeypatch.setattr(groundtruth_mod, "q_from_v", counted_q_from_v)
        return log

    @staticmethod
    def _nan_in_state_1(field: str):
        """A spoil for ``_spoil_reads``: NaN in state 1's ``x_b`` or (through
        ``B^-1``) ``duals``."""
        def spoil(b_inv_ab):
            b_inv_ab[1, :, slice(0, 1) if field == "x_b" else slice(1, None)] = np.nan
        return spoil

    def _assert_is_the_sweep_error(self, caught, log, spoils, sweep):
        """The error ``_stage_solutions`` raises on sweep ``sweep``'s ``q`` and start
        bases, its read spoiled alike, is ``caught``: same message, same matrix."""
        log["fresh"] = "alone"
        spoils["alone"] = spoils[sweep]
        with pytest.raises(LpSolveError) as alone:
            groundtruth_mod._stage_solutions(log["q"][sweep], log["bases"][sweep].copy(), 1e-9)
        assert str(caught.value) == str(alone.value)
        assert caught.value.matrix.tobytes() == alone.value.matrix.tobytes()

    @pytest.mark.parametrize("sweep", [3, groundtruth_mod._CERTIFY_EVERY - 1,
                                       groundtruth_mod._CERTIFY_EVERY, "last"])
    @pytest.mark.parametrize("field, message", [
        ("x_b", r"^minimax certificate failed: value=nan, "),
        ("duals", r"^dual strategy sum nan far from 1$"),
    ])
    def test_queued_certificate_raises_its_sweeps_error(self, monkeypatch, sweep, field,
                                                       message):
        # The sweeps after the spoiled one are not checked one by one; their
        # stack is, within K - 1 more q_from_v calls, or at convergence.
        game = random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3, gamma=0.9)
        if sweep == "last":
            log = self._spoil_reads(monkeypatch, {})
            shapley_solve(game)
            monkeypatch.undo()
            sweep = len(log["q"]) - 2  # the last q_from_v call gives q_star
        spoils = {sweep: self._nan_in_state_1(field)}
        log = self._spoil_reads(monkeypatch, spoils)
        with pytest.raises(LpSolveError, match=message) as caught:
            shapley_solve(game)
        # q_from_v ran sweep + 1 times before the spoiled sweep.
        assert log["q_from_v"] - (sweep + 1) <= groundtruth_mod._CERTIFY_EVERY - 1
        self._assert_is_the_sweep_error(caught, log, spoils, sweep)

    def test_later_sweep_error_does_not_mask_a_queued_certificate(self, monkeypatch):
        # Sweeps 6 to 9 make one stack.  Sweep 6 fails its certificate and
        # sweep 7 is unsettled; its redo would enter the pivot loop, which
        # raises.  The stack's check certifies the sweeps before sweep 7 first,
        # so the solve raises sweep 6's error, and no pivot loop runs after it.
        game = random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3, gamma=0.9)

        def infeasible_state_2(b_inv_ab):
            b_inv_ab[2, :, 0] = -1.0  # every basic variable: state 2 must restart cold

        def capped(q, *args):
            pivots_after.append(len(log["q"]))
            if len(log["q"]) > 6:
                raise LpSolveError("simplex iteration cap exceeded", q)
            return pivot_(q, *args)

        pivot_, pivots_after = groundtruth_mod._simplex_pivot, []
        spoils = {6: self._nan_in_state_1("duals"), 7: infeasible_state_2}
        log = self._spoil_reads(monkeypatch, spoils)
        monkeypatch.setattr(groundtruth_mod, "_simplex_pivot", capped)
        with pytest.raises(LpSolveError, match="^dual strategy sum nan") as caught:
            shapley_solve(game)
        assert len(log["q"]) == 10  # the stack ran to sweep 9, and no sweep after it
        assert caught.value.__context__ is None
        assert pivots_after and max(pivots_after) <= 6
        self._assert_is_the_sweep_error(caught, log, spoils, 6)

    def test_iteration_cap_certifies_the_queue_first(self, monkeypatch):
        # The cap raises only after the last stack is checked: a failing
        # certificate of a kept sweep, the last one's included, raises instead.
        game = random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3, gamma=0.9)
        for max_iter, sweep in [(5, 3), (5, 4), (20, 19)]:
            spoils = {sweep: self._nan_in_state_1("duals")}
            log = self._spoil_reads(monkeypatch, spoils)
            with pytest.raises(LpSolveError, match="^dual strategy sum nan") as caught:
                shapley_solve(game, max_iter=max_iter)
            assert len(log["q"]) == sweep + 1
            assert caught.value.__context__ is None
            self._assert_is_the_sweep_error(caught, log, spoils, sweep)
            monkeypatch.undo()
            with pytest.raises(ArithmeticError,
                               match=f"did not converge in {max_iter} iterations"):
                shapley_solve(game, max_iter=max_iter)

    def test_each_basis_is_read_once(self, monkeypatch):
        # A cold solve builds one LP and reads its start once, then once per
        # pivot; the pivot loop never reads the basis it was handed.
        counts = {"_value_lp": 0, "_read_bases": 0}
        for name in counts:
            def counted(*args, _name=name, _call=getattr(groundtruth_mod, name)):
                counts[_name] += 1
                return _call(*args)
            monkeypatch.setattr(groundtruth_mod, name, counted)
        q = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 5))
        sol = solve_matrix_game(q)
        assert sol.pivots > 0
        assert counts == {"_value_lp": 1, "_read_bases": sol.pivots + 1}
        pivot_ = groundtruth_mod._simplex_pivot
        loops = []

        def traced_pivot(*args):
            before = counts["_read_bases"]
            read, basis, pivots = pivot_(*args)
            loops.append((counts["_read_bases"] - before, pivots))
            return read, basis, pivots

        monkeypatch.setattr(groundtruth_mod, "_simplex_pivot", traced_pivot)
        shapley_solve(random_game(seed=13, n_states=4, n_actions_p1=3, n_actions_p2=3,
                                  gamma=0.9))
        assert loops and any(pivots for _, pivots in loops)
        assert all(reads == pivots for reads, pivots in loops)

    def test_singular_read_after_a_pivot_falls_back(self, monkeypatch):
        # The pivot loop goes back to the previous basis and the read it was
        # handed, and steps carefully from there to a certified solution.
        q = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 5))
        cold = solve_matrix_game(q)
        read_, reads = groundtruth_mod._read_bases, []

        def singular_first_pivot(*args):
            reads.append(1)
            if len(reads) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return read_(*args)

        monkeypatch.setattr(groundtruth_mod, "_read_bases", singular_first_pivot)
        sol = solve_matrix_game(q)
        assert len(reads) == sol.pivots + 1
        assert abs(sol.value - cold.value) <= 1e-9
        assert sol.col_payoffs.max() <= sol.value + 1e-9
        assert sol.row_payoffs.min() >= sol.value - 1e-9

    @pytest.mark.parametrize("name", sorted(GOLDEN_GAMES))
    def test_q_from_v_counts_sweeps_plus_one(self, monkeypatch, name):
        # perfbench derives groundtruth.vi_iterations from this count.
        game = GOLDEN_GAMES[name]()
        solves = []
        solve = groundtruth_mod.solve_matrix_game
        monkeypatch.setattr(groundtruth_mod, "solve_matrix_game",
                            lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
        per_state_shapley(game)
        sweeps = len(solves) // game.n_states - 1
        monkeypatch.undo()
        _, traced = self._traced_solve(monkeypatch, game)
        assert len(traced) == sweeps + 1


# ---------------------------------------------------------------------------
# Duality gaps
# ---------------------------------------------------------------------------

class TestDualityGaps:
    def test_stage_gap_zero_at_equilibrium(self, mp1):
        gt = shapley_solve(mp1)
        assert duality_gap_state(gt.q_star[0], gt.x_star[0], gt.y_star[0]) == 0.0

    def test_stage_gap_pure_pennies(self, mp1):
        gt = shapley_solve(mp1)
        e0 = np.array([1.0, 0.0])
        assert duality_gap_state(gt.q_star[0], e0, e0) == pytest.approx(1.0, abs=1e-8)

    @given(seed=st.integers(0, 10_000))
    def test_stage_gap_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(size=(3, 3))
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        assert duality_gap_state(q, x, y) >= 0.0

    def test_game_gap_zero_for_single_action(self, const_game):
        assert game_duality_gap(const_game, uniform_policy(const_game)) == 0.0

    def test_game_gap_uniform_pennies_is_zero(self, mp1):
        assert game_duality_gap(mp1, uniform_policy(mp1)) <= 1e-9

    def test_game_gap_pure_pennies(self, mp1):
        pure = JointPolicy(x=np.array([[1.0, 0.0]]), y=np.array([[1.0, 0.0]]))
        assert game_duality_gap(mp1, pure) == pytest.approx(10.0, abs=1e-8)

    def test_game_gap_rejects_rows_that_are_not_distributions(self, switching_mp):
        # Rows of 3.0 used to give a negative exploitability.
        policy = JointPolicy(x=np.full((2, 2), 3.0), y=np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match=r"fixed player-1 policy row 0 is not a probability"):
            game_duality_gap(switching_mp, policy)

    @pytest.mark.parametrize("tol", [-1.0, np.inf, "a", True])
    def test_game_gap_rejects_bad_tol(self, switching_mp, tol):
        with pytest.raises(ValueError, match=r"tol must be positive and finite, got tol="):
            game_duality_gap(switching_mp, uniform_policy(switching_mp), tol=tol)

    def test_game_gap_dominates_value_suboptimality(self):
        # Exploitability against both sides bounds how far the pair's value
        # sits from the minimax value.
        rng = np.random.default_rng(13)
        for i in range(3):
            game = random_game(seed=5200 + i, n_states=2, n_actions_p1=2,
                               n_actions_p2=2, gamma=0.9)
            gt = shapley_solve(game)
            pol = JointPolicy(x=rng.dirichlet(np.ones(2), size=2),
                              y=rng.dirichlet(np.ones(2), size=2))
            gap = game_duality_gap(game, pol)
            v_pair = evaluate_policy_pair(game, pol)
            assert np.max(np.abs(v_pair - gt.v_star)) <= gap + 1e-9

    def test_stage_gap_bridges_to_game_gap(self):
        # For any policy pair, game-level exploitability is controlled by the
        # worst stage gap at the solved stage games (up to the solve tolerance).
        rng = np.random.default_rng(21)
        for i in range(4):
            game = random_game(seed=5300 + i, n_states=2, n_actions_p1=2,
                               n_actions_p2=3, gamma=0.9)
            gt = shapley_solve(game, tol=1e-9)
            pol = JointPolicy(x=rng.dirichlet(np.ones(2), size=2),
                              y=rng.dirichlet(np.ones(3), size=2))
            stage_worst = max(
                duality_gap_state(gt.q_star[s], pol.x[s], pol.y[s]) for s in range(2)
            )
            game_gap = game_duality_gap(game, pol)
            assert game_gap <= 2.0 / (1.0 - game.gamma) * stage_worst + 2e-9


# ---------------------------------------------------------------------------
# Distance to the optimal sets
# ---------------------------------------------------------------------------

class TestDistance:
    def test_witness_distance_zero(self, mp1):
        gt = shapley_solve(mp1)
        assert dist_to_optimal_sets(gt, gt.witness_policy).mean == 0.0

    def test_witness_distance_small_on_random_games(self):
        for i in range(3):
            game = random_game(seed=5400 + i, n_states=2, n_actions_p1=3,
                               n_actions_p2=2, gamma=0.9)
            gt = shapley_solve(game)
            assert dist_to_optimal_sets(gt, gt.witness_policy).mean <= 1e-6

    def test_pure_pennies_distance_is_one(self, mp1):
        gt = shapley_solve(mp1)
        pure = JointPolicy(x=np.array([[1.0, 0.0]]), y=np.array([[1.0, 0.0]]))
        res = dist_to_optimal_sets(gt, pure)
        # Each side is 1/2 squared distance from the unique equilibrium, less
        # the sliver the tol-relaxation shaves off.
        assert res.mean == pytest.approx(1.0, abs=1e-6)
        assert res.mean <= 1.0

    @given(seed=st.integers(0, 10_000))
    def test_distance_bounded_by_simplex_diameter(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(seed=seed % 53, n_states=1, n_actions_p1=2,
                           n_actions_p2=2, gamma=0.9)
        gt = shapley_solve(game)
        pol = JointPolicy(x=rng.dirichlet(np.ones(2), size=1),
                          y=rng.dirichlet(np.ones(2), size=1))
        res = dist_to_optimal_sets(gt, pol)
        assert 0.0 <= res.per_state[0] <= 4.0 + 1e-12

    def test_projections_are_feasible_strategies(self):
        rng = np.random.default_rng(33)
        game = random_game(seed=5500, n_states=2, n_actions_p1=3, n_actions_p2=3,
                           gamma=0.9)
        gt = shapley_solve(game)
        pol = JointPolicy(x=rng.dirichlet(np.ones(3), size=2),
                          y=rng.dirichlet(np.ones(3), size=2))
        res = dist_to_optimal_sets(gt, pol)
        for arr in (res.x_proj, res.y_proj):
            assert np.all(arr >= -1e-12)
            np.testing.assert_allclose(arr.sum(axis=1), 1.0, atol=1e-9)

    def test_two_action_matches_grid(self):
        rng = np.random.default_rng(7)
        for i in range(5):
            game = random_game(seed=5600 + i, n_states=1, n_actions_p1=2,
                               n_actions_p2=2, gamma=0.9)
            fat = _fat(shapley_solve(game), tol=0.05)
            z = rng.dirichlet(np.ones(2))
            d2, _, _ = dist_state(fat, 0, z, rng.dirichlet(np.ones(2)))
            # Recompute just the player-1 side against the grid.
            q = fat.q_star[0]
            px = _project_polytope(z, q.T, np.full(2, fat.v_star[0] + fat.tol))
            d2x = float(np.sum((px - z) ** 2))
            ref = grid_distance_sq(z, q.T, np.full(2, fat.v_star[0] + fat.tol),
                                   step=2e-3)
            assert d2x <= ref + 1e-12
            assert abs(d2x - ref) <= 5e-3

    def test_three_action_matches_grid(self):
        rng = np.random.default_rng(5)
        for i in range(4):
            game = random_game(seed=400 + i, n_states=1, n_actions_p1=3,
                               n_actions_p2=3, gamma=0.9)
            fat = _fat(shapley_solve(game), tol=0.05)
            q = fat.q_star[0]
            b = np.full(3, fat.v_star[0] + fat.tol)
            z = rng.dirichlet(np.ones(3))
            px = _project_polytope(z, q.T, b)
            assert _kkt_residual(z, px, q.T, b) <= 1e-9
            d2 = float(np.sum((px - z) ** 2))
            ref = grid_distance_sq(z, q.T, b, step=2e-3)
            assert d2 <= ref + 1e-12
            assert abs(d2 - ref) <= 5e-3

    def test_three_action_tiny_polytope_certified(self):
        # Generic games have unique equilibria, so the tol-relaxed optimal set
        # is a near-point polytope; the projection must still satisfy KKT and
        # land no farther than the known-feasible equilibrium witness.
        rng = np.random.default_rng(3)
        for i in range(4):
            game = random_game(seed=300 + i, n_states=1, n_actions_p1=3,
                               n_actions_p2=3, gamma=0.9)
            gt = shapley_solve(game)
            q = gt.q_star[0]
            b = np.full(3, gt.v_star[0] + gt.tol)
            z = rng.dirichlet(np.ones(3))
            px = _project_polytope(z, q.T, b)
            assert _kkt_residual(z, px, q.T, b) <= 1e-9
            d2 = float(np.sum((px - z) ** 2))
            d2_star = float(np.sum((gt.x_star[0] - z) ** 2))
            assert d2 <= d2_star + 1e-12
            assert d2 >= max(0.0, np.sqrt(d2_star) - 1e-6) ** 2

    def test_grid_points_never_beat_projection(self):
        # Every feasible grid point is at least as far from z as the projection.
        game = random_game(seed=401, n_states=1, n_actions_p1=3, n_actions_p2=3,
                           gamma=0.9)
        fat = _fat(shapley_solve(game), tol=0.1)
        q = fat.q_star[0]
        b = np.full(3, fat.v_star[0] + fat.tol)
        z = np.array([0.6, 0.3, 0.1])
        px = _project_polytope(z, q.T, b)
        d2 = np.sum((px - z) ** 2)
        grid = simplex_grid(3, 5e-3)
        feasible = grid[(grid @ q <= fat.v_star[0] + fat.tol + 1e-12).all(axis=1)]
        assert feasible.size > 0
        assert np.all(np.sum((feasible - z) ** 2, axis=1) >= d2 - 1e-12)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([3, 4]), m=st.integers(2, 4),
           game=st.sampled_from(["random", "tied"]), tol=st.sampled_from([1e-9, 1e-4]),
           point=st.sampled_from(["interior", "zeros", "near"]), side=st.sampled_from([1, 2]))
    def test_projection_no_farther_than_enumeration(self, seed, n, m, game, tol, point, side):
        # The sweep over every active set is the exponential reference.  The
        # check is one-sided: on thin slivers the sweep's 1e-10 feasibility
        # window can make it miss the true projection; it beats it only by
        # rounding.
        z, a_mat, b_vec = _projection_case(seed, n, m, game, tol, point, side)
        px = _project_polytope(z, a_mat, b_vec)
        assert abs(float(px.sum()) - 1.0) <= 1e-10
        assert float(px.min()) >= -1e-10
        assert float(np.max(a_mat @ px - b_vec)) <= 1e-10
        assert _kkt_residual(z, px, a_mat, b_vec) <= 1e-9
        ref = enumerate_projection(z, a_mat, b_vec)
        assert np.sum((px - z) ** 2) <= np.sum((ref - z) ** 2) + 1e-12

    def test_projection_bits_match_enumeration_on_generic_games(self):
        # A generic game has one active set at the projection, and both
        # routines project onto its affine hull with the same formula.
        rng = np.random.default_rng(3)
        for i in range(4):
            gt = shapley_solve(random_game(seed=300 + i, n_states=1, n_actions_p1=3,
                                           n_actions_p2=3, gamma=0.9))
            q = gt.q_star[0]
            b = np.full(3, gt.v_star[0] + gt.tol)
            z = rng.dirichlet(np.ones(3))
            assert np.array_equal(_project_polytope(z, q.T, b), enumerate_projection(z, q.T, b))

    def test_projection_finds_closer_point_in_sliver(self):
        # x* = (0, 0, 1) here, and the 1e-9-relaxed optimal set is a sliver
        # along the edge u_0 = 0.  The exhaustive sweep (enumerate_projection)
        # lands at about x*, farther from z than the feasible edge point p.
        gt = shapley_solve(random_game(seed=688578784, n_states=2, n_actions_p1=3,
                                       n_actions_p2=3, gamma=0.9))
        q, v = gt.q_star[0], gt.v_star[0]
        b = np.full(3, v + gt.tol)
        z = np.full(3, 1.0 / 3.0)
        t = 0.9 * (v + gt.tol - q[2, 0]) / (q[1, 0] - q[2, 0])
        p = np.array([0.0, t, 1.0 - t])
        assert 0.0 < t < 1e-5
        assert np.all(q.T @ p <= b)
        px = _project_polytope(z, q.T, b)
        assert np.sum((px - z) ** 2) <= np.sum((p - z) ** 2)

    def test_single_action_projection_is_trivial(self, const_game):
        gt = shapley_solve(const_game)
        d2, px, py = dist_state(gt, 0, np.ones(1), np.ones(1))
        assert d2 == 0.0
        np.testing.assert_array_equal(px, [1.0])
        np.testing.assert_array_equal(py, [1.0])

    @pytest.mark.parametrize("s, message", [
        (-1, r"^s must be >= 0 and an integer \(not a bool\), got s=-1$"),
        (2, r"^s must be < n_states=2, got s=2$"),
        (True, r"^s must be >= 0 and an integer \(not a bool\), got s=True$"),
        (1.0, r"^s must be >= 0 and an integer \(not a bool\), got s=1.0$"),
    ])
    def test_dist_state_rejects_a_state_out_of_range(self, switching_mp, s, message):
        gt = shapley_solve(switching_mp)
        with pytest.raises(ValueError, match=message):
            dist_state(gt, s, gt.x_star[0], gt.y_star[0])

    @pytest.mark.parametrize("x_s, y_s, error, message", [
        ([0.5, 0.25, 0.25], [0.5, 0.5], DimensionMismatchError,
         "player-1 strategy shape (3,) does not match (A,) = (2,)"),
        ([[0.5, 0.5]], [0.5, 0.5], DimensionMismatchError,
         "player-1 strategy shape (1, 2) does not match (A,) = (2,)"),
        ([0.5, 0.5], [1.0], DimensionMismatchError,
         "player-2 strategy shape (1,) does not match (B,) = (2,)"),
        ([np.nan, 1.0], [0.5, 0.5], ValueError,
         "player-1 strategy row 0 is not a probability distribution: [nan, 1.0]"),
        ([0.5, 0.5], [0.5, 0.5 + 1e-8], ValueError,
         "player-2 strategy row 0 is not a probability distribution: [0.5, 0.50000001]"),
        ([1.5, -0.5], [0.5, 0.5], ValueError,
         "player-1 strategy row 0 is not a probability distribution: [1.5, -0.5]"),
    ], ids=["long", "two_dimensional", "short_player_2", "nan", "sum", "negative"])
    def test_dist_state_rejects_bad_strategies_naming_the_player(self, switching_mp, x_s, y_s,
                                                                 error, message):
        gt = shapley_solve(switching_mp)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            dist_state(gt, 1, np.array(x_s), np.array(y_s))

    def test_dist_state_rejects_nan_on_three_actions(self):
        gt = shapley_solve(random_game(seed=4, n_states=2, n_actions_p1=3, n_actions_p2=3,
                                       gamma=0.9))
        with pytest.raises(ValueError, match=re.escape("player-2 strategy row 0 is not a")):
            dist_state(gt, 0, np.full(3, 1 / 3), np.array([np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("x, y, error, message", [
        (np.full((3, 2, 2), 0.5), np.full((2, 2, 2), 0.5), DimensionMismatchError,
         "player-2 strategy shape (2, 2, 2) does not match (..., S, B) = (3, 2, 2)"),
        (np.full((2, 3), 1 / 3), np.full((2, 2), 0.5), DimensionMismatchError,
         "player-1 strategy shape (2, 3) does not match (..., S, A) = (2, 2)"),
        (np.full(2, 0.5), np.full(2, 0.5), DimensionMismatchError,
         "player-1 strategy shape (2,) does not match (..., S, A) = (2, 2)"),
        (np.full((3, 2, 2), 0.5), np.where(np.arange(12).reshape(3, 2, 2) == 6, np.nan, 0.5),
         ValueError, "player-2 strategy row 3 is not a probability distribution: [nan, 0.5]"),
        (np.full((2, 2), 0.6), np.full((2, 2), 0.5), ValueError,
         "player-1 strategy row 0 is not a probability distribution: [0.6, 0.6]"),
    ], ids=["stacks_differ", "wrong_width", "one_dimensional", "nan_in_stack", "sum"])
    def test_dist_to_optimal_sets_rejects_bad_strategies_naming_the_player(
            self, switching_mp, x, y, error, message):
        gt = shapley_solve(switching_mp)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            dist_to_optimal_sets(gt, JointPolicy(x=x, y=y))

    def test_infeasible_interval_raises(self):
        a_mat = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b_vec = np.array([0.2, -0.8])  # u0 <= 0.2 and u0 >= 0.8
        with pytest.raises(ArithmeticError):
            _project_polytope(np.array([0.5, 0.5]), a_mat, b_vec)

    def test_infeasible_three_action_raises(self):
        a_mat = np.array([[1.0, 1.0, 1.0]])
        b_vec = np.array([0.5])  # impossible: coordinates must sum to 1
        with pytest.raises(ArithmeticError):
            _project_polytope(np.array([0.4, 0.4, 0.2]), a_mat, b_vec)

    def test_plane_basis_is_cached_read_only_and_unchanged(self):
        for n in (3, 4, 6):
            plane = _plane_basis(n)
            assert _plane_basis(n) is plane
            assert not plane.flags.writeable
            with pytest.raises(ValueError):
                plane[0, 0] = 0.0
            fresh = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
            assert plane.tobytes() == fresh.tobytes()
            np.testing.assert_allclose(plane.T @ plane, np.eye(n - 1), atol=1e-12)
            np.testing.assert_allclose(plane.sum(axis=0), 0.0, atol=1e-12)


def _projection_outcome(project, z, polytope):
    """The bytes ``project`` returns for z, or the type and message it raises."""
    try:
        return project(z, *polytope).tobytes()
    except Exception as error:  # noqa: BLE001 -- the outcome is compared, not handled
        return type(error), str(error)


@contextlib.contextmanager
def _certificate_spies():
    """Record every ``_multipliers_certify`` verdict made inside the block, as
    ``(accepted, u)``, and every ``_kkt_residual`` call."""
    verdicts, kkt_calls = [], []
    certify, kkt = groundtruth_mod._multipliers_certify, groundtruth_mod._kkt_residual

    def spy_certify(z, u, *args):
        verdicts.append((certify(z, u, *args), u.copy()))
        return verdicts[-1][0]

    def spy_kkt(*args, **kwargs):
        kkt_calls.append(args)
        return kkt(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groundtruth_mod, "_multipliers_certify", spy_certify)
        patch.setattr(groundtruth_mod, "_kkt_residual", spy_kkt)
        yield verdicts, kkt_calls


class TestMultiplierCertificate:
    """The projection accepts its affine point on the first NNLS's multipliers
    first; the two-NNLS oracle is the projection as it was before."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 6), m=st.integers(2, 5),
           game=st.sampled_from(["random", "tied", "near-tied"]),
           tol=st.sampled_from([1e-9, 1e-4]),
           point=st.sampled_from(["interior", "zeros", "near", "vertex"]),
           side=st.sampled_from([1, 2]))
    def test_certificate_keeps_the_two_nnls_bits(self, seed, n, m, game, tol, point, side):
        z, a_mat, b_vec = _projection_case(seed, n, m, game, tol, point, side)
        polytope = groundtruth_mod._polytope(a_mat, b_vec)
        want = _projection_outcome(two_nnls_project_point, z, polytope)
        with _certificate_spies() as (verdicts, _):
            got = _projection_outcome(groundtruth_mod._project_point, z, polytope)
        assert got == want
        for u in (u for accepted, u in verdicts if accepted):
            assert u.tobytes() == got
            assert _kkt_residual(z, u, a_mat, b_vec) <= 1e-9

    def test_sliver_point_takes_the_kkt_residual_path(self):
        # The sliver of test_projection_finds_closer_point_in_sliver, at the
        # vertex z = (0, 1, 0): the normal equations leave the affine point a
        # stationarity residual of about 6e-7, which the certificate rejects;
        # _kkt_residual's own multipliers accept it, as before.
        gt = shapley_solve(random_game(seed=688578784, n_states=2, n_actions_p1=3,
                                       n_actions_p2=3, gamma=0.9))
        polytope = groundtruth_mod._polytope(gt.q_star[0].T, np.full(3, gt.v_star[0] + gt.tol))
        z = np.array([0.0, 1.0, 0.0])
        with _certificate_spies() as (verdicts, kkt_calls):
            got = groundtruth_mod._project_point(z, *polytope)
        assert [accepted for accepted, _ in verdicts] == [False]
        assert len(kkt_calls) == 1
        assert got.tobytes() == two_nnls_project_point(z, *polytope).tobytes()

    def test_certificate_settles_most_generic_projections(self):
        # Random 4- and 5-action games, distributions and off-plane points:
        # the multiplier of sum(u) = 1 is the mean of d, rarely zero.
        rng = np.random.default_rng(8)
        with _certificate_spies() as (verdicts, kkt_calls):
            for seed, n in ((301, 4), (302, 4), (303, 5), (304, 5)):
                gt = shapley_solve(random_game(seed=seed, n_states=2, n_actions_p1=n,
                                               n_actions_p2=n, gamma=0.9))
                for s in range(2):
                    polytope = groundtruth_mod._polytope(gt.q_star[s].T,
                                                         np.full(n, gt.v_star[s] + gt.tol))
                    for z in rng.dirichlet(np.ones(n), size=5):
                        groundtruth_mod._project_point(z, *polytope)
                        groundtruth_mod._project_point(1.5 * z, *polytope)
        assert len(verdicts) == 4 * 2 * 5 * 2
        assert sum(accepted for accepted, _ in verdicts) >= 0.75 * len(verdicts)
        assert len(kkt_calls) <= 0.25 * len(verdicts)

    @pytest.mark.parametrize("slack, residual, accepted", [
        (0.0, 0.0, True), (4e-9, 0.0, True), (5e-9, 0.0, True), (6e-9, 0.0, False),
        (1e-8, 0.0, False), (2e-8, 0.0, False), (0.0, 4e-10, True), (0.0, 6e-10, False),
        (0.0, 1e-9, False),
    ])
    def test_window_and_residual_margins(self, slack, residual, accepted):
        # u on the plane, one active row with multiplier 0.5 and the sum
        # multiplier 0.25; ``residual`` moves z off stationarity along a
        # direction orthogonal to the ones vector.
        u = np.array([0.25, 0.25, 0.5])
        row = np.array([[1.0, -2.0, 0.5]])
        lam = np.array([0.5])
        off = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        z = u + row[0] * lam[0] + 0.25 + residual * off
        assert groundtruth_mod._multipliers_certify(z, u, row, lam, np.array([slack]),
                                                    1e-9) is accepted


# A fresh interpreter: the suite's own process imported scipy long ago.
_IMPORT_PROBE = """
import json, sys
import numpy as np
from zsmg import (JointPolicy, RunConfig, builtin, dist_to_optimal_sets, random_game,
                  run_selfplay, shapley_solve)

result = run_selfplay(builtin("switching-mp"), RunConfig(iterations=40, cadence=10))
assert result.rows
shapley_solve(random_game(seed=3, n_states=2, n_actions_p1=5, n_actions_p2=5, gamma=0.9))
small = [name for name in ("scipy.optimize", "concurrent.futures.process")
         if name in sys.modules]
gt = shapley_solve(random_game(seed=4, n_states=2, n_actions_p1=3, n_actions_p2=3, gamma=0.9))
policy = JointPolicy(x=np.tile([0.6, 0.3, 0.1], (2, 1)), y=np.tile([0.2, 0.2, 0.6], (2, 1)))
dist = dist_to_optimal_sets(gt, policy)
print(json.dumps({"loaded_before": small, "loaded_after": "scipy.optimize" in sys.modules,
                  "per_state": dist.per_state.tobytes().hex(),
                  "x_proj": dist.x_proj.tobytes().hex(),
                  "y_proj": dist.y_proj.tobytes().hex()}))
"""


def test_import_loads_scipy_optimize_only_for_projections_onto_three_actions():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
    probe = json.loads(out.stdout)
    # Exact 2x2 self-play with metric rows and a 5x5 Shapley solve never call nnls,
    # and a serial process never needs the process pool.
    assert probe["loaded_before"] == []
    assert probe["loaded_after"]
    gt = shapley_solve(random_game(seed=4, n_states=2, n_actions_p1=3, n_actions_p2=3,
                                   gamma=0.9))
    policy = JointPolicy(x=np.tile([0.6, 0.3, 0.1], (2, 1)), y=np.tile([0.2, 0.2, 0.6], (2, 1)))
    dist = dist_to_optimal_sets(gt, policy)
    assert probe["per_state"] == dist.per_state.tobytes().hex()
    assert probe["x_proj"] == dist.x_proj.tobytes().hex()
    assert probe["y_proj"] == dist.y_proj.tobytes().hex()

