"""Tests for the optimistic-gradient learner, critic, and run driver."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zsmg import groundtruth as groundtruth_mod
from zsmg import learner as learner_mod
from zsmg import metrics as metrics_mod
from zsmg.estimators import exact_triple_from_q
from zsmg.games import MarkovGame, evaluate_policy_pair, JointPolicy, q_from_v
from zsmg.gamegen import random_game
from zsmg.groundtruth import shapley_solve
from zsmg.learner import (
    _INTERVAL,
    _PAD,
    _projection_constants,
    RunConfig,
    alpha_schedule,
    critic_step,
    eta_max,
    initial_state,
    make_alpha_schedule,
    ogda_step,
    project_simplex,
    reduce_game_for_opponent,
    run_selfplay,
    run_selfplay_batch,
    run_single_player,
)

from oracles import sort_projection_1d, sort_projection_rows, unstacked_selfplay


# ---------------------------------------------------------------------------
# Simplex projection
# ---------------------------------------------------------------------------

class TestProjectSimplex:
    def test_interior_point_unchanged(self):
        v = np.array([0.3, 0.7])
        assert np.array_equal(project_simplex(v), v)

    def test_known_values(self):
        np.testing.assert_allclose(project_simplex(np.array([1.0, 1.0])),
                                   [0.5, 0.5], atol=0)
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])),
                                   [1.0, 0.0], atol=0)
        np.testing.assert_allclose(project_simplex(np.array([0.0, 0.0, 0.0])),
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = rng.uniform(-2.0, 2.0, size=rng.integers(2, 6))
            np.testing.assert_array_equal(project_simplex(v), sort_projection_1d(v))

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(13)
        batch = rng.uniform(-1.0, 1.0, size=(5, 4))
        out = project_simplex(batch)
        for i in range(5):
            np.testing.assert_array_equal(out[i], project_simplex(batch[i]))

    @given(seed=st.integers(0, 100_000))
    def test_postconditions(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 7)))
        p = project_simplex(v)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # Projection property: no simplex vertex is closer than the projection
        # of itself... check optimality against a few random simplex points.
        for _ in range(5):
            w = rng.dirichlet(np.ones(v.size))
            assert np.sum((p - v) ** 2) <= np.sum((w - v) ** 2) + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = project_simplex(rng.uniform(-1.0, 1.0, size=4))
            np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)

    @given(data=st.data())
    def test_stacked_padded_rows_match_separate_calls(self, data):
        # Both players' rows in one (2S, W) call, padded as ogda_step pads them.
        n_states = data.draw(st.integers(1, 3))
        widths = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
        # The small pool makes ties common; the float range reaches 1e3.
        value = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0]),
                          st.floats(-1e3, 1e3, allow_nan=False))
        blocks = [
            np.array(data.draw(st.lists(value, min_size=n_states * w,
                                        max_size=n_states * w))).reshape(n_states, w)
            for w in widths
        ]
        stacked = np.full((2 * n_states, max(widths)), -_PAD)
        for k, (block, w) in enumerate(zip(blocks, widths)):
            stacked[k * n_states:(k + 1) * n_states, :w] = block
        out = project_simplex(stacked)
        for k, (block, w) in enumerate(zip(blocks, widths)):
            rows = out[k * n_states:(k + 1) * n_states]
            assert rows[:, :w].tobytes() == project_simplex(block).tobytes()
            assert (rows[:, w:] == 0.0).all()

    @given(data=st.data())
    def test_interleaved_shapes_match_the_row_oracle(self, data):
        # Each shape twice, in a drawn order, so the cached constants of one
        # shape are used between calls on every other shape.
        shapes = data.draw(st.permutations([(3,), (2, 3), (4, 2), (4, 8), (1, 1), (1, 4, 2),
                                            (3, 4, 4), (2, 20, 3)] * 2))
        value = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0]),
                          st.floats(-1e3, 1e3, allow_nan=False))
        for shape in shapes:
            size = int(np.prod(shape))
            v = np.array(data.draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
            assert project_simplex(v).tobytes() == sort_projection_rows(v).tobytes()
            for constant in _projection_constants(shape):
                assert not constant.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    constant[0] = 0

    @pytest.mark.parametrize("v, row, largest", [
        ([[1e17, 0.0], [0.3, 0.1]], 0, "1e+17"),
        ([1e17, 0.0], 0, "1e+17"),
        ([[0.3, 0.1], [-1e20, -1e20]], 1, "-1e+20"),
        ([[0.3, 0.1], [0.2, np.nan]], 1, "nan"),
        ([[np.inf, 0.0]], 0, "inf"),
        ([[0.3, 0.1], [-np.inf, -np.inf]], 1, "-inf"),
        # Rows with no entries at all, and a 0-d input, are named by the shape.
        (np.zeros((2, 0)), None, "(2, 0)"),
        (np.zeros((3, 4, 0)), None, "(3, 4, 0)"),
        ([], None, "(0,)"),
        (2.5, None, "()"),
    ], ids=["huge_first_row", "huge_vector", "huge_negative_row", "nan", "inf", "all_minus_inf",
            "zero_width_rows", "zero_width_3d", "empty_vector", "zero_d"])
    def test_empty_support_raises_naming_the_row(self, v, row, largest):
        message = (f"row {row} has empty support: its largest entry {largest} " if row is not None
                   else f"needs rows of at least one entry, got shape {largest}")
        with pytest.raises(ValueError, match=re.escape(message)):
            project_simplex(np.array(v))

    @given(data=st.data())
    def test_huge_entries_raise_or_keep_each_rows_own_bits(self, data):
        n_rows, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        value = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0, 1e16, -1e17, 1e300, -1e300]),
                          st.floats(-1e300, 1e300, allow_nan=False))
        batch = np.array(data.draw(st.lists(value, min_size=n_rows * width,
                                            max_size=n_rows * width))).reshape(n_rows, width)
        alone = []
        for row in batch:
            try:
                alone.append(project_simplex(row).tobytes())
            except ValueError:
                alone.append(None)
        if None in alone:
            with pytest.raises(ValueError, match=f"row {alone.index(None)} has empty support"):
                project_simplex(batch)
        else:
            assert [row.tobytes() for row in project_simplex(batch)] == alone


# ---------------------------------------------------------------------------
# Step-size and critic schedules
# ---------------------------------------------------------------------------

class TestSchedules:
    def test_alpha_first_step_replaces(self):
        assert alpha_schedule(1, 0.9) == 1.0
        assert alpha_schedule(1, 0.5) == 1.0

    def test_alpha_known_values(self):
        # H = 2 / (1 - gamma); alpha_t = (H + 1) / (H + t).
        assert alpha_schedule(2, 0.5) == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert alpha_schedule(10, 0.9) == pytest.approx(0.7, abs=1e-12)

    def test_alpha_decreasing_to_zero(self):
        vals = [alpha_schedule(t, 0.9) for t in range(1, 2000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.02

    def test_alpha_rejects_bad_t(self):
        with pytest.raises(ValueError):
            alpha_schedule(0, 0.9)

    def test_named_schedules(self):
        horizon = make_alpha_schedule("horizon", 0.5)
        assert horizon(1) == 1.0
        assert horizon(2) == pytest.approx(5.0 / 6.0)
        harmonic = make_alpha_schedule("harmonic", 0.5)
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            make_alpha_schedule("bogus", 0.5)

    def test_eta_max_values(self):
        assert eta_max(0.9, 1) == pytest.approx(1e-4 * np.sqrt(0.1 ** 5), rel=1e-15)
        assert eta_max(0.5, 1) == pytest.approx(1e-4 * np.sqrt(0.5 ** 5), rel=1e-15)

    def test_eta_max_scales_inverse_sqrt_states(self):
        assert eta_max(0.9, 4) == eta_max(0.9, 1) / 2.0

    @pytest.mark.parametrize("gamma", [1.5, 1.0, -0.1, np.nan])
    def test_alpha_rejects_a_discount_outside_the_unit_interval(self, gamma):
        message = re.escape(f"gamma must lie in [0, 1), got gamma={gamma!r}")
        with pytest.raises(ValueError, match=message):
            alpha_schedule(5, gamma)

    @pytest.mark.parametrize("gamma", [1.5, 1.0, -0.1, np.nan])
    def test_eta_max_rejects_a_discount_outside_the_unit_interval(self, gamma):
        message = re.escape(f"gamma must lie in [0, 1), got gamma={gamma!r}")
        with pytest.raises(ValueError, match=message):
            eta_max(gamma, 2)

    @pytest.mark.parametrize("n_states", [0, -1, 1.5, True])
    def test_eta_max_rejects_a_state_count_that_is_not_a_positive_integer(self, n_states):
        # 0 raised a bare ZeroDivisionError and -1 returned NaN with a
        # RuntimeWarning.
        message = re.escape(f"n_states must be >= 1 and an integer (not a bool), "
                            f"got n_states={n_states!r}")
        with pytest.raises(ValueError, match=message):
            eta_max(0.9, n_states)


class TestCriticStep:
    def test_full_replacement_at_alpha_one(self):
        v = np.array([0.3, 0.4])
        rho = np.array([0.9, 0.1])
        assert np.array_equal(critic_step(v, rho, 1.0), rho)

    def test_convex_combination(self):
        out = critic_step(np.array([0.5]), np.array([0.1]), 1.0 / 3.0)
        assert out[0] == pytest.approx(0.36666666666666664, abs=1e-15)

    def test_fixed_point(self):
        v = np.array([0.7])
        out = critic_step(v, v, 0.37)
        assert out[0] == pytest.approx(0.7, abs=1e-15)


# ---------------------------------------------------------------------------
# One optimistic step
# ---------------------------------------------------------------------------

class TestOgdaStep:
    def _mp_state(self, mp1, eta):
        return initial_state(mp1, eta=eta)

    def test_zero_gradient_is_fixed_point(self, mp1):
        state = self._mp_state(mp1, eta=0.05)
        nxt = ogda_step(state, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1))
        assert np.array_equal(nxt.x_hat, state.x_hat)
        assert np.array_equal(nxt.y, state.y)

    def test_uniform_is_fixed_point_of_pennies(self, mp1):
        # Equal stage payoffs shift both coordinates identically, and the
        # projection removes the common shift exactly for a power-of-two eta.
        state = self._mp_state(mp1, eta=1.0 / 64.0)
        ell, r = np.empty((1, 2)), np.empty((1, 2))
        rho = exact_triple_from_q(q_from_v(mp1, state.v), state.x, state.y, ell, r)
        nxt = ogda_step(state, ell, r, rho)
        assert np.array_equal(nxt.x_hat, state.x_hat)
        assert np.array_equal(nxt.x, state.x)
        assert np.array_equal(nxt.y_hat, state.y_hat)

    def test_interior_step_is_exact_translation(self, mp1):
        # For a (+1, -1) gradient at a power-of-two step size the update stays
        # strictly inside the simplex with the row sum exactly 1, so the
        # projection is the identity and the arithmetic is exact.
        state = self._mp_state(mp1, eta=1.0 / 64.0)
        nxt = ogda_step(state, np.array([[1.0, -1.0]]), np.zeros((1, 2)), np.zeros(1))
        np.testing.assert_array_equal(nxt.x_hat, [[0.484375, 0.515625]])
        np.testing.assert_array_equal(nxt.x, [[0.46875, 0.53125]])

    def test_descends_loss_and_ascends_reward(self, mp1):
        state = self._mp_state(mp1, eta=0.05)
        nxt = ogda_step(state, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.zeros(1))
        assert nxt.x_hat[0, 0] < state.x_hat[0, 0]     # loss on action 0 pushed down
        assert nxt.y_hat[0, 1] > state.y_hat[0, 1]     # reward on action 1 pushed up

    def test_non_finite_estimates_rejected(self, mp1):
        state = self._mp_state(mp1, eta=0.05)
        with pytest.raises(ValueError):
            ogda_step(state, np.array([[np.nan, 0.0]]), np.zeros((1, 2)), np.zeros(1))

    @pytest.mark.parametrize("name", ["ell", "r", "rho"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_estimate_raises_before_the_state_moves(self, switching_mp, name, bad):
        state = initial_state(switching_mp, eta=0.1)
        before = [state.z_hat.tobytes(), state.z.tobytes(), state.v.tobytes(), state.t]
        estimates = {"ell": np.zeros((2, 2)), "r": np.zeros((2, 2)), "rho": np.zeros(2)}
        estimates[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"non-finite payoff estimate {name} passed"):
            ogda_step(state, **estimates)
        assert [state.z_hat.tobytes(), state.z.tobytes(), state.v.tobytes(), state.t] == before

    @pytest.mark.parametrize("name, estimate", [
        ("ell", np.array([[1e10, 0.0]])),
        ("r", np.array([[0.0, -1e10]])),
    ])
    def test_overflowing_gradient_raises_naming_eta(self, mp1, name, estimate):
        # Finite estimates, but eta * 1e10 overflows to inf.
        state = self._mp_state(mp1, eta=1e300)
        estimates = {"ell": np.zeros((1, 2)), "r": np.zeros((1, 2)), "rho": np.zeros(1),
                     name: estimate}
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=re.escape("eta=1e+300 times a payoff estimate")):
            ogda_step(state, **estimates)

    @pytest.mark.parametrize("name, estimates, shape, expected", [
        # One state's loss row would broadcast over both states.
        ("ell", dict(ell=np.array([[1.0, 0.0]])), (1, 2), (2, 2)),
        ("ell", dict(ell=np.zeros((2, 3))), (2, 3), (2, 2)),
        ("r", dict(r=np.zeros(2)), (2,), (2, 2)),
        ("rho", dict(rho=np.zeros(7)), (7,), (2,)),
        ("rho", dict(rho=np.zeros((2, 1))), (2, 1), (2,)),
    ], ids=["ell_one_state", "ell_wide", "r_flat", "rho_long", "rho_column"])
    def test_misshapen_estimates_rejected(self, switching_mp, name, estimates, shape,
                                          expected):
        state = initial_state(switching_mp, eta=0.1)
        bad = {"ell": np.zeros((2, 2)), "r": np.zeros((2, 2)), "rho": np.zeros(2), **estimates}
        with pytest.raises(ValueError, match=re.escape(
                f"payoff estimate {name} has shape {shape}, expected {expected}")):
            ogda_step(state, **bad)

    def test_increments_time_and_preserves_critic(self, mp1):
        state = self._mp_state(mp1, eta=0.05)
        nxt = ogda_step(state, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1))
        assert nxt.t == state.t + 1
        assert nxt.v is state.v

    def test_stacked_layout_pads_with_zeros(self):
        game = random_game(seed=3, n_states=2, n_actions_p1=2, n_actions_p2=5, gamma=0.9)
        state = initial_state(game, eta=0.05)
        rng = np.random.default_rng(4)
        nxt = ogda_step(state, rng.uniform(0, 9, (2, 2)), rng.uniform(0, 9, (2, 5)),
                        np.zeros(2))
        for st_ in (state, nxt):
            assert st_.z_hat.shape == st_.z.shape == (4, 5)
            assert (st_.z_hat[:2, 2:] == 0.0).all() and (st_.z[:2, 2:] == 0.0).all()
            assert st_.x_hat.shape == st_.x.shape == (2, 2)
            assert st_.y_hat.shape == st_.y.shape == (2, 5)
            assert np.shares_memory(st_.x_hat, st_.z_hat)
            assert np.shares_memory(st_.y, st_.z)

    @staticmethod
    def _decentralization_case():
        game = random_game(seed=5, n_states=3, n_actions_p1=2, n_actions_p2=4, gamma=0.9)
        rng = np.random.default_rng(6)
        state = initial_state(game, eta=0.05, init_x=rng.dirichlet(np.ones(2), size=3),
                              init_y=rng.dirichlet(np.ones(4), size=3))
        base = {"ell": rng.uniform(0, 5, (3, 2)), "r": rng.uniform(0, 5, (3, 4)),
                "rho": rng.uniform(0, 5, 3)}
        return state, base, ogda_step(state, **base)

    @staticmethod
    def _row_bytes(state):
        return {(name, s): getattr(state, name)[s].tobytes()
                for name in ("x_hat", "x", "y_hat", "y") for s in range(3)}

    def test_perturbing_one_player_leaves_the_other_players_rows(self):
        state, base, ref = self._decentralization_case()
        before = self._row_bytes(ref)
        for field_name, own in (("ell", "x"), ("r", "y")):
            est = base[field_name].copy()
            est[:, 0] += 4.0
            est[:, 1] -= 3.0
            nxt = self._row_bytes(ogda_step(state, **{**base, field_name: est}))
            for (name, s), value in before.items():
                assert (value == nxt[name, s]) == (not name.startswith(own)), (field_name, name, s)

    def test_perturbing_one_state_leaves_every_other_states_rows(self):
        state, base, ref = self._decentralization_case()
        before = self._row_bytes(ref)
        for s in range(3):
            ell, r = base["ell"].copy(), base["r"].copy()
            ell[s] += [4.0, -3.0]
            r[s] += [-3.0, 4.0, 0.0, 1.0]
            nxt = self._row_bytes(ogda_step(state, ell, r, base["rho"]))
            for key, value in before.items():
                assert (value == nxt[key]) == (key[1] != s), (s, key)


class TestInitialState:
    def test_defaults_to_uniform(self, switching_mp):
        state = initial_state(switching_mp, eta=0.01)
        np.testing.assert_array_equal(state.x_hat, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(state.v, np.zeros(2))
        assert state.t == 1

    def test_explicit_initialization(self, mp1):
        state = initial_state(mp1, eta=0.01, init_x=[[0.9, 0.1]], init_y=[[0.2, 0.8]])
        np.testing.assert_array_equal(state.x_hat, [[0.9, 0.1]])
        np.testing.assert_array_equal(state.y, [[0.2, 0.8]])

    def test_rejects_bad_shapes_and_rows(self, mp1):
        with pytest.raises(ValueError):
            initial_state(mp1, eta=0.01, init_x=[[0.5, 0.3, 0.2]])
        with pytest.raises(ValueError):
            initial_state(mp1, eta=0.01, init_x=[[0.7, 0.7]])
        with pytest.raises(ValueError):
            initial_state(mp1, eta=0.01, init_y=[[-0.1, 1.1]])

    def test_rejects_nan_rows_naming_the_argument(self, switching_mp):
        with pytest.raises(ValueError, match=r"init_x row 0 is not a probability"):
            initial_state(switching_mp, eta=0.01, init_x=[[np.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"init_y row 1 .*nan"):
            initial_state(switching_mp, eta=0.01, init_y=[[0.5, 0.5], [np.nan, np.nan]])

    def test_policy_property_uses_anchors(self, mp1):
        state = initial_state(mp1, eta=0.01, init_x=[[0.9, 0.1]])
        pol = state.policy
        assert isinstance(pol, JointPolicy)
        np.testing.assert_array_equal(pol.x, state.x_hat)


# ---------------------------------------------------------------------------
# Opponent reduction
# ---------------------------------------------------------------------------

class TestReduceGame:
    def test_pure_opponent_slices_columns(self, switching_mp):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        reduced = reduce_game_for_opponent(switching_mp, y)
        assert reduced.n_actions_p2 == 1
        np.testing.assert_array_equal(reduced.loss[0, :, 0], switching_mp.loss[0, :, 0])
        np.testing.assert_array_equal(reduced.loss[1, :, 0], switching_mp.loss[1, :, 1])

    def test_uniform_pennies_flattens_losses(self, mp1):
        reduced = reduce_game_for_opponent(mp1, np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(reduced.loss, 0.5, atol=0)

    def test_transition_rows_still_stochastic(self):
        game = random_game(seed=77, n_states=3, n_actions_p1=2, n_actions_p2=4,
                           gamma=0.9)
        rng = np.random.default_rng(1)
        reduced = reduce_game_for_opponent(game, rng.dirichlet(np.ones(4), size=3))
        np.testing.assert_allclose(reduced.transition.sum(axis=-1), 1.0, atol=1e-12)

    def test_rejects_wrong_shape(self, mp1):
        with pytest.raises(ValueError):
            reduce_game_for_opponent(mp1, np.array([[0.5, 0.3, 0.2]]))

    @pytest.mark.parametrize("opponent", [[[0.5, 0.4], [0.5, 0.5]],
                                          [[np.nan, 1.0], [0.5, 0.5]]])
    def test_rejects_non_distribution_rows_naming_the_opponent(self, switching_mp,
                                                               opponent):
        with pytest.raises(ValueError, match=r"opponent_y row 0 is not a probability"):
            reduce_game_for_opponent(switching_mp, np.array(opponent))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

class TestRunSelfplay:
    def test_critic_converges_on_const_game(self, const_game):
        result = run_selfplay(const_game, RunConfig(iterations=500, eta=0.05))
        assert result.state.v[0] == pytest.approx(0.7999974578187705, rel=1e-12)

    def test_critic_monotone_on_const_game(self, const_game):
        seen = []
        run_selfplay(const_game, RunConfig(iterations=200, eta=0.05),
                     iteration_hook=lambda t, s: seen.append(s.v[0]))
        arr = np.array(seen)
        assert np.all(np.diff(arr) >= -1e-15)
        assert arr[0] == 0.4          # alpha_1 = 1 replaces V with the stage loss
        assert np.all(arr <= 0.8 + 1e-12)

    def test_row_cadence_divisible(self, mp1):
        result = run_selfplay(mp1, RunConfig(iterations=100, eta=0.05, cadence=10))
        assert [row.t for row in result.rows] == list(range(10, 101, 10))

    def test_row_cadence_non_divisible(self, mp1):
        result = run_selfplay(mp1, RunConfig(iterations=100, eta=0.05, cadence=7))
        assert len(result.rows) == 14
        assert result.rows[-1].t == 98

    def test_zero_discount_logs_rows(self, mp1):
        # Off strict gamma may be 0; the ground truth behind the rows must solve.
        result = run_selfplay(mp1, RunConfig(iterations=20, eta=0.05, cadence=10, gamma=0.0))
        assert [row.t for row in result.rows] == [10, 20]
        np.testing.assert_array_equal(result.ground_truth.v_star, [0.5])

    def test_ground_truth_tolerance_is_not_a_keyword(self, mp1):
        # A custom tolerance goes through ``ground_truth=``.
        with pytest.raises(TypeError, match="gt_tol"):
            run_selfplay(mp1, RunConfig(iterations=5, eta=0.05, cadence=5), gt_tol=1e-6)
        with pytest.raises(TypeError, match="gt_tol"):
            run_single_player(mp1, np.array([[0.5, 0.5]]),
                              RunConfig(iterations=5, eta=0.05, cadence=5), gt_tol=1e-6)

    def test_cadence_zero_produces_no_rows(self, mp1):
        result = run_selfplay(mp1, RunConfig(iterations=50, eta=0.05, cadence=0))
        assert result.rows == []
        assert result.ground_truth is None

    def test_deterministic_repeat_exact(self, switching_mp):
        cfg = RunConfig(iterations=300, eta=0.05, cadence=50)
        a = run_selfplay(switching_mp, cfg)
        b = run_selfplay(switching_mp, cfg)
        assert np.array_equal(a.state.x_hat, b.state.x_hat)
        assert np.array_equal(a.state.v, b.state.v)
        for ra, rb in zip(a.rows, b.rows):
            # wall_clock is a genuine timing measurement; everything else must match.
            assert replace(ra, wall_clock=None) == replace(rb, wall_clock=None)

    def test_deterministic_with_sampled_estimator(self, mp1):
        cfg = RunConfig(iterations=50, eta=0.05, estimator="sampled",
                        rollout_len=40, seed=3)
        a = run_selfplay(mp1, cfg)
        b = run_selfplay(mp1, cfg)
        assert np.array_equal(a.state.x_hat, b.state.x_hat)
        assert np.array_equal(a.state.v, b.state.v)

    def test_auto_eta_resolves_to_cap(self, mp1):
        result = run_selfplay(mp1, RunConfig(iterations=5, eta="auto"))
        assert result.state.eta == eta_max(0.9, 1)

    def test_strict_mode_rejects_large_eta(self, mp1):
        with pytest.raises(ValueError):
            run_selfplay(mp1, RunConfig(iterations=5, eta=0.05, strict=True))

    def test_strict_mode_rejects_bad_epsilon(self, mp1):
        cap = eta_max(0.9, 1)
        with pytest.raises(ValueError):
            run_selfplay(mp1, RunConfig(iterations=5, eta=cap, epsilon=11.0,
                                        strict=True))

    def test_strict_mode_accepts_planned_run(self, mp1):
        cap = eta_max(0.9, 1)
        result = run_selfplay(mp1, RunConfig(iterations=5, eta=cap, epsilon=0.5,
                                             strict=True))
        assert result.state.t == 6

    def test_gamma_override(self, mp1):
        result = run_selfplay(mp1, RunConfig(iterations=5, eta=0.05, gamma=0.8))
        assert result.game.gamma == 0.8

    def test_sink_receives_rows_incrementally(self, mp1):
        seen = []
        result = run_selfplay(mp1, RunConfig(iterations=30, eta=0.05, cadence=10),
                              sink=seen.append)
        assert seen == result.rows

    def test_iteration_hook_sees_every_step(self, mp1):
        ts = []
        run_selfplay(mp1, RunConfig(iterations=25, eta=0.05),
                     iteration_hook=lambda t, s: ts.append((t, s.t)))
        assert ts[0] == (1, 2)
        assert ts[-1] == (25, 26)

    def test_swamping_step_size_raises_on_the_first_step(self, switching_mp):
        # eta * loss dwarfs 1, so rounding empties a row's support at once.
        seen = []
        with pytest.raises(ValueError, match=r"project_simplex: row \d+ has empty support"):
            run_selfplay(switching_mp, RunConfig(iterations=5, eta=1e20),
                         iteration_hook=lambda t, state: seen.append(t))
        assert seen == []

    def test_learns_to_avoid_dominated_row(self):
        # Action 0 is strictly better for the minimizer regardless of the
        # opponent, so nearly all mass should land on it.
        loss = np.array([[[0.1, 0.1], [0.9, 0.9]]])
        game = MarkovGame(loss=loss, transition=np.ones((1, 2, 2, 1)), gamma=0.9)
        result = run_selfplay(game, RunConfig(iterations=2000, eta=0.05))
        assert result.state.x_hat[0, 0] >= 0.99

    def test_sampled_critic_stays_in_value_range(self, mp1):
        upper = 1.0 / (1.0 - mp1.gamma)
        def check(t, state):
            assert np.all(state.v >= 0.0)
            assert np.all(state.v <= upper + 1e-9)
        run_selfplay(mp1, RunConfig(iterations=60, eta=0.05, estimator="sampled",
                                    rollout_len=30, seed=5),
                     iteration_hook=check)

    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    @pytest.mark.parametrize("shape", [(2, 3, 2), (3, 1, 4), (2, 8, 3), (1, 2, 8)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_unstacked_oracle_loop(self, shape, estimator):
        n_states, n_a, n_b = shape
        game = random_game(seed=sum(shape), n_states=n_states, n_actions_p1=n_a,
                           n_actions_p2=n_b, gamma=0.9)
        rng = np.random.default_rng(sum(shape))
        cfg = RunConfig(iterations=120, eta=0.05, cadence=15, seed=3, estimator=estimator,
                        rollout_len=25 if estimator == "sampled" else 0, epsilon=1.0,
                        init_x=rng.dirichlet(np.ones(n_a), size=n_states),
                        init_y=rng.dirichlet(np.ones(n_b), size=n_states))
        gt = shapley_solve(game)
        result = run_selfplay(game, cfg, ground_truth=gt)
        ref_state, ref_rows = unstacked_selfplay(game, cfg, gt)
        for name in ("x_hat", "x", "y_hat", "y", "v"):
            assert getattr(result.state, name).tobytes() == getattr(ref_state, name).tobytes()
        assert result.state.t == ref_state.t == 121
        assert [replace(row, wall_clock=None) for row in result.rows] == ref_rows

    # A whole padded row sum gets the diagnostics' bits wrong at these widths,
    # and a row at every iteration shows it in every one of these runs.
    @example(shape=(1, 8, 5), estimator="exact", cadence=1)
    @example(shape=(1, 9, 4), estimator="exact", cadence=1)
    @example(shape=(1, 5, 8), estimator="exact", cadence=1)
    @example(shape=(3, 8, 5), estimator="sampled", cadence=1)
    @example(shape=(3, 9, 4), estimator="sampled", cadence=1)
    @example(shape=(3, 5, 8), estimator="sampled", cadence=1)
    @settings(max_examples=40)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
           estimator=st.sampled_from(["exact", "sampled"]), cadence=st.sampled_from([0, 1]))
    def test_whole_runs_match_the_unstacked_oracle(self, shape, estimator, cadence):
        # The loop writes estimates into strided rows of a padded buffer and
        # runs the diagnostics on the stacked iterates; the oracle keeps one
        # array per player and fresh contiguous estimates.
        n_states, n_a, n_b = shape
        seed = n_states * 100 + n_a * 10 + n_b
        game = random_game(seed=seed, n_states=n_states, n_actions_p1=n_a,
                           n_actions_p2=n_b, gamma=0.9)
        rng = np.random.default_rng(seed)
        cfg = RunConfig(iterations=40, eta=0.01, cadence=cadence, seed=seed,
                        estimator=estimator, rollout_len=12 if estimator == "sampled" else 0,
                        epsilon=1.0, init_x=rng.dirichlet(np.ones(n_a), size=n_states),
                        init_y=rng.dirichlet(np.ones(n_b), size=n_states))
        gt = shapley_solve(game) if cadence else None
        result = run_selfplay(game, cfg, ground_truth=gt)
        ref_state, ref_rows = unstacked_selfplay(game, cfg, gt)
        for name in ("x_hat", "x", "y_hat", "y", "v"):
            assert getattr(result.state, name).tobytes() == getattr(ref_state, name).tobytes()
        assert [replace(row, wall_clock=None) for row in result.rows] == ref_rows
        assert len(ref_rows) == (40 if cadence else 0)

    # Iterations span two full diagnostics intervals and part of a third:
    # a cadence that does not divide them, one past an interval and one past
    # two (a full interval, then one of one step), and one past the run.
    @pytest.mark.parametrize("cadence", [7, _INTERVAL + 6, 2 * _INTERVAL + 1, 3 * _INTERVAL])
    @pytest.mark.parametrize("shape", [(2, 3, 2), (1, 9, 4)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    def test_interval_cadences_match_the_unstacked_oracle(self, estimator, shape, cadence):
        # The oracle advances the diagnostics every iteration; the loop in
        # intervals that close at logged rows or at _INTERVAL steps.
        n_states, n_a, n_b = shape
        game, cfg = _batch_case(n_states * 100 + n_a * 10 + n_b, shape, estimator, cadence,
                                iterations=2 * _INTERVAL + 20)
        gt = shapley_solve(game)
        result = run_selfplay(game, cfg, ground_truth=gt)
        ref_state, ref_rows = unstacked_selfplay(game, cfg, gt)
        for name in ("x_hat", "x", "y_hat", "y", "v"):
            assert getattr(result.state, name).tobytes() == getattr(ref_state, name).tobytes()
        assert [replace(row, wall_clock=None) for row in result.rows] == ref_rows
        assert len(ref_rows) == cfg.iterations // cadence

    @pytest.mark.parametrize("n_runs, iterations, cadence", [
        (1, 200, 500), (1, 150, 7), (1, 300, _INTERVAL + 6), (2, 200, 2 * _INTERVAL + 1),
        (2, 3 * _INTERVAL, _INTERVAL),
    ])
    def test_diagnostics_intervals_stop_at_the_last_row(self, monkeypatch, n_runs, iterations,
                                                        cadence):
        # Each interval is at most _INTERVAL steps, every logged iteration
        # closes one, and no interval runs past the last logged iteration.
        lengths = []

        def recording(j, k, z, z_prev, q, q_prev, alpha):
            lengths.append(len(alpha))
            assert len(z) == len(q) == len(alpha)
            return update(j, k, z, z_prev, q, q_prev, alpha)

        update = metrics_mod.diagnostics_update
        monkeypatch.setattr(metrics_mod, "diagnostics_update", recording)
        cases = [_batch_case(seed, (2, 3, 2), "exact", cadence, iterations)
                 for seed in range(n_runs)]
        results = run_selfplay_batch([game for game, _ in cases], [cfg for _, cfg in cases])
        ends = np.cumsum(lengths).tolist()
        logged = list(range(cadence, iterations + 1, cadence))
        assert all(1 <= length <= _INTERVAL for length in lengths)
        assert set(logged) <= set(ends)
        assert ends[-1:] == logged[-1:]
        assert [row.t for row in results[-1].rows] == logged

    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    def test_loop_never_writes_a_state_it_handed_out(self, switching_mp, estimator):
        kept = []

        def keep(t, state):
            kept.append((t, state, [arr.copy() for arr in (state.z_hat, state.z, state.v)]))

        cfg = RunConfig(iterations=40, eta=0.05, cadence=5, estimator=estimator,
                        rollout_len=20 if estimator == "sampled" else 0, seed=1)
        result = run_selfplay(switching_mp, cfg, iteration_hook=keep)
        assert [(t, state.t) for t, state, _ in kept] == [(t, t + 1) for t in range(1, 41)]
        for t, state, copies in kept:
            for arr, copy in zip((state.z_hat, state.z, state.v), copies):
                assert arr.tobytes() == copy.tobytes(), t
        final = kept[-1][1]
        for name in ("z_hat", "z", "v", "t"):
            assert np.array_equal(getattr(result.state, name), getattr(final, name))

    @pytest.mark.parametrize("name, value, eta, message", [
        ("ell", np.nan, 0.05, "non-finite payoff estimate ell passed"),
        ("r", np.inf, 0.05, "non-finite payoff estimate r passed"),
        ("rho", -np.inf, 0.05, "non-finite payoff estimate rho passed"),
        ("r", -1e10, 1e300, "eta=1e+300 times a payoff estimate overflows"),
    ], ids=["nan_ell", "inf_r", "-inf_rho", "eta_overflow"])
    def test_loop_names_the_cause_of_a_non_finite_gradient(self, switching_mp, monkeypatch,
                                                           name, value, eta, message):
        # The loop scales the estimates into its gradient buffer; the cause
        # is still named from the raw estimates, before any state is handed out.
        def corrupting(q_t, x, y, ell, r):
            rho = exact_triple_from_q(q_t, x, y, ell, r)
            {"ell": ell, "r": r, "rho": rho}[name].flat[-1] = value
            return rho

        monkeypatch.setattr(learner_mod.est_mod, "exact_triple_from_q", corrupting)
        seen = []
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=re.escape(message)):
            run_selfplay(switching_mp, RunConfig(iterations=3, eta=eta),
                         iteration_hook=lambda t, state: seen.append(t))
        assert seen == []

    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    def test_diagnostics_do_not_touch_iterates(self, estimator):
        # Diagnostics run only when metric rows are requested; the iterates
        # must not depend on whether they ran.
        game = random_game(seed=11, n_states=2, n_actions_p1=3, n_actions_p2=2, gamma=0.9)
        gt = shapley_solve(game)
        finals = set()
        for cadence in (0, 1, 7):
            cfg = RunConfig(iterations=60, eta=0.05, cadence=cadence, seed=2,
                            estimator=estimator, rollout_len=20, epsilon=1.0)
            st_ = run_selfplay(game, cfg, ground_truth=gt).state
            finals.add(b"".join(arr.tobytes() for arr in (st_.z_hat, st_.z, st_.v)))
        assert len(finals) == 1

    def test_critic_drift_bounded_by_schedule(self, mp1):
        # ||Q_t - Q_{t-1}|| <= gamma * alpha_{t-1} / (1 - gamma), with the
        # convention alpha_0 = 1 for the first logged step.
        result = run_selfplay(mp1, RunConfig(iterations=200, eta=0.05, cadence=1))
        gamma = mp1.gamma
        for row in result.rows:
            alpha_prev = 1.0 if row.t < 2 else alpha_schedule(row.t - 1, gamma)
            assert row.q_step_max <= gamma * alpha_prev / (1.0 - gamma) + 1e-12


class TestRunSinglePlayer:
    def test_zero_loss_reduced_game_reaches_zero_gap(self):
        # An opponent column that zeroes out every loss makes any policy optimal.
        loss = np.zeros((1, 2, 2))
        game = MarkovGame(loss=loss, transition=np.ones((1, 2, 2, 1)), gamma=0.9)
        result = run_single_player(game, np.array([[0.5, 0.5]]),
                                   RunConfig(iterations=10, eta=0.05))
        v = evaluate_policy_pair(result.game, JointPolicy(
            x=result.state.x_hat, y=np.ones((1, 1))))
        assert abs(v[0]) <= 1e-12

    def test_exploits_fixed_pennies_opponent(self, mp1):
        # Against a column player fixed on action 0 the learner should settle
        # on row 1 and pay nothing.
        result = run_single_player(mp1, np.array([[1.0, 0.0]]),
                                   RunConfig(iterations=3000, eta=0.05))
        assert result.state.x_hat[0, 1] >= 0.99

    def test_nan_opponent_rejected_before_solving(self, switching_mp):
        with pytest.raises(ValueError, match="opponent_y row 0"):
            run_single_player(switching_mp, np.array([[np.nan, 1.0], [0.5, 0.5]]),
                              RunConfig(iterations=5, eta=0.05, cadence=5))

    def test_reduced_game_has_single_column(self, mp1):
        result = run_single_player(mp1, np.array([[0.5, 0.5]]),
                                   RunConfig(iterations=5, eta=0.05))
        assert result.game.n_actions_p2 == 1


@pytest.fixture()
def no_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("ground truth solved before the config was checked")

    monkeypatch.setattr(groundtruth_mod, "shapley_solve", fail)


@pytest.mark.usefixtures("no_solve")
class TestStepSizeRange:
    """A step size that is not finite and positive is rejected before any solve."""

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -0.5])
    def test_selfplay_rejects(self, switching_mp, eta):
        with pytest.raises(ValueError, match=re.escape(f"step size must be finite and "
                                                       f"positive, got eta={eta!r}")):
            run_selfplay(switching_mp, RunConfig(iterations=3, eta=eta, cadence=1))

    def test_single_player_rejects(self, switching_mp):
        with pytest.raises(ValueError, match="eta=nan"):
            run_single_player(switching_mp, np.full((2, 2), 0.5),
                              RunConfig(iterations=3, eta=float("nan"), cadence=1))


    @pytest.mark.parametrize("eta", ["abc", None])
    def test_selfplay_rejects_non_numeric(self, switching_mp, eta):
        with pytest.raises(ValueError, match=re.escape(f"got eta={eta!r}")):
            run_selfplay(switching_mp, RunConfig(iterations=3, eta=eta, cadence=1))


@pytest.mark.usefixtures("no_solve")
class TestCadence:
    """A negative or non-integral cadence is rejected before any solve."""

    @pytest.mark.parametrize("cadence", [-3, 2.5, float("nan"), "5"])
    def test_selfplay_rejects(self, switching_mp, cadence):
        with pytest.raises(ValueError, match=re.escape(f"got cadence={cadence!r}")):
            run_selfplay(switching_mp, RunConfig(iterations=10, eta=0.05, cadence=cadence))

    def test_zero_cadence_gives_no_rows(self, switching_mp):
        assert run_selfplay(switching_mp, RunConfig(iterations=10, eta=0.05)).rows == []

@pytest.mark.usefixtures("no_solve")
class TestDiscountRange:
    """gamma outside [0, 1) is rejected before any ground truth is solved."""

    @pytest.mark.parametrize("gamma", [1.0, 1.5, -0.1, float("nan")])
    def test_selfplay_rejects(self, switching_mp, gamma):
        with pytest.raises(ValueError, match=re.escape(f"gamma={gamma}")):
            run_selfplay(switching_mp,
                         RunConfig(iterations=10, eta=0.05, cadence=1, gamma=gamma))

    @pytest.mark.parametrize("gamma", [1.0, float("nan")])
    def test_single_player_rejects(self, switching_mp, gamma):
        with pytest.raises(ValueError, match=re.escape(f"gamma={gamma}")):
            run_single_player(switching_mp, np.full((2, 2), 0.5),
                              RunConfig(iterations=10, eta=0.05, cadence=1, gamma=gamma))

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_below_half_allowed_when_not_strict(self, switching_mp, gamma):
        result = run_selfplay(switching_mp, RunConfig(iterations=10, eta=0.05, gamma=gamma))
        assert result.game.gamma == gamma


@pytest.mark.usefixtures("no_solve")
class TestRunFieldChecks:
    """iterations, seed and a sampled rollout_len must be integers (not bools)
    of at least 1, 0 and 1; anything else is rejected naming the field and
    its value before any solve."""

    @pytest.mark.parametrize("field, value, estimator", [
        ("iterations", 2.5, "exact"),
        ("iterations", "abc", "exact"),
        ("iterations", True, "exact"),
        ("iterations", 0, "exact"),
        ("rollout_len", True, "sampled"),
        ("rollout_len", 2.5, "sampled"),
        ("rollout_len", 0, "sampled"),
        ("seed", "x", "sampled"),
        ("seed", 2.5, "sampled"),
        ("seed", False, "exact"),
        ("seed", -1, "exact"),
    ])
    def test_selfplay_rejects(self, switching_mp, field, value, estimator):
        cfg = replace(RunConfig(iterations=10, eta=0.05, cadence=5, estimator=estimator,
                                rollout_len=20 if estimator == "sampled" else 0),
                      **{field: value})
        with pytest.raises(ValueError, match=re.escape(f"got {field}={value!r}")):
            run_selfplay(switching_mp, cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("iterations", 0, "iterations must be >= 1"),
        ("rollout_len", 0, "sampled mode requires rollout_len >= 1"),
    ])
    def test_pinned_messages_kept(self, switching_mp, field, value, message):
        cfg = replace(RunConfig(iterations=10, eta=0.05, cadence=5, estimator="sampled",
                                rollout_len=20), **{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            run_selfplay(switching_mp, cfg)

    def test_numpy_integers_accepted(self, switching_mp):
        cfg = RunConfig(iterations=np.int64(4), eta=0.05, estimator="sampled",
                        rollout_len=np.int32(5), seed=np.uint8(3))
        assert run_selfplay(switching_mp, cfg).state.t == 5


def _batch_case(seed: int, shape, estimator: str, cadence: int, iterations: int = 30):
    """A game and a config of the given shape with seeded initial strategies."""
    n_states, n_a, n_b = shape
    game = random_game(seed=seed, n_states=n_states, n_actions_p1=n_a, n_actions_p2=n_b,
                       gamma=0.9)
    rng = np.random.default_rng(seed)
    cfg = RunConfig(iterations=iterations, eta=0.01, cadence=cadence, seed=seed,
                    estimator=estimator, rollout_len=12 if estimator == "sampled" else 0,
                    epsilon=1.0, init_x=rng.dirichlet(np.ones(n_a), size=n_states),
                    init_y=rng.dirichlet(np.ones(n_b), size=n_states))
    return game, cfg


class TestRunSelfplayBatch:
    # numpy's pairwise sum unrolls eight wide, so these widths would show a
    # diagnostics row sum that mixed the players' columns or the runs.
    @example(shape=(2, 8, 3), n_runs=3, estimator="exact", cadence=1)
    @example(shape=(1, 3, 9), n_runs=2, estimator="sampled", cadence=1)
    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
           n_runs=st.integers(1, 5), estimator=st.sampled_from(["exact", "sampled"]),
           cadence=st.sampled_from([0, 1]))
    def test_every_run_matches_its_own_run(self, shape, n_runs, estimator, cadence):
        # Each run of a batch keeps the bits of the unstacked oracle loop and
        # of its own run_selfplay call: iterates, critic and metric rows.
        base = shape[0] * 100 + shape[1] * 10 + shape[2]
        cases = [_batch_case(base * 10 + k, shape, estimator, cadence) for k in range(n_runs)]
        gts = [shapley_solve(game) if cadence else None for game, _ in cases]
        batch = run_selfplay_batch([game for game, _ in cases], [cfg for _, cfg in cases], gts)
        assert len(batch) == n_runs
        for (game, cfg), gt, got in zip(cases, gts, batch):
            alone = run_selfplay(game, cfg, ground_truth=gt)
            ref_state, ref_rows = unstacked_selfplay(game, cfg, gt)
            for name in ("x_hat", "x", "y_hat", "y", "v"):
                want = getattr(ref_state, name).tobytes()
                assert getattr(got.state, name).tobytes() == want
                assert getattr(alone.state, name).tobytes() == want
            for name in ("z_hat", "z"):
                assert getattr(got.state, name).tobytes() == getattr(alone.state, name).tobytes()
            assert got.state.t == alone.state.t == cfg.iterations + 1
            rows = [replace(row, wall_clock=None) for row in got.rows]
            assert rows == ref_rows == [replace(row, wall_clock=None) for row in alone.rows]
            assert got.game.loss.tobytes() == alone.game.loss.tobytes()

    def test_ground_truth_solved_per_run(self):
        cases = [_batch_case(seed, (2, 3, 2), "exact", 10) for seed in (1, 2)]
        batch = run_selfplay_batch([game for game, _ in cases], [cfg for _, cfg in cases])
        for (game, _), result in zip(cases, batch):
            assert result.ground_truth.v_star.tobytes() == shapley_solve(game).v_star.tobytes()


class TestMetricsPass:
    """Logged iterations wait for one make_metrics_row pass per _ROWS_PER_PASS of them.

    130 iterations at cadence 1 cross pass boundaries at 64 and 128 and end
    with a pass of 2.
    """

    ITERATIONS = 130

    def _config(self, **changes):
        return RunConfig(iterations=self.ITERATIONS, eta=0.05, cadence=1, **changes)

    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    def test_rows_match_the_unstacked_oracle(self, switching_mp, estimator):
        cfg = self._config(**(dict(estimator="sampled", rollout_len=12, epsilon=1.0, seed=3)
                              if estimator == "sampled" else {}))
        gt = shapley_solve(switching_mp)
        result = run_selfplay(switching_mp, cfg, ground_truth=gt)
        _, ref_rows = unstacked_selfplay(switching_mp, cfg, gt)
        assert learner_mod._ROWS_PER_PASS == 64
        assert len(ref_rows) == self.ITERATIONS
        assert [replace(row, wall_clock=None) for row in result.rows] == ref_rows

    def test_sink_receives_rows_one_pass_at_a_time(self, switching_mp):
        seen, counts = [], {}
        result = run_selfplay(switching_mp, self._config(), sink=seen.append,
                              iteration_hook=lambda t, state: counts.setdefault(t, len(seen)))
        assert [counts[t] for t in (1, 63, 64, 65, 127, 128, 129, 130)] == \
            [0, 0, 64, 64, 64, 128, 128, 130]
        assert [row.t for row in seen] == list(range(1, self.ITERATIONS + 1))
        assert seen == result.rows

    def test_wall_clock_is_read_at_the_logged_iteration(self, switching_mp):
        # Two runs: the rows of one t share its clock, which never decreases.
        batch = run_selfplay_batch([switching_mp] * 2,
                                   [self._config(seed=seed) for seed in (0, 1)])
        first, second = ([row.wall_clock for row in result.rows] for result in batch)
        assert first == second
        assert all(0.0 <= a <= b for a, b in zip(first, first[1:]))
        assert [row.t for row in batch[1].rows] == list(range(1, self.ITERATIONS + 1))

    def test_an_error_is_raised_by_the_pass_that_holds_its_row(self, switching_mp,
                                                               monkeypatch):
        calls, seen = [], []

        def second_pass_fails(gt, policy):
            calls.append(len(policy.x))
            if len(calls) == 2:
                raise ArithmeticError("projection failed")
            return groundtruth_mod.dist_to_optimal_sets(gt, policy)

        monkeypatch.setattr(metrics_mod, "dist_to_optimal_sets", second_pass_fails)
        with pytest.raises(ArithmeticError, match="projection failed"):
            run_selfplay(switching_mp, self._config(), sink=seen.append)
        assert calls == [64, 64]
        assert [row.t for row in seen] == list(range(1, 65))

    def test_runs_of_different_games_match_the_unstacked_oracle(self):
        # Each game's items are a strided index list inside make_metrics_row.
        cases = [_batch_case(seed, (2, 3, 2), "exact", 1, iterations=self.ITERATIONS)
                 for seed in (11, 12)]
        gts = [shapley_solve(game) for game, _ in cases]
        batch = run_selfplay_batch([game for game, _ in cases], [cfg for _, cfg in cases], gts)
        for (game, cfg), gt, got in zip(cases, gts, batch):
            _, ref_rows = unstacked_selfplay(game, cfg, gt)
            assert [replace(row, wall_clock=None) for row in got.rows] == ref_rows


@pytest.mark.usefixtures("no_solve")
class TestBatchKey:
    """Runs that do not share what the loop reads once are rejected, naming the
    field, before anything is solved."""

    @pytest.mark.parametrize("field, game_change, run_change", [
        ("shape", dict(n_actions_p1=3), {}),
        ("gamma", {}, dict(gamma=0.8)),
        ("iterations", {}, dict(iterations=11)),
        ("cadence", {}, dict(cadence=2)),
        ("estimator", {}, dict(estimator="exact")),
        ("rollout_len", {}, dict(rollout_len=21)),
        ("eta", {}, dict(eta=0.04)),
        ("alpha", {}, dict(alpha="harmonic")),
        ("epsilon_prime", {}, dict(epsilon=0.5)),
    ])
    def test_mismatch_names_the_field(self, field, game_change, run_change):
        base_game = dict(seed=3, n_states=2, n_actions_p1=2, n_actions_p2=2, gamma=0.9)
        run = RunConfig(iterations=10, eta=0.05, cadence=5, estimator="sampled",
                        rollout_len=20, epsilon=1.0)
        games = [random_game(**base_game), random_game(**{**base_game, **game_change})]
        configs = [run, replace(run, seed=1, **run_change)]
        with pytest.raises(ValueError, match=f"batched runs must share {field}: run 0 has"):
            run_selfplay_batch(games, configs)

    def test_seed_and_initial_strategies_may_differ(self, switching_mp):
        configs = [RunConfig(iterations=5, eta=0.05, seed=0),
                   RunConfig(iterations=5, eta=0.05, seed=9, init_x=[[1.0, 0.0], [0.5, 0.5]])]
        assert len(run_selfplay_batch([switching_mp] * 2, configs)) == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            run_selfplay_batch([], [])

    def test_length_mismatch_rejected(self, switching_mp):
        with pytest.raises(ValueError, match="one config and one ground truth per game"):
            run_selfplay_batch([switching_mp] * 2, [RunConfig(iterations=5, eta=0.05)])

    def test_a_bad_run_is_named_by_its_own_check(self, switching_mp):
        configs = [RunConfig(iterations=5, eta=0.05, cadence=1),
                   RunConfig(iterations=5, eta=0.05, cadence=1, seed="x")]
        with pytest.raises(ValueError, match="got seed='x'"):
            run_selfplay_batch([switching_mp] * 2, configs)
