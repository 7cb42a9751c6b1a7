"""Tests for game containers, validation, evaluation, and best responses."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zsmg.games import (
    DimensionMismatchError,
    JointPolicy,
    MarkovGame,
    best_response,
    evaluate_policy_pair,
    q_from_v,
    uniform_policy,
    validate_game,
    value_upper_bound,
)
from zsmg.gamegen import random_game

from oracles import (
    enumeration_best_response,
    policy_pair_value,
    q_values_triple_loop,
    unstacked_best_response,
)


def _one_state_game(loss_matrix, gamma=0.9):
    loss = np.asarray(loss_matrix, dtype=float)[None, :, :]
    trans = np.ones(loss.shape + (1,))
    return MarkovGame(loss=loss, transition=trans, gamma=gamma)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_arrays_are_float64_and_readonly(self, mp1):
        assert mp1.loss.dtype == np.float64
        assert mp1.transition.dtype == np.float64
        with pytest.raises(ValueError):
            mp1.loss[0, 0, 0] = 0.3

    def test_loss_rank_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            MarkovGame(loss=np.zeros((2, 2)), transition=np.zeros((2, 2, 2, 2)), gamma=0.9)

    def test_transition_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            MarkovGame(loss=np.zeros((2, 2, 2)), transition=np.zeros((2, 2, 2, 3)), gamma=0.9)

    def test_dimension_error_is_value_error(self):
        assert issubclass(DimensionMismatchError, ValueError)

    def test_shape_properties(self, switching_mp):
        assert switching_mp.n_states == 2
        assert switching_mp.n_actions_p1 == 2
        assert switching_mp.n_actions_p2 == 2

    def test_caller_arrays_stay_writeable(self):
        loss, trans = np.zeros((1, 1, 1)), np.ones((1, 1, 1, 1))
        game = MarkovGame(loss=loss, transition=trans, gamma=0.9)
        again = pickle.loads(pickle.dumps(game))
        for own in (game, again):
            assert not own.loss.flags.writeable
            assert not own.transition.flags.writeable
        assert loss.flags.writeable and trans.flags.writeable
        loss[0, 0, 0] = 1.0
        assert game.loss[0, 0, 0] == again.loss[0, 0, 0] == 0.0

    def test_read_only_through_pickle(self, switching_mp):
        again = pickle.loads(pickle.dumps(switching_mp))
        assert not again.loss.flags.writeable
        assert not again.transition.flags.writeable
        assert (again.gamma, again.name) == (switching_mp.gamma, switching_mp.name)
        np.testing.assert_array_equal(again.loss, switching_mp.loss)
        np.testing.assert_array_equal(again.transition, switching_mp.transition)


class TestValidation:
    def test_clean_game_has_no_violations(self, mp1, switching_mp):
        assert validate_game(mp1) == []
        assert validate_game(switching_mp) == []

    def test_gamma_below_half_reported(self):
        game = _one_state_game([[0.0, 1.0], [1.0, 0.0]], gamma=0.4)
        problems = validate_game(game)
        assert len(problems) == 1
        assert "gamma" in problems[0]
        assert "0.4" in problems[0]

    def test_gamma_of_one_reported(self):
        game = _one_state_game([[0.0, 1.0], [1.0, 0.0]], gamma=1.0)
        assert any("gamma" in p for p in validate_game(game))

    def test_loss_out_of_range_names_indices(self):
        loss = np.zeros((1, 2, 2))
        loss[0, 1, 0] = 1.5
        game = MarkovGame(loss=loss, transition=np.ones((1, 2, 2, 1)), gamma=0.9)
        problems = validate_game(game)
        assert len(problems) == 1
        assert "(s=0, a=1, b=0)" in problems[0]

    def test_nonstochastic_row_names_indices(self):
        trans = np.ones((1, 2, 2, 1))
        trans[0, 0, 1, 0] = 0.7
        game = MarkovGame(loss=np.zeros((1, 2, 2)), transition=trans, gamma=0.9)
        problems = validate_game(game)
        assert any("(s=0, a=0, b=1)" in p for p in problems)

    def test_negative_probability_names_indices(self):
        trans = np.zeros((2, 1, 1, 2))
        trans[0, 0, 0, 0] = 1.2
        trans[0, 0, 0, 1] = -0.2
        trans[1, 0, 0, 1] = 1.0
        game = MarkovGame(loss=np.zeros((2, 1, 1)), transition=trans, gamma=0.9)
        problems = validate_game(game)
        assert any("(s=0, a=0, b=0, s'=1)" in p for p in problems)

    def test_non_finite_entries_reported(self):
        loss = np.zeros((1, 2, 2))
        loss[0, 1, 0] = np.nan
        assert validate_game(MarkovGame(loss=loss, transition=np.ones((1, 2, 2, 1)),
                                        gamma=0.9)) == [
            "non-finite loss at (s=0, a=1, b=0): nan"]
        trans = np.ones((1, 2, 2, 1))
        trans[0, 0, 1, 0] = np.inf
        problems = validate_game(MarkovGame(loss=np.zeros((1, 2, 2)), transition=trans,
                                            gamma=0.9))
        assert problems == ["non-finite transition probability at (s=0, a=0, b=1, s'=0): inf"]

    def test_multiple_violations_all_reported(self):
        loss = np.full((1, 1, 1), 2.0)
        trans = np.full((1, 1, 1, 1), 0.5)
        game = MarkovGame(loss=loss, transition=trans, gamma=0.3)
        problems = validate_game(game)
        assert len(problems) == 3


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------

class TestEvaluation:
    def test_const_game_value(self, const_game):
        v = evaluate_policy_pair(const_game, uniform_policy(const_game))
        assert v.shape == (1,)
        assert v[0] == pytest.approx(0.8, abs=1e-12)

    def test_chain2_value(self, chain2):
        v = evaluate_policy_pair(chain2, uniform_policy(chain2))
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_zero_loss_gives_zero_value(self):
        game = _one_state_game([[0.0, 0.0], [0.0, 0.0]])
        v = evaluate_policy_pair(game, uniform_policy(game))
        assert v[0] == 0.0

    def test_uniform_matching_pennies(self, mp1):
        v = evaluate_policy_pair(mp1, uniform_policy(mp1))
        assert v[0] == pytest.approx(5.0, abs=1e-12)

    def test_policy_shape_mismatch(self, mp1):
        bad = JointPolicy(x=np.ones((1, 3)) / 3.0, y=np.array([[0.5, 0.5]]))
        with pytest.raises(DimensionMismatchError):
            evaluate_policy_pair(mp1, bad)

    @pytest.mark.parametrize("side, row", [(1, [3.0, 3.0]), (2, [np.nan, 0.5])])
    def test_rows_that_are_not_distributions_rejected(self, switching_mp, side, row):
        x, y = np.full((2, 2), 0.5), np.full((2, 2), 0.5)
        (x if side == 1 else y)[1] = row
        with pytest.raises(ValueError, match=rf"player-{side} policy row 1 is not a probability"):
            evaluate_policy_pair(switching_mp, JointPolicy(x=x, y=y))

    @pytest.mark.parametrize("residual_tol", [-1.0, 0.0, np.inf, np.nan, "a", True])
    def test_bad_residual_tol_rejected(self, switching_mp, residual_tol):
        # -1 used to blame the solve, inf switched the residual check off.
        with pytest.raises(ValueError, match=r"residual_tol must be positive and finite, "
                                             r"got residual_tol="):
            evaluate_policy_pair(switching_mp, uniform_policy(switching_mp),
                                 residual_tol=residual_tol)

    def test_matches_linear_system_oracle(self):
        rng = np.random.default_rng(2)
        for i in range(5):
            game = random_game(seed=40 + i, n_states=3, n_actions_p1=2,
                               n_actions_p2=3, gamma=0.9)
            pol = JointPolicy(x=rng.dirichlet(np.ones(2), size=3),
                              y=rng.dirichlet(np.ones(3), size=3))
            expected = policy_pair_value(game.loss, game.transition, game.gamma,
                                         pol.x, pol.y)
            np.testing.assert_allclose(evaluate_policy_pair(game, pol), expected,
                                       atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    def test_value_within_bounds(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(seed=seed, n_states=2, n_actions_p1=2,
                           n_actions_p2=2, gamma=0.9)
        pol = JointPolicy(x=rng.dirichlet(np.ones(2), size=2),
                          y=rng.dirichlet(np.ones(2), size=2))
        v = evaluate_policy_pair(game, pol)
        assert np.all(v >= 0.0)
        assert np.all(v <= value_upper_bound(game.gamma) + 1e-12)


# ---------------------------------------------------------------------------
# Stage values
# ---------------------------------------------------------------------------

class TestQFromV:
    def test_zero_value_returns_loss(self, mp1):
        q = q_from_v(mp1, np.zeros(1))
        np.testing.assert_array_equal(q, mp1.loss)

    def test_constant_value_shifts_by_gamma_v(self, mp1):
        q = q_from_v(mp1, np.full(1, 2.0))
        np.testing.assert_allclose(q, mp1.loss + 0.9 * 2.0, atol=1e-15)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        for i in range(5):
            game = random_game(seed=60 + i, n_states=3, n_actions_p1=2,
                               n_actions_p2=2, gamma=0.9)
            v = rng.uniform(0.0, 10.0, size=3)
            expected = q_values_triple_loop(game.loss, game.transition,
                                            game.gamma, v)
            np.testing.assert_allclose(q_from_v(game, v), expected, atol=1e-14)

    def test_monotone_in_v(self, switching_mp):
        v_lo = np.array([1.0, 2.0])
        v_hi = v_lo + 0.5
        assert np.all(q_from_v(switching_mp, v_hi) >= q_from_v(switching_mp, v_lo))

    def test_gamma_contraction_in_v(self, switching_mp):
        v_a = np.array([1.0, 4.0])
        v_b = np.array([2.0, 1.5])
        diff = np.max(np.abs(q_from_v(switching_mp, v_a) - q_from_v(switching_mp, v_b)))
        assert diff <= switching_mp.gamma * np.max(np.abs(v_a - v_b)) + 1e-15

    def test_value_shape_mismatch(self, mp1):
        with pytest.raises(DimensionMismatchError):
            q_from_v(mp1, np.zeros(2))


# ---------------------------------------------------------------------------
# Best response
# ---------------------------------------------------------------------------

class TestBestResponse:
    def test_maximizer_exploits_uniform_pennies(self, mp1):
        # Against the uniform column player the best the row player can do is 0.5
        # per round; discounted, 5.0.  Fixing x instead, the maximizer also gets 5.0.
        value, policy = best_response(mp1, np.array([[0.5, 0.5]]), fixed_side=1)
        assert value[0] == pytest.approx(5.0, abs=1e-9)
        assert policy.shape == (1, 2)

    def test_minimizer_against_pure_column(self, mp1):
        # If the column player always plays action 0 the row player dodges every loss.
        value, policy = best_response(mp1, np.array([[1.0, 0.0]]), fixed_side=2)
        assert value[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(policy, [[0.0, 1.0]])

    def test_one_hot_output(self):
        rng = np.random.default_rng(4)
        game = random_game(seed=80, n_states=3, n_actions_p1=3, n_actions_p2=2,
                           gamma=0.9)
        y = rng.dirichlet(np.ones(2), size=3)
        _, policy = best_response(game, y, fixed_side=2)
        np.testing.assert_array_equal(np.sort(policy, axis=1)[:, :-1], 0.0)
        np.testing.assert_array_equal(policy.sum(axis=1), 1.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for i in range(5):
            game = random_game(seed=900 + i, n_states=3, n_actions_p1=3,
                               n_actions_p2=2, gamma=0.9)
            y = rng.dirichlet(np.ones(2), size=3)
            value, _ = best_response(game, y, fixed_side=2)
            expected = enumeration_best_response(game.loss, game.transition,
                                                 game.gamma, y)
            np.testing.assert_allclose(value, expected, atol=1e-8)

    @given(seed=st.integers(0, 10_000))
    def test_dominates_arbitrary_responses(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(seed=seed % 97, n_states=2, n_actions_p1=2,
                           n_actions_p2=2, gamma=0.9)
        y = rng.dirichlet(np.ones(2), size=2)
        value, _ = best_response(game, y, fixed_side=2)
        x = rng.dirichlet(np.ones(2), size=2)
        other = evaluate_policy_pair(game, JointPolicy(x=x, y=y))
        assert np.all(value <= other + 1e-9)

    def test_fixed_policy_shape_checked(self, mp1):
        with pytest.raises(DimensionMismatchError):
            best_response(mp1, np.ones((2, 2)) / 2.0, fixed_side=2)

    @pytest.mark.parametrize("row", [[3.0, 3.0], [np.nan, 0.5], [-0.5, 1.5]])
    def test_fixed_rows_that_are_not_distributions_rejected(self, switching_mp, row):
        # A NaN opponent used to give NaN values without complaint.
        fixed = np.array([[0.5, 0.5], row])
        with pytest.raises(ValueError, match=r"fixed player-2 policy row 1 is not a probability"):
            best_response(switching_mp, fixed, fixed_side=2)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.inf, np.nan, "a", True])
    def test_bad_tol_rejected(self, switching_mp, tol):
        # -1 used to raise "Bellman residual too large", inf returned [5, 5]
        # unchecked, "a" raised a bare TypeError and True ran as 1.0.
        with pytest.raises(ValueError, match=r"tol must be positive and finite, got tol="):
            best_response(switching_mp, np.full((2, 2), 0.5), fixed_side=2, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, "a", None])
    def test_bad_max_iter_rejected(self, switching_mp, max_iter):
        # 0 used to raise "policy iteration failed to terminate", 2.5 a bare
        # TypeError, and True ran one step.
        with pytest.raises(ValueError, match=r"max_iter must be an integer >= 1 \(not a bool\), "
                                             r"got max_iter="):
            best_response(switching_mp, np.full((2, 2), 0.5), fixed_side=2, max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self, switching_mp):
        fixed = np.full((2, 2), 0.5)
        value, _ = best_response(switching_mp, fixed, fixed_side=2, max_iter=np.int64(5))
        np.testing.assert_array_equal(value, best_response(switching_mp, fixed, fixed_side=2)[0])

    def test_bad_side_rejected(self, mp1):
        with pytest.raises(ValueError):
            best_response(mp1, np.array([[0.5, 0.5]]), fixed_side=3)


def _stacked_case(seed: int, n_states: int, n_a: int, n_b: int, n_items: int):
    """A random game and ``n_items`` fixed policies per side, flat to sharply peaked."""
    rng = np.random.default_rng(seed)
    game = random_game(seed=seed % 997, n_states=n_states, n_actions_p1=n_a, n_actions_p2=n_b,
                       gamma=float(rng.choice([0.5, 0.9, 0.99])))

    def policies(width):
        return np.stack([rng.dirichlet(np.full(width, rng.choice([0.05, 1.0, 20.0])),
                                       size=n_states) for _ in range(n_items)])

    return game, policies(n_a), policies(n_b)


class TestStackedBestResponse:
    """One policy-iteration loop over a stack keeps each item's own bits."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_states=st.integers(1, 3),
           n_a=st.integers(1, 4), n_b=st.integers(1, 4), n_items=st.integers(1, 4))
    def test_stack_matches_one_call_per_item_on_both_sides(self, seed, n_states, n_a, n_b,
                                                           n_items):
        game, xs, ys = _stacked_case(seed, n_states, n_a, n_b, n_items)
        for side, fixed in ((1, xs), (2, ys)):
            value, policy = best_response(game, fixed, fixed_side=side)
            assert value.shape == (n_items, n_states)
            for i in range(n_items):
                alone_value, alone_policy = best_response(game, fixed[i], fixed_side=side)
                ref_value, ref_policy, _ = unstacked_best_response(game, fixed[i], side)
                assert value[i].tobytes() == alone_value.tobytes() == ref_value.tobytes()
                assert policy[i].tobytes() == alone_policy.tobytes() == ref_policy.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_states=st.integers(1, 3),
           n_actions=st.integers(1, 4), n_items=st.integers(1, 4))
    def test_both_sides_in_one_call_when_a_equals_b(self, seed, n_states, n_actions, n_items):
        game, xs, ys = _stacked_case(seed, n_states, n_actions, n_actions, n_items)
        value, policy = best_response(game, np.stack([xs, ys]), np.array([[1], [2]]))
        for side, fixed in ((1, xs), (2, ys)):
            for i in range(n_items):
                alone_value, alone_policy = best_response(game, fixed[i], fixed_side=side)
                assert value[side - 1, i].tobytes() == alone_value.tobytes()
                assert policy[side - 1, i].tobytes() == alone_policy.tobytes()
        # Sides in any order along the stack.
        sides = np.random.default_rng(seed).integers(1, 3, size=n_items)
        fixed = np.where((sides == 1)[:, None, None], xs, ys)
        value, policy = best_response(game, fixed, sides)
        for i, side in enumerate(sides):
            alone_value, alone_policy = best_response(game, fixed[i], fixed_side=int(side))
            assert value[i].tobytes() == alone_value.tobytes()
            assert policy[i].tobytes() == alone_policy.tobytes()

    def test_items_that_converge_at_different_steps_keep_their_bits(self):
        # An item that has stopped improving is evaluated again with the same
        # actions while the others still improve.
        found = 0
        for seed in range(200):
            game, xs, ys = _stacked_case(seed, 3, 4, 4, 4)
            for side, fixed in ((1, xs), (2, ys)):
                refs = [unstacked_best_response(game, fixed[i], side) for i in range(4)]
                if len({steps for *_, steps in refs}) < 2:
                    continue
                found += 1
                value, policy = best_response(game, fixed, fixed_side=side)
                for i, (ref_value, ref_policy, _) in enumerate(refs):
                    assert value[i].tobytes() == ref_value.tobytes()
                    assert policy[i].tobytes() == ref_policy.tobytes()
        assert found >= 10

    def test_failed_certificate_names_its_item(self):
        # At tol = 1e-300 only a rounding-exact Bellman fixed point passes:
        # items 0 and 2 are one, item 1 is not.
        game = _one_state_game([[0.1, 0.7], [0.3, 0.9]], gamma=0.7)
        fixed = np.array([[[0.0, 1.0]], [[0.3, 0.7]], [[0.1, 0.9]]])
        for i in (0, 2):
            best_response(game, fixed[i], fixed_side=2, tol=1e-300)
        with pytest.raises(ArithmeticError, match=r"Bellman residual .* too large$"):
            best_response(game, fixed[1], fixed_side=2, tol=1e-300)
        with pytest.raises(ArithmeticError, match=r"residual .* too large at stack item \(1,\)"):
            best_response(game, fixed, fixed_side=2, tol=1e-300)

    def test_stack_rows_that_are_not_distributions_named(self, switching_mp):
        fixed = np.full((3, 2, 2), 0.5)
        fixed[2, 1] = [0.9, 0.9]
        with pytest.raises(ValueError, match=r"fixed player-2 policy row 5 is not a probability"):
            best_response(switching_mp, fixed, fixed_side=2)

    @pytest.mark.parametrize("sides, player", [([1, 2], 2), ([2, 2], 2), (2, 2), ([2, 1], 1)])
    def test_bad_row_named_over_the_whole_stack_with_its_side(self, switching_mp, sides,
                                                              player):
        # Item 1's state-1 row is row 3 of the stack, whatever the other
        # item's side; it was once counted within its own side's items.
        fixed = np.full((2, 2, 2), 0.5)
        fixed[1, 1] = [0.9, 0.3]
        with pytest.raises(ValueError, match=rf"^fixed player-{player} policy row 3 is not a "):
            best_response(switching_mp, fixed, sides)

    def test_sides_of_different_widths_cannot_share_a_stack(self):
        game = random_game(seed=3, n_states=2, n_actions_p1=2, n_actions_p2=3, gamma=0.9)
        with pytest.raises(DimensionMismatchError):
            best_response(game, np.full((2, 2, 2), 0.5), np.array([1, 2]))


def test_value_upper_bound():
    assert value_upper_bound(0.9) == pytest.approx(10.0)
    assert value_upper_bound(0.5) == pytest.approx(2.0)


def test_uniform_policy_rows():
    game = random_game(seed=1, n_states=2, n_actions_p1=3, n_actions_p2=4, gamma=0.9)
    pol = uniform_policy(game)
    np.testing.assert_array_equal(pol.x, np.full((2, 3), 1.0 / 3.0))
    np.testing.assert_array_equal(pol.y, np.full((2, 4), 0.25))
