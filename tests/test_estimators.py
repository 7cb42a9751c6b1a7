"""Tests for payoff estimation: exact, rollout-sampled, and budget planning."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zsmg.estimators import (
    ReducibleChainError,
    SampledEstimator,
    Trajectory,
    estimate_mu,
    exact_triple_from_q,
    explore_mix,
    plan_accuracy_budget,
    plan_sample_budget,
    rollout,
    sampled_estimates,
)
from zsmg.games import DimensionMismatchError, MarkovGame, q_from_v, validate_game
from zsmg.gamegen import random_game
from zsmg.learner import RunConfig, initial_state, run_selfplay, run_selfplay_batch

from oracles import (
    average_gap_budget_reference,
    binomial_three_se,
    fresh_sampled_estimates,
    last_iterate_budget_reference,
    sample_budget_reference,
    searchsorted_rollout,
    two_state_hitting_time,
)


def _exact(q, x, y):
    """``(ell, r, rho)`` from ``exact_triple_from_q`` into fresh arrays."""
    ell, r = np.empty(x.shape), np.empty(y.shape)
    return ell, r, exact_triple_from_q(q, x, y, ell, r)


def _sampled(traj, v_prev, gamma):
    """``(ell, r, rho)`` from ``sampled_estimates`` into fresh arrays."""
    ell = np.empty((traj.n_states, traj.n_actions_p1))
    r = np.empty((traj.n_states, traj.n_actions_p2))
    return ell, r, sampled_estimates(traj, v_prev, gamma, ell, r)


# ---------------------------------------------------------------------------
# Exact estimates
# ---------------------------------------------------------------------------

class TestExactEstimates:
    def test_rho_is_x_dot_ell_bitwise(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(size=(2, 3, 4))
        x = rng.dirichlet(np.ones(3), size=2)
        y = rng.dirichlet(np.ones(4), size=2)
        ell, _, rho = _exact(q, x, y)
        np.testing.assert_array_equal(rho, np.einsum("sa,sa->s", x, ell))

    def test_both_contractions_agree(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(size=(3, 4, 2))
        x = rng.dirichlet(np.ones(4), size=3)
        y = rng.dirichlet(np.ones(2), size=3)
        ell, r, _ = _exact(q, x, y)
        # x^T (Q y) and (x^T Q) y are the same bilinear form.
        for s in range(3):
            assert abs(float(x[s] @ ell[s]) - float(r[s] @ y[s])) <= 1e-12

    def test_zero_critic_reduces_to_stage_loss(self, mp1):
        x = np.array([[0.5, 0.5]])
        y = np.array([[1.0, 0.0]])
        ell, _, _ = _exact(q_from_v(mp1, np.zeros(1)), x, y)
        np.testing.assert_array_equal(ell, mp1.loss[:, :, 0])

    def test_uniform_pennies_payoff(self, mp1):
        x = np.array([[0.5, 0.5]])
        _, _, rho = _exact(q_from_v(mp1, np.zeros(1)), x, x)
        assert rho[0] == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# Exploration mixing
# ---------------------------------------------------------------------------

class TestExploreMix:
    def test_zero_weight_is_identity(self):
        p = np.array([[0.3, 0.7]])
        out = explore_mix(p, 0.0)
        np.testing.assert_array_equal(out, p)

    def test_uniform_is_fixed_point(self):
        p = np.full((2, 4), 0.25)
        np.testing.assert_allclose(explore_mix(p, 0.3), p, atol=1e-15)

    def test_pure_strategy_example(self):
        out = explore_mix(np.array([1.0, 0.0]), 0.2)
        np.testing.assert_allclose(out, [0.95, 0.05], atol=1e-15)

    @given(eps=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    def test_min_entry_guarantee(self, eps, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(3))
        out = explore_mix(p, eps)
        assert out.min() >= eps / 6.0 - 1e-15
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            explore_mix(np.array([1.0, 0.0]), -0.1)
        with pytest.raises(ValueError):
            explore_mix(np.array([1.0, 0.0]), 1.5)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

_KIND = st.sampled_from(["dirichlet", "pure", "half"])


def _strategy_rows(rng: np.random.Generator, kind: str, n_rows: int, n: int) -> np.ndarray:
    if kind == "pure":
        return np.eye(n)[rng.integers(n, size=n_rows)]
    rows = rng.dirichlet(np.ones(n), size=n_rows)
    # Rows summing to 0.5 leave u > 0.5 past the end: the clamp picks n - 1.
    return 0.5 * rows if kind == "half" else rows


def _assert_same_trajectory(got, want):
    for name in ("states", "actions_p1", "actions_p2", "losses"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert (got_array.shape, got_array.dtype) == (want_array.shape, want_array.dtype)
        assert got_array.tobytes() == want_array.tobytes(), name
    assert (got.n_states, got.n_actions_p1, got.n_actions_p2) == \
        (want.n_states, want.n_actions_p1, want.n_actions_p2)


def _kept(rows):
    """``(flat index, row)`` of every row a kept-rows list holds, in index order."""
    return [(k, row) for k, row in enumerate(rows) if row is not None]


def _assert_same_rollout(game, x, y, n_steps, s_init, seed, rows=None):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = rollout(game, x, y, n_steps, s_init, rng, rows)
    _assert_same_trajectory(got, searchsorted_rollout(game, x, y, n_steps, s_init, ref_rng))
    assert rng.random() == ref_rng.random()


class TestRollout:
    def test_shapes_and_loss_consistency(self, switching_mp):
        rng = np.random.default_rng(0)
        x = np.full((2, 2), 0.5)
        traj = rollout(switching_mp, x, x, 100, 0, rng)
        assert traj.states.shape == (101,)
        assert len(traj) == 100
        for i in range(100):
            assert traj.losses[i] == switching_mp.loss[
                traj.states[i], traj.actions_p1[i], traj.actions_p2[i]]

    def test_deterministic_given_generator_seed(self, switching_mp):
        x = np.full((2, 2), 0.5)
        t1 = rollout(switching_mp, x, x, 50, 0, np.random.default_rng(7))
        t2 = rollout(switching_mp, x, x, 50, 0, np.random.default_rng(7))
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.actions_p1, t2.actions_p1)
        np.testing.assert_array_equal(t1.losses, t2.losses)

    def test_validation(self, mp1):
        x = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError):
            rollout(mp1, x, x, 0, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            rollout(mp1, x, x, 10, 5, np.random.default_rng(0))

    def test_action_frequencies_match_strategy(self):
        # Zero-loss one-state game: only the sampling path is exercised.
        game = MarkovGame(loss=np.zeros((1, 2, 2)),
                          transition=np.ones((1, 2, 2, 1)), gamma=0.9)
        x = np.array([[0.3, 0.7]])
        traj = rollout(game, x, x, 100_000, 0, np.random.default_rng(0))
        freq = float(np.mean(traj.actions_p1 == 0))
        assert binomial_three_se(freq, 0.3, 100_000)

    @settings(max_examples=100)
    @given(n_s=st.integers(1, 8), n_a=st.integers(1, 5), n_b=st.integers(1, 5),
           n_steps=st.integers(1, 400), data=st.data(),
           kind_x=st.sampled_from(["dirichlet", "pure", "half"]),
           kind_y=st.sampled_from(["dirichlet", "pure", "half"]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_searchsorted_oracle(self, n_s, n_a, n_b, n_steps, data,
                                        kind_x, kind_y, seed):
        s_init = data.draw(st.integers(0, n_s - 1), label="s_init")
        game = random_game(seed=seed, n_states=n_s, n_actions_p1=n_a,
                           n_actions_p2=n_b, gamma=0.9)
        rng = np.random.default_rng(seed)
        x = _strategy_rows(rng, kind_x, n_s, n_a)
        y = _strategy_rows(rng, kind_y, n_s, n_b)
        _assert_same_rollout(game, x, y, n_steps, s_init, seed)

    # Edge shapes of the flat index (s*A + a)*B + b: one action on either
    # side, one state, a 3x5 game (wider than the drawn ones), and
    # single-step walks, two flat indices each with the final state's.
    @example(n_s=4, n_a=1, n_b=3, seed=1,
             calls=[("pure", "dirichlet", 40, 3), ("half", "half", 25, 0)])
    @example(n_s=4, n_a=3, n_b=1, seed=2,
             calls=[("dirichlet", "pure", 40, 2), ("half", "dirichlet", 25, 1)])
    @example(n_s=1, n_a=2, n_b=3, seed=3,
             calls=[("dirichlet", "half", 30, 0), ("pure", "dirichlet", 10, 0)])
    @example(n_s=3, n_a=3, n_b=5, seed=4,
             calls=[("dirichlet", "dirichlet", 120, 2), ("half", "pure", 60, 0),
                    ("pure", "half", 30, 1)])
    @example(n_s=3, n_a=2, n_b=2, seed=5,
             calls=[("dirichlet", "dirichlet", 1, 2), ("half", "pure", 1, 0),
                    ("pure", "half", 1, 1)])
    @settings(max_examples=60)
    @given(n_s=st.integers(1, 6), n_a=st.integers(1, 4), n_b=st.integers(1, 4),
           calls=st.lists(st.tuples(_KIND, _KIND, st.integers(1, 200), st.integers(0, 5)),
                          min_size=2, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_kept_rows_equal_searchsorted_oracle(self, n_s, n_a, n_b, calls, seed):
        # Consecutive rollouts on one game share one rows list, with fresh
        # strategies and start states (a drawn start taken modulo S): each
        # equals the oracle, bit for bit.
        game = random_game(seed=seed, n_states=n_s, n_actions_p1=n_a,
                           n_actions_p2=n_b, gamma=0.9)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = [None] * (n_s * n_a * n_b)
        for kind_x, kind_y, n_steps, start in calls:
            x = _strategy_rows(rng, kind_x, n_s, n_a)
            y = _strategy_rows(rng, kind_y, n_s, n_b)
            ref_rng.bit_generator.state = rng.bit_generator.state
            s_init = start % n_s
            got = rollout(game, x, y, n_steps, s_init, rng, rows)
            _assert_same_trajectory(got, searchsorted_rollout(game, x, y, n_steps, s_init,
                                                              ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(rows) == n_s * n_a * n_b
        cum = np.cumsum(game.transition, axis=3).reshape(-1, n_s)
        for k, row in _kept(rows):
            assert row == cum[k].tolist()

    def test_kept_rows_are_not_rebuilt(self, switching_mp):
        x = np.full((2, 2), 0.5)
        rows = [None] * switching_mp.loss.size
        rollout(switching_mp, x, x, 50, 0, np.random.default_rng(0), rows)
        kept = _kept(rows)
        rollout(switching_mp, x, x, 50, 1, np.random.default_rng(1), rows)
        assert all(rows[k] is row for k, row in kept)

    def test_non_monotone_cumulative_row(self):
        # Within validate_game's 1e-12 tolerance, yet the cumulative row falls.
        trans = np.full((2, 2, 2, 2), 0.5)
        trans[0, 0, 0] = [1.0 + 5e-13, -5e-13]
        game = MarkovGame(loss=np.arange(8.0).reshape(2, 2, 2) / 8.0,
                          transition=trans, gamma=0.9)
        assert validate_game(game) == []
        cum = np.cumsum(trans[0, 0, 0])
        assert cum[1] < cum[0]
        x = np.full((2, 2), 0.5)
        kept = [None] * 8
        for s_init in (0, 1):
            _assert_same_rollout(game, x, x, 400, s_init, seed=11)
            # From the second start on, the walk reads rows kept by the first.
            _assert_same_rollout(game, x, x, 400, s_init, seed=11, rows=kept)
        assert kept[0] is not None

    def test_draw_inside_non_monotone_window(self):
        # cum = [0.3, 0.5, 0.5 - 1e-12, 1]: a draw in [cum[2], cum[1]) gets 3
        # from the binary search, 1 with the last column cut, 2 by counting.
        row = [0.3, 0.2, -1e-12, 0.5 + 1e-12]
        game = MarkovGame(loss=np.zeros((4, 1, 1)),
                          transition=np.tile(row, (4, 1, 1, 1)), gamma=0.9)
        assert validate_game(game) == []
        cum = np.cumsum(row)
        u_s = [cum[2], 0.5 * (cum[1] + cum[2]), np.nextafter(cum[1], 0.0), 0.1, 0.9]

        class FixedDraws:
            def random(self, shape):
                return np.array([np.zeros(5), np.zeros(5), u_s]).reshape(shape)

        x = np.ones((4, 1))
        want = searchsorted_rollout(game, x, x, 5, 0, FixedDraws())
        np.testing.assert_array_equal(want.states, [0, 3, 3, 3, 0, 3])
        kept = [None] * 4
        for rows in (None, kept, kept):
            got = rollout(game, x, x, 5, 0, FixedDraws(), rows)
            np.testing.assert_array_equal(got.states, want.states)
        assert [k for k, _ in _kept(kept)] == [0, 3]

    @pytest.mark.parametrize("field, value", [
        ("n_steps", 2.5), ("n_steps", True), ("n_steps", 0), ("n_steps", "3"),
        ("s_init", 1.5), ("s_init", True), ("s_init", -1), ("s_init", 2), ("s_init", None),
    ])
    def test_rejects_bad_step_count_and_start(self, switching_mp, field, value):
        args = dict(n_steps=10, s_init=0)
        args[field] = value
        x = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match=rf"{field} must be .*got {field}={value!r}"):
            rollout(switching_mp, x, x, args["n_steps"], args["s_init"],
                    np.random.default_rng(0))

    @pytest.mark.parametrize("x_shape, y_shape, message", [
        ((3, 3), (3, 2), "x shape (3, 3) does not match (S, A) = (3, 2)"),
        ((3, 1), (3, 2), "x shape (3, 1) does not match (S, A) = (3, 2)"),
        ((2, 2), (3, 2), "x shape (2, 2) does not match (S, A) = (3, 2)"),
        ((3, 2), (3, 3), "y shape (3, 3) does not match (S, B) = (3, 2)"),
        ((3, 2), (6,), "y shape (6,) does not match (S, B) = (3, 2)"),
        ((1, 3, 2), (3, 2), "x shape (1, 3, 2) does not match (S, A) = (3, 2)"),
    ], ids=["wide", "narrow", "short", "wide_y", "flat_y", "stacked"])
    def test_rejects_strategies_of_another_shape(self, x_shape, y_shape, message):
        # A wider x drew from the wrong cumulative rows and a narrower one
        # raised a bare IndexError; neither draws anything now.
        game = random_game(seed=1, n_states=3, n_actions_p1=2, n_actions_p2=2, gamma=0.9)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            rollout(game, np.full(x_shape, 0.5), np.full(y_shape, 0.5), 10, 0, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("rows", [[None] * 12, [None] * 4, {}], ids=["long", "short", "dict"])
    def test_rejects_kept_rows_of_another_game(self, switching_mp, rows):
        # A list kept on a 3-state 2x2 game (12 slots) aliased rows here.
        x = np.full((2, 2), 0.5)
        with pytest.raises(DimensionMismatchError,
                           match=rf"^rows has length {len(rows)}, expected S\*A\*B = 8 "):
            rollout(switching_mp, x, x, 10, 0, np.random.default_rng(0), rows)

    def test_numpy_integers_accepted(self, switching_mp):
        x = np.full((2, 2), 0.5)
        got = rollout(switching_mp, x, x, np.int32(30), np.int64(1), np.random.default_rng(3))
        want = rollout(switching_mp, x, x, 30, 1, np.random.default_rng(3))
        _assert_same_trajectory(got, want)


class TestSampledEstimates:
    def test_single_visit_is_exact(self):
        traj = Trajectory(
            states=np.array([0, 0]), actions_p1=np.array([1]),
            actions_p2=np.array([0]), losses=np.array([0.6]),
            n_states=1, n_actions_p1=2, n_actions_p2=2,
        )
        ell, r, rho = _sampled(traj, np.zeros(1), 0.9)
        assert ell[0, 1] == 0.6
        assert r[0, 0] == 0.6
        assert rho[0] == 0.6

    def test_zero_visit_entries_are_zero(self):
        traj = Trajectory(
            states=np.array([0, 0]), actions_p1=np.array([1]),
            actions_p2=np.array([0]), losses=np.array([0.6]),
            n_states=2, n_actions_p1=2, n_actions_p2=2,
        )
        ell, _, rho = _sampled(traj, np.zeros(2), 0.9)
        assert ell[0, 0] == 0.0
        assert ell[1, 0] == ell[1, 1] == 0.0
        assert rho[1] == 0.0

    def test_critic_value_discounted_into_target(self):
        traj = Trajectory(
            states=np.array([0, 1]), actions_p1=np.array([0]),
            actions_p2=np.array([0]), losses=np.array([0.25]),
            n_states=2, n_actions_p1=1, n_actions_p2=1,
        )
        ell, _, _ = _sampled(traj, np.array([0.0, 2.0]), 0.5)
        assert ell[0, 0] == 0.25 + 0.5 * 2.0

    def test_estimates_stay_in_value_range(self, switching_mp):
        rng = np.random.default_rng(3)
        x = np.full((2, 2), 0.5)
        traj = rollout(switching_mp, x, x, 500, 0, rng)
        v = rng.uniform(0.0, 10.0, size=2)
        upper = 1.0 + switching_mp.gamma * v.max()
        for arr in _sampled(traj, v, switching_mp.gamma):
            assert arr.min() >= 0.0
            assert arr.max() <= upper + 1e-12

    @pytest.mark.parametrize("name, shape", [
        ("v_prev", (3,)), ("v_prev", (1,)), ("ell", (2, 3)), ("r", (1, 2, 2)),
    ], ids=["long_v", "short_v", "wide_ell", "stacked_r"])
    def test_rejects_arrays_of_another_shape(self, switching_mp, name, shape):
        # A short v_prev raised a bare IndexError; a long one passed unread.
        traj = rollout(switching_mp, np.full((2, 2), 0.5), np.full((2, 2), 0.5), 20, 0,
                       np.random.default_rng(0))
        arrays = dict(v_prev=np.zeros(2), ell=np.zeros((2, 2)), r=np.zeros((2, 2)))
        want = arrays[name].shape
        arrays[name] = np.zeros(shape)
        with pytest.raises(DimensionMismatchError,
                           match=f"^{re.escape(f'{name} shape {shape} does not match {want}')}"):
            sampled_estimates(traj, arrays["v_prev"], 0.9, arrays["ell"], arrays["r"])

    def test_long_rollout_concentrates_on_exact(self, switching_mp):
        x = np.full((2, 2), 0.5)
        traj = rollout(switching_mp, x, x, 100_000, 0, np.random.default_rng(0))
        v = np.array([1.0, 3.0])
        ell, _, rho = _sampled(traj, v, switching_mp.gamma)
        exact_ell, _, exact_rho = _exact(q_from_v(switching_mp, v), x, x)
        assert np.max(np.abs(ell - exact_ell)) <= 0.05
        assert np.max(np.abs(rho - exact_rho)) <= 0.05

    @settings(max_examples=60)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
           n_steps=st.integers(1, 30), gamma=st.floats(0.0, 0.99),
           seed=st.integers(0, 2**32 - 1), strided=st.booleans())
    def test_dirty_buffers_get_the_fresh_array_bits(self, shape, n_steps, gamma, seed,
                                                    strided):
        # Short walks over many entries leave zero-visit entries in most
        # examples; those must come out exactly +0.0 over the NaN left before.
        n_s, n_a, n_b = shape
        rng = np.random.default_rng(seed)
        traj = Trajectory(
            states=rng.integers(n_s, size=n_steps + 1),
            actions_p1=rng.integers(n_a, size=n_steps),
            actions_p2=rng.integers(n_b, size=n_steps),
            losses=rng.uniform(-1.0, 1.0, size=n_steps),
            n_states=n_s, n_actions_p1=n_a, n_actions_p2=n_b,
        )
        v_prev = rng.uniform(0.0, 10.0, size=n_s)
        pad = 2 if strided else 0
        ell_base = np.full((n_s, n_a + pad), np.nan)
        r_base = np.full((n_s, n_b + pad), np.nan)
        ell, r = ell_base[:, pad:], r_base[:, pad:]
        rho = sampled_estimates(traj, v_prev, gamma, ell, r)
        want = fresh_sampled_estimates(traj, v_prev, gamma)
        for got, ref in zip((ell, r, rho), want):
            assert np.ascontiguousarray(got).tobytes() == ref.tobytes()
        assert np.isnan(ell_base[:, :pad]).all() and np.isnan(r_base[:, :pad]).all()
        visited = np.zeros((n_s, n_a), dtype=bool)
        visited[traj.states[:-1], traj.actions_p1] = True
        assert (ell[~visited] == 0.0).all() and not np.signbit(ell[~visited]).any()


@pytest.fixture
def rollouts(monkeypatch):
    """The trajectories of every ``rollout`` call the estimator makes, in order."""
    import zsmg.estimators as est_mod

    seen, real = [], est_mod.rollout

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(est_mod, "rollout", recording)
    return seen


def _estimate(est, x, y, v, epsilon_prime):
    """One ``estimate_into`` call on exploration-mixed strategies into NaN-filled arrays."""
    ell, r = np.full(x.shape, np.nan), np.full(y.shape, np.nan)
    rho = est.estimate_into(explore_mix(x, epsilon_prime), explore_mix(y, epsilon_prime), v,
                            ell, r)
    return ell, r, rho


class TestSampledEstimator:
    def test_continues_from_last_state(self, switching_mp, rollouts):
        est = SampledEstimator(switching_mp, rollout_len=30, seed=0)
        state = initial_state(switching_mp, eta=0.01)
        for _ in range(2):
            _estimate(est, state.x, state.y, state.v, 0.1)
        first, second = rollouts
        assert second.states[0] == first.states[-1]

    def test_reset_mode_restarts(self, switching_mp, rollouts):
        # At seed 1 the continuing rollouts start in states 0, 1, 0, so a
        # reset that were ignored would start the second rollout in state 1.
        state = initial_state(switching_mp, eta=0.01)
        starts = {}
        for reset in (False, True):
            est = SampledEstimator(switching_mp, rollout_len=30, seed=1,
                                   reset_each_iteration=reset)
            rollouts.clear()
            for _ in range(3):
                _estimate(est, state.x, state.y, state.v, 0.1)
            starts[reset] = [int(traj.states[0]) for traj in rollouts]
        assert starts[False] == [0, 1, 0]
        assert starts[True] == [0, 0, 0]

    def test_writes_the_visit_means_of_its_rollout(self, switching_mp, rollouts):
        est = SampledEstimator(switching_mp, rollout_len=40, seed=2)
        state = replace(initial_state(switching_mp, eta=0.01), v=np.array([0.5, 2.0]))
        ell, r, rho = _estimate(est, state.x, state.y, state.v, 0.3)
        want = fresh_sampled_estimates(rollouts[-1], state.v, switching_mp.gamma)
        for got, ref in zip((ell, r, rho), want):
            assert got.tobytes() == ref.tobytes()

    def test_est_err_reports_sup_deviation(self, switching_mp):
        # The loop measures every run's error in one exact triple over the
        # mixed stack; each equals the largest whole-array deviation of that
        # run's first estimates from the exact ones for its exploration-mixed
        # strategies, the critic still 0.
        other = random_game(seed=7, n_states=2, n_actions_p1=2, n_actions_p2=2,
                            gamma=switching_mp.gamma)
        games, seeds = [switching_mp, other], [1, 4]
        configs = [RunConfig(iterations=1, eta=0.01, estimator="sampled", rollout_len=200,
                             epsilon_prime=0.2, cadence=1, seed=seed) for seed in seeds]
        results = run_selfplay_batch(games, configs)
        for game, seed, result in zip(games, seeds, results):
            state = initial_state(game, eta=0.01)
            est = SampledEstimator(game, rollout_len=200, seed=seed)
            ell, r, rho = _estimate(est, state.x, state.y, state.v, 0.2)
            exact = _exact(q_from_v(game, state.v), explore_mix(state.x, 0.2),
                           explore_mix(state.y, 0.2))
            want = max(float(np.max(np.abs(got - ref))) for got, ref in zip((ell, r, rho), exact))
            assert result.rows[0].est_err_max == want > 0.0

    def test_rejects_zero_length(self, mp1):
        with pytest.raises(ValueError):
            SampledEstimator(mp1, rollout_len=0)

    @pytest.mark.parametrize("field, value", [
        ("rollout_len", 2.5), ("rollout_len", True), ("rollout_len", 0),
    ])
    def test_rejects_bad_arguments_at_construction(self, mp1, field, value):
        args = dict(game=mp1, rollout_len=10)
        args[field] = value
        with pytest.raises(ValueError, match=rf"{field} must .*got {field}={value!r}"):
            SampledEstimator(**args)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_rejects_a_bad_seed_at_construction(self, mp1, seed):
        # -1 raised numpy's bare "expected non-negative integer" and 1.5 a
        # SeedSequence TypeError.
        with pytest.raises(ValueError, match=rf"^seed must be >= 0 .*got seed={seed!r}$"):
            SampledEstimator(mp1, rollout_len=10, seed=seed)

    def test_numpy_arguments_accepted(self, mp1):
        est = SampledEstimator(mp1, rollout_len=np.int64(10), seed=np.int64(3))
        assert (type(est.rollout_len), est.rollout_len) == (int, 10)

    def test_selfplay_epsilon_prime_derived_from_epsilon(self, mp1):
        # run_selfplay mixes exploration as (1 - gamma) * epsilon unless
        # epsilon_prime is given explicitly.
        cfg = RunConfig(iterations=10, eta=0.05, estimator="sampled",
                        rollout_len=20, epsilon=1.0, seed=0)
        result = run_selfplay(mp1, cfg)
        assert result.state.t == 11

    @pytest.mark.parametrize("fields, message", [
        (dict(epsilon=30.0), r"epsilon_prime = \(1 - gamma\) \* epsilon = "
                             r"\(1 - 0\.9\) \* 30\.0 = 2\.99"),
        (dict(epsilon_prime=1.5), r"epsilon_prime=1\.5 must lie in \[0, 1\]"),
        # The loop mixes exploration for every estimator, so the run checks
        # the weight that SampledEstimator used to check.
        (dict(epsilon_prime=-0.1), r"epsilon_prime=-0\.1 must lie in \[0, 1\]"),
        (dict(epsilon_prime=float("nan")), r"epsilon_prime=nan must lie in \[0, 1\]"),
        (dict(epsilon_prime=float("inf")), r"epsilon_prime=inf must lie in \[0, 1\]"),
        (dict(epsilon_prime=True), r"epsilon_prime=True must lie in \[0, 1\]"),
    ])
    def test_bad_exploration_weight_fails_before_ground_truth(
            self, monkeypatch, switching_mp, fields, message):
        import zsmg.groundtruth as groundtruth_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("ground truth solved before the config was checked")

        monkeypatch.setattr(groundtruth_mod, "shapley_solve", no_solve)
        cfg = RunConfig(iterations=10, eta=0.05, estimator="sampled",
                        rollout_len=20, cadence=5, seed=0, **fields)
        with pytest.raises(ValueError, match=message):
            run_selfplay(switching_mp, cfg)


# ---------------------------------------------------------------------------
# Budget planning
# ---------------------------------------------------------------------------

class TestSampleBudget:
    def test_matches_reference_formula(self):
        cases = [
            (2, 2, 0.5, 1.0, 1.0, 100, 0.1, 1.0),
            (3, 2, 0.9, 0.3, 0.1, 10**6, 0.01, 1.0),
            (4, 4, 0.99, 0.05, 0.2, 10**4, 0.05, 2.0),
        ]
        for n_a, n_b, gamma, mu, eps, horizon, delta, c_l in cases:
            budget = plan_sample_budget(n_a, n_b, gamma, mu, eps, horizon,
                                        delta, c_l=c_l)
            assert budget.rollout_len == sample_budget_reference(
                n_a, n_b, gamma, mu, eps, horizon, delta, c_l=c_l)

    def test_epsilon_cubed_scaling(self):
        base = plan_sample_budget(2, 2, 0.9, 0.5, 0.2, 10**5, 0.01)
        halved = plan_sample_budget(2, 2, 0.9, 0.5, 0.1, 10**5, 0.01)
        ratio = halved.rollout_len / base.rollout_len
        assert 7.9 <= ratio <= 8.1

    def test_monotone_in_action_counts(self):
        small = plan_sample_budget(2, 2, 0.9, 0.5, 0.5, 10**4, 0.1)
        big = plan_sample_budget(5, 2, 0.9, 0.5, 0.5, 10**4, 0.1)
        assert big.rollout_len > small.rollout_len

    def test_echoes_inputs_and_derives_epsilon_prime(self):
        budget = plan_sample_budget(2, 3, 0.9, 0.4, 0.25, 10**3, 0.05)
        assert budget.epsilon == 0.25
        assert budget.epsilon_prime == pytest.approx((1.0 - 0.9) * 0.25, abs=1e-15)
        assert budget.mu == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_sample_budget(2, 2, 0.9, 0.5, 0.0, 10**3, 0.1)
        with pytest.raises(ValueError):
            plan_sample_budget(2, 2, 0.9, 0.0, 0.5, 10**3, 0.1)
        with pytest.raises(ValueError):
            plan_sample_budget(2, 2, 0.9, 0.5, 0.5, 10**3, 1.5)
        with pytest.raises(ValueError):
            plan_sample_budget(2, 2, 0.9, 0.5, 0.5, 0.5, 0.1)


    @pytest.mark.parametrize("gamma", [1.0, 1.5, float("nan"), -0.1])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            plan_sample_budget(2, 2, gamma, 0.5, 0.1, 10**3, 0.05)


    @pytest.mark.parametrize("field, value", [
        ("c_l", -1.0), ("c_l", 0.0), ("epsilon", np.inf), ("mu", np.inf),
        ("epsilon", np.nan), ("mu", np.nan), ("horizon", np.nan), ("horizon", np.inf),
        ("delta", np.nan), ("n_actions_p1", 0), ("n_actions_p2", 2.5),
    ])
    def test_impossible_budget_inputs_rejected_by_name(self, field, value):
        # c_l=-1 used to give a negative rollout length, inf and 0 gave 0, and
        # NaN failed only in the conversion to an integer.
        args = dict(n_actions_p1=2, n_actions_p2=2, gamma=0.9, mu=0.5, epsilon=0.1,
                    horizon=1e4, delta=0.05)
        with pytest.raises(ValueError, match=rf"^{field} must .*got {field}="):
            plan_sample_budget(**{**args, field: value})

    @pytest.mark.parametrize("changed, named", [
        # epsilon**3 underflows to 0: this divided by zero.
        (dict(epsilon=1e-120), "epsilon=1e-120"),
        # The quotient overflows to inf: this failed converting it to an integer.
        (dict(mu=1e-300, epsilon=1e-5), "mu=1e-300"),
        # epsilon**3 overflows: the float power raised a bare OverflowError.
        (dict(epsilon=1e200), r"epsilon=1e\+200"),
    ])
    def test_budget_that_overflows_rejected_naming_the_input(self, changed, named):
        args = dict(n_actions_p1=2, n_actions_p2=2, gamma=0.9, mu=0.5, epsilon=0.1,
                    horizon=1e4, delta=0.05)
        with pytest.raises(ValueError, match=rf"^the budget overflows: .*{named}"):
            plan_sample_budget(**{**args, **changed})


class TestAccuracyBudget:
    def test_average_gap_matches_reference(self):
        budget = plan_accuracy_budget(xi=0.1, mode="average-gap", n_states=2,
                                      gamma=0.9, eta=0.01)
        it, eps, logf = average_gap_budget_reference(0.1, 2, 0.9, 0.01)
        assert budget.iterations == it
        assert budget.epsilon == pytest.approx(eps, rel=1e-15)
        assert budget.log_factor == pytest.approx(logf, rel=1e-15)

    def test_last_iterate_matches_reference(self):
        budget = plan_accuracy_budget(xi=0.1, mode="last-iterate", n_states=2,
                                      gamma=0.9, eta=0.01, c_hat=0.7)
        it, eps = last_iterate_budget_reference(0.1, 2, 0.9, 0.01, 0.7)
        assert budget.iterations == it
        assert budget.epsilon == pytest.approx(eps, rel=1e-15)
        assert budget.log_factor is None

    def test_average_gap_xi_scaling(self):
        base = plan_accuracy_budget(xi=0.2, mode="average-gap", n_states=1,
                                    gamma=0.9, eta=0.01)
        tighter = plan_accuracy_budget(xi=0.1, mode="average-gap", n_states=1,
                                       gamma=0.9, eta=0.01)
        assert tighter.iterations / base.iterations == pytest.approx(4.0, rel=1e-9)

    def test_last_iterate_eta_scaling(self):
        base = plan_accuracy_budget(xi=0.1, mode="last-iterate", n_states=1,
                                    gamma=0.9, eta=0.02, c_hat=1.0)
        halved = plan_accuracy_budget(xi=0.1, mode="last-iterate", n_states=1,
                                      gamma=0.9, eta=0.01, c_hat=1.0)
        assert halved.iterations / base.iterations == pytest.approx(16.0, rel=1e-9)

    def test_missing_c_hat_rejected(self):
        with pytest.raises(ValueError):
            plan_accuracy_budget(xi=0.1, mode="last-iterate", n_states=1,
                                 gamma=0.9, eta=0.01)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            plan_accuracy_budget(xi=0.1, mode="final", n_states=1, gamma=0.9,
                                 eta=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_accuracy_budget(xi=0.0, mode="average-gap", n_states=1,
                                 gamma=0.9, eta=0.01)
        with pytest.raises(ValueError):
            plan_accuracy_budget(xi=0.1, mode="average-gap", n_states=1,
                                 gamma=0.9, eta=-0.01)
        with pytest.raises(ValueError):
            plan_accuracy_budget(xi=0.1, mode="last-iterate", n_states=1,
                                 gamma=0.9, eta=0.01, c_hat=0.0)


    @pytest.mark.parametrize("mode", ["average-gap", "last-iterate"])
    @pytest.mark.parametrize("gamma", [1.0, 1.5, float("nan"), -0.1])
    def test_gamma_outside_unit_interval_rejected(self, mode, gamma):
        with pytest.raises(ValueError, match="gamma"):
            plan_accuracy_budget(xi=0.1, mode=mode, n_states=2, gamma=gamma,
                                 eta=0.01, c_hat=0.7)


    @pytest.mark.parametrize("mode", ["average-gap", "last-iterate"])
    @pytest.mark.parametrize("field, value", [
        ("c_t", -1.0), ("c_t", 0.0), ("xi", np.inf), ("xi", np.nan), ("eta", np.nan),
        ("eta", np.inf), ("n_states", 0), ("n_states", 1.5),
    ])
    def test_impossible_budget_inputs_rejected_by_name(self, mode, field, value):
        # c_t=-1 used to give negative iterations, xi=inf gave 0, NaN failed
        # only in the conversion to an integer and n_states=0 divided by zero.
        args = dict(xi=0.1, mode=mode, n_states=2, gamma=0.9, eta=0.01, c_hat=0.7)
        with pytest.raises(ValueError, match=rf"^{field} must .*got {field}="):
            plan_accuracy_budget(**{**args, field: value})

    @pytest.mark.parametrize("c_hat", [np.inf, np.nan])
    def test_impossible_margin_constant_rejected_by_name(self, c_hat):
        with pytest.raises(ValueError, match=r"^c_hat must .*got c_hat="):
            plan_accuracy_budget(xi=0.1, mode="last-iterate", n_states=2, gamma=0.9,
                                 eta=0.01, c_hat=c_hat)

    @pytest.mark.parametrize("mode, changed, named", [
        # xi**2 underflows to 0: this divided by zero.
        ("average-gap", dict(xi=1e-200), "xi=1e-200"),
        ("last-iterate", dict(xi=1e-320), "xi=1e-320"),
        ("last-iterate", dict(eta=1e-100), "eta=1e-100"),
        # eta**4 and xi**2 overflow: the float powers raised a bare OverflowError.
        ("last-iterate", dict(eta=1e100, c_hat=0.5), r"eta=1e\+100"),
        ("average-gap", dict(xi=1e200), r"xi=1e\+200"),
    ])
    def test_budget_that_overflows_rejected_naming_the_input(self, mode, changed, named):
        args = dict(xi=0.1, mode=mode, n_states=2, gamma=0.9, eta=0.01, c_hat=0.7)
        with pytest.raises(ValueError, match=rf"^the budget overflows: .*{named}"):
            plan_accuracy_budget(**{**args, **changed})

    def test_budgets_near_the_float_range_keep_their_values(self):
        # The overflow check reads the intermediates; it does not reorder them.
        budget = plan_accuracy_budget(xi=1e-150, mode="average-gap", n_states=1,
                                      gamma=0.5, eta=1.0)
        assert budget.iterations == int(np.ceil(1.0 * 1**2 / (1.0**2 * 0.5**4 * 1e-150**2)))
        assert budget.epsilon == 1.0 * 0.5**4 * 1e-150**2 / 1**2


# ---------------------------------------------------------------------------
# Irreducibility probing
# ---------------------------------------------------------------------------

class TestEstimateMu:
    def test_single_state_is_trivially_irreducible(self, mp1):
        est = estimate_mu(mp1)
        assert est.mu == 1.0
        assert est.max_hitting_time == 0.0
        assert est.n_pairs_probed == 0

    def test_symmetric_two_state_chain(self):
        # Always switch with probability 1/2: expected hitting time 2 both ways.
        trans = np.zeros((2, 1, 1, 2))
        trans[0, 0, 0] = [0.5, 0.5]
        trans[1, 0, 0] = [0.5, 0.5]
        game = MarkovGame(loss=np.zeros((2, 1, 1)), transition=trans, gamma=0.9)
        est = estimate_mu(game, n_probe_policies=4)
        assert est.max_hitting_time == pytest.approx(
            two_state_hitting_time(0.5), abs=1e-12)
        assert est.mu == pytest.approx(0.5, abs=1e-12)
        assert est.n_pairs_probed == 4

    def test_reducible_chain_raises_with_probe_index(self):
        # Two absorbing states: no policy can cross between them.
        trans = np.zeros((2, 1, 1, 2))
        trans[0, 0, 0, 0] = 1.0
        trans[1, 0, 0, 1] = 1.0
        game = MarkovGame(loss=np.zeros((2, 1, 1)), transition=trans, gamma=0.9)
        with pytest.raises(ReducibleChainError) as exc_info:
            estimate_mu(game)
        assert exc_info.value.probe_index == 0

    def test_mixed_transitions_always_finite(self):
        game = random_game(seed=10, n_states=3, n_actions_p1=2, n_actions_p2=2,
                           gamma=0.9, kappa=0.1)
        est = estimate_mu(game, n_probe_policies=8)
        assert 0.0 < est.mu <= 1.0
        assert np.isfinite(est.max_hitting_time)

    @pytest.mark.parametrize("field, value", [
        ("n_probe_policies", 0), ("n_probe_policies", -1), ("n_probe_policies", 2.5),
        ("n_probe_policies", True), ("horizon", float("nan")), ("horizon", -1.0),
        ("horizon", 0.0), ("horizon", float("inf")), ("seed", -1), ("seed", 1.5),
        ("seed", None),
    ])
    @pytest.mark.parametrize("n_states", [1, 3])
    def test_rejects_bad_arguments_before_any_probe(self, monkeypatch, field, value, n_states):
        # 0 and -1 probes divided by zero and 2.5 raised a bare TypeError; a NaN
        # horizon was ignored and -1.0 blamed the chain; a bad seed failed in
        # numpy.  A one-state game, which probes nothing, checks them too.
        import zsmg.estimators as est_mod

        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was built before the arguments were checked")

        game = random_game(seed=10, n_states=n_states, n_actions_p1=2, n_actions_p2=2,
                           gamma=0.9)
        monkeypatch.setattr(est_mod.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=rf"^{field} must .*got {field}="):
            estimate_mu(game, **{field: value})
