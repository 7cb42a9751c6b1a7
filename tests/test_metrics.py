"""Tests for metric rows, diagnostics, CSV round-trips, and aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zsmg.gamegen import random_game
from zsmg.groundtruth import shapley_solve
from zsmg.learner import _INTERVAL, make_alpha_schedule
from zsmg.metrics import (
    CSV_COLUMNS,
    DEBUG_COLUMNS,
    MetricsRow,
    aggregate_metrics,
    config_digest,
    diagnostics_update,
    make_metrics_row,
    read_metrics_csv,
    write_aggregate_csv,
    write_metrics_csv,
)

from oracles import per_run_metrics_row, unstacked_diagnostics_update


def _row(t, base=0.5, **overrides):
    kwargs = dict(
        t=t, game_gap=base, mean_dist_sq=base / 2, state_gap_max=base / 3,
        q_err_max=base / 4, policy_step_avg_max=base / 5, q_step_avg_max=base / 6,
        q_step_max=base / 7,
    )
    kwargs.update(overrides)
    return MetricsRow(**kwargs)


# ---------------------------------------------------------------------------
# Diagnostics recursion
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_first_step_equals_movement_norm(self):
        x_prev = np.zeros((2, 2))
        y_prev = np.zeros((2, 2))
        x_t = np.array([[0.3, 0.7], [0.5, 0.5]])
        y_t = np.array([[1.0, 0.0], [0.0, 1.0]])
        j, k, q_step = diagnostics_update(
            np.zeros(2), np.zeros(2), [np.vstack([x_t, y_t])], np.vstack([x_prev, y_prev]),
            [np.zeros((2, 2, 2))], np.zeros((2, 2, 2)), alpha=[1.0],
        )
        expected = np.sum(x_t**2, axis=1) + np.sum(y_t**2, axis=1)
        np.testing.assert_array_equal(j, expected)
        np.testing.assert_array_equal(k, np.zeros(2))
        np.testing.assert_array_equal(q_step, np.zeros(2))

    def test_no_movement_decays_geometrically(self):
        j = np.array([1.0])
        k = np.array([4.0])
        x = np.array([[0.5, 0.5]])
        q = np.zeros((1, 2, 2))
        for _ in range(3):
            j, k, _ = diagnostics_update(j, k, [np.vstack([x, x])], np.vstack([x, x]), [q], q,
                                         alpha=[0.5])
        assert j[0] == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert k[0] == pytest.approx(0.5, abs=1e-15)

    def test_q_step_is_max_abs_entry(self):
        q_prev = np.zeros((1, 2, 2))
        q_t = np.array([[[0.1, -0.4], [0.2, 0.0]]])
        _, _, q_step = diagnostics_update(
            np.zeros(1), np.zeros(1), [np.zeros((2, 2))], np.zeros((2, 2)), [q_t], q_prev,
            alpha=[1.0],
        )
        assert q_step[0] == pytest.approx(0.4, abs=0)

    # A whole padded row sum gets the bits wrong at these widths.
    @example(n_states=3, widths=(8, 5), seed=1)
    @example(n_states=2, widths=(9, 4), seed=6)
    @example(n_states=3, widths=(5, 8), seed=0)
    @given(n_states=st.integers(1, 4), widths=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           seed=st.integers(0, 2**31 - 1))
    def test_stacked_iterates_match_the_unstacked_reference(self, n_states, widths, seed):
        rng = np.random.default_rng(seed)
        n_a, n_b = widths
        x_t, x_p = (rng.dirichlet(np.ones(n_a), size=n_states) for _ in range(2))
        y_t, y_p = (rng.dirichlet(np.ones(n_b), size=n_states) for _ in range(2))
        z_t, z_p = (np.zeros((2 * n_states, max(widths))) for _ in range(2))
        for z, x, y in ((z_t, x_t, y_t), (z_p, x_p, y_p)):
            z[:n_states, :n_a], z[n_states:, :n_b] = x, y
        q_t, q_p = rng.uniform(size=(2, n_states, n_a, n_b))
        j, k = rng.uniform(size=(2, n_states))
        got = diagnostics_update(j, k, [z_t], z_p, [q_t], q_p, alpha=[0.3])
        want = unstacked_diagnostics_update(j, k, x_t, x_p, y_t, y_p, q_t, q_p, alpha_t=0.3)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # One step, a whole interval, and intervals past the loop's own length.
    @example(n_steps=1, n_runs=2, n_states=2, widths=(8, 5), schedule="horizon", start=1,
             split=1, seed=1)
    @example(n_steps=_INTERVAL, n_runs=3, n_states=1, widths=(3, 9), schedule="harmonic",
             start=1, split=_INTERVAL // 2, seed=2)
    @example(n_steps=_INTERVAL + 9, n_runs=2, n_states=3, widths=(9, 9), schedule="horizon",
             start=400, split=_INTERVAL + 9, seed=3)
    @settings(max_examples=40, deadline=None)
    @given(n_steps=st.integers(1, _INTERVAL + 10), n_runs=st.integers(2, 4),
           n_states=st.integers(1, 3),
           widths=st.tuples(st.integers(8, 10), st.integers(1, 10)).flatmap(
               lambda w: st.sampled_from([w, w[::-1]])),
           schedule=st.sampled_from(["horizon", "harmonic"]), start=st.integers(1, 1000),
           split=st.integers(1, _INTERVAL + 10), seed=st.integers(0, 2**31 - 1))
    def test_interval_matches_one_step_reference_calls(self, n_steps, n_runs, n_states, widths,
                                                       schedule, start, split, seed):
        # T steps in one call, or split into two intervals, keep the bits of T
        # one-step reference calls per run, on rows padded to W >= 8.
        rng = np.random.default_rng(seed)
        (n_a, n_b), width = widths, max(widths)
        x = rng.dirichlet(np.ones(n_a), size=(n_steps + 1, n_runs, n_states))
        y = rng.dirichlet(np.ones(n_b), size=(n_steps + 1, n_runs, n_states))
        z = np.zeros((n_steps + 1, n_runs, 2 * n_states, width))
        z[..., :n_states, :n_a], z[..., n_states:, :n_b] = x, y
        q = rng.uniform(-1.0, 1.0, size=(n_steps + 1, n_runs, n_states, n_a, n_b))
        alpha_fn = make_alpha_schedule(schedule, 0.9)
        alpha = [alpha_fn(t) for t in range(start, start + n_steps)]
        j, k = rng.uniform(size=(2, n_runs, n_states))
        got = diagnostics_update(j, k, list(z[1:]), z[0], list(q[1:]), q[0], alpha)
        assert [a.tobytes() for a in got] == [
            a.tobytes() for a in diagnostics_update(j, k, z[1:], z[0], q[1:], q[0], alpha)]
        cut = min(split, n_steps)
        first = diagnostics_update(j, k, z[1:cut + 1], z[0], q[1:cut + 1], q[0], alpha[:cut])
        if cut < n_steps:
            first = diagnostics_update(first[0], first[1], z[cut + 1:], z[cut], q[cut + 1:],
                                       q[cut], alpha[cut:])
        assert [a.tobytes() for a in first] == [a.tobytes() for a in got]
        for run in range(n_runs):
            want = (j[run], k[run], None)
            for t in range(1, n_steps + 1):
                want = unstacked_diagnostics_update(
                    want[0], want[1], x[t, run], x[t - 1, run], y[t, run], y[t - 1, run],
                    q[t, run], q[t - 1, run], alpha_t=alpha[t - 1])
            assert [a[run].tobytes() for a in got] == [a.tobytes() for a in want]

    def test_outputs_nonnegative(self):
        rng = np.random.default_rng(0)
        j = np.zeros(3)
        k = np.zeros(3)
        for t in range(1, 20):
            x_t, x_p = rng.dirichlet(np.ones(2), size=3), rng.dirichlet(np.ones(2), size=3)
            y_t, y_p = rng.dirichlet(np.ones(2), size=3), rng.dirichlet(np.ones(2), size=3)
            q_t, q_p = rng.uniform(size=(3, 2, 2)), rng.uniform(size=(3, 2, 2))
            j, k, q_step = diagnostics_update(j, k, [np.vstack([x_t, y_t])],
                                              np.vstack([x_p, y_p]), [q_t], q_p,
                                              alpha=[1.0 / t])
            assert np.all(j >= 0.0) and np.all(k >= 0.0) and np.all(q_step >= 0.0)


# ---------------------------------------------------------------------------
# Row construction
# ---------------------------------------------------------------------------

class TestMakeMetricsRow:
    def test_equilibrium_witness_scores_zero(self, mp1):
        gt = shapley_solve(mp1)
        q_t = gt.q_star.copy()
        row = make_metrics_row(
            t=7, game=mp1, ground_truth=gt, x_hat=gt.x_star, y_hat=gt.y_star,
            q_t=q_t, j_max=0.125, k_max=0.25, q_step_max=0.5,
        )
        assert row.t == 7
        assert row.game_gap <= 2e-9
        assert row.mean_dist_sq == 0.0
        assert row.state_gap_max <= 1e-12
        assert row.q_err_max == 0.0
        assert (row.policy_step_avg_max, row.q_step_avg_max, row.q_step_max) == \
            (0.125, 0.25, 0.5)
        assert row.est_err_max is None and row.wall_clock is None

    def test_critic_error_measured_against_solved_games(self, mp1):
        gt = shapley_solve(mp1)
        row = make_metrics_row(
            t=1, game=mp1, ground_truth=gt, x_hat=gt.x_star, y_hat=gt.y_star,
            q_t=mp1.loss, j_max=0.0, k_max=0.0, q_step_max=0.0,
        )
        # With the critic at zero, every stage value is off by gamma * v_star.
        assert row.q_err_max == pytest.approx(0.9 * 5.0, abs=1e-7)


class TestBatchedRows:
    """With a run axis, one call makes every run's row with that run's own bits."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_runs=st.integers(1, 4),
           shape=st.sampled_from([(1, 2, 2), (2, 4, 4), (2, 3, 2), (2, 1, 3), (3, 2, 5)]),
           shared=st.booleans())
    def test_rows_match_one_unstacked_row_per_run(self, seed, n_runs, shape, shared):
        rng = np.random.default_rng(seed)
        n_states, n_a, n_b = shape
        n_games = 1 if shared else n_runs
        games = [random_game(seed=seed % 1009 + i, n_states=n_states, n_actions_p1=n_a,
                             n_actions_p2=n_b, gamma=0.9) for i in range(n_games)]
        gts = [shapley_solve(game) for game in games]
        if shared:
            games, gts = games * n_runs, gts * n_runs
        # The learner's layout: both players' rows in one padded array per run.
        z_hat = np.zeros((n_runs, 2 * n_states, max(n_a, n_b)))
        for run in range(n_runs):
            for rows, width, witness in ((slice(None, n_states), n_a, gts[run].x_star),
                                         (slice(n_states, None), n_b, gts[run].y_star)):
                kind = rng.integers(3)
                z_hat[run, rows, :width] = (witness if kind == 0 else np.eye(width)[
                    rng.integers(width, size=n_states)] if kind == 1 else
                    rng.dirichlet(np.ones(width), size=n_states))
        x_hat, y_hat = z_hat[:, :n_states, :n_a], z_hat[:, n_states:, :n_b]
        q_t = np.stack([gt.q_star + rng.normal(scale=0.01, size=gt.q_star.shape) for gt in gts])
        j_max, k_max, q_step_max = rng.uniform(size=(3, n_runs))
        est_err = [None if rng.integers(2) else float(rng.uniform()) for _ in range(n_runs)]
        batch = make_metrics_row(t=30, game=games, ground_truth=gts, x_hat=x_hat, y_hat=y_hat,
                                 q_t=q_t, j_max=j_max, k_max=k_max, q_step_max=q_step_max,
                                 est_err=est_err, wall_clock=1.5)
        assert [repr(row) for row in batch] == [repr(per_run_metrics_row(
            30, games[run], gts[run], x_hat[run], y_hat[run], q_t[run], j_max[run],
            k_max[run], q_step_max[run], est_err[run], 1.5)) for run in range(n_runs)]

    def test_unstacked_call_is_its_batch_of_one(self, switching_mp):
        gt = shapley_solve(switching_mp)
        x, y = np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[0.5, 0.5], [0.9, 0.1]])
        args = dict(t=4, game=switching_mp, ground_truth=gt, q_t=gt.q_star, wall_clock=None)
        row = make_metrics_row(x_hat=x, y_hat=y, j_max=0.1, k_max=0.2, q_step_max=0.3,
                               est_err=0.4, **args)
        [batched] = make_metrics_row(x_hat=x[None], y_hat=y[None], j_max=[0.1], k_max=[0.2],
                                     q_step_max=[0.3], est_err=[0.4], **{
                                         **args, "game": [switching_mp], "ground_truth": [gt],
                                         "q_t": gt.q_star[None]})
        assert repr(row) == repr(batched)


class TestConfigDigest:
    def test_insensitive_to_key_order(self):
        assert config_digest({"a": 1, "b": [2, 3]}) == config_digest({"b": [2, 3], "a": 1})

    def test_sensitive_to_values(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_stable_length_hex(self):
        digest = config_digest({"game": "mp1"})
        assert len(digest) == 16
        int(digest, 16)


# ---------------------------------------------------------------------------
# CSV round-trips
# ---------------------------------------------------------------------------

class TestCsvRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        rows = [_row(10, base=1 / 3), _row(20, base=0.1234567890123456789)]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rows, metadata={"label": "x"})
        meta, loaded = read_metrics_csv(path)
        assert meta == {"label": "x"}
        assert loaded == rows

    def test_debug_columns_round_trip_with_none(self, tmp_path):
        rows = [
            _row(1, est_err_max=0.25, wall_clock=1.5),
            _row(2, est_err_max=None, wall_clock=None),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rows, debug_columns=True)
        _, loaded = read_metrics_csv(path)
        assert loaded == rows
        assert loaded[1].est_err_max is None

    def test_default_excludes_debug_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [_row(1, est_err_max=0.5, wall_clock=2.0)])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        for col in DEBUG_COLUMNS:
            assert col not in header
        _, loaded = read_metrics_csv(path)
        assert loaded[0].est_err_max is None

    def test_deterministic_bytes(self, tmp_path):
        rows = [_row(t) for t in range(1, 6)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, rows, metadata={"k": "v", "a": "b"})
        write_metrics_csv(p2, rows, metadata={"a": "b", "k": "v"})
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_sorted_in_output(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [], metadata={"z": 1, "a": 2})
        lines = path.read_text().splitlines()
        assert lines[0] == "# a: 2"
        assert lines[1] == "# z: 1"

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("t,game_gap,surprise\n1,0.5,0.1\n")
        with pytest.raises(ValueError, match="surprise"):
            read_metrics_csv(path)

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [])
        meta, rows = read_metrics_csv(path)
        assert rows == []


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class TestAggregate:
    def test_matches_numpy_percentiles(self):
        rng = np.random.default_rng(6)
        runs = []
        for _ in range(5):
            runs.append([_row(t, base=float(rng.uniform(0.1, 1.0))) for t in (10, 20)])
        agg = aggregate_metrics(runs)
        gaps = np.array([[row.game_gap for row in rows] for rows in runs])
        np.testing.assert_array_equal(agg["game_gap_med"],
                                      np.percentile(gaps, 50.0, axis=0))
        np.testing.assert_array_equal(agg["game_gap_q25"],
                                      np.percentile(gaps, 25.0, axis=0))
        np.testing.assert_array_equal(agg["game_gap_q75"],
                                      np.percentile(gaps, 75.0, axis=0))
        np.testing.assert_array_equal(agg["t"], [10, 20])

    def test_single_run_aggregates_to_itself(self):
        rows = [_row(5, base=0.3), _row(10, base=0.2)]
        agg = aggregate_metrics([rows])
        np.testing.assert_array_equal(agg["game_gap_med"], [0.3, 0.2])
        np.testing.assert_array_equal(agg["game_gap_q25"], agg["game_gap_q75"])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            aggregate_metrics([[_row(10)], [_row(20)]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_aggregate_csv_written_deterministically(self, tmp_path):
        runs = [[_row(10, base=0.4)], [_row(10, base=0.6)]]
        agg = aggregate_metrics(runs)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_aggregate_csv(p1, agg, metadata={"reps": 2})
        write_aggregate_csv(p2, agg, metadata={"reps": 2})
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[1].split(",")
        assert header[0] == "t"
        assert "game_gap_med" in header
