"""Tests for metric rows, diagnostics, CSV round-trips, and aggregation."""

from __future__ import annotations

import re
from dataclasses import replace

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

    @pytest.mark.parametrize("n_z, n_q, n_alpha, name", [
        (1, 3, 3, "z has 1 steps, but alpha has 3"),
        (3, 2, 3, "q has 2 steps, but alpha has 3"),
        (2, 2, 1, "z has 2 steps, but alpha has 1"),
    ], ids=["short-z", "short-q", "short-alpha"])
    def test_rejects_step_counts_that_differ(self, n_z, n_q, n_alpha, name):
        # One step of z with three of q and alpha broadcast into a J of its
        # own, without an error.
        rng = np.random.default_rng(0)
        z = rng.dirichlet(np.ones(2), size=(4, 4))
        q = rng.uniform(size=(4, 2, 2, 2))
        with pytest.raises(ValueError, match=f"^diagnostics_update: {name}$"):
            diagnostics_update(np.zeros(2), np.zeros(2), list(z[1:n_z + 1]), z[0],
                               list(q[1:n_q + 1]), q[0], [0.5] * n_alpha)

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
        [row] = make_metrics_row(
            t=7, game=[mp1], ground_truth=[gt], x_hat=gt.x_star[None], y_hat=gt.y_star[None],
            q_t=q_t[None], j_max=[0.125], k_max=[0.25], q_step_max=[0.5],
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
        [row] = make_metrics_row(
            t=1, game=[mp1], ground_truth=[gt], x_hat=gt.x_star[None], y_hat=gt.y_star[None],
            q_t=mp1.loss[None], j_max=[0.0], k_max=[0.0], q_step_max=[0.0],
        )
        # With the critic at zero, every stage value is off by gamma * v_star.
        assert row.q_err_max == pytest.approx(0.9 * 5.0, abs=1e-7)


    @pytest.fixture
    def witness_args(self, mp1):
        """Arguments for three runs of mp1 at its witness policy, where every true gap is 0."""
        gt = shapley_solve(mp1)
        return dict(t=3, game=[mp1] * 3, ground_truth=[gt] * 3,
                    x_hat=np.stack([gt.x_star] * 3), y_hat=np.stack([gt.y_star] * 3),
                    q_t=np.stack([gt.q_star] * 3), j_max=[0.0] * 3, k_max=[0.0] * 3,
                    q_step_max=[0.0] * 3, est_err=[0.5] * 3, wall_clock=[1.0] * 3)

    @pytest.mark.parametrize("name", ["game", "ground_truth", "y_hat", "q_t", "j_max", "k_max",
                                      "q_step_max", "est_err", "t", "wall_clock"])
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_per_item_lengths_are_checked_first(self, witness_args, monkeypatch, name, length):
        # A short sequence once read np.empty garbage or raised a bare
        # IndexError, and a long one was cut, so every length is checked
        # before any metric is computed.
        import zsmg.metrics as metrics_mod

        def unreachable(*args, **kwargs):
            raise AssertionError("a metric was computed before the lengths were checked")

        monkeypatch.setattr(metrics_mod, "game_duality_gap", unreachable)
        monkeypatch.setattr(metrics_mod, "dist_to_optimal_sets", unreachable)
        value = witness_args[name]
        witness_args[name] = (list(value) * 4 if isinstance(value, list) else
                              np.concatenate([value] * 4) if np.ndim(value) else [value] * 4
                              )[:length]
        with pytest.raises(ValueError, match=rf"make_metrics_row: {name} has {length} entries, "
                                             r"but x_hat has 3 items"):
            make_metrics_row(**witness_args)

    def test_one_game_for_three_runs_is_rejected(self, witness_args):
        # Runs 1 and 2 once read -0.5 and 1.5 as their gaps and distances.
        witness_args.update(game=witness_args["game"][:1],
                            ground_truth=witness_args["ground_truth"][:1])
        with pytest.raises(ValueError, match="game has 1 entries, but x_hat has 3 items"):
            make_metrics_row(**witness_args)

    def test_t_and_wall_clock_are_shared_or_per_item(self, witness_args):
        shared = make_metrics_row(**{**witness_args, "wall_clock": 2.5})
        assert [(row.t, row.wall_clock) for row in shared] == [(3, 2.5)] * 3
        assert all(row.game_gap <= 2e-9 and row.mean_dist_sq == 0.0 for row in shared)
        own = make_metrics_row(**{**witness_args, "t": [4, 5, 6],
                                  "wall_clock": np.array([0.5, 0.75, 1.0])})
        assert [(row.t, row.wall_clock) for row in own] == [(4, 0.5), (5, 0.75), (6, 1.0)]
        assert [replace(row, t=3, wall_clock=2.5) for row in own] == shared


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

    @pytest.mark.parametrize("spoil, where, message", [
        (lambda lines: lines[4].append("0.1"), 5, "9 cells for 8 columns"),
        (lambda lines: lines[4].pop(), 5, "7 cells for 8 columns"),
        (lambda lines: [line.pop() for line in lines[2:]], 3,
         "header lacks the columns ['q_step_max']"),
        (lambda lines: lines[4].__setitem__(0, "1.5"), 5, "column t cannot hold '1.5'"),
        # An empty required cell loaded as None, and aggregate_metrics then
        # raised a bare TypeError.
        (lambda lines: lines[4].__setitem__(0, ""), 5, "column t cannot hold ''"),
        (lambda lines: lines[3].__setitem__(2, ""), 4, "column mean_dist_sq cannot hold ''"),
    ], ids=["extra-cell", "short-record", "missing-column", "fractional-t", "empty-t",
            "empty-metric"])
    def test_malformed_record_names_file_and_line(self, tmp_path, spoil, where, message):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [_row(1), _row(2)], metadata={"a": 1, "b": 2})
        lines = [line.split(",") for line in path.read_text().splitlines()]
        spoil(lines)
        path.write_text("".join(",".join(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {where}: {message}")):
            read_metrics_csv(path)


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

    @pytest.mark.parametrize("n_reps, n_rows", [(1, 3), (4, 5), (5, 1), (3, 0)])
    def test_matches_the_per_column_percentiles(self, n_reps, n_rows):
        # One percentile call over the stacked columns keeps the bits of one
        # call per column; cadence 0 logs zero rows per repetition.
        rng = np.random.default_rng(n_reps * 10 + n_rows)
        runs = [[MetricsRow(10 * (i + 1), *rng.uniform(size=7)) for i in range(n_rows)]
                for _ in range(n_reps)]
        agg = aggregate_metrics(runs)
        assert sorted(agg) == sorted(["t"] + [f"{col}_{stat}" for col in CSV_COLUMNS[1:]
                                              for stat in ("med", "q25", "q75")])
        for col in CSV_COLUMNS[1:]:
            stack = np.array([[getattr(row, col) for row in rows] for rows in runs])
            q25, med, q75 = np.percentile(stack, [25.0, 50.0, 75.0], axis=0)
            for stat, want in (("med", med), ("q25", q25), ("q75", q75)):
                assert agg[f"{col}_{stat}"].tobytes() == want.tobytes(), (col, stat)

    def test_zero_row_repetitions_aggregate_to_an_empty_table(self, tmp_path):
        agg = aggregate_metrics([[], [], []])
        assert all(len(values) == 0 for values in agg.values())
        empty, one = tmp_path / "empty.csv", tmp_path / "one.csv"
        write_aggregate_csv(empty, agg, metadata={"reps": 3})
        write_aggregate_csv(one, aggregate_metrics([[_row(10)]]), metadata={"reps": 3})
        assert empty.read_text().splitlines() == one.read_text().splitlines()[:2]

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
