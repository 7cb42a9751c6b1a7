"""The parts of the library that the benchmark harness in ``perfbench/`` relies on.

The harness wraps the functions its ``workloads.TRACED`` names at every
binding in the loaded ``zsmg`` modules, reads rollout lengths and
trajectories positionally from their calls, and expects an exact learner run
to reach the traced exact estimate.  It also records the seed-0 output digest
of every workload input in ``perfbench/expected.json``.  An API change that
breaks one of these, or a change of output bytes, would otherwise show only
as a failed benchmark run.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from pathlib import Path

import pytest

import zsmg
from zsmg import estimators, games, metrics
from zsmg.gamegen import builtin
from zsmg.groundtruth import shapley_solve
from zsmg.learner import RunConfig, run_selfplay, run_selfplay_batch

from oracles import settle_every_sweep_shapley

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS_PATH = PERFBENCH / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py`` executed from its source, writing nothing beside it."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PATH)
    exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    return module


def _zsmg_modules() -> list[types.ModuleType]:
    return [m for key, m in sys.modules.items()
            if m is not None and (key == "zsmg" or key.startswith("zsmg."))]


def test_every_traced_function_is_bound_in_its_module(workloads):
    # The tracer raises LookupError for a function bound in no loaded module.
    for name, fn in workloads.TRACED.items():
        module_name, attr = name.rsplit(".", 1)
        assert getattr(getattr(zsmg, module_name), attr) is fn, name
        assert any(value is fn for m in _zsmg_modules() for value in vars(m).values()), name


@pytest.mark.parametrize("fn, index, param", [
    (estimators.rollout, 3, "n_steps"),
    (estimators.sampled_estimates, 0, "traj"),
])
def test_observed_arguments_keep_their_positions(fn, index, param):
    # perfbench's observers read these arguments by position when not passed by name.
    assert list(inspect.signature(fn).parameters)[index] == param


def _observe(monkeypatch, real, seen: list) -> None:
    """Rebind ``real`` wherever it is bound, as the tracer does, to a wrapper
    that appends each call's ``(args, kwargs)`` to ``seen``."""
    def observing(*args, **kwargs):
        seen.append((args, kwargs))
        return real(*args, **kwargs)

    for module in _zsmg_modules():
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, observing)


def test_exact_run_reaches_the_traced_exact_estimate(monkeypatch):
    calls = []
    _observe(monkeypatch, estimators.exact_triple_from_q, calls)
    run_selfplay(builtin("switching-mp"), RunConfig(iterations=7, eta=0.05))
    assert len(calls) == 7


def _assert_traced_sampled_calls(rollouts, estimates, n_calls):
    """``n_calls`` rollouts of 20 steps on switching-mp, each read as the
    harness reads it: ``n_steps`` fourth, and a one-run Trajectory carrying
    the six fields that child.zero_visits reads."""
    assert len(rollouts) == len(estimates) == n_calls
    assert [args[3] for args, _ in rollouts] == [20] * n_calls
    for args, _ in estimates:
        traj = args[0]
        assert isinstance(traj, estimators.Trajectory)
        assert (traj.n_states, traj.n_actions_p1, traj.n_actions_p2) == (2, 2, 2)
        assert traj.states.shape == (21,)
        assert traj.actions_p1.shape == traj.actions_p2.shape == (20,)


def test_sampled_run_reaches_the_traced_rollout_and_estimates(monkeypatch):
    # The harness sums the rollouts' n_steps and counts zero visits per trajectory.
    rollouts, estimates = [], []
    _observe(monkeypatch, estimators.rollout, rollouts)
    _observe(monkeypatch, estimators.sampled_estimates, estimates)
    run_selfplay(builtin("switching-mp"), RunConfig(iterations=7, eta=0.05, estimator="sampled",
                                                   rollout_len=20, epsilon=1.0))
    _assert_traced_sampled_calls(rollouts, estimates, 7)


def test_sampled_batch_reaches_the_traced_rollout_and_estimates_per_run(monkeypatch):
    # experiment-wide steps its sampled repetitions as one batch, with metric
    # rows; each run still makes its own traced calls every iteration.
    rollouts, estimates = [], []
    _observe(monkeypatch, estimators.rollout, rollouts)
    _observe(monkeypatch, estimators.sampled_estimates, estimates)
    game = builtin("switching-mp")
    configs = [RunConfig(iterations=7, eta=0.05, estimator="sampled", rollout_len=20,
                         epsilon=1.0, seed=seed, cadence=3) for seed in (0, 1)]
    run_selfplay_batch([game, game], configs)
    _assert_traced_sampled_calls(rollouts, estimates, 2 * 7)


def test_logged_rows_reach_the_traced_metrics_row_once_per_pass(monkeypatch):
    # perfbench's self-check reads metrics.make_metrics_row.calls: one call per
    # pass of up to 64 logged iterations of every run, not one per logged iteration.
    calls = []
    _observe(monkeypatch, metrics.make_metrics_row, calls)
    game = builtin("switching-mp")
    configs = [RunConfig(iterations=130, eta=0.05, cadence=1, seed=seed) for seed in (0, 1)]
    run_selfplay_batch([game, game], configs)
    assert [len(kwargs["x_hat"]) for _, kwargs in calls] == [2 * 64, 2 * 64, 2 * 2]


def test_vi_iterations_counts_kept_and_discarded_sweeps(workloads, monkeypatch, tmp_path):
    # perfbench's groundtruth.vi_iterations is the q_from_v calls inside
    # shapley_solve, less one per solve.  A sweep that its stack's check finds
    # unsettled is redone, and the sweeps its stack ran after it are discarded;
    # their q_from_v calls count too.  Seed-0 solve-large input 7 discards one.
    game = workloads.SolveLarge(0, 7, tmp_path).game
    reference, traced = [], []
    _observe(monkeypatch, games.q_from_v, reference)
    settle_every_sweep_shapley(game)
    monkeypatch.undo()
    _observe(monkeypatch, games.q_from_v, traced)
    shapley_solve(game)
    kept = len(reference) - 1
    kept_v = {args[1].tobytes() for args, _ in reference}
    # Every kept sweep's v is the reference's, in the same order.
    assert ([args[1].tobytes() for args, _ in traced if args[1].tobytes() in kept_v]
            == [args[1].tobytes() for args, _ in reference])
    discarded = sum(args[1].tobytes() not in kept_v for args, _ in traced)
    assert (kept, discarded) == (242, 1)
    assert len(traced) == kept + 1 + discarded


def test_seed_zero_outputs_match_the_recorded_digests(workloads, tmp_path):
    # One operation per input of every workload, as the benchmark's first
    # cycle at seed 0 makes it, against the digests the benchmark checks.
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert sorted(expected["sha256"]) == sorted(workloads.WORKLOADS)
    for name, make in workloads.WORKLOADS.items():
        recorded = expected["sha256"][name]
        assert len(recorded) == make.inputs, name
        for k in range(make.inputs):
            work = make(expected["seed"], k, tmp_path)
            out = work.run()
            assert work.check(out) == [], (name, k)
            assert workloads.sha256(work.output_bytes(out)) == recorded[k], (name, k)
