"""The benchmark's workloads: inputs made from a seed, one timed operation, output checks.

Each workload puts most of its time in a different zsmg layer (the reasons
are in ``rationale.json``).  A run builds ``inputs`` inputs from the workload
seed and the input index, and its operations cycle through them, so a run's
timings average over several games instead of one game's particular simplex
pivots.  Repeating an input must repeat its output bytes.  The output checks
recompute certificates with plain numpy and never call the code being timed,
except where a check is about reading an output back through the library.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from zsmg import estimators, experiments, gamegen, games, groundtruth, learner, metrics

# Span name -> function, named by the module that defines it.  The tracer
# binds a wrapper wherever a caller looks the function up.
TRACED = {
    "learner.run_selfplay": learner.run_selfplay,
    "learner.ogda_step": learner.ogda_step,
    "learner.project_simplex": learner.project_simplex,
    "learner.critic_step": learner.critic_step,
    "estimators.exact_triple_from_q": estimators.exact_triple_from_q,
    "estimators.explore_mix": estimators.explore_mix,
    "estimators.rollout": estimators.rollout,
    "estimators.sampled_estimates": estimators.sampled_estimates,
    "games.q_from_v": games.q_from_v,
    "games.best_response": games.best_response,
    "groundtruth.shapley_solve": groundtruth.shapley_solve,
    "groundtruth.solve_matrix_game": groundtruth.solve_matrix_game,
    "groundtruth.game_duality_gap": groundtruth.game_duality_gap,
    "groundtruth.dist_to_optimal_sets": groundtruth.dist_to_optimal_sets,
    "metrics.diagnostics_update": metrics.diagnostics_update,
    "metrics.make_metrics_row": metrics.make_metrics_row,
    "metrics.write_metrics_csv": metrics.write_metrics_csv,
    "metrics.read_metrics_csv": metrics.read_metrics_csv,
    "metrics.aggregate_metrics": metrics.aggregate_metrics,
    "metrics.write_aggregate_csv": metrics.write_aggregate_csv,
    "experiments.run_experiment": experiments.run_experiment,
    "gamegen.builtin": gamegen.builtin,
    "gamegen.random_game": gamegen.random_game,
}

# Exploitability the exact learner must reach on switching-mp within
# SelfplaySmall.iterations from any skewed start.
SELFPLAY_SMALL_GAP_BOUND = 1.0


def _skewed(rng: np.random.Generator, n_states: int, n_actions: int) -> np.ndarray:
    """Per state, a seed-chosen action gets weight in [0.75, 0.95); the rest share the remainder."""
    heavy = rng.uniform(0.75, 0.95, size=n_states)
    out = np.repeat(((1.0 - heavy) / (n_actions - 1))[:, None], n_actions, axis=1)
    out[np.arange(n_states), rng.integers(n_actions, size=n_states)] = heavy
    return out


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _check_rows(rows, iterations: int, cadence: int) -> list[str]:
    problems = []
    grid = [row.t for row in rows]
    expected = list(range(cadence, iterations + 1, cadence))
    if grid != expected:
        problems.append(f"metric rows at t={grid[:3]}..., expected every {cadence} to {iterations}")
    for row in rows:
        values = [row.game_gap, row.mean_dist_sq, row.state_gap_max, row.q_err_max]
        if not all(np.isfinite(v) and v >= -1e-9 for v in values):
            problems.append(f"row t={row.t} has a negative or non-finite metric: {values}")
            break
    return problems


class SelfplaySmall:
    """One exact ``run_selfplay`` call on switching-mp, its rows written as a CSV."""

    name = "selfplay-small"
    unit = "run_selfplay call"
    units_per_op = 1
    inputs = 4
    iterations = 2000
    cadence = 500

    def __init__(self, seed: int, index: int, work_dir: Path):
        rng = np.random.default_rng([seed, index])
        self.game = gamegen.builtin("switching-mp")
        s, a, b = self.game.loss.shape
        self.config = learner.RunConfig(
            iterations=self.iterations, eta=0.05, estimator="exact", cadence=self.cadence,
            init_x=_skewed(rng, s, a), init_y=_skewed(rng, s, b),
        )
        self.csv_path = work_dir / f"{self.name}-{index}.csv"
        self.metadata = {"workload": self.name, "seed": seed, "input": index}

    def run(self, hook=None):
        result = learner.run_selfplay(self.game, self.config, iteration_hook=hook)
        metrics.write_metrics_csv(self.csv_path, result.rows, metadata=self.metadata)
        return result

    def output_bytes(self, result) -> bytes:
        return self.csv_path.read_bytes()

    def check(self, result) -> list[str]:
        problems = _check_rows(result.rows, self.iterations, self.cadence)
        gap = result.rows[-1].game_gap if result.rows else np.inf
        if not gap <= SELFPLAY_SMALL_GAP_BOUND:
            problems.append(f"last game_gap {gap!r} above {SELFPLAY_SMALL_GAP_BOUND}")
        return problems


class SelfplaySampled:
    """One sampled ``run_selfplay`` call without metric rows: learner plus rollouts only.

    Rows would re-solve the game's ground truth in every call, which costs as
    much as the rollouts; the solver has its own workloads.
    """

    name = "selfplay-sampled"
    unit = "run_selfplay call"
    units_per_op = 1
    inputs = 4
    iterations = 150

    def __init__(self, seed: int, index: int, work_dir: Path):
        rng = np.random.default_rng([seed, index])
        self.game = gamegen.random_game(seed=_seed(rng), n_states=10, n_actions_p1=3,
                                        n_actions_p2=3, gamma=0.9)
        s, a, b = self.game.loss.shape
        self.config = learner.RunConfig(
            iterations=self.iterations, eta=0.05, estimator="sampled", rollout_len=200,
            epsilon=1.0, seed=_seed(rng), init_x=_skewed(rng, s, a), init_y=_skewed(rng, s, b),
        )

    def run(self, hook=None):
        return learner.run_selfplay(self.game, self.config, iteration_hook=hook)

    def output_bytes(self, result) -> bytes:
        state = result.state
        return b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                        for arr in (state.x_hat, state.x, state.y_hat, state.y, state.v))

    def check(self, result) -> list[str]:
        """Final strategies are distributions and the critic lies in [0, 1/(1-gamma)]."""
        state = result.state
        problems = []
        if state.t != self.iterations + 1:
            problems.append(f"final state at t={state.t}, expected {self.iterations + 1}")
        for name in ("x_hat", "x", "y_hat", "y"):
            p = getattr(state, name)
            if not (np.isfinite(p).all() and p.min() >= 0.0
                    and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9):
                problems.append(f"final {name} rows are not distributions")
        top = 1.0 / (1.0 - self.game.gamma)
        if not (np.isfinite(state.v).all() and state.v.min() >= 0.0 and state.v.max() <= top):
            problems.append(f"critic values outside [0, {top}]")
        return problems


class ExperimentWide:
    """One ``run_experiment`` call: three sampled repetitions sharing one random game."""

    name = "experiment-wide"
    unit = "run_experiment repetition"
    repetitions = 3
    units_per_op = repetitions
    inputs = 6
    per_rep_iterations = 120
    cadence = 10
    iterations = repetitions * per_rep_iterations
    n_states = 2
    n_actions = 4

    def __init__(self, seed: int, index: int, work_dir: Path):
        rng = np.random.default_rng([seed, index])
        spec = {"random": {"seed": _seed(rng), "n_states": self.n_states,
                           "n_actions_p1": self.n_actions, "n_actions_p2": self.n_actions,
                           "gamma": 0.9}}
        run = learner.RunConfig(
            iterations=self.per_rep_iterations, eta=0.05, estimator="sampled",
            rollout_len=20, epsilon=1.0, cadence=self.cadence, seed=_seed(rng),
            init_x=_skewed(rng, self.n_states, self.n_actions).tolist(),
            init_y=_skewed(rng, self.n_states, self.n_actions).tolist(),
        )
        self.config = experiments.ExperimentConfig(
            game=spec, run=run, repetitions=self.repetitions, label="bench",
            out_dir=str(work_dir / f"{self.name}-{index}"), workers=1,
        )

    def run(self, hook=None):
        return experiments.run_experiment(self.config)

    def output_bytes(self, out) -> bytes:
        return b"".join(Path(p).read_bytes() for p in [*out.rep_paths, out.aggregate_path])

    def check(self, out) -> list[str]:
        problems = []
        if len(out.rep_paths) != self.repetitions:
            problems.append(f"{len(out.rep_paths)} repetition CSVs, expected {self.repetitions}")
        for path in out.rep_paths:
            _, rows = metrics.read_metrics_csv(path)
            problems += [f"{Path(path).name}: {p}" for p in
                         _check_rows(rows, self.per_rep_iterations, self.cadence)]
        n_rows = self.per_rep_iterations // self.cadence
        lines = [ln for ln in Path(out.aggregate_path).read_text().splitlines()
                 if not ln.startswith("#")]
        if len(lines) != n_rows + 1:
            problems.append(f"aggregate CSV has {len(lines) - 1} rows, expected {n_rows}")
        return problems


class SolveLarge:
    """One ``shapley_solve`` of a random game, checked by a numpy minimax certificate."""

    name = "solve-large"
    unit = "shapley_solve call"
    units_per_op = 1
    inputs = 10
    iterations = 0

    def __init__(self, seed: int, index: int, work_dir: Path):
        rng = np.random.default_rng([seed, index])
        self.game = gamegen.random_game(seed=_seed(rng), n_states=10, n_actions_p1=5,
                                        n_actions_p2=5, gamma=0.9)

    def run(self, hook=None):
        return groundtruth.shapley_solve(self.game)

    def output_bytes(self, gt) -> bytes:
        return np.ascontiguousarray(gt.v_star, dtype="<f8").tobytes()

    def check(self, gt) -> list[str]:
        """Per state, x_star caps every column and y_star floors every row of Q at v_star.

        Both within the solve tolerance, on Q recomputed from the game with numpy.
        """
        game = self.game
        q = game.loss + game.gamma * np.einsum("sabt,t->sab", game.transition, gt.v_star)
        problems = []
        for s in range(game.n_states):
            x, y, v = gt.x_star[s], gt.y_star[s], gt.v_star[s]
            for name, p in (("x_star", x), ("y_star", y)):
                if p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-9:
                    problems.append(f"state {s}: {name} is not a distribution")
            worst_col = float(np.max(x @ q[s])) - v
            worst_row = v - float(np.min(q[s] @ y))
            if max(worst_col, worst_row) > gt.tol:
                problems.append(f"state {s}: minimax certificate off by "
                                f"{max(worst_col, worst_row):.3e} > tol {gt.tol:.1e}")
        return problems


WORKLOADS = {w.name: w for w in (SelfplaySmall, SelfplaySampled, ExperimentWide, SolveLarge)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
