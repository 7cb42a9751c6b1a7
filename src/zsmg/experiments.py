"""Multi-repetition experiment driver.

An experiment is a game source plus a run configuration, repeated once per
seed.  The learner runs once per distinct row set: once in exact mode, where
the seed reaches nothing, and once per seed in sampled mode, where the runs
step together as one batch, split into at most ``workers`` batches in a
process pool when ``workers`` > 1.  Each repetition's CSV is written from
those rows with its own header, and an aggregate CSV (median and quartiles
per iteration) is computed from the same rows in memory.  Output bytes
depend only on the configuration, never on scheduling or wall time.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .gamegen import builtin, game_from_dict, game_to_dict, load_game, load_policy, random_game
from .games import MarkovGame
from .groundtruth import shapley_solve
from .learner import RunConfig, _check_integer, _prepare_game, _rows_seed, run_selfplay_batch
from .metrics import (
    aggregate_metrics,
    config_digest,
    write_aggregate_csv,
    write_metrics_csv,
)

__all__ = ["ExperimentConfig", "resolve_game", "run_experiment", "ExperimentOutput"]


def resolve_game(spec) -> MarkovGame:
    """Build the game named by a source spec.

    Accepted forms: a builtin name or file path (string), or a dict with one of
    the keys ``builtin`` (plus optional ``gamma``), ``file``, or ``random``
    (the keyword arguments of :func:`zsmg.gamegen.random_game`).
    """
    if isinstance(spec, str):
        from .gamegen import BUILTIN_NAMES
        if spec in BUILTIN_NAMES:
            return builtin(spec)
        return load_game(spec)
    if isinstance(spec, dict):
        if "builtin" in spec:
            return builtin(spec["builtin"], gamma=spec.get("gamma"))
        if "file" in spec:
            return load_game(spec["file"])
        if "random" in spec:
            return random_game(**spec["random"])
        if "inline" in spec:
            return game_from_dict(spec["inline"])
    raise ValueError(f"cannot interpret game source {spec!r}")


@dataclass
class ExperimentConfig:
    """A repeatable experiment: game source, run settings, outputs.

    ``seeds`` defaults to ``run.seed + rep`` for each repetition.  ``opponent``
    switches to single-player mode: a policy file path, the string 'uniform',
    or an explicit per-state strategy array for player 2.  ``out_dir`` falls
    back to the ZSMG_OUT_DIR environment variable, then the current directory.
    """

    game: object = "mp1"
    run: RunConfig = field(default_factory=RunConfig)
    gt_tol: float = 1e-9
    out_dir: str | None = None
    repetitions: int = 1
    seeds: list[int] | None = None
    label: str = "run"
    debug_columns: bool = False
    opponent: object = None
    workers: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        run = data.pop("run", {})
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment-config fields: {sorted(unknown)}")
        return cls(run=RunConfig.from_dict(run), **data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def seed_list(self) -> list[int]:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions!r}")
        if self.seeds is not None:
            if len(self.seeds) != self.repetitions:
                raise ValueError(
                    f"got {len(self.seeds)} seeds for {self.repetitions} repetitions"
                )
            for seed in self.seeds:
                _check_integer("seeds", seed, 0, "every seed must be >= 0")
            return [int(s) for s in self.seeds]
        return [int(self.run.seed) + rep for rep in range(self.repetitions)]

    def resolve_out_dir(self) -> Path:
        base = self.out_dir or os.environ.get("ZSMG_OUT_DIR") or "."
        return Path(base)


def _resolve_opponent(spec, game: MarkovGame) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "uniform":
            return np.full((game.n_states, game.n_actions_p2), 1.0 / game.n_actions_p2)
        return load_policy(spec)
    return np.asarray(spec, dtype=np.float64)


def _learner_rows(game: MarkovGame, runs: list[RunConfig], ground_truth) -> list[list]:
    """Worker entry: the metric rows of each run, the runs stepped as one batch."""
    results = run_selfplay_batch([game] * len(runs), runs, [ground_truth] * len(runs))
    return [result.rows for result in results]


@dataclass
class ExperimentOutput:
    rep_paths: list[Path]
    aggregate_path: Path | None


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    """Run the learner once per distinct row set, write every repetition, and aggregate.

    Writes ``<label>_rep<k>.csv`` per repetition and ``<label>_aggregate.csv``
    (median / quartiles across repetitions) when there is more than one.  The
    opponent is resolved and the run set up once, through the learner's own
    set-up, so every config error is raised before anything is solved or
    written; the ground truth behind the metric rows is then solved once.
    Repetitions whose rows read the same seed share one learner run: exact
    repetitions all share one (and one ``wall_clock`` under
    ``debug_columns``), sampled ones run one per seed.  The distinct runs go
    through ``run_selfplay_batch``: one batch, or with ``workers`` > 1 at most
    ``workers`` contiguous batches, one process-pool task each.  A run's rows
    do not depend on its batch, so the bytes do not depend on ``workers``.
    """
    game = resolve_game(cfg.game)
    opponent = None if cfg.opponent is None else _resolve_opponent(cfg.opponent, game)
    run_game = _prepare_game(game, cfg.run, opponent)
    seeds = cfg.seed_list()
    out_dir = cfg.resolve_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    ground_truth = (shapley_solve(run_game, tol=cfg.gt_tol)
                    if int(cfg.run.cadence) > 0 else None)
    reps = [replace(cfg.run, seed=seed) for seed in seeds]
    # The gamma override is already in run_game; one run per distinct row seed.
    runs = {_rows_seed(run): replace(run, gamma=None) for run in reps}
    distinct = list(runs.values())
    n_batches = max(1, min(cfg.workers, len(distinct)))
    bounds = [len(distinct) * k // n_batches for k in range(n_batches + 1)]
    batches = [distinct[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    job = partial(_learner_rows, run_game, ground_truth=ground_truth)
    if n_batches > 1:
        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            batch_rows = list(pool.map(job, batches))
    else:
        batch_rows = list(map(job, batches))
    rows_by_seed = dict(zip(runs, (rows for batch in batch_rows for rows in batch)))
    rep_rows = [rows_by_seed[_rows_seed(run)] for run in reps]

    # Everything that determines a repetition's rows (no paths, no timing).
    payload = {"game": game_to_dict(game), "gt_tol": cfg.gt_tol, "label": cfg.label}
    if opponent is not None:
        payload["opponent"] = opponent.tolist()
    header = {"schema": 1, "tool_version": __version__, "label": cfg.label}
    rep_paths = [out_dir / f"{cfg.label}_rep{rep}.csv" for rep in range(len(reps))]
    for rep, (path, run, run_rows) in enumerate(zip(rep_paths, reps, rep_rows)):
        metadata = {**header, "rep": rep, "seed": run.seed,
                    "config_hash": config_digest({**payload, "run": run.to_dict()})}
        write_metrics_csv(path, run_rows, metadata=metadata, debug_columns=cfg.debug_columns)

    aggregate_path = None
    if len(reps) > 1:
        aggregate_path = out_dir / f"{cfg.label}_aggregate.csv"
        metadata = {**header, "repetitions": len(reps),
                    "seeds": ",".join(str(s) for s in seeds)}
        write_aggregate_csv(aggregate_path, aggregate_metrics(rep_rows), metadata=metadata)
    return ExperimentOutput(rep_paths=rep_paths, aggregate_path=aggregate_path)
