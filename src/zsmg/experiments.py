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
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .gamegen import (BUILTIN_NAMES, builtin, game_from_dict, game_to_dict, load_game,
                      load_policy, random_game)
from .games import MarkovGame, _integer
from .groundtruth import shapley_solve
from .learner import (RunConfig, _check_fields, _instance, _integers, _optional,
                      _real, _run_batch, _setup)
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
    (the keyword arguments of :func:`zsmg.gamegen.random_game`).  A string or
    ``file`` that names no builtin and no file raises ``ValueError`` naming ``game``.
    """
    if isinstance(spec, str):
        spec = {"builtin" if spec in BUILTIN_NAMES else "file": spec}
    if isinstance(spec, dict):
        if "builtin" in spec:
            return builtin(spec["builtin"], gamma=spec.get("gamma"))
        if "file" in spec:
            return load_game(_existing_file("game", spec["file"], "a builtin game"))
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
        run = _instance("run", data.pop("run", {}), (dict,))
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment-config fields: {sorted(unknown)}")
        return cls(run=RunConfig.from_dict(run), **data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def seed_list(self) -> list[int]:
        return self._checked(int(self.run.seed))["seeds"]

    def _checked(self, run_seed: int) -> dict:
        """The checked fields, ``seeds`` resolved (``run_seed + rep`` unless given)."""
        fields = _check_fields(self, _EXPERIMENT_FIELDS)
        reps, seeds = fields["repetitions"], fields["seeds"]
        if seeds is None:
            fields["seeds"] = [run_seed + rep for rep in range(reps)]
        elif len(seeds) != reps:
            raise ValueError(f"got {len(seeds)} seeds for {reps} repetitions")
        return fields

    def resolve_out_dir(self) -> Path:
        base = self.out_dir or os.environ.get("ZSMG_OUT_DIR") or "."
        return Path(base)


# Each value field's kind, as in ``learner._RUN_FIELDS``; game, run and opponent are sources.
_EXPERIMENT_FIELDS = {
    "gt_tol": (_real, "(0, inf)"),
    "out_dir": (_optional(_instance), (str, os.PathLike)),
    "repetitions": (_integer, 1),
    "seeds": (_optional(_integers), 0),
    "label": (_instance, (str,)),
    "debug_columns": (_instance, (bool, np.bool_)),
    "workers": (_integer, 1),
}


def _existing_file(name: str, path, other: str):
    """``path`` if it names a file, else ValueError naming the field."""
    if isinstance(path, (str, os.PathLike)) and Path(path).is_file():
        return path
    raise ValueError(f"{name}={path!r} is neither {other} nor a file")


def _resolve_opponent(spec, game: MarkovGame) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "uniform":
            return np.full((game.n_states, game.n_actions_p2), 1.0 / game.n_actions_p2)
        return load_policy(_existing_file("opponent", spec, "'uniform'"))
    return np.asarray(spec, dtype=np.float64)


def _learner_rows(runs: list, ground_truth) -> list[list]:
    """Worker entry: the metric rows of each set-up run, the runs stepped as one batch."""
    return [result.rows for result in _run_batch(runs, [ground_truth] * len(runs))]


@dataclass
class ExperimentOutput:
    rep_paths: list[Path]
    aggregate_path: Path | None


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    """Run the learner once per distinct row set, write every repetition, and aggregate.

    Writes ``<label>_rep<k>.csv`` per repetition and ``<label>_aggregate.csv``
    (median / quartiles across repetitions) when there is more than one.  The
    run is set up once, through the learner's own set-up, and the fields
    checked, so every config error is raised before anything is solved or
    written; the ground truth behind the metric rows is then solved once.
    Repetitions whose rows read the same seed share one learner run: exact
    repetitions all share one (and one ``wall_clock`` under
    ``debug_columns``), sampled ones run one per seed, each the set-up run
    with its seed.  The distinct runs go through the learner's batch loop:
    one batch, or with ``workers`` > 1 at most
    ``workers`` contiguous batches, one process-pool task each.  A run's rows
    do not depend on its batch, so the bytes do not depend on ``workers``.
    """
    _instance("run", cfg.run, (RunConfig,))
    game = resolve_game(cfg.game)
    opponent = None if cfg.opponent is None else _resolve_opponent(cfg.opponent, game)
    base = _setup(game, cfg.run, opponent)
    fields = cfg._checked(base.seed)
    out_dir = cfg.resolve_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    ground_truth = (shapley_solve(base.game, tol=fields["gt_tol"])
                    if base.shared["cadence"] > 0 else None)
    reps = [replace(cfg.run, seed=seed) for seed in fields["seeds"]]
    # One learner run per distinct row seed: only the sampled estimator reads one.
    row_seeds = [run.seed if base.shared["estimator"] == "sampled" else None for run in reps]
    runs = {key: base._replace(config=run, seed=run.seed) for key, run in zip(row_seeds, reps)}
    distinct = list(runs.values())
    n_batches = min(fields["workers"], len(distinct))
    bounds = [len(distinct) * k // n_batches for k in range(n_batches + 1)]
    batches = [distinct[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    job = partial(_learner_rows, ground_truth=ground_truth)
    if n_batches > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            batch_rows = list(pool.map(job, batches))
    else:
        batch_rows = list(map(job, batches))
    rows_by_seed = dict(zip(runs, (rows for batch in batch_rows for rows in batch)))
    rep_rows = [rows_by_seed[row_seed] for row_seed in row_seeds]

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
                    "seeds": ",".join(str(s) for s in fields["seeds"])}
        write_aggregate_csv(aggregate_path, aggregate_metrics(rep_rows), metadata=metadata)
    return ExperimentOutput(rep_paths=rep_paths, aggregate_path=aggregate_path)
