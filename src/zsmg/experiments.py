"""Multi-repetition experiment driver.

An experiment is a game source plus a run configuration, executed once per
seed.  Repetitions are independent and run in a process pool keyed by seed;
each writes its own CSV, and an aggregate CSV (median and quartiles per
iteration) is recomputed from the per-repetition results afterwards.  Output
bytes depend only on the configuration, never on scheduling or wall time.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .gamegen import builtin, game_from_dict, game_to_dict, load_game, load_policy, random_game
from .games import MarkovGame
from .groundtruth import shapley_solve
from .learner import RunConfig, _setup, run_selfplay
from .metrics import (
    aggregate_metrics,
    config_digest,
    read_metrics_csv,
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
        if self.seeds is not None:
            if len(self.seeds) != self.repetitions:
                raise ValueError(
                    f"got {len(self.seeds)} seeds for {self.repetitions} repetitions"
                )
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


def _run_one_repetition(args: tuple) -> str:
    """Worker entry: run one prepared repetition and write its CSV; returns the path.

    ``args`` is ``(game, run, ground_truth, out_path, metadata, debug_columns)``:
    the game with the discount override and any opponent already applied, the
    repetition's own ``RunConfig`` (its seed set, ``gamma`` cleared), the shared
    ground truth (None without metric rows) and the CSV's header metadata.
    """
    game, run, ground_truth, out_path, metadata, debug_columns = args
    result = run_selfplay(game, run, ground_truth=ground_truth)
    write_metrics_csv(out_path, result.rows, metadata=metadata, debug_columns=debug_columns)
    return out_path


@dataclass
class ExperimentOutput:
    rep_paths: list[Path]
    aggregate_path: Path | None


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    """Run every repetition (in a process pool when ``workers`` > 1) and aggregate.

    Writes ``<label>_rep<k>.csv`` per repetition and ``<label>_aggregate.csv``
    (median / quartiles across repetitions) when there is more than one.  The
    opponent is resolved and the run set up once, through the learner's own
    set-up, so every config error is raised before anything is solved or
    written; the ground truth behind the metric rows is then solved once, and
    each repetition runs ``run_selfplay`` on the prepared game with its seed.
    """
    game = resolve_game(cfg.game)
    seeds = cfg.seed_list()
    opponent = None if cfg.opponent is None else _resolve_opponent(cfg.opponent, game)
    run_game = _setup(game, cfg.run, opponent)[0]
    out_dir = cfg.resolve_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    ground_truth = (shapley_solve(run_game, tol=cfg.gt_tol)
                    if int(cfg.run.cadence) > 0 else None)
    # Everything that determines a repetition's rows (no paths, no timing).
    payload = {"game": game_to_dict(game), "gt_tol": cfg.gt_tol, "label": cfg.label}
    if opponent is not None:
        payload["opponent"] = opponent.tolist()
    jobs = []
    for rep, seed in enumerate(seeds):
        run = replace(cfg.run, seed=seed)
        metadata = {
            "schema": 1,
            "tool_version": __version__,
            "label": cfg.label,
            "rep": rep,
            "seed": seed,
            "config_hash": config_digest({**payload, "run": run.to_dict()}),
        }
        jobs.append((run_game, replace(run, gamma=None), ground_truth,
                     str(out_dir / f"{cfg.label}_rep{rep}.csv"), metadata,
                     cfg.debug_columns))
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(jobs))) as pool:
            paths = list(pool.map(_run_one_repetition, jobs))
    else:
        paths = [_run_one_repetition(job) for job in jobs]

    aggregate_path = None
    if len(paths) > 1:
        runs = [read_metrics_csv(p)[1] for p in paths]
        agg = aggregate_metrics(runs)
        aggregate_path = out_dir / f"{cfg.label}_aggregate.csv"
        metadata = {
            "schema": 1,
            "tool_version": __version__,
            "label": cfg.label,
            "repetitions": len(paths),
            "seeds": ",".join(str(s) for s in seeds),
        }
        write_aggregate_csv(aggregate_path, agg, metadata=metadata)
    return ExperimentOutput(rep_paths=[Path(p) for p in paths],
                            aggregate_path=aggregate_path)
