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
from .groundtruth import GroundTruth, shapley_solve
from .learner import (
    RunConfig,
    _apply_gamma_override,
    _check_game,
    _resolve_epsilon_prime,
    reduce_game_for_opponent,
    run_selfplay,
    run_single_player,
)
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
    arr = np.asarray(spec, dtype=np.float64)
    return arr


def _semantic_payload(cfg: ExperimentConfig, game: MarkovGame, seed: int) -> dict:
    """Everything that determines one repetition's rows (no paths, no timing)."""
    payload = {
        "game": game_to_dict(game),
        "run": replace(cfg.run, seed=seed).to_dict(),
        "gt_tol": cfg.gt_tol,
        "label": cfg.label,
    }
    if cfg.opponent is not None:
        payload["opponent"] = np.asarray(
            _resolve_opponent(cfg.opponent, game), dtype=np.float64
        ).tolist()
    return payload


def _shared_ground_truth(cfg: ExperimentConfig, game: MarkovGame) -> GroundTruth | None:
    """Ground truth of the game every repetition learns on; None without metric rows.

    Repetitions differ only in their seed, so they all solve this same game:
    the configured discount applied, then the opponent folded in for
    single-player runs.  The game and, in sampled mode, the exploration
    weight are validated first, exactly as each repetition would validate
    them before solving.
    """
    if int(cfg.run.cadence) <= 0:
        return None
    game = _apply_gamma_override(game, cfg.run)
    if cfg.opponent is not None:
        game = reduce_game_for_opponent(game, _resolve_opponent(cfg.opponent, game))
    _check_game(game, cfg.run.strict)
    if cfg.run.estimator == "sampled":
        _resolve_epsilon_prime(cfg.run, game)
    return shapley_solve(game, tol=cfg.gt_tol)


def _run_one_repetition(args: tuple) -> str:
    """Worker entry: run one seed and write its CSV; returns the path written."""
    game_data, cfg_dict, seed, rep, out_path, ground_truth = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    game = game_from_dict(game_data)
    run_cfg = replace(cfg.run, seed=seed)
    if cfg.opponent is not None:
        opponent = _resolve_opponent(cfg.opponent, game)
        result = run_single_player(game, opponent, run_cfg, ground_truth=ground_truth,
                                   gt_tol=cfg.gt_tol)
    else:
        result = run_selfplay(game, run_cfg, ground_truth=ground_truth, gt_tol=cfg.gt_tol)
    metadata = {
        "schema": 1,
        "tool_version": __version__,
        "label": cfg.label,
        "rep": rep,
        "seed": seed,
        "config_hash": config_digest(_semantic_payload(cfg, game, seed)),
    }
    write_metrics_csv(out_path, result.rows, metadata=metadata,
                      debug_columns=cfg.debug_columns)
    return out_path


@dataclass
class ExperimentOutput:
    rep_paths: list[Path]
    aggregate_path: Path | None


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    """Run every repetition (in a process pool when ``workers`` > 1) and aggregate.

    Writes ``<label>_rep<k>.csv`` per repetition and ``<label>_aggregate.csv``
    (median / quartiles across repetitions) when there is more than one.  The
    ground truth behind the metric rows is solved once and shared by all
    repetitions.
    """
    game = resolve_game(cfg.game)
    out_dir = cfg.resolve_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = cfg.seed_list()
    cfg_dict = {**cfg.__dict__, "run": cfg.run.to_dict(), "seeds": None,
                "out_dir": None}
    if cfg.opponent is not None:
        cfg_dict["opponent"] = _resolve_opponent(cfg.opponent, game).tolist()
    game_data = game_to_dict(game)
    # Solved on the config as each repetition rebuilds it from ``cfg_dict``.
    ground_truth = _shared_ground_truth(ExperimentConfig.from_dict(cfg_dict), game)
    jobs = [
        (game_data, cfg_dict, seed, rep, str(out_dir / f"{cfg.label}_rep{rep}.csv"),
         ground_truth)
        for rep, seed in enumerate(seeds)
    ]
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
