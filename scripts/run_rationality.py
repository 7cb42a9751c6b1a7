#!/usr/bin/env python3
"""Rationality experiment: learn a best response against fixed opponents.

For each seed, samples a fresh random game and a fixed random stationary
opponent, runs the single-player learner, and reports the learned strategy's
exploitability (its value against the opponent minus the true best-response
value, maximized over states).  The seeds' opponent-reduced games all have
the same shape, so their runs step together as one learner batch, each
against its own ground truth; every run keeps the bits of its own
``run_single_player`` call.  Writes one metrics CSV per seed plus an
exploitability summary CSV.

Example:
    python3 scripts/run_rationality.py --seeds 5 --iterations 100000 \
        --out-dir results/
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from zsmg.gamegen import random_game
from zsmg.games import JointPolicy, best_response, evaluate_policy_pair
from zsmg.learner import RunConfig, reduce_game_for_opponent, run_selfplay_batch
from zsmg.metrics import write_metrics_csv


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--states", type=int, default=2)
    parser.add_argument("--actions-p1", type=int, default=2)
    parser.add_argument("--actions-p2", type=int, default=2)
    parser.add_argument("--gamma", type=float, default=0.9)
    parser.add_argument("--kappa", type=float, default=0.1)
    parser.add_argument("--iterations", type=int, default=100_000)
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--cadence", type=int, default=0,
                        help="rows every N iterations (default: iterations/100)")
    parser.add_argument("--game-seed-base", type=int, default=100)
    parser.add_argument("--opponent-seed-base", type=int, default=1000)
    parser.add_argument("--out-dir", default="results")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cadence = args.cadence or max(1, args.iterations // 100)

    games, opponents = [], []
    for k in range(args.seeds):
        games.append(random_game(seed=args.game_seed_base + k, n_states=args.states,
                                 n_actions_p1=args.actions_p1,
                                 n_actions_p2=args.actions_p2,
                                 gamma=args.gamma, kappa=args.kappa))
        opponents.append(np.random.default_rng(args.opponent_seed_base + k).dirichlet(
            np.ones(args.actions_p2), size=args.states))
    results = run_selfplay_batch(
        [reduce_game_for_opponent(game, opponent) for game, opponent in zip(games, opponents)],
        [RunConfig(iterations=args.iterations, eta=args.eta, cadence=cadence, seed=k)
         for k in range(args.seeds)],
    )

    summary = []
    for k, (game, opponent, result) in enumerate(zip(games, opponents, results)):
        learned = result.state.x_hat
        v_pair = evaluate_policy_pair(game, JointPolicy(x=learned, y=opponent))
        v_best, _ = best_response(game, opponent, fixed_side=2)
        exploitability = float(np.max(v_pair - v_best))
        summary.append((k, exploitability))
        print(f"seed {k}: exploitability = {exploitability:.3e}")

        path = out_dir / f"rationality_seed{k}.csv"
        write_metrics_csv(path, result.rows,
                          metadata={"seed": k, "game": game.name or ""})
        print(f"wrote {path}")

    summary_path = out_dir / "rationality_summary.csv"
    with open(summary_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["seed", "exploitability"])
        writer.writerows([k, repr(e)] for k, e in summary)
    print(f"wrote {summary_path}")
    worst = max(e for _, e in summary)
    print(f"worst exploitability over {args.seeds} seeds: {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
