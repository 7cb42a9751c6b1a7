"""Command-line interface.

Subcommands: gen (sample a random game), solve (exact ground truth), run
(self-play experiment), rational (single-player vs fixed opponent), plan
(sample/iteration budgets), plot (CSV -> SVG chart).  Exit codes: 0 success,
1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import estimate_mu, plan_accuracy_budget, plan_sample_budget
from .experiments import ExperimentConfig, run_experiment, resolve_game
from .gamegen import BUILTIN_NAMES, random_game, save_game
from .groundtruth import shapley_solve
from .learner import RunConfig
from .metrics import read_metrics_csv
from .svg import write_line_chart

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or arguments; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through our exit codes
        raise UsageError(message)


def _step_size(text: str) -> float | str:
    """The value of a run's ``--eta``: 'auto' or a number."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="zsmg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zsmg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample a random game and write it to a file")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--states", type=int, required=True)
    p_gen.add_argument("--actions-p1", type=int, required=True)
    p_gen.add_argument("--actions-p2", type=int, required=True)
    p_gen.add_argument("--gamma", type=float, required=True)
    p_gen.add_argument("--kappa", type=float, default=0.05)
    p_gen.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="solve a game exactly and print per-state values")
    p_solve.add_argument("--game", required=True,
                         help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or game file path")
    p_solve.add_argument("--gamma", type=float, default=None, help="discount override")
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--out", default=None, help="write a JSON ground-truth sidecar here")

    def add_run_flags(p):
        p.add_argument("--config", default=None, help="experiment config JSON file")
        p.add_argument("--game", default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--eta", type=_step_size, default=None,
                       help="step size (number or 'auto')")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--cadence", type=int, default=None)
        p.add_argument("--estimator", choices=["exact", "sampled"], default=None)
        p.add_argument("--rollout-len", type=int, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--epsilon-prime", type=float, default=None)
        p.add_argument("--strict", action="store_true", default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--label", default=None)
        p.add_argument("--gt-tol", type=float, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--debug-columns", action="store_true", default=None)

    p_run = sub.add_parser("run", help="run a self-play learning experiment")
    add_run_flags(p_run)

    p_rat = sub.add_parser("rational", help="learn a best response against a fixed opponent")
    add_run_flags(p_rat)
    p_rat.add_argument("--opponent", default="uniform",
                       help="policy file path or 'uniform' (default)")

    p_plan = sub.add_parser("plan", help="compute sampling/iteration budgets")
    p_plan.add_argument("--mode", choices=["samples", "average-gap", "last-iterate"],
                        required=True)
    p_plan.add_argument("--actions-p1", type=int, default=2)
    p_plan.add_argument("--actions-p2", type=int, default=2)
    p_plan.add_argument("--states", type=int, default=1)
    p_plan.add_argument("--gamma", type=float, required=True)
    p_plan.add_argument("--mu", type=float, default=None)
    p_plan.add_argument("--game", default=None,
                        help="estimate mu by probing this game instead of --mu")
    p_plan.add_argument("--epsilon", type=float, default=None)
    p_plan.add_argument("--horizon", type=float, default=1e4,
                        help="iterations the estimates must stay accurate for")
    p_plan.add_argument("--delta", type=float, default=0.05)
    p_plan.add_argument("--c-l", type=float, default=1.0)
    p_plan.add_argument("--xi", type=float, default=None)
    p_plan.add_argument("--eta", type=float, default=None)
    p_plan.add_argument("--c-hat", type=float, default=None)
    p_plan.add_argument("--c-t", type=float, default=1.0)

    p_plot = sub.add_parser("plot", help="render metric CSV columns as an SVG line chart")
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--columns", default="game_gap,mean_dist_sq")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--linear", action="store_true", help="linear instead of log y axis")
    p_plot.add_argument("--title", default="")
    return parser


def _cmd_gen(args) -> int:
    game = random_game(seed=args.seed, n_states=args.states,
                       n_actions_p1=args.actions_p1, n_actions_p2=args.actions_p2,
                       gamma=args.gamma, kappa=args.kappa)
    save_game(game, args.out)
    print(f"wrote {args.out} ({game.n_states} states, "
          f"{game.n_actions_p1}x{game.n_actions_p2} actions, gamma={game.gamma})")
    return 0


def _cmd_solve(args) -> int:
    if args.game in BUILTIN_NAMES:
        game = resolve_game({"builtin": args.game, "gamma": args.gamma})
    else:
        game = resolve_game({"file": args.game})
        if args.gamma is not None:
            game = replace(game, gamma=args.gamma)
    gt = shapley_solve(game, tol=args.tol)
    for s, val in enumerate(gt.v_star):
        print(f"V*[{s}] = {float(val)!r}")
    if args.out:
        sidecar = {
            "schema_version": 1,
            "tol": gt.tol,
            "v_star": gt.v_star.tolist(),
            "q_star": gt.q_star.tolist(),
            "x_star": gt.x_star.tolist(),
            "y_star": gt.y_star.tolist(),
        }
        Path(args.out).write_text(json.dumps(sidecar, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def _experiment_from_args(args, opponent=None) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config)
    else:
        cfg = ExperimentConfig()
    if args.game is not None:
        cfg.game = {"builtin": args.game, "gamma": args.gamma} \
            if args.game in BUILTIN_NAMES else {"file": args.game}
    run_overrides = {
        # A builtin takes the discount in its spec; any other game through the run.
        "gamma": None if args.game in BUILTIN_NAMES else args.gamma,
        "iterations": args.iterations,
        "eta": args.eta,
        "seed": args.seed,
        "cadence": args.cadence,
        "estimator": args.estimator,
        "rollout_len": args.rollout_len,
        "epsilon": args.epsilon,
        "epsilon_prime": args.epsilon_prime,
        "strict": args.strict,
    }
    for key, val in run_overrides.items():
        if val is not None:
            setattr(cfg.run, key, val)
    for key, attr in (("reps", "repetitions"), ("workers", "workers"),
                      ("label", "label"), ("gt_tol", "gt_tol"),
                      ("out_dir", "out_dir"), ("debug_columns", "debug_columns")):
        val = getattr(args, key)
        if val is not None:
            setattr(cfg, attr, val)
    if opponent is not None:
        cfg.opponent = opponent
    if cfg.run.cadence == 0:
        cfg.run.cadence = max(1, cfg.run.iterations // 100)
    return cfg


def _cmd_run(args, opponent=None) -> int:
    cfg = _experiment_from_args(args, opponent=opponent)
    output = run_experiment(cfg)
    for path in output.rep_paths:
        print(f"wrote {path}")
    if output.aggregate_path:
        print(f"wrote {output.aggregate_path}")
    return 0


def _cmd_plan(args) -> int:
    if args.mode == "samples":
        if args.epsilon is None:
            raise UsageError("plan --mode samples requires --epsilon")
        mu = args.mu
        if mu is None and args.game is not None:
            game = resolve_game(args.game)
            mu = estimate_mu(game).mu
            print(f"mu_estimate = {mu!r}")
        if mu is None:
            raise UsageError("plan --mode samples requires --mu or --game")
        budget = plan_sample_budget(
            n_actions_p1=args.actions_p1, n_actions_p2=args.actions_p2,
            gamma=args.gamma, mu=mu, epsilon=args.epsilon,
            horizon=args.horizon, delta=args.delta, c_l=args.c_l,
        )
        print(f"rollout_len = {budget.rollout_len}")
        print(f"epsilon_prime = {budget.epsilon_prime!r}")
        return 0
    if args.xi is None or args.eta is None:
        raise UsageError(f"plan --mode {args.mode} requires --xi and --eta")
    if args.mode == "last-iterate" and args.c_hat is None:
        raise UsageError("plan --mode last-iterate requires --c-hat")
    budget = plan_accuracy_budget(
        xi=args.xi, mode=args.mode, n_states=args.states, gamma=args.gamma,
        eta=args.eta, c_hat=args.c_hat, c_t=args.c_t,
    )
    print(f"iterations = {budget.iterations}")
    print(f"epsilon = {budget.epsilon!r}")
    if budget.log_factor is not None:
        print(f"log_factor = {budget.log_factor!r}")
    return 0


def _cmd_plot(args) -> int:
    _, rows = read_metrics_csv(args.input)
    if not rows:
        raise UsageError(f"{args.input}: no data rows to plot")
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        raise UsageError("no columns requested")
    ts = [row.t for row in rows]
    series = {}
    for col in columns:
        if not hasattr(rows[0], col):
            raise UsageError(f"unknown metric column {col!r}")
        vals = [getattr(row, col) for row in rows]
        if any(v is None for v in vals):
            raise UsageError(f"column {col!r} is empty in {args.input}")
        series[col] = (ts, vals)
    write_line_chart(args.out, series, title=args.title or Path(args.input).stem,
                     log_y=not args.linear)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "rational":
            return _cmd_run(args, opponent=args.opponent)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "plot":
            return _cmd_plot(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
