"""Decentralized optimistic gradient learner with a slowly-updated critic.

Each player runs projected optimistic gradient steps on its per-state mixed
strategy against the stage games induced by a critic value vector; the critic
itself moves by a decaying average toward the players' payoff estimate.  The
loop touches only loss/transition feedback through an estimator object, so the
exact and trajectory-sampled modes share the identical update path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from . import estimators as est_mod
from . import metrics as metrics_mod
from .estimators import EstimateTriple
from .games import MarkovGame, JointPolicy, q_from_v, validate_game

__all__ = [
    "LearnerState",
    "RunConfig",
    "RunResult",
    "project_simplex",
    "alpha_schedule",
    "make_alpha_schedule",
    "eta_max",
    "ogda_step",
    "critic_step",
    "initial_state",
    "reduce_game_for_opponent",
    "run_selfplay",
    "run_single_player",
]


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex (last axis).

    Sort-and-threshold algorithm: find the largest prefix of the descending
    sort with positive water level, subtract the level, clip at zero.  Accepts
    a single vector or a batch of row vectors; rows are processed by the same
    elementwise arithmetic either way, so batched and single calls agree
    bit-for-bit.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, n + 1, dtype=np.float64)
    rho = np.count_nonzero(u + (1.0 - css) / j > 0.0, axis=-1)
    rho_flat = np.asarray(rho, dtype=np.intp).reshape(-1)
    css_rho = css.reshape(-1, n)[np.arange(rho_flat.size), rho_flat - 1]
    tau = ((css_rho - 1.0) / rho_flat).reshape(v.shape[:-1] + (1,))
    return np.maximum(v - tau, 0.0)


def alpha_schedule(t: int, gamma: float) -> float:
    """Critic averaging weight (H+1)/(H+t) with horizon H = 2/(1-gamma).

    Equals 1 at t=1 (the critic jumps to the first payoff estimate), is
    non-increasing, and decays like 1/t.
    """
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    h = 2.0 / (1.0 - gamma)
    return (h + 1.0) / (h + t)


def make_alpha_schedule(name: str, gamma: float) -> Callable[[int], float]:
    """Critic step-size schedule by name: 'horizon' (default) or 'harmonic' 1/t."""
    if name == "horizon":
        return lambda t: alpha_schedule(t, gamma)
    if name == "harmonic":
        return lambda t: 1.0 / t
    raise ValueError(f"unknown alpha schedule {name!r} (expected 'horizon' or 'harmonic')")


def eta_max(gamma: float, n_states: int) -> float:
    """Largest step size with a convergence guarantee: 1e-4 * sqrt((1-gamma)^5 / S)."""
    return 1e-4 * np.sqrt((1.0 - gamma) ** 5 / n_states)


@dataclass(frozen=True)
class LearnerState:
    """Iterates of both players plus the shared critic.

    ``x_hat``/``y_hat`` are the primary (anchor) iterates, ``x``/``y`` the
    secondary iterates that gradients are evaluated at.  ``v`` is the critic
    value vector shared by both players.
    """

    x_hat: np.ndarray  # (S, A)
    x: np.ndarray      # (S, A)
    y_hat: np.ndarray  # (S, B)
    y: np.ndarray      # (S, B)
    v: np.ndarray      # (S,)
    t: int
    eta: float

    @property
    def policy(self) -> JointPolicy:
        """The anchor iterates as a joint policy (the pair the theory tracks)."""
        return JointPolicy(x=self.x_hat, y=self.y_hat)


def initial_state(
    game: MarkovGame,
    eta: float,
    init_x: np.ndarray | None = None,
    init_y: np.ndarray | None = None,
) -> LearnerState:
    """Fresh learner state with both iterate sequences at the initial policy.

    Defaults to the uniform policy per state; explicit initial strategies must
    be row-stochastic within 1e-9.
    """
    if init_x is None:
        x = np.full((game.n_states, game.n_actions_p1), 1.0 / game.n_actions_p1)
    else:
        x = np.array(init_x, dtype=np.float64)
    if init_y is None:
        y = np.full((game.n_states, game.n_actions_p2), 1.0 / game.n_actions_p2)
    else:
        y = np.array(init_y, dtype=np.float64)
    for name, arr, width in (("init_x", x, game.n_actions_p1), ("init_y", y, game.n_actions_p2)):
        if arr.shape != (game.n_states, width):
            raise ValueError(f"{name} has shape {arr.shape}, expected {(game.n_states, width)}")
        if (arr < 0).any() or np.max(np.abs(arr.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError(f"{name} rows must be probability distributions")
    return LearnerState(
        x_hat=x, x=x.copy(), y_hat=y, y=y.copy(),
        v=np.zeros(game.n_states), t=1, eta=float(eta),
    )


def ogda_step(state: LearnerState, estimates: EstimateTriple) -> LearnerState:
    """One optimistic gradient step for both players; the critic is untouched.

    Anchor update then a lookahead step with the same gradient:
        x_hat' = P(x_hat - eta * ell);  x' = P(x_hat' - eta * ell)
        y_hat' = P(y_hat + eta * r);    y' = P(y_hat' + eta * r)
    Non-finite estimates raise ValueError and leave the state unchanged.
    """
    if not (
        np.isfinite(estimates.ell).all()
        and np.isfinite(estimates.r).all()
        and np.isfinite(estimates.rho).all()
    ):
        raise ValueError("non-finite payoff estimates passed to ogda_step")
    gx = state.eta * estimates.ell
    gy = state.eta * estimates.r
    x_hat = project_simplex(state.x_hat - gx)
    x = project_simplex(x_hat - gx)
    y_hat = project_simplex(state.y_hat + gy)
    y = project_simplex(y_hat + gy)
    return replace(state, x_hat=x_hat, x=x, y_hat=y_hat, y=y, t=state.t + 1)


def critic_step(v_prev: np.ndarray, rho: np.ndarray, alpha_t: float) -> np.ndarray:
    """Decaying-average critic update (1 - alpha) * v_prev + alpha * rho."""
    return (1.0 - alpha_t) * v_prev + alpha_t * rho


def reduce_game_for_opponent(game: MarkovGame, opponent_y: np.ndarray) -> MarkovGame:
    """Collapse a fixed player-2 strategy into the game, leaving one dummy column.

    The reduced game has a single player-2 action whose losses and transitions
    are the opponent-averaged originals, so self-play on it is exactly the
    single-player learning problem against that opponent.
    """
    y = np.asarray(opponent_y, dtype=np.float64)
    if y.shape != (game.n_states, game.n_actions_p2):
        raise ValueError(
            f"opponent policy shape {y.shape} does not match "
            f"(S, B) = {(game.n_states, game.n_actions_p2)}"
        )
    loss = np.einsum("sab,sb->sa", game.loss, y)[:, :, None]
    trans = np.einsum("sabt,sb->sat", game.transition, y)[:, :, None, :]
    return MarkovGame(loss=loss, transition=trans, gamma=game.gamma,
                      name=f"{game.name or 'game'}|fixed-opponent")


@dataclass
class RunConfig:
    """Everything that determines a learning run (and hence its outputs).

    ``eta='auto'`` resolves to ``eta_max(gamma, S)``.  ``strict`` additionally
    enforces the guarantee regime: gamma >= 1/2, eta <= eta_max, and
    epsilon <= 1/(1-gamma).  ``gamma`` overrides the game's discount when set.
    In sampled mode each iteration rolls out ``rollout_len`` steps under the
    exploration-mixed strategies (mixing weight ``epsilon_prime`` in [0, 1],
    default (1-gamma) * epsilon), continuing from the last state unless
    ``rollout_reset`` is set.
    """

    iterations: int = 1000
    eta: float | str = "auto"
    alpha: str = "horizon"
    estimator: str = "exact"
    rollout_len: int = 0
    epsilon: float = 0.0
    epsilon_prime: float | None = None
    seed: int = 0
    init_x: Any = None
    init_y: Any = None
    cadence: int = 0
    strict: bool = False
    gamma: float | None = None
    rollout_reset: bool = False

    def to_dict(self) -> dict:
        out = {}
        for key in self.__dataclass_fields__:
            val = getattr(self, key)
            if isinstance(val, np.ndarray):
                val = val.tolist()
            out[key] = val
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown run-config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class RunResult:
    """Final state and metric stream of a learning run."""

    state: LearnerState
    rows: list
    game: MarkovGame
    ground_truth: Any
    config: RunConfig


def _resolve_eta(config: RunConfig, game: MarkovGame) -> float:
    cap = eta_max(game.gamma, game.n_states)
    if config.eta == "auto":
        return cap
    eta = float(config.eta)
    if eta <= 0:
        raise ValueError(f"step size must be positive, got {eta}")
    if config.strict and eta > cap * (1.0 + 1e-12):
        raise ValueError(
            f"strict mode: eta={eta} exceeds the guaranteed-stable maximum {cap:.6e}"
        )
    return eta


def _apply_gamma_override(game: MarkovGame, config: RunConfig) -> MarkovGame:
    if config.gamma is None or config.gamma == game.gamma:
        return game
    return MarkovGame(loss=game.loss, transition=game.transition,
                      gamma=config.gamma, name=game.name)


def _check_game(game: MarkovGame, strict: bool) -> None:
    problems = validate_game(game)
    if strict and problems:
        raise ValueError("invalid game: " + "; ".join(problems))
    structural = [p for p in problems if not p.startswith("gamma")]
    if structural:
        raise ValueError("invalid game: " + "; ".join(structural))


def _resolve_epsilon_prime(config: RunConfig, game: MarkovGame) -> float:
    """Sampled mode's exploration weight; out of [0, 1] raises naming its source."""
    if config.epsilon_prime is not None:
        eps_prime = float(config.epsilon_prime)
        source = f"epsilon_prime={eps_prime!r}"
    else:
        eps_prime = float((1.0 - game.gamma) * config.epsilon)
        source = (f"epsilon_prime = (1 - gamma) * epsilon = "
                  f"(1 - {game.gamma!r}) * {config.epsilon!r} = {eps_prime!r}")
    if not 0.0 <= eps_prime <= 1.0:
        raise ValueError(f"{source} must lie in [0, 1]")
    return eps_prime


def _build_estimator(config: RunConfig, game: MarkovGame):
    if config.estimator == "exact":
        return est_mod.ExactEstimator()
    if config.estimator == "sampled":
        if config.rollout_len < 1:
            raise ValueError("sampled mode requires rollout_len >= 1")
        return est_mod.SampledEstimator(
            rollout_len=config.rollout_len,
            epsilon_prime=_resolve_epsilon_prime(config, game),
            seed=config.seed,
            reset_each_iteration=config.rollout_reset,
        )
    raise ValueError(f"unknown estimator mode {config.estimator!r}")


def run_selfplay(
    game: MarkovGame,
    config: RunConfig,
    estimator=None,
    sink: Callable[[metrics_mod.MetricsRow], None] | None = None,
    ground_truth=None,
    gt_tol: float = 1e-9,
    iteration_hook: Callable[[int, LearnerState], None] | None = None,
) -> RunResult:
    """Run decentralized self-play for ``config.iterations`` iterations.

    Per iteration: build the critic's stage games, obtain payoff estimates from
    the estimator, take one optimistic step per player, then average the critic
    toward the shared payoff estimate.  Metric rows are produced every
    ``config.cadence`` iterations (computed on the anchor iterates entering the
    iteration) and pushed to ``sink`` as they appear; ground truth is solved
    on demand when metrics are requested.  Deterministic given the config.
    """
    game = _apply_gamma_override(game, config)
    _check_game(game, config.strict)
    if config.iterations < 1:
        raise ValueError("iterations must be >= 1")
    eta = _resolve_eta(config, game)
    if config.strict and not (0.0 <= config.epsilon <= 1.0 / (1.0 - game.gamma)):
        raise ValueError(
            f"strict mode: epsilon={config.epsilon} outside [0, 1/(1-gamma)]"
        )
    alpha_fn = make_alpha_schedule(config.alpha, game.gamma)
    state = initial_state(game, eta=eta, init_x=config.init_x, init_y=config.init_y)
    if estimator is None:
        estimator = _build_estimator(config, game)

    cadence = int(config.cadence)
    gt = ground_truth
    if cadence > 0 and gt is None:
        from .groundtruth import shapley_solve
        gt = shapley_solve(game, tol=gt_tol)

    n_states = game.n_states
    q_prev = np.zeros_like(game.loss)
    x_prev = np.zeros_like(state.x)
    y_prev = np.zeros_like(state.y)
    j_state = np.zeros(n_states)
    k_state = np.zeros(n_states)
    rows: list[metrics_mod.MetricsRow] = []
    started = time.perf_counter()

    for t in range(1, config.iterations + 1):
        q_t = q_from_v(game, state.v)
        alpha_t = alpha_fn(t)
        j_state, k_state, q_step = metrics_mod.diagnostics_update(
            j_state, k_state, state.x, x_prev, state.y, y_prev, q_t, q_prev, alpha_t
        )
        logging_now = cadence > 0 and t % cadence == 0
        triple, est_err = estimator.estimates(
            game, state, q_t, collect_error=logging_now
        )
        if logging_now:
            row = metrics_mod.make_metrics_row(
                t=t, game=game, ground_truth=gt,
                x_hat=state.x_hat, y_hat=state.y_hat, q_t=q_t,
                j_max=float(j_state.max()), k_max=float(k_state.max()),
                q_step_max=float(q_step.max()), est_err=est_err,
                wall_clock=time.perf_counter() - started,
            )
            rows.append(row)
            if sink is not None:
                sink(row)
        x_prev, y_prev, q_prev = state.x, state.y, q_t
        stepped = ogda_step(state, triple)
        v_new = critic_step(state.v, triple.rho, alpha_t)
        state = replace(stepped, v=v_new)
        if iteration_hook is not None:
            iteration_hook(t, state)

    return RunResult(state=state, rows=rows, game=game, ground_truth=gt, config=config)


def run_single_player(
    game: MarkovGame,
    opponent_y: np.ndarray,
    config: RunConfig,
    sink: Callable[[metrics_mod.MetricsRow], None] | None = None,
    ground_truth=None,
    gt_tol: float = 1e-9,
    iteration_hook: Callable[[int, LearnerState], None] | None = None,
) -> RunResult:
    """Learn a best response against a fixed stationary opponent.

    Runs the self-play loop on the opponent-reduced game, so the player-1
    iterates follow the same anchor/lookahead/critic updates they would in
    self-play, step for step.  In the metric rows the duality gap column is
    exactly the player's exploitability against the fixed opponent, and the
    distance column measures distance to the best-response strategy set.
    """
    game = _apply_gamma_override(game, config)
    reduced = reduce_game_for_opponent(game, opponent_y)
    cfg = replace(config, gamma=None)
    return run_selfplay(
        reduced, cfg, sink=sink, ground_truth=ground_truth, gt_tol=gt_tol,
        iteration_hook=iteration_hook,
    )
