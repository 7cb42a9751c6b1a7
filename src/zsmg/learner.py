"""Decentralized optimistic gradient learner with a slowly-updated critic.

Each player runs projected optimistic gradient steps on its per-state mixed
strategy against the stage games induced by a critic value vector; the critic
itself moves by a decaying average toward the players' payoff estimate.  The
loop touches only loss/transition feedback through an estimator object, so the
exact and trajectory-sampled modes share the identical update path.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from . import estimators as est_mod
from . import metrics as metrics_mod
from .games import (MarkovGame, JointPolicy, _induced_mdp, distribution_rows_error, q_from_v,
                    validate_game)

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


@lru_cache(maxsize=64)
def _projection_constants(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-shape constants of ``project_simplex``: the ranks ``1..n``
    as floats and, per row, the flat index of its first entry minus one."""
    n = shape[-1]
    ranks = np.arange(1, n + 1, dtype=np.float64)
    offsets = np.arange(-1, math.prod(shape) - 1, n)
    for array in (ranks, offsets):
        array.flags.writeable = False
    return ranks, offsets


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex (last axis).

    Sort-and-threshold algorithm (Duchi et al., ICML 2008): find the largest
    prefix of the descending sort with positive water level, subtract the
    level, clip at zero.  Accepts a single vector or a batch of row vectors;
    rows are processed by the same elementwise arithmetic either way, so
    batched and single calls agree bit-for-bit.  The ranks and row offsets
    depend only on the shape and come from a cache of read-only arrays.

    A row whose support would be empty raises ``ValueError`` naming the row
    (counted over the leading axes in C order) and its largest entry, and no
    row ever reads another.  In exact arithmetic the first threshold test,
    ``u_0 + (1 - u_0) / 1 > 0``, always holds; it fails only when rounding
    swamps it (a largest entry of magnitude about 1e16 or more) or the row
    holds NaN, +inf or nothing but -inf.  Such a row has no meaningful
    projection, so it is not clamped.

    Padding contract: extra entries that lie below every real entry of their
    row, and more than 1 below its largest, sort last, change no prefix sum of
    the support and fail the threshold test.  They project to exactly 0 and
    the row's real outputs keep their bits.  The learner pads with ``-1e30``.
    """
    v = np.asarray(v, dtype=np.float64)
    ranks, offsets = _projection_constants(v.shape)
    u = v.copy()
    u.sort(axis=-1)
    u = u[..., ::-1]
    # levels[..., j-1] = (css_j - 1) / j is the water level if the support
    # were the top j entries, and ``u > levels`` is bit-for-bit the Duchi test
    # ``u + (1 - css) / j > 0``: IEEE rounding is sign-symmetric, and a
    # rounded difference is positive exactly when the exact one is.  The
    # level at the support size rho is tau, with the bits of
    # ``(css_rho - 1) / rho``.
    levels = (u.cumsum(axis=-1) - 1.0) / ranks
    rho = (u > levels).sum(axis=-1).reshape(-1)
    if np.count_nonzero(rho) < rho.size:
        row = int(np.argmin(rho))
        largest = float(np.max(v.reshape(rho.size, -1)[row]))
        raise ValueError(
            f"project_simplex: row {row} has empty support: its largest entry "
            f"{largest!r} fails the threshold test at rank 1 (rounding swamps the "
            f"test from a magnitude of about 1e16; NaN and inf always fail it)"
        )
    tau = levels.reshape(-1)[offsets + rho].reshape(v.shape[:-1] + (1,))
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
    _check_alpha_name(name)
    if name == "horizon":
        return lambda t: alpha_schedule(t, gamma)
    return lambda t: 1.0 / t


def _check_alpha_name(name: str) -> None:
    if name not in ("horizon", "harmonic"):
        raise ValueError(f"unknown alpha schedule {name!r} (expected 'horizon' or 'harmonic')")


def eta_max(gamma: float, n_states: int) -> float:
    """Largest step size with a convergence guarantee: 1e-4 * sqrt((1-gamma)^5 / S)."""
    return 1e-4 * np.sqrt((1.0 - gamma) ** 5 / n_states)


# Gradient entry in the padded columns of the stacked layout.  A padded iterate
# entry is 0, so each half-step projects 0 - 1e30: far below every real entry,
# which keeps the real bits and projects to 0.  Finite on purpose: ogda_step
# tests the whole gradient, pad included, for finiteness in one pass.
_PAD = 1e30


@dataclass(frozen=True)
class LearnerState:
    """Iterates of both players plus the shared critic, in one stacked layout.

    ``z_hat`` holds the primary (anchor) iterates and ``z`` the secondary
    iterates that gradients are evaluated at, each as one ``(2S, W)`` array
    with ``W = max(A, B)``: rows ``0..S-1`` are player 1's strategies and rows
    ``S..2S-1`` player 2's.  Columns past a player's own width are padding and
    always hold exactly 0.  ``x_hat``/``x`` and ``y_hat``/``y`` are the
    players' ``(S, A)`` and ``(S, B)`` views of these arrays.  ``v`` is the
    critic value vector shared by both players.
    """

    z_hat: np.ndarray  # (2S, W)
    z: np.ndarray      # (2S, W)
    v: np.ndarray      # (S,)
    t: int
    eta: float
    n_actions_p1: int
    n_actions_p2: int

    @property
    def x_hat(self) -> np.ndarray:
        return self.z_hat[: self.v.shape[0], : self.n_actions_p1]

    @property
    def x(self) -> np.ndarray:
        return self.z[: self.v.shape[0], : self.n_actions_p1]

    @property
    def y_hat(self) -> np.ndarray:
        return self.z_hat[self.v.shape[0]:, : self.n_actions_p2]

    @property
    def y(self) -> np.ndarray:
        return self.z[self.v.shape[0]:, : self.n_actions_p2]

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
    n_states, n_a, n_b = game.loss.shape
    x, y = _initial_strategies(game, init_x, init_y)
    z_hat = np.zeros((2 * n_states, max(n_a, n_b)))
    z_hat[:n_states, :n_a] = x
    z_hat[n_states:, :n_b] = y
    return LearnerState(z_hat=z_hat, z=z_hat.copy(), v=np.zeros(n_states), t=1,
                        eta=float(eta), n_actions_p1=n_a, n_actions_p2=n_b)


def _initial_strategies(game: MarkovGame, init_x, init_y) -> tuple[np.ndarray, np.ndarray]:
    """Both players' checked initial strategies, uniform where none is given."""
    n_states, n_a, n_b = game.loss.shape
    if init_x is None:
        x = np.full((n_states, n_a), 1.0 / n_a)
    else:
        x = np.array(init_x, dtype=np.float64)
    if init_y is None:
        y = np.full((n_states, n_b), 1.0 / n_b)
    else:
        y = np.array(init_y, dtype=np.float64)
    for name, arr, width in (("init_x", x, n_a), ("init_y", y, n_b)):
        if arr.shape != (n_states, width):
            raise ValueError(f"{name} has shape {arr.shape}, expected {(n_states, width)}")
        problem = distribution_rows_error(name, arr)
        if problem:
            raise ValueError(problem)
    return x, y


def ogda_step(state: LearnerState, ell: np.ndarray, r: np.ndarray,
              rho: np.ndarray) -> LearnerState:
    """One optimistic gradient step for both players; the critic is untouched.

    Anchor update then a lookahead step with the same gradient:
        x_hat' = P(x_hat - eta * ell);  x' = P(x_hat' - eta * ell)
        y_hat' = P(y_hat + eta * r);    y' = P(y_hat' + eta * r)
    Both players' rows go through one projection per half-step on the stacked
    layout: the gradient ``g`` holds ``eta * ell`` in player 1's rows,
    ``r * (-eta)`` in player 2's and ``_PAD`` in the padded columns, and
    ``z_hat' = P(z_hat - g)``, ``z' = P(z_hat' - g)``.  Both products are
    written straight into ``g``.  Negation is exact, so
    ``r * (-eta) == -(eta * r)`` and ``a - (-b) == a + b`` in IEEE arithmetic,
    and the projection works row by row, so every real entry is bit-identical
    to the four separate projections and no row depends on another.

    The estimates are the ones an estimator's ``estimate_into`` yields:
    player 1's payoffs ``ell``, player 2's ``r`` and the shared ``rho``.
    Estimates whose shapes are not ``(S, A)``, ``(S, B)`` and ``(S,)`` raise
    ValueError before any arithmetic.  One finiteness test on ``g`` and
    ``rho`` then raises ValueError, naming the estimate, if one holds NaN or
    inf, or naming ``eta`` if its product with a finite estimate overflows.
    Either way the state is unchanged.  A row that the projection cannot
    place on the simplex raises the projection's ValueError.
    """
    n_states = state.v.shape[0]
    n_a, n_b = state.n_actions_p1, state.n_actions_p2
    shapes = (np.shape(ell), np.shape(r), np.shape(rho))
    expected = ((n_states, n_a), (n_states, n_b), (n_states,))
    if shapes != expected:
        name, shape, want = next(item for item in zip(("ell", "r", "rho"), shapes, expected)
                                 if item[1] != item[2])
        raise ValueError(f"payoff estimate {name} has shape {shape}, expected {want}")
    z_hat, z = _ogda_update(state.z_hat, np.full(state.z_hat.shape, _PAD), ell, r, rho,
                            state.eta)
    return LearnerState(z_hat=z_hat, z=z, v=state.v, t=state.t + 1, eta=state.eta,
                        n_actions_p1=n_a, n_actions_p2=n_b)


def _ogda_update(z_hat: np.ndarray, g: np.ndarray, ell: np.ndarray, r: np.ndarray,
                 rho: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic and checks of ``ogda_step`` on checked estimates.

    Writes ``eta * ell`` and ``r * (-eta)`` into the players' blocks of the
    gradient ``g``, whose padded columns must hold ``_PAD``, and returns the
    new ``(z_hat, z)``.  ``g`` is the only array written; the estimates are
    read again only to name the cause when the finiteness test fails.
    """
    n_states = rho.shape[0]
    np.multiply(ell, eta, out=g[:n_states, :ell.shape[1]])
    np.multiply(r, -eta, out=g[n_states:, :r.shape[1]])
    if not (np.isfinite(g).all() and np.isfinite(rho).all()):
        for name, estimate in (("ell", ell), ("r", r), ("rho", rho)):
            if not np.isfinite(estimate).all():
                raise ValueError(f"non-finite payoff estimate {name} passed to ogda_step")
        raise ValueError(f"eta={eta!r} times a payoff estimate overflows in ogda_step")
    step = z_hat - g
    z_hat = project_simplex(step)
    return z_hat, project_simplex(np.subtract(z_hat, g, out=step))


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
    problem = distribution_rows_error("opponent_y", y)
    if problem:
        raise ValueError(problem)
    loss, trans = _induced_mdp(game, y, fixed_side=2)
    return MarkovGame(loss=loss[:, :, None], transition=trans[:, :, None, :], gamma=game.gamma,
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
    try:
        eta = float(config.eta)
    except (TypeError, ValueError):
        raise ValueError(f"step size must be a number or 'auto', got eta={config.eta!r}") from None
    # NaN fails the test too, so it needs no case of its own.
    if not 0.0 < eta < math.inf:
        raise ValueError(f"step size must be finite and positive, got eta={eta!r}")
    if config.strict and eta > cap * (1.0 + 1e-12):
        raise ValueError(
            f"strict mode: eta={eta} exceeds the guaranteed-stable maximum {cap:.6e}"
        )
    return eta


def _prepare_game(game: MarkovGame, config: RunConfig,
                  opponent_y: np.ndarray | None = None) -> MarkovGame:
    """Check a run before anything is solved and return the game it runs on.

    Applies the discount override and folds in a fixed opponent, then checks
    the game, ``iterations``, ``cadence``, ``eta``, strict ``epsilon``, the
    alpha schedule's name, the initial strategies and the estimator settings,
    in that order.  Builds nothing else: ``run_selfplay`` builds the schedule,
    the state and the estimator of the run.
    """
    if config.gamma is not None and config.gamma != game.gamma:
        game = MarkovGame(loss=game.loss, transition=game.transition,
                          gamma=config.gamma, name=game.name)
    if opponent_y is not None:
        game = reduce_game_for_opponent(game, opponent_y)
    problems = validate_game(game)
    if not config.strict:
        # Off the guarantee regime gamma may lie in [0, 1/2), but never
        # outside [0, 1): the critic's horizon 2/(1-gamma) needs it.
        problems = [p for p in problems if not p.startswith("gamma")]
        if not 0.0 <= game.gamma < 1.0:
            problems.insert(0, f"gamma must lie in [0, 1), got gamma={game.gamma}")
    if problems:
        raise ValueError("invalid game: " + "; ".join(problems))
    if config.iterations < 1:
        raise ValueError("iterations must be >= 1")
    cadence = config.cadence
    if not (isinstance(cadence, numbers.Real) and float(cadence).is_integer() and cadence >= 0):
        raise ValueError(f"cadence must be a nonnegative integer, got cadence={cadence!r}")
    _resolve_eta(config, game)
    if config.strict and not (0.0 <= config.epsilon <= 1.0 / (1.0 - game.gamma)):
        raise ValueError(
            f"strict mode: epsilon={config.epsilon} outside [0, 1/(1-gamma)]"
        )
    _check_alpha_name(config.alpha)
    _initial_strategies(game, config.init_x, config.init_y)
    _exploration_weight(config, game)
    return game


def _exploration_weight(config: RunConfig, game: MarkovGame) -> float | None:
    """The checked exploration weight of a sampled run; None in exact mode."""
    if config.estimator == "exact":
        return None
    if config.estimator != "sampled":
        raise ValueError(f"unknown estimator mode {config.estimator!r}")
    if config.rollout_len < 1:
        raise ValueError("sampled mode requires rollout_len >= 1")
    # The exploration weight; out of [0, 1] raises naming its source.
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
    eps_prime = _exploration_weight(config, game)
    if eps_prime is None:
        return est_mod.ExactEstimator()
    return est_mod.SampledEstimator(
        rollout_len=config.rollout_len,
        epsilon_prime=eps_prime,
        seed=config.seed,
        reset_each_iteration=config.rollout_reset,
    )


def _rows_seed(config: RunConfig) -> int | None:
    """The seed a run's rows depend on: only the sampled estimator reads one."""
    return int(config.seed) if config.estimator == "sampled" else None


def run_selfplay(
    game: MarkovGame,
    config: RunConfig,
    sink: Callable[[metrics_mod.MetricsRow], None] | None = None,
    ground_truth=None,
    iteration_hook: Callable[[int, LearnerState], None] | None = None,
) -> RunResult:
    """Run decentralized self-play for ``config.iterations`` iterations.

    Per iteration: build the critic's stage games, obtain payoff estimates from
    the estimator, take one stacked optimistic step for both players, then
    average the critic toward the shared payoff estimate.  Metric rows are
    produced every ``config.cadence`` iterations (computed on the anchor
    iterates entering the iteration) and pushed to ``sink`` as they appear;
    the movement diagnostics they report are only tracked when ``cadence > 0``,
    and ground truth is solved on demand when metrics are requested.
    Deterministic given the config.
    """
    game = _prepare_game(game, config)
    alpha_fn = make_alpha_schedule(config.alpha, game.gamma)
    start = initial_state(game, eta=_resolve_eta(config, game),
                          init_x=config.init_x, init_y=config.init_y)
    estimator = _build_estimator(config, game)

    cadence = int(config.cadence)
    gt = ground_truth
    if cadence > 0 and gt is None:
        from .groundtruth import shapley_solve
        gt = shapley_solve(game)

    # The iterates live in locals; a LearnerState is built only for the hook
    # and the result.  No array handed out is ever written: each step
    # returns fresh z_hat, z and v, and only the buffers below are reused.
    # The estimator writes the raw estimates into ``ell`` and ``r``, and the
    # step scales them into ``g``, whose padded columns keep _PAD for the
    # whole run.  The raw estimates stay readable, so a failed finiteness
    # test can name its cause without estimating again.
    n_states, n_a, n_b = game.loss.shape
    z_hat, z, v, eta = start.z_hat, start.z, start.v, start.eta
    ell, r = np.empty((n_states, n_a)), np.empty((n_states, n_b))
    g = np.full_like(z, _PAD)
    q_prev = np.zeros_like(game.loss)
    z_prev = np.zeros_like(z)
    j_state = np.zeros(n_states)
    k_state = np.zeros(n_states)
    rows: list[metrics_mod.MetricsRow] = []
    started = time.perf_counter()

    for t in range(1, config.iterations + 1):
        q_t = q_from_v(game, v)
        alpha_t = alpha_fn(t)
        if cadence > 0:
            j_state, k_state, q_step = metrics_mod.diagnostics_update(
                j_state, k_state, z, z_prev, q_t, q_prev, alpha_t
            )
            z_prev, q_prev = z, q_t
        logging_now = cadence > 0 and t % cadence == 0
        rho, est_err = estimator.estimate_into(
            game, z[:n_states, :n_a], z[n_states:, :n_b], v, q_t, ell, r,
            collect_error=logging_now,
        )
        if logging_now:
            row = metrics_mod.make_metrics_row(
                t=t, game=game, ground_truth=gt,
                x_hat=z_hat[:n_states, :n_a], y_hat=z_hat[n_states:, :n_b], q_t=q_t,
                j_max=float(j_state.max()), k_max=float(k_state.max()),
                q_step_max=float(q_step.max()), est_err=est_err,
                wall_clock=time.perf_counter() - started,
            )
            rows.append(row)
            if sink is not None:
                sink(row)
        z_hat, z = _ogda_update(z_hat, g, ell, r, rho, eta)
        v = critic_step(v, rho, alpha_t)
        if iteration_hook is not None:
            iteration_hook(t, LearnerState(z_hat=z_hat, z=z, v=v, t=t + 1, eta=eta,
                                           n_actions_p1=n_a, n_actions_p2=n_b))

    state = LearnerState(z_hat=z_hat, z=z, v=v, t=config.iterations + 1, eta=eta,
                         n_actions_p1=n_a, n_actions_p2=n_b)
    return RunResult(state=state, rows=rows, game=game, ground_truth=gt, config=config)


def run_single_player(
    game: MarkovGame,
    opponent_y: np.ndarray,
    config: RunConfig,
    sink: Callable[[metrics_mod.MetricsRow], None] | None = None,
    ground_truth=None,
    iteration_hook: Callable[[int, LearnerState], None] | None = None,
) -> RunResult:
    """Learn a best response against a fixed stationary opponent.

    Runs the self-play loop on the opponent-reduced game, so the player-1
    iterates follow the same anchor/lookahead/critic updates they would in
    self-play, step for step.  In the metric rows the duality gap column is
    exactly the player's exploitability against the fixed opponent, and the
    distance column measures distance to the best-response strategy set.
    """
    return run_selfplay(
        _prepare_game(game, config, opponent_y), replace(config, gamma=None), sink=sink,
        ground_truth=ground_truth, iteration_hook=iteration_hook,
    )
