"""Decentralized optimistic gradient learner with a slowly-updated critic.

Each player runs projected optimistic gradient steps on its per-state mixed
strategy against the stage games induced by a critic value vector; the critic
itself moves by a decaying average toward the players' payoff estimate.  The
loop sees the game only through its payoff estimates: read exactly from the
critic's stage games, or averaged along rollouts by each run's sampled
estimator.  Both modes feed the identical update path.  The loop carries a
leading run axis: same-shape runs step together, and a single run is a batch
of one.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from operator import truediv
from typing import Any, Callable

import numpy as np

from . import estimators as est_mod
from . import metrics as metrics_mod
from .games import (MarkovGame, JointPolicy, _check_gamma, _induced_mdp, _integer,
                    distribution_rows_error, validate_game)

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
    "run_selfplay_batch",
    "run_single_player",
]


@lru_cache(maxsize=64)
def _projection_constants(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-shape constants of ``project_simplex``: the ranks ``1..n``
    as floats and, shaped ``shape[:-1]``, the flat index of each row's first
    entry minus one.  A shape with no last axis, or an empty one, raises
    ``ValueError``; the cache keeps the check off the hot path."""
    if not shape or shape[-1] == 0:
        raise ValueError(f"project_simplex needs rows of at least one entry, got shape {shape}")
    n = shape[-1]
    ranks = np.arange(1, n + 1, dtype=np.float64)
    offsets = np.arange(-1, math.prod(shape) - 1, n).reshape(shape[:-1])
    for array in (ranks, offsets):
        array.flags.writeable = False
    return ranks, offsets


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex (last axis).

    Sort-and-threshold algorithm (Duchi et al., ICML 2008): find the largest
    prefix of the descending sort with positive water level, subtract the
    level, clip at zero.  Accepts a single vector or a batch of row vectors;
    rows are processed by the same elementwise arithmetic either way, so
    batched and single calls agree bit-for-bit.  The per-shape constants are
    cached read-only, and ufunc calls write levels and output in place.

    A row whose support would be empty raises ``ValueError`` naming the row
    (counted over the leading axes in C order) and its largest entry, and no
    row ever reads another.  In exact arithmetic the first threshold test,
    ``u_0 + (1 - u_0) / 1 > 0``, always holds; it fails only when rounding
    swamps it (a largest entry of magnitude about 1e16 or more) or the row
    holds NaN, +inf or nothing but -inf.  Such a row has no meaningful
    projection, so it is not clamped.  An input with no last axis, or an
    empty one, raises ``ValueError`` naming its shape.

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
    # levels[..., j-1] = (css_j - 1) / j, the water level of a support of the
    # top j entries; tau is the level at rho.  ``u > levels`` is bit-for-bit the
    # Duchi test ``u + (1 - css) / j > 0``: IEEE rounding is sign-symmetric, so
    # a rounded difference is positive exactly when the exact one is.
    levels = np.add.accumulate(u, axis=-1)
    np.divide(np.subtract(levels, 1.0, out=levels), ranks, out=levels)
    rho = np.add.reduce(np.greater(u, levels), axis=-1)
    if np.count_nonzero(rho) < rho.size:
        row = int(np.argmin(rho))
        largest = float(np.max(v.reshape(rho.size, -1)[row]))
        raise ValueError(
            f"project_simplex: row {row} has empty support: its largest entry "
            f"{largest!r} fails the threshold test at rank 1 (rounding swamps the "
            f"test from a magnitude of about 1e16; NaN and inf always fail it)"
        )
    tau = levels.ravel()[offsets + rho]
    return np.maximum(out := np.subtract(v, tau[..., None]), 0.0, out=out)


def alpha_schedule(t: int, gamma: float) -> float:
    """Critic averaging weight (H+1)/(H+t) with horizon H = 2/(1-gamma).

    Equals 1 at t=1 (the critic jumps to the first payoff estimate), is
    non-increasing, and decays like 1/t.  A discount outside [0, 1) raises
    ``ValueError``.
    """
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    _check_gamma(gamma)
    h = 2.0 / (1.0 - gamma)
    return (h + 1.0) / (h + t)


def make_alpha_schedule(name: str, gamma: float) -> Callable[[int], float]:
    """Critic step-size schedule by name: 'horizon' (default) or 'harmonic' 1/t."""
    return _schedule(_choice("alpha", name, _RUN_FIELDS["alpha"][1]), gamma)


def _schedule(name: str, gamma: float) -> Callable[[int], float]:
    """The checked schedule ``name`` as a picklable callable."""
    return partial(alpha_schedule, gamma=gamma) if name == "horizon" else partial(truediv, 1.0)


def eta_max(gamma: float, n_states: int) -> float:
    """Largest step size with a convergence guarantee: 1e-4 * sqrt((1-gamma)^5 / S).
    A discount outside [0, 1), or an ``n_states`` that is not an integer >= 1,
    raises ``ValueError``."""
    _check_gamma(gamma)
    return 1e-4 * np.sqrt((1.0 - gamma) ** 5 / _integer("n_states", n_states, 1))


# Gradient entry in the padded columns of the stacked layout.  A padded iterate
# entry is 0, so each half-step projects 0 - 1e30: far below every real entry,
# which keeps the real bits and projects to 0.  Finite on purpose: ogda_step
# tests the whole gradient, pad included, for finiteness in one pass.
_PAD = 1e30

# Most iterations the loop keeps for one movement-diagnostics interval, so the
# iterates it holds stay bounded whatever the cadence.
_INTERVAL = 64

# Most logged iterations whose metric rows wait for one make_metrics_row pass:
# it bounds the iterates held and how many logged iterations a row can lag.
_ROWS_PER_PASS = 64


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
    shape = game.loss.shape
    z_hat = _stacked(_strategy_rows("init_x", init_x, 1, shape),
                     _strategy_rows("init_y", init_y, 2, shape))
    return LearnerState(z_hat=z_hat, z=z_hat.copy(), v=np.zeros(shape[0]), t=1,
                        eta=float(eta), n_actions_p1=shape[1], n_actions_p2=shape[2])


def _stacked(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Both players' strategies in the stacked ``(2S, W)`` layout, padding 0."""
    (n_states, n_a), n_b = x.shape, y.shape[1]
    z_hat = np.zeros((2 * n_states, max(n_a, n_b)))
    z_hat[:n_states, :n_a] = x
    z_hat[n_states:, :n_b] = y
    return z_hat


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

    The estimates are the ones ``exact_triple_from_q`` or a
    ``SampledEstimator`` yields: player 1's payoffs ``ell``, player 2's ``r``
    and the shared ``rho``.
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
    g = np.full(state.z_hat.shape, _PAD)
    z_hat, z = _ogda_update(state.z_hat, g, (g[:n_states, :n_a], g[n_states:, :n_b]),
                            ell, r, rho, state.eta)
    return LearnerState(z_hat=z_hat, z=z, v=state.v, t=state.t + 1, eta=state.eta,
                        n_actions_p1=n_a, n_actions_p2=n_b)


def _ogda_update(z_hat: np.ndarray, g: np.ndarray, g_blocks: tuple, ell: np.ndarray,
                 r: np.ndarray, rho: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic and checks of ``ogda_step`` on checked estimates.

    Writes ``eta * ell`` and ``r * (-eta)`` into ``g_blocks``, the views of
    the players' blocks of the gradient ``g``, whose padded columns must hold
    ``_PAD``, and returns the new ``(z_hat, z)``.  ``g`` is the only array
    written; the estimates are read again only to name the cause when the
    finiteness test fails.  Any leading axes (the loop's run axis) ride
    along: every array carries them.
    """
    np.multiply(ell, eta, out=g_blocks[0])
    np.multiply(r, -eta, out=g_blocks[1])
    if not (np.logical_and.reduce(np.isfinite(g), axis=None)
            and np.logical_and.reduce(np.isfinite(rho), axis=None)):
        for name, estimate in (("ell", ell), ("r", r), ("rho", rho)):
            if not np.logical_and.reduce(np.isfinite(estimate), axis=None):
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
    y = _strategy_rows("opponent_y", opponent_y, 2, game.loss.shape)
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
    ``rollout_reset`` is set.  ``_RUN_FIELDS`` gives each field's kind.
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


def _integers(name, value, minimum, shape=None) -> list[int]:
    """A list, tuple or array of integers >= ``minimum``."""
    _instance(name, value, (list, tuple, np.ndarray))
    return [_integer(name, item, minimum) for item in value]


def _number(value) -> float | None:
    """A real number, or a string that float() reads, as a float; else None (bools too)."""
    try:
        return None if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _real(name, value, interval, shape=None) -> float:
    """A number in ``interval``, written like ``'[0, 1)'``; NaN lies in none."""
    x, (low, high) = _number(value), map(float, interval[1:-1].split(","))
    if (x is None or not low <= x <= high or (x == low and interval[0] == "(")
            or (x == high and interval[-1] == ")")):
        raise ValueError(f"{name}={value!r} must lie in {interval}")
    return x


def _step_size(name, value, _, shape=None) -> float | str:
    """'auto', or a finite positive number."""
    if isinstance(value, str) and value == "auto":
        return value
    eta = _number(value)
    if eta is None:
        raise ValueError(f"step size must be a number or 'auto', got {name}={value!r}")
    if not 0.0 < eta < math.inf:
        raise ValueError(f"step size must be finite and positive, got {name}={eta!r}")
    return eta


def _instance(name, value, types, shape=None):
    """An instance of one of ``types``: for a bool field, no 'false' or 0."""
    if not isinstance(value, types):
        kinds = " or ".join(dict.fromkeys(t.__name__ for t in types))
        raise ValueError(f"{name} must be a {kinds}, got {name}={value!r}")
    return value


def _choice(name, value, choices, shape=None) -> str:
    """One of ``choices[1:]``; ``choices[0]`` says what they name."""
    what, *names = choices
    if not (isinstance(value, str) and value in names):
        raise ValueError(f"unknown {what}: expected {' or '.join(map(repr, names))}, "
                         f"got {name}={value!r}")
    return value


def _strategy_rows(name, value, side, shape) -> np.ndarray:
    """Player ``side``'s ``(S, shape[side])`` distribution rows (within 1e-9); uniform if None."""
    want = (shape[0], shape[side])
    if value is None:
        return np.full(want, 1.0 / want[1])
    try:
        rows = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.shape != want:
        raise ValueError(f"{name} must be None or an array of shape {want}, got {name}={value!r}")
    problem = distribution_rows_error(name, rows)
    if problem:
        raise ValueError(problem)
    return rows


def _optional(kind):
    """``kind``, with None accepted as well."""
    return lambda name, value, arg, shape=None: (
        None if value is None else kind(name, value, arg, shape))


# Every RunConfig field's kind and the argument ``_check_fields`` passes it.
_RUN_FIELDS = {
    "iterations": (_integer, 1),
    "eta": (_step_size, None),
    "alpha": (_choice, ("alpha schedule", "horizon", "harmonic")),
    "estimator": (_choice, ("estimator mode", "exact", "sampled")),
    "rollout_len": (_integer, 0),
    "epsilon": (_real, "[0, inf)"),
    "epsilon_prime": (_optional(_real), "[0, 1]"),
    "seed": (_integer, 0),
    "init_x": (_strategy_rows, 1),
    "init_y": (_strategy_rows, 2),
    "cadence": (_integer, 0),
    "strict": (_instance, (bool, np.bool_)),
    "gamma": (_optional(_real), "[0, 1)"),
    "rollout_reset": (_instance, (bool, np.bool_)),
}


def _check_fields(obj, table: dict, shape=None) -> dict:
    """Each field of ``obj`` in ``table`` order, as ``kind(name, value, arg, shape)``
    returns it, or ValueError naming both; ``shape`` is the game's (S, A, B)."""
    return {name: kind(name, getattr(obj, name), arg, shape)
            for name, (kind, arg) in table.items()}


# A checked run and what its loop reads; ``shared`` is what a batch shares.
_Run = namedtuple("_Run", "game config shared alpha_fn z_hat seed rollout_reset")


def _setup(game: MarkovGame, config: RunConfig, opponent_y: np.ndarray | None = None) -> _Run:
    """Check a run before anything is solved and resolve what its loop reads.

    Folds in a fixed opponent, walks ``_RUN_FIELDS``, applies the discount
    override and checks the game; then resolves ``eta`` and the exploration
    weight and checks what strict and sampled mode ask of them."""
    if opponent_y is not None:
        game = reduce_game_for_opponent(game, opponent_y)
    f = _check_fields(config, _RUN_FIELDS, game.loss.shape)
    if f["gamma"] is not None:
        game = replace(game, gamma=f["gamma"])
    # Off the guarantee regime gamma may lie in [0, 1/2), but never outside
    # [0, 1): the critic's horizon 2/(1-gamma) needs it.
    problems = [p for p in validate_game(game) if f["strict"] or not p.startswith("gamma")]
    if not (f["strict"] or 0.0 <= game.gamma < 1.0):
        problems.insert(0, f"gamma must lie in [0, 1), got gamma={game.gamma}")
    if problems:
        raise ValueError("invalid game: " + "; ".join(problems))
    cap = eta_max(game.gamma, game.n_states)
    eta = cap if f["eta"] == "auto" else f["eta"]
    if f["strict"] and eta > cap * (1.0 + 1e-12):
        raise ValueError(f"strict mode: eta={eta} exceeds the guaranteed-stable maximum {cap:.6e}")
    if f["strict"] and f["epsilon"] > 1.0 / (1.0 - game.gamma):
        raise ValueError(f"strict mode: epsilon={config.epsilon} outside [0, 1/(1-gamma)]")
    sampled = f["estimator"] == "sampled"
    if sampled and f["rollout_len"] < 1:
        raise ValueError(f"sampled mode requires rollout_len >= 1, "
                         f"got rollout_len={config.rollout_len!r}")
    eps_prime = f["epsilon_prime"] if sampled else None
    if sampled and eps_prime is None:
        eps_prime = float((1.0 - game.gamma) * f["epsilon"])
        if eps_prime > 1.0:
            raise ValueError(f"epsilon_prime = (1 - gamma) * epsilon = (1 - {game.gamma!r}) * "
                             f"{config.epsilon!r} = {eps_prime!r} must lie in [0, 1]")
    shared = dict(shape=game.loss.shape, gamma=game.gamma, eta=eta, alpha=f["alpha"],
                  iterations=f["iterations"], cadence=f["cadence"], estimator=f["estimator"],
                  rollout_len=f["rollout_len"] if sampled else None, epsilon_prime=eps_prime)
    return _Run(game, config, shared, _schedule(f["alpha"], game.gamma),
                _stacked(f["init_x"], f["init_y"]), f["seed"], f["rollout_reset"])


def run_selfplay(
    game: MarkovGame,
    config: RunConfig,
    sink: Callable[[metrics_mod.MetricsRow], None] | None = None,
    ground_truth=None,
    iteration_hook: Callable[[int, LearnerState], None] | None = None,
) -> RunResult:
    """Run decentralized self-play for ``config.iterations`` iterations.

    Per iteration: build the critic's stage games, read or sample the payoff
    estimates, take one stacked optimistic step for both players, then
    average the critic toward the shared payoff estimate.  Metric rows are
    logged every ``config.cadence`` iterations (computed on the anchor
    iterates entering the iteration, with ``wall_clock`` read there) and
    evaluated in passes: one ``make_metrics_row`` call per
    ``_ROWS_PER_PASS`` logged iterations, and one at the last.  ``sink``
    receives each pass's rows in order, so a row reaches it at most 63
    logged iterations late, and every row before the call returns; an error
    in a row's metrics is raised by the pass that holds that row, and an
    error elsewhere drops the rows of the open pass.  The
    movement diagnostics the rows report are only tracked when
    ``cadence > 0``, in intervals that end at logged iterations and not past
    the last one, and ground truth is solved on demand when metrics are
    requested.
    Deterministic given the config.  This is the batch loop of
    ``run_selfplay_batch`` with a batch of one.
    """
    return _run_batch([_setup(game, config)], [ground_truth], sink, iteration_hook)[0]


def run_selfplay_batch(games, configs, ground_truths=None) -> list[RunResult]:
    """Run same-shape self-play runs in one loop and return one result per run.

    Run ``i`` is ``run_selfplay(games[i], configs[i],
    ground_truth=ground_truths[i])``, and its iterates and metric rows keep
    the bits of that call; only the ``wall_clock`` debug field differs, as it
    counts from the start of the batch and the rows of one logged iteration
    share it.  The loop's arrays carry a leading run axis, so one projection
    per half-step, one critic step, one diagnostics update per interval and
    one ``make_metrics_row`` call per pass serve every run, and exact
    estimates are one ``exact_triple_from_q`` call over the states of all
    runs.  A pass stacks up to ``_ROWS_PER_PASS`` logged iterations of every
    run on the run axis, so one ``game_duality_gap`` and one
    ``dist_to_optimal_sets`` call per shared game serve them all.  In sampled
    mode exploration is mixed once per player over all runs, and each run
    rolls out on its own rows of the mixed strategies with its own
    ``SampledEstimator``, bound to the run's game, with its own generator; at
    logged iterations one ``exact_triple_from_q`` call over the
    mixed strategies gives every run's estimate error.
    Ground truth is solved per run where rows need it and none is given.

    The runs must share the shape ``(S, A, B)``, ``gamma``, the resolved
    ``eta``, ``alpha``, ``iterations``, ``cadence``, ``estimator`` and, in
    sampled mode, ``rollout_len`` and the exploration weight
    ``epsilon_prime``.  Every config is checked first, and a field the runs
    do not share raises ValueError naming it, all before anything is solved.
    An empty batch raises ValueError too.
    """
    if ground_truths is None:
        ground_truths = [None] * len(configs)
    if not len(games) == len(configs) == len(ground_truths):
        raise ValueError(f"a batch needs one config and one ground truth per game, got "
                         f"{len(games)} games, {len(configs)} configs and "
                         f"{len(ground_truths)} ground truths")
    if not configs:
        raise ValueError("a batch needs at least one run")
    return _run_batch([_setup(game, config) for game, config in zip(games, configs)],
                      ground_truths)


def _run_batch(runs: list[_Run], ground_truths, sink=None, iteration_hook=None
               ) -> list[RunResult]:
    """The loop of ``run_selfplay_batch`` over set-up runs; ``sink`` and
    ``iteration_hook`` see every run's rows and states, in run order.

    A logged iteration keeps references to what its rows read, and a pass
    evaluates the kept ones in one ``make_metrics_row`` call when
    ``_ROWS_PER_PASS`` are pending or at the last logged iteration, in
    place of one call per logged iteration.  ``sink`` gets the rows pass by
    pass, in (t, run) order."""
    key = runs[0].shared
    for index, run in enumerate(runs[1:], 1):
        for name, value in run.shared.items():
            if value != key[name]:
                raise ValueError(f"batched runs must share {name}: run 0 has "
                                 f"{key[name]!r}, run {index} has {value!r}")

    games, n_runs = [run.game for run in runs], len(runs)
    gamma, eta, cadence, iterations = key["gamma"], key["eta"], key["cadence"], key["iterations"]
    n_states, n_a, n_b = key["shape"]
    alpha_fn = runs[0].alpha_fn
    exact = key["estimator"] == "exact"
    # Exact estimates read only the stage games and strategies, so one
    # exact_triple_from_q call serves every run; sampled runs each roll out
    # with their own estimator and generator on the stack mixed once per player.
    eps_prime = key["epsilon_prime"]
    estimators = [] if exact else [
        est_mod.SampledEstimator(run.game, key["rollout_len"], run.seed, run.rollout_reset)
        for run in runs]
    if cadence > 0 and None in ground_truths:
        from .groundtruth import shapley_solve
        ground_truths = [shapley_solve(game) if gt is None else gt
                         for game, gt in zip(games, ground_truths)]

    # The iterates live in locals with a leading run axis; a LearnerState is
    # built only for the hook and the results.  No array handed out is ever
    # written: each step returns fresh z_hat, z and v, and only the buffers
    # below are reused.  The estimates are written raw into ``ell``
    # and ``r``, and the step scales them into ``g_blocks``, views of ``g``
    # made once, whose padded columns keep _PAD for the whole run.  The raw
    # estimates stay readable, so a failed finiteness test can name its
    # cause without estimating again.
    loss = np.stack([game.loss for game in games])
    transition = np.stack([game.transition for game in games])
    z_hat = np.stack([run.z_hat for run in runs])
    z, v = z_hat.copy(), np.zeros((n_runs, n_states))
    ell, r = np.empty((n_runs, n_states, n_a)), np.empty((n_runs, n_states, n_b))
    g = np.full_like(z, _PAD)
    g_blocks = (g[:, :n_states, :n_a], g[:, n_states:, :n_b])
    # The movement diagnostics advance once per interval: the loop keeps the
    # fresh z, q_t and alpha_t of each iteration up to the last logged one,
    # and hands them over at each logged iteration or after _INTERVAL steps.
    # z_prev and q_prev are the ones before the open interval.
    last_logged = cadence * (iterations // cadence) if cadence > 0 else 0
    kept_z, kept_q, kept_alpha = [], [], []
    q_prev = np.zeros_like(loss)
    z_prev = np.zeros_like(z)
    j_state = np.zeros((n_runs, n_states))
    k_state = np.zeros((n_runs, n_states))
    est_err = None
    # What each logged iteration's rows read, until its pass; references
    # suffice, as no array handed out is ever written.
    pending: list[tuple] = []
    rows: list[list[metrics_mod.MetricsRow]] = [[] for _ in games]
    started = time.perf_counter()

    def state_of(run: int, t: int) -> LearnerState:
        return LearnerState(z_hat=z_hat[run], z=z[run], v=v[run], t=t, eta=eta,
                            n_actions_p1=n_a, n_actions_p2=n_b)

    for t in range(1, iterations + 1):
        # q_from_v for every run at once, with the same arithmetic per run.  Only
        # exact estimates and the logged intervals' diagnostics and rows read it.
        if exact or t <= last_logged:
            q_t = loss + gamma * (transition @ v[:, None, None, :, None])[..., 0]
        alpha_t = alpha_fn(t)
        logging_now = cadence > 0 and t % cadence == 0
        if t <= last_logged:
            kept_z.append(z)
            kept_q.append(q_t)
            kept_alpha.append(alpha_t)
            if logging_now or len(kept_alpha) == _INTERVAL:
                j_state, k_state, q_step = metrics_mod.diagnostics_update(
                    j_state, k_state, kept_z, z_prev, kept_q, q_prev, kept_alpha
                )
                z_prev, q_prev = z, q_t
                kept_z, kept_q, kept_alpha = [], [], []
        if exact:
            rho = est_mod.exact_triple_from_q(q_t, z[:, :n_states, :n_a], z[:, n_states:, :n_b],
                                              ell, r)
        else:
            x_mix = est_mod.explore_mix(z[:, :n_states, :n_a], eps_prime)
            y_mix = est_mod.explore_mix(z[:, n_states:, :n_b], eps_prime)
            rho = np.empty((n_runs, n_states))
            for run, estimator in enumerate(estimators):
                rho[run] = estimator.estimate_into(x_mix[run], y_mix[run], v[run],
                                                   ell[run], r[run])
            if logging_now:
                # Each run's error is the largest deviation of any estimate
                # from the exact one for its exploration-mixed strategies.
                exact_ell, exact_r = np.empty_like(ell), np.empty_like(r)
                exact_rho = est_mod.exact_triple_from_q(q_t, x_mix, y_mix, exact_ell, exact_r)
                est_err = np.maximum(np.maximum(np.abs(ell - exact_ell).max(axis=(1, 2)),
                                                np.abs(r - exact_r).max(axis=(1, 2))),
                                     np.abs(rho - exact_rho).max(axis=1)).tolist()
        if logging_now:
            pending.append((t, z_hat, q_t, j_state.max(axis=-1), k_state.max(axis=-1),
                            q_step.max(axis=-1), est_err, time.perf_counter() - started))
            if len(pending) == _ROWS_PER_PASS or t == last_logged:
                for item, row in enumerate(_metrics_pass(pending, games, ground_truths)):
                    rows[item % n_runs].append(row)
                    if sink is not None:
                        sink(row)
                pending = []
        z_hat, z = _ogda_update(z_hat, g, g_blocks, ell, r, rho, eta)
        v = critic_step(v, rho, alpha_t)
        if iteration_hook is not None:
            for run in range(n_runs):
                iteration_hook(t, state_of(run, t + 1))

    return [RunResult(state=state_of(index, iterations + 1), rows=rows[index], game=run.game,
                      ground_truth=ground_truths[index], config=run.config)
            for index, run in enumerate(runs)]


def _metrics_pass(pending: list[tuple], games: list[MarkovGame], ground_truths: list
                  ) -> list[metrics_mod.MetricsRow]:
    """The metric rows of the ``pending`` logged iterations of every run from one
    ``make_metrics_row`` call, logged-iteration-major and run-minor.  Each entry
    is ``(t, z_hat, q_t, j_max, k_max, q_step_max, est_err, wall_clock)`` with
    the run axis leading its arrays and ``est_err`` a list or None."""
    ts, z_hats, q_ts, j_max, k_max, q_step_max, est_errs, clocks = zip(*pending)
    n_states, n_a, n_b = games[0].loss.shape
    z_hat = np.concatenate(z_hats)
    return metrics_mod.make_metrics_row(
        t=[t for t in ts for _ in games], game=games * len(pending),
        ground_truth=ground_truths * len(pending),
        x_hat=z_hat[:, :n_states, :n_a], y_hat=z_hat[:, n_states:, :n_b],
        q_t=np.concatenate(q_ts), j_max=np.concatenate(j_max), k_max=np.concatenate(k_max),
        q_step_max=np.concatenate(q_step_max),
        est_err=None if est_errs[0] is None else [err for errs in est_errs for err in errs],
        wall_clock=[clock for clock in clocks for _ in games],
    )


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
    return _run_batch([_setup(game, config, opponent_y)], [ground_truth], sink,
                      iteration_hook)[0]
