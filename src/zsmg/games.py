"""Core types and exact operations for two-player zero-sum discounted Markov games.

A game is a tuple (states, actions for each player, a bounded loss tensor, a
transition kernel, and a discount factor).  Player 1 minimizes the expected
discounted loss, player 2 maximizes it.  Everything in this module is exact
(linear algebra at float64 precision); no learning happens here.

All arrays are plain numpy float64.  ``MarkovGame`` instances are immutable and
safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MarkovGame",
    "JointPolicy",
    "DimensionMismatchError",
    "validate_game",
    "distribution_rows_error",
    "evaluate_policy_pair",
    "q_from_v",
    "best_response",
    "value_upper_bound",
    "uniform_policy",
]


class DimensionMismatchError(ValueError):
    """A policy or value array does not match the game's dimensions."""


@dataclass(frozen=True)
class MarkovGame:
    """Two-player zero-sum discounted Markov game.

    Attributes:
        loss: array of shape (S, A, B); per-step loss paid by player 1,
            expected to lie in [0, 1].
        transition: array of shape (S, A, B, S); ``transition[s, a, b]`` is the
            distribution of the next state.
        gamma: discount factor, expected in [1/2, 1).
    """

    loss: np.ndarray
    transition: np.ndarray
    gamma: float
    name: str = field(default="", compare=False)

    def __post_init__(self):
        loss = np.ascontiguousarray(np.asarray(self.loss, dtype=np.float64))
        trans = np.ascontiguousarray(np.asarray(self.transition, dtype=np.float64))
        if loss.ndim != 3:
            raise DimensionMismatchError(f"loss must have shape (S, A, B), got {loss.shape}")
        if trans.shape != loss.shape + (loss.shape[0],):
            raise DimensionMismatchError(
                f"transition shape {trans.shape} does not match loss shape {loss.shape}"
            )
        loss.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "gamma", float(self.gamma))

    def __reduce__(self):
        # Rebuild through __post_init__ so an unpickled game is read-only too.
        return (MarkovGame, (self.loss, self.transition, self.gamma, self.name))

    @property
    def n_states(self) -> int:
        return self.loss.shape[0]

    @property
    def n_actions_p1(self) -> int:
        return self.loss.shape[1]

    @property
    def n_actions_p2(self) -> int:
        return self.loss.shape[2]


@dataclass(frozen=True)
class JointPolicy:
    """Stationary policy pair: ``x[s]`` over player-1 actions, ``y[s]`` over player-2 actions."""

    x: np.ndarray  # (S, A)
    y: np.ndarray  # (S, B)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))


def value_upper_bound(gamma: float) -> float:
    """Upper bound 1/(1-gamma) on any discounted value when losses lie in [0, 1]."""
    return 1.0 / (1.0 - gamma)


def uniform_policy(game: MarkovGame) -> JointPolicy:
    """Uniform stationary policy pair for ``game``."""
    x = np.full((game.n_states, game.n_actions_p1), 1.0 / game.n_actions_p1)
    y = np.full((game.n_states, game.n_actions_p2), 1.0 / game.n_actions_p2)
    return JointPolicy(x=x, y=y)


def distribution_rows_error(name: str, rows: np.ndarray) -> str | None:
    """Why the rows of the 2-D array ``rows`` are not all probability distributions.

    Returns None when every entry is >= 0 and every row sums to 1 within
    1e-9; otherwise a message naming ``name`` and the first bad row.  The
    comparisons are written so that NaN fails them.
    """
    ok = (rows >= 0.0).all(axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)
    bad = np.flatnonzero(~ok)
    if bad.size == 0:
        return None
    return (f"{name} row {bad[0]} is not a probability distribution: "
            f"{rows[bad[0]].tolist()!r}")


def validate_game(game: MarkovGame, atol: float = 1e-12) -> list[str]:
    """Check semantic invariants; returns a list of violations (empty = valid).

    Checks: losses and transitions finite, losses in [0, 1], transition rows
    are distributions (nonnegative, summing to 1 within ``atol``), and gamma
    in [1/2, 1).  Each violation names the offending entry; non-finite entries
    are reported alone, since the range and sum checks mean nothing on them.
    """
    problems: list[str] = []
    if not (0.5 <= game.gamma < 1.0):
        problems.append(f"gamma must lie in [1/2, 1), got gamma={game.gamma}")
    finite_loss = np.isfinite(game.loss)
    finite_trans = np.isfinite(game.transition)
    for s, a, b in np.argwhere(~finite_loss):
        problems.append(f"non-finite loss at (s={s}, a={a}, b={b}): {float(game.loss[s, a, b])!r}")
    for s, a, b, s2 in np.argwhere(~finite_trans):
        problems.append(
            f"non-finite transition probability at (s={s}, a={a}, b={b}, s'={s2}): "
            f"{float(game.transition[s, a, b, s2])!r}"
        )
    if not (finite_loss.all() and finite_trans.all()):
        return problems
    bad = np.argwhere((game.loss < -atol) | (game.loss > 1.0 + atol))
    for s, a, b in bad:
        problems.append(f"loss out of [0, 1] at (s={s}, a={a}, b={b}): {game.loss[s, a, b]!r}")
    neg = np.argwhere(game.transition < -atol)
    for s, a, b, s2 in neg:
        problems.append(
            f"negative transition probability at (s={s}, a={a}, b={b}, s'={s2}): "
            f"{game.transition[s, a, b, s2]!r}"
        )
    sums = game.transition.sum(axis=3)
    bad = np.argwhere(np.abs(sums - 1.0) > atol)
    for s, a, b in bad:
        problems.append(
            f"transition row (s={s}, a={a}, b={b}) sums to {sums[s, a, b]!r}, expected 1"
        )
    return problems


def _check_policy_dims(game: MarkovGame, policy: JointPolicy) -> None:
    if policy.x.shape != (game.n_states, game.n_actions_p1):
        raise DimensionMismatchError(
            f"player-1 policy shape {policy.x.shape} does not match "
            f"(S, A) = {(game.n_states, game.n_actions_p1)}"
        )
    if policy.y.shape != (game.n_states, game.n_actions_p2):
        raise DimensionMismatchError(
            f"player-2 policy shape {policy.y.shape} does not match "
            f"(S, B) = {(game.n_states, game.n_actions_p2)}"
        )


def evaluate_policy_pair(
    game: MarkovGame, policy: JointPolicy, residual_tol: float = 1e-10
) -> np.ndarray:
    """Exact discounted value V[s] of a stationary policy pair, per starting state.

    Solves the linear system (I - gamma * P_xy) V = loss_xy by dense LU.  The
    solution is verified against the Bellman residual; a residual above
    ``residual_tol`` (scaled by the value magnitude) raises ``ArithmeticError``.
    """
    _check_policy_dims(game, policy)
    loss_xy = np.einsum("sab,sa,sb->s", game.loss, policy.x, policy.y)
    p_xy = np.einsum("sabt,sa,sb->st", game.transition, policy.x, policy.y)
    mat = np.eye(game.n_states) - game.gamma * p_xy
    v = np.linalg.solve(mat, loss_xy)
    residual = np.max(np.abs(v - (loss_xy + game.gamma * (p_xy @ v))))
    scale = max(1.0, float(np.max(np.abs(v))))
    if residual > residual_tol * scale:
        raise ArithmeticError(
            f"policy evaluation residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    return v


def q_from_v(game: MarkovGame, v: np.ndarray) -> np.ndarray:
    """One-step lookahead table Q[s, a, b] = loss[s, a, b] + gamma * E_{s'}[v[s']].

    This is the bilinear stage game induced by continuation values ``v``; it is a
    gamma-contraction in ``v`` under the max-abs norm.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (game.n_states,):
        raise DimensionMismatchError(
            f"value vector shape {v.shape} does not match (S,) = {(game.n_states,)}"
        )
    return game.loss + game.gamma * (game.transition @ v)


def _induced_mdp(game: MarkovGame, fixed_policy: np.ndarray, fixed_side: int):
    """Collapse the fixed player out of the game, leaving the free player's MDP."""
    if fixed_side == 2:
        if fixed_policy.shape != (game.n_states, game.n_actions_p2):
            raise DimensionMismatchError(
                f"fixed player-2 policy shape {fixed_policy.shape} does not match "
                f"(S, B) = {(game.n_states, game.n_actions_p2)}"
            )
        loss = np.einsum("sab,sb->sa", game.loss, fixed_policy)
        trans = np.einsum("sabt,sb->sat", game.transition, fixed_policy)
    elif fixed_side == 1:
        if fixed_policy.shape != (game.n_states, game.n_actions_p1):
            raise DimensionMismatchError(
                f"fixed player-1 policy shape {fixed_policy.shape} does not match "
                f"(S, A) = {(game.n_states, game.n_actions_p1)}"
            )
        loss = np.einsum("sab,sa->sb", game.loss, fixed_policy)
        trans = np.einsum("sabt,sa->sbt", game.transition, fixed_policy)
    else:
        raise ValueError(f"fixed_side must be 1 or 2, got {fixed_side!r}")
    return loss, trans


def best_response(
    game: MarkovGame,
    fixed_policy: np.ndarray,
    fixed_side: int,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal response of the free player against a fixed stationary opponent.

    With player 2 fixed (``fixed_side=2``), player 1 minimizes; with player 1
    fixed, player 2 maximizes.  The induced MDP is solved by policy iteration
    (greedy improvement + exact policy evaluation), which terminates at an
    optimal deterministic policy.  Returns ``(value, policy)`` where ``value``
    has shape (S,) and ``policy`` is a one-hot array over the free player's
    actions.  The Bellman residual of the returned value is guaranteed at most
    ``tol * (1 - gamma)`` (raises ``ArithmeticError`` otherwise).
    """
    loss, trans = _induced_mdp(game, np.asarray(fixed_policy, dtype=np.float64), fixed_side)
    minimize = fixed_side == 2
    n_states, n_act = loss.shape
    pick = np.argmin if minimize else np.argmax

    actions = pick(loss, axis=1)
    eye = np.eye(n_states)
    rows = np.arange(n_states)
    for _ in range(max_iter):
        p_pi = trans[rows, actions]          # (S, S)
        l_pi = loss[rows, actions]           # (S,)
        v = np.linalg.solve(eye - game.gamma * p_pi, l_pi)
        q = loss + game.gamma * (trans @ v)  # (S, n_act)
        # Switch actions only on strict improvement; keeping the incumbent on
        # (near-)ties prevents cycling between equally good actions.
        q_cur = q[rows, actions]
        q_best = q.min(axis=1) if minimize else q.max(axis=1)
        tie_tol = 1e-13 * max(1.0, float(np.max(np.abs(v))))
        improves = (q_cur - q_best > tie_tol) if minimize else (q_best - q_cur > tie_tol)
        if not improves.any():
            break
        actions = np.where(improves, pick(q, axis=1), actions)
    else:
        raise ArithmeticError("policy iteration failed to terminate")

    bellman = q.min(axis=1) if minimize else q.max(axis=1)
    residual = float(np.max(np.abs(v - bellman)))
    if residual > tol * (1.0 - game.gamma) * max(1.0, float(np.max(np.abs(v)))):
        raise ArithmeticError(f"best-response Bellman residual {residual:.3e} too large")
    policy = np.zeros((n_states, n_act))
    policy[rows, actions] = 1.0
    return v, policy
