"""Core types and exact operations for two-player zero-sum discounted Markov games.

A game is a tuple (states, actions for each player, a bounded loss tensor, a
transition kernel, and a discount factor).  Player 1 minimizes the expected
discounted loss, player 2 maximizes it.  Everything in this module is exact
(linear algebra at float64 precision); no learning happens here.

All arrays are plain numpy float64.  ``MarkovGame`` instances are immutable and
safe to share across worker processes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

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
        # Own copies: freezing the caller's arrays in place would make them
        # read-only for the caller too.
        loss = np.array(self.loss, dtype=np.float64, order="C")
        trans = np.array(self.transition, dtype=np.float64, order="C")
        if loss.ndim != 3:
            raise DimensionMismatchError(f"loss must have shape (S, A, B), got {loss.shape}")
        if 0 in loss.shape:
            raise DimensionMismatchError(f"loss must have at least one state and one action "
                                         f"per player, got shape {loss.shape}")
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

    @cached_property
    def _cumulative_rows(self) -> list[list[float]]:
        """Each ``(s, a, b)``'s cumulative next-state row as a plain list, at the
        flat index ``(s*A + a)*B + b``: the kernel the rollout walk reads.

        Built on first read, left to right as ``np.cumsum`` does, and kept
        for the game's lifetime; a pickled game does not carry it.
        """
        return np.add.accumulate(self.transition, axis=-1).reshape(-1, self.n_states).tolist()

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
    """Upper bound 1/(1-gamma) on any discounted value when losses lie in [0, 1].
    A discount outside [0, 1) raises ``ValueError``."""
    _check_gamma(gamma)
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
    bad = _first_bad_row(rows)
    if bad is None:
        return None
    return f"{name} row {bad} is not a probability distribution: {rows[bad].tolist()!r}"


def _first_bad_row(rows: np.ndarray) -> int | None:
    """Index of the first row of ``distribution_rows_error``'s ``rows`` that fails it."""
    ok = (rows >= 0.0).all(axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


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
    non_finite = (_non_finite_entries("loss", game.loss, "s a b")
                  + _non_finite_entries("transition probability", game.transition, "s a b s'"))
    if non_finite:
        return problems + non_finite
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


def _check_policy(game: MarkovGame, policy: np.ndarray, side, who: str = "",
                  stack: tuple = ()) -> None:
    """Raise unless ``policy`` is a ``stack`` of player ``side``'s ``(S, A)`` or ``(S, B)``
    arrays (``DimensionMismatchError``) of distribution rows (``ValueError``, naming
    the row counted over the stack in C order); ``who`` prefixes the message.

    ``side`` may be an array of sides that broadcasts to ``stack``, one per
    item: every side present must fit the arrays, the rows are checked once
    over the whole stack, and a bad row is named with its own item's side."""
    for one in dict.fromkeys(np.ravel(side).tolist()):
        want = stack + (game.n_states, game.loss.shape[one])
        if policy.shape != want:
            raise DimensionMismatchError(f"{who}player-{one} policy shape {policy.shape} does "
                                         f"not match {'(..., ' if stack else '('}S, "
                                         f"{'AB'[one - 1]}) = {want}")
    rows = policy.reshape(-1, policy.shape[-1])
    bad = _first_bad_row(rows)
    if bad is not None:
        item_side = np.broadcast_to(side, stack).reshape(-1)[bad // game.n_states]
        raise ValueError(distribution_rows_error(f"{who}player-{item_side} policy", rows))


def _non_finite_entries(name: str, array: np.ndarray, axes: str) -> list[str]:
    """One message per non-finite entry of ``array``, in C order, naming its
    index by ``axes`` (such as ``"s a b"``) and its value."""
    finite = np.isfinite(array)
    if finite.all():
        return []
    return [f"non-finite {name} at ({', '.join(map('{}={}'.format, axes.split(), index))}): "
            f"{float(array[tuple(index)])!r}" for index in np.argwhere(~finite)]


def _check_finite(name: str, array: np.ndarray, axes: str) -> None:
    """Raise ``ValueError`` naming the first non-finite entry of ``array``."""
    non_finite = _non_finite_entries(name, array, axes)
    if non_finite:
        raise ValueError(non_finite[0])


def _check_gamma(gamma) -> None:
    """Raise ``ValueError`` unless the discount ``gamma`` lies in [0, 1); NaN does not."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got gamma={gamma!r}")


def _check_tol(tol, name: str = "tol") -> None:
    """Raise ``ValueError`` unless ``tol`` is a finite positive number that is not a bool."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 < tol < np.inf):
        raise ValueError(f"{name} must be positive and finite, got {name}={tol!r}")


def _check_max_iter(max_iter) -> None:
    """Raise ``ValueError`` unless ``max_iter`` is an integer >= 1 that is not a bool."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1 (not a bool), "
                         f"got max_iter={max_iter!r}")


def _integer(name, value, minimum, shape=None) -> int:
    """An integer >= ``minimum``; not a bool, which Python counts as one."""
    # A plain int skips the abstract-base-class check, the slow part.
    if (type(value) is not int
            and (isinstance(value, bool) or not isinstance(value, numbers.Integral))
            or value < minimum):
        raise ValueError(f"{name} must be >= {minimum} and an integer (not a bool), "
                         f"got {name}={value!r}")
    return int(value)


def evaluate_policy_pair(
    game: MarkovGame, policy: JointPolicy, residual_tol: float = 1e-10
) -> np.ndarray:
    """Exact discounted value V[s] of a stationary policy pair, per starting state.

    Solves the linear system (I - gamma * P_xy) V = loss_xy by dense LU.  The
    solution is verified against the Bellman residual; a residual above
    ``residual_tol`` (scaled by the value magnitude) raises ``ArithmeticError``.
    A policy row that is not a distribution (within 1e-9), or a
    ``residual_tol`` that is not a finite positive number, raises
    ``ValueError`` naming the cause.
    """
    _check_tol(residual_tol, "residual_tol")
    _check_policy(game, policy.x, 1)
    _check_policy(game, policy.y, 2)
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
    """Collapse the fixed player out of the game, leaving the free player's MDP.

    ``fixed_policy`` must be checked already.  Leading stack axes on it
    carry over to the loss and the transition; each item has the bits it
    would have alone.
    """
    if fixed_side == 2:
        loss = np.einsum("sab,...sb->...sa", game.loss, fixed_policy)
        trans = np.einsum("sabt,...sb->...sat", game.transition, fixed_policy)
    else:
        loss = np.einsum("sab,...sa->...sb", game.loss, fixed_policy)
        trans = np.einsum("sabt,...sa->...sbt", game.transition, fixed_policy)
    return loss, trans


def best_response(
    game: MarkovGame,
    fixed_policy: np.ndarray,
    fixed_side,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal response of the free player against a fixed stationary opponent.

    With player 2 fixed (``fixed_side=2``), player 1 minimizes; with player 1
    fixed, player 2 maximizes.  The induced MDP is solved by policy iteration
    (Howard 1960: greedy improvement + exact policy evaluation), which
    terminates at an optimal deterministic policy.  Returns ``(value,
    policy)`` where ``value`` has shape (S,) and ``policy`` is a one-hot array
    over the free player's actions.  The Bellman residual of each returned
    item's value is at most ``tol * (1 - gamma) * max(1, ||v||_inf)``, with
    ``||v||_inf`` that item's largest absolute value (raises
    ``ArithmeticError`` otherwise), so each value lies within
    ``tol * max(1, ||v||_inf)`` of optimal, up to the tie tolerance of the
    improvement step, ``1e-13 * max(1, ||v||_inf)``.  A fixed policy row that
    is not a distribution, a ``tol`` that is not a finite positive number, or a
    ``max_iter`` that is not an integer >= 1 raises ``ValueError`` first.

    ``fixed_policy`` may carry leading stack axes, and ``fixed_side`` may be
    an array of sides that broadcasts to them, one per item; items of both
    sides share a stack only when ``A == B``.  Value and policy then carry
    the same axes, and each item has the bits it would have alone: one
    policy-iteration loop runs over the whole stack, an item that has
    stopped improving is evaluated again with the same actions, and numpy's
    stacked ``solve`` and ``matmul`` run the same kernel on every item.  The
    maximizer's items run as minimizers of the negated loss; negation is
    exact, so their nonzero values keep their bits (a zero may flip sign).
    A fixed row that is not a distribution is named by its index over the
    whole stack in C order and by its item's side; a failed certificate
    names its item.
    """
    _check_tol(tol)
    _check_max_iter(max_iter)
    fixed_policy = np.asarray(fixed_policy, dtype=np.float64)
    if fixed_policy.ndim < 2:
        raise DimensionMismatchError(f"fixed policy must have shape (..., S, A) or (..., S, B), "
                                     f"got {fixed_policy.shape}")
    stack, (n_states, width) = fixed_policy.shape[:-2], fixed_policy.shape[-2:]
    given = set(np.ravel(fixed_side).tolist())
    if not given <= {1, 2}:
        raise ValueError(f"fixed_side must be 1 or 2, got {fixed_side!r}")
    sides = np.asarray(fixed_side, dtype=np.int64)
    _check_policy(game, fixed_policy, sides, "fixed ", stack)
    policies = fixed_policy.reshape((-1, n_states, width))
    maximize = np.broadcast_to(sides == 1, stack).reshape(-1)
    if len(given) == 1:
        loss, trans = _induced_mdp(game, policies, int(sides.flat[0]))
    else:
        # Each side's items in one call, put back in stack order.
        parts = [(mask, _induced_mdp(game, policies[mask], side))
                 for side, mask in ((1, maximize), (2, ~maximize))]
        loss, trans = (np.empty((maximize.size,) + part.shape[1:]) for part in parts[0][1])
        for mask, (side_loss, side_trans) in parts:
            loss[mask], trans[mask] = side_loss, side_trans
    # The maximizer's items run as minimizers of the negated loss; a product
    # with -1.0 or 1.0 is exact.
    sign = np.where(maximize, -1.0, 1.0).reshape(-1, 1, 1)
    v, actions = _policy_iteration(loss * sign, trans, game.gamma, tol, max_iter, stack)
    v = v * sign[:, 0]
    policy = np.zeros(loss.shape)
    policy.reshape(-1)[np.arange(actions.size) * loss.shape[-1] + actions.reshape(-1)] = 1.0
    return v.reshape(stack + (n_states,)), policy.reshape(stack + loss.shape[1:])


def _policy_iteration(loss: np.ndarray, trans: np.ndarray, gamma: float, tol: float,
                      max_iter: int, stack: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Minimizing policy iteration on the stacked MDPs ``loss`` (N, S, n) and
    ``trans`` (N, S, n, S); returns each item's values (N, S) and actions (N, S).

    ``stack`` is the caller's shape of the N items, used to name a failing one.
    """
    n_items, n_states, n_act = loss.shape
    # Flat indices of each item's and state's first action, for one-index reads.
    first = np.arange(0, n_items * n_states * n_act, n_act).reshape(n_items, n_states)
    loss_rows, trans_rows = loss.reshape(-1), trans.reshape(-1, n_states)
    actions = np.argmin(loss, axis=-1)
    eye = np.eye(n_states)
    for _ in range(max_iter):
        picked = first + actions
        v = np.linalg.solve(eye - gamma * trans_rows[picked], loss_rows[picked][..., None])[..., 0]
        q = loss + gamma * (trans @ v[:, None, :, None])[..., 0]  # (N, S, n)
        # Switch actions only on strict improvement; keeping the incumbent on
        # (near-)ties prevents cycling between equally good actions.
        q_best = q.min(axis=-1)
        tie_tol = 1e-13 * np.maximum(1.0, np.abs(v).max(axis=-1))
        improves = q.reshape(-1)[picked] - q_best > tie_tol[:, None]
        if not improves.any():
            break
        actions = np.where(improves, np.argmin(q, axis=-1), actions)
    else:
        raise ArithmeticError(f"policy iteration failed to terminate"
                              f"{_item_name(np.flatnonzero(improves.any(axis=-1))[0], stack)}")

    residual = np.abs(v - q_best).max(axis=-1)
    bad = residual > tol * (1.0 - gamma) * np.maximum(1.0, np.abs(v).max(axis=-1))
    if bad.any():
        item = int(np.argmax(bad))
        raise ArithmeticError(f"best-response Bellman residual {residual[item]:.3e} too large"
                              f"{_item_name(item, stack)}")
    return v, actions


def _item_name(index: int, stack: tuple) -> str:
    """`` at stack item (i, j)`` for the flat ``index`` into ``stack``; empty without a stack."""
    return f" at stack item {tuple(map(int, np.unravel_index(index, stack)))}" if stack else ""
