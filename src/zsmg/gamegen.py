"""Game generation and on-disk format.

Random games mix Dirichlet transition rows with a uniform component so every
probed policy pair induces an irreducible chain.  The file format is JSON with
full-precision floats (shortest round-trip repr), so save -> load reproduces a
game bit-for-bit.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .games import MarkovGame, _integer, distribution_rows_error, validate_game

__all__ = [
    "GameFormatError",
    "random_game",
    "builtin",
    "BUILTIN_NAMES",
    "save_game",
    "load_game",
    "game_to_dict",
    "game_from_dict",
    "save_policy",
    "load_policy",
]

SCHEMA_VERSION = 1


class GameFormatError(ValueError):
    """A game file is malformed; the message names the offending field."""


def random_game(
    seed: int,
    n_states: int,
    n_actions_p1: int,
    n_actions_p2: int,
    gamma: float,
    kappa: float = 0.05,
) -> MarkovGame:
    """Sample a game with uniform losses and kappa-mixed Dirichlet transitions.

    Transition rows are (1 - kappa) * Dirichlet(1,...,1) + kappa * uniform; any
    kappa > 0 makes every state reachable from every state under any policy
    pair, so the irreducibility constant is bounded away from zero.
    Deterministic in ``seed``, which must be an integer >= 0 (not a bool);
    any other raises ``ValueError`` naming it.
    """
    _integer("seed", seed, 0)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    for name, size in (("n_states", n_states), ("n_actions_p1", n_actions_p1),
                       ("n_actions_p2", n_actions_p2)):
        if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
            raise ValueError(f"{name} must be an integer >= 1 (not a bool), got {name}={size!r}")
    rng = np.random.default_rng(seed)
    shape = (n_states, n_actions_p1, n_actions_p2)
    loss = rng.uniform(size=shape)
    raw = rng.dirichlet(np.ones(n_states), size=shape)
    trans = (1.0 - kappa) * raw + kappa / n_states
    return MarkovGame(loss=loss, transition=trans, gamma=gamma,
                      name=f"random(seed={seed})")


def _matching_pennies_loss() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, 1.0]])


def _builtin_mp1(gamma: float) -> MarkovGame:
    loss = _matching_pennies_loss()[None, :, :]
    trans = np.ones((1, 2, 2, 1))
    return MarkovGame(loss=loss, transition=trans, gamma=gamma, name="mp1")


def _builtin_const(gamma: float) -> MarkovGame:
    loss = np.full((1, 1, 1), 0.4)
    trans = np.ones((1, 1, 1, 1))
    return MarkovGame(loss=loss, transition=trans, gamma=gamma, name="const")


def _builtin_chain2(gamma: float) -> MarkovGame:
    # State 0 pays 1 and moves to state 1; state 1 pays 0 and stays.
    loss = np.array([1.0, 0.0]).reshape(2, 1, 1)
    trans = np.zeros((2, 1, 1, 2))
    trans[0, 0, 0, 1] = 1.0
    trans[1, 0, 0, 1] = 1.0
    return MarkovGame(loss=loss, transition=trans, gamma=gamma, name="chain2")


def _builtin_switching_mp(gamma: float, kappa: float = 0.1) -> MarkovGame:
    # Matching pennies in both states; when player 1 loses the round (pays 1)
    # the state flips, otherwise it stays, mixed with a little uniform noise.
    stage = _matching_pennies_loss()
    loss = np.stack([stage, stage])
    trans = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for a in range(2):
            for b in range(2):
                dest = 1 - s if stage[a, b] == 1.0 else s
                trans[s, a, b, dest] = 1.0
    trans = (1.0 - kappa) * trans + kappa / 2.0
    return MarkovGame(loss=loss, transition=trans, gamma=gamma, name="switching-mp")


_BUILTINS = {
    "mp1": (_builtin_mp1, 0.9),
    "const": (_builtin_const, 0.5),
    "chain2": (_builtin_chain2, 0.5),
    "switching-mp": (_builtin_switching_mp, 0.9),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str, gamma: float | None = None) -> MarkovGame:
    """Named benchmark game; ``gamma`` overrides the builtin's default discount."""
    try:
        builder, default_gamma = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin game {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return builder(default_gamma if gamma is None else float(gamma))


def game_to_dict(game: MarkovGame) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": game.name,
        "n_states": game.n_states,
        "n_actions_p1": game.n_actions_p1,
        "n_actions_p2": game.n_actions_p2,
        "gamma": game.gamma,
        "loss": game.loss.tolist(),
        "transition": game.transition.tolist(),
    }


def _require(data: dict, key: str):
    if key not in data:
        raise GameFormatError(f"{key}: missing required field")
    return data[key]


def game_from_dict(data: dict) -> MarkovGame:
    version = _require(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise GameFormatError(
            f"schema_version: got {version!r}, this build reads version {SCHEMA_VERSION}"
        )
    dims = {}
    for key in ("n_states", "n_actions_p1", "n_actions_p2"):
        val = _require(data, key)
        if not isinstance(val, int) or val < 1:
            raise GameFormatError(f"{key}: expected a positive integer, got {val!r}")
        dims[key] = val
    gamma = _require(data, "gamma")
    if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
        raise GameFormatError(f"gamma: expected a number, got {gamma!r}")
    shape = (dims["n_states"], dims["n_actions_p1"], dims["n_actions_p2"])
    try:
        loss = np.array(_require(data, "loss"), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"loss: not a numeric array ({exc})") from None
    if loss.shape != shape:
        raise GameFormatError(f"loss: shape {loss.shape} does not match header dims {shape}")
    try:
        trans = np.array(_require(data, "transition"), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"transition: not a numeric array ({exc})") from None
    if trans.shape != shape + (dims["n_states"],):
        raise GameFormatError(
            f"transition: shape {trans.shape} does not match header dims {shape + (dims['n_states'],)}"
        )
    game = MarkovGame(loss=loss, transition=trans, gamma=float(gamma),
                      name=str(data.get("name", "")))
    problems = validate_game(game)
    gamma_only = all(p.startswith("gamma") for p in problems)
    if problems and not gamma_only:
        raise GameFormatError("loaded game is invalid: " + "; ".join(problems[:5]))
    return game


def save_game(game: MarkovGame, path: str | Path) -> None:
    """Write a game as JSON with round-trip-exact floats."""
    path = Path(path)
    path.write_text(json.dumps(game_to_dict(game), indent=1, sort_keys=True) + "\n")


def load_game(path: str | Path) -> MarkovGame:
    """Read a game written by :func:`save_game`; errors name the bad field."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise GameFormatError(f"{path}: expected a JSON object at top level")
    return game_from_dict(data)


def save_policy(policy: np.ndarray, path: str | Path) -> None:
    """Write a per-state mixed strategy (rows over actions) as JSON."""
    policy = np.asarray(policy, dtype=np.float64)
    payload = {"schema_version": SCHEMA_VERSION, "policy": policy.tolist()}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_policy(path: str | Path) -> np.ndarray:
    """Read a policy written by :func:`save_policy`; rows must be distributions."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise GameFormatError(f"{path}: expected a JSON object at top level")
    version = _require(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise GameFormatError(
            f"schema_version: got {version!r}, this build reads version {SCHEMA_VERSION}"
        )
    try:
        policy = np.array(_require(data, "policy"), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"policy: not a numeric array ({exc})") from None
    if policy.ndim != 2:
        raise GameFormatError(f"policy: expected a 2-D array, got shape {policy.shape}")
    problem = distribution_rows_error("policy", policy)
    if problem:
        raise GameFormatError(f"{path}: {problem}")
    return policy
