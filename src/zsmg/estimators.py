"""Payoff estimators feeding the learner, plus sampling-budget planners.

The learner only ever sees per-state payoff estimates: each player's
stage-game payoff vector (``ell`` for player 1, ``r`` for player 2) and the
scalar payoff both share (``rho``).  Both estimate functions write ``ell``
and ``r`` into arrays the caller owns and return ``rho``.  In exact mode the
learner calls ``exact_triple_from_q`` itself, once over the stage games of
every run; it reads the critic's stage games directly.  In sampled mode each
run has a ``SampledEstimator`` bound to its game, whose ``estimate_into``
rolls out under the exploration-mixed strategies and averages the visits
with ``sampled_estimates``: the rollout is the only way the sampled path
touches the game.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .games import MarkovGame, _check_tol, _integer

__all__ = [
    "Trajectory",
    "SampleBudget",
    "AccuracyBudget",
    "MuEstimate",
    "ReducibleChainError",
    "exact_triple_from_q",
    "SampledEstimator",
    "explore_mix",
    "rollout",
    "sampled_estimates",
    "plan_sample_budget",
    "plan_accuracy_budget",
    "estimate_mu",
]


def exact_triple_from_q(q_t: np.ndarray, x: np.ndarray, y: np.ndarray,
                        ell: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Noise-free estimates from a stage-game tensor and the current strategies.

    Writes ``ell[s] = Q_t[s] @ y[s]`` and ``r[s] = Q_t[s].T @ x[s]`` into the
    given arrays and returns ``rho[s] = x[s] @ ell[s]``, read from the
    written ``ell``.  Leading axes before ``s`` (the learner's run axis) ride
    along, and every state keeps the bits it has alone.
    """
    np.einsum("...ab,...b->...a", q_t, y, out=ell)
    np.einsum("...ab,...a->...b", q_t, x, out=r)
    return np.einsum("...a,...a->...", x, ell)


def explore_mix(policy: np.ndarray, epsilon_prime: float) -> np.ndarray:
    """Mix a strategy with uniform exploration: (1 - e/2) * p + e / (2n).

    Guarantees every action is played with probability at least
    ``epsilon_prime / (2n)`` so visitation counts grow along rollouts.
    """
    if not 0.0 <= epsilon_prime <= 1.0:
        raise ValueError(f"exploration weight must lie in [0, 1], got {epsilon_prime}")
    policy = np.asarray(policy, dtype=np.float64)
    n = policy.shape[-1]
    return (1.0 - epsilon_prime / 2.0) * policy + epsilon_prime / (2.0 * n)


@dataclass(frozen=True)
class Trajectory:
    """A rollout: states has length L+1 (includes the terminal state),
    the action/loss arrays have length L."""

    states: np.ndarray      # (L+1,) int
    actions_p1: np.ndarray  # (L,) int
    actions_p2: np.ndarray  # (L,) int
    losses: np.ndarray      # (L,) float
    n_states: int
    n_actions_p1: int
    n_actions_p2: int

    def __len__(self) -> int:
        return self.losses.shape[0]


def rollout(
    game: MarkovGame,
    x: np.ndarray,
    y: np.ndarray,
    n_steps: int,
    s_init: int,
    rng: np.random.Generator,
    rows: dict[int, list[float]] | None = None,
) -> Trajectory:
    """Simulate ``n_steps`` of play under stationary strategies (x, y).

    Draws are inverse-CDF lookups against pre-drawn uniforms, so the trajectory
    is a pure function of the generator state.  The walk runs over plain
    Python lists: each lookup is ``bisect_right`` on a cumulative row, clamped
    to the last index.  ``bisect_right`` probes the same midpoints as
    ``np.searchsorted(side="right")``, so on NaN-free rows the indices match
    it, even on the slightly non-monotone rows that rounding leaves in a
    valid kernel.  A transition row is accumulated the first time a walk
    reaches its (s, a, b), left to right as ``np.cumsum`` does, so the bits
    match too, and kept in ``rows`` under its flat index ``(s*A + a)*B + b``.
    Passing the same dict to every rollout on one game keeps each row across
    calls: at most S*A*B rows of S Python floats, built only as visited, never
    the whole cumulative kernel up front.  The other buffers are O(L).
    """
    n_steps = _integer("n_steps", n_steps, 1)
    s = _integer("s_init", s_init, 0)
    n_s, n_a, n_b = game.loss.shape
    if s >= n_s:
        raise ValueError(f"s_init must be < n_states={n_s}, got s_init={s}")
    rows = {} if rows is None else rows
    cum_x = np.cumsum(x, axis=1).tolist()
    cum_y = np.cumsum(y, axis=1).tolist()
    trans = game.transition.reshape(n_s * n_a * n_b, n_s)
    states = [s]
    acts_a = []
    acts_b = []
    for u_a, u_b, u_s in zip(*rng.random((3, n_steps)).tolist()):
        a = bisect_right(cum_x[s], u_a)
        if a == n_a:
            a -= 1
        b = bisect_right(cum_y[s], u_b)
        if b == n_b:
            b -= 1
        k = (s * n_a + a) * n_b + b
        row = rows.get(k)
        if row is None:
            row = rows[k] = list(accumulate(trans[k].tolist()))
        s = bisect_right(row, u_s)
        if s == n_s:
            s -= 1
        acts_a.append(a)
        acts_b.append(b)
        states.append(s)
    states = np.array(states, dtype=np.int64)
    acts_a = np.array(acts_a, dtype=np.int64)
    acts_b = np.array(acts_b, dtype=np.int64)
    return Trajectory(
        states=states, actions_p1=acts_a, actions_p2=acts_b,
        losses=game.loss[states[:-1], acts_a, acts_b],
        n_states=n_s, n_actions_p1=n_a, n_actions_p2=n_b,
    )


def sampled_estimates(traj: Trajectory, v_prev: np.ndarray, gamma: float,
                      ell: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Visitation-average payoff estimates from one rollout.

    Each sample contributes its realized loss plus the discounted critic value
    of the observed next state; estimates average these over the matching
    visits.  The means for ``ell`` and ``r`` are written into the given
    arrays, and the one for ``rho`` is returned.  Entries with zero visits
    are exactly 0, whatever the arrays held before.
    """
    v_prev = np.asarray(v_prev, dtype=np.float64)
    n_s, n_a, n_b = traj.n_states, traj.n_actions_p1, traj.n_actions_p2
    target = traj.losses + gamma * v_prev[traj.states[1:]]
    s = traj.states[:-1]

    def mean_into(idx: np.ndarray, shape: tuple[int, ...], out: np.ndarray) -> np.ndarray:
        # Sums and counts are fresh, so their reshapes are views; ``out`` is
        # written only by the fill and the division.
        n_bins = math.prod(shape)
        sums = np.bincount(idx, weights=target, minlength=n_bins).reshape(shape)
        counts = np.bincount(idx, minlength=n_bins).reshape(shape)
        out[...] = 0.0
        return np.divide(sums, counts, out=out, where=counts > 0)

    mean_into(s * n_a + traj.actions_p1, (n_s, n_a), ell)
    mean_into(s * n_b + traj.actions_p2, (n_s, n_b), r)
    return mean_into(s, (n_s,), np.empty(n_s))


class SampledEstimator:
    """Estimator that learns one game's payoffs from rollouts under exploration-mixed play.

    Bound to ``game`` when built.  Keeps its own generator (seeded once) and,
    by default, continues each rollout from where the previous one stopped,
    modeling one uninterrupted stream of play.  ``reset_each_iteration``
    restarts every rollout from state 0 instead (useful when debugging
    visitation issues).  It also keeps the cumulative transition rows its
    rollouts have visited, so each row is built once per run.
    """

    def __init__(self, game: MarkovGame, rollout_len: int, epsilon_prime: float, seed: int = 0,
                 reset_each_iteration: bool = False):
        self.game = game
        self.rollout_len = _integer("rollout_len", rollout_len, 1)
        if isinstance(epsilon_prime, bool) or not (
                isinstance(epsilon_prime, numbers.Real) and 0.0 <= epsilon_prime <= 1.0):
            raise ValueError(f"epsilon_prime must lie in [0, 1], "
                             f"got epsilon_prime={epsilon_prime!r}")
        self.epsilon_prime = float(epsilon_prime)
        self.reset_each_iteration = bool(reset_each_iteration)
        self._current = 0
        self._rng = np.random.default_rng(seed)
        self._rows: dict[int, list[float]] = {}
        self.last_trajectory: Trajectory | None = None

    def estimate_into(self, x: np.ndarray, y: np.ndarray, v: np.ndarray, q_t: np.ndarray,
                      ell: np.ndarray, r: np.ndarray,
                      collect_error: bool = False) -> tuple[np.ndarray, float | None]:
        """Roll out, write the visit means into ``ell`` and ``r``, return ``(rho, est_err)``.

        With ``collect_error`` the error is the largest deviation of any
        estimate from the exact one for the exploration-mixed strategies;
        otherwise it is None.
        """
        game = self.game
        x_mix = explore_mix(x, self.epsilon_prime)
        y_mix = explore_mix(y, self.epsilon_prime)
        start = 0 if self.reset_each_iteration else self._current
        traj = rollout(game, x_mix, y_mix, self.rollout_len, start, self._rng, self._rows)
        self._current = int(traj.states[-1])
        self.last_trajectory = traj
        rho = sampled_estimates(traj, v, game.gamma, ell, r)
        err = None
        if collect_error:
            exact_ell, exact_r = np.empty(x_mix.shape), np.empty(y_mix.shape)
            exact_rho = exact_triple_from_q(q_t, x_mix, y_mix, exact_ell, exact_r)
            err = float(max(
                np.max(np.abs(ell - exact_ell)),
                np.max(np.abs(r - exact_r)),
                np.max(np.abs(rho - exact_rho)),
            ))
        return rho, err


# ---------------------------------------------------------------------------
# Budget planning
# ---------------------------------------------------------------------------

def _check_planning(gamma: float, **positive) -> None:
    """Raise ValueError naming the field unless ``gamma`` lies in [0, 1) and
    every keyword is a finite positive number (not a bool); NaN fails both.

    Both budgets divide by a power of 1 - gamma and scale with the other
    inputs, so a zero, negative, infinite or NaN one would give an
    impossible budget or fail inside the arithmetic without naming itself.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1) to plan a budget, got gamma={gamma}")
    for name, value in positive.items():
        _check_tol(value, name)


def _representable(value: float, term: str, **inputs) -> float:
    """``value``, the intermediate ``term`` of a budget, unless it went to zero or
    infinity: then the budget cannot be represented, and ValueError names the inputs.

    Checking the intermediate, rather than reordering the arithmetic, keeps
    every budget that can be represented at its value.
    """
    if 0.0 < value < math.inf:
        return value
    given = ", ".join(f"{name}={x!r}" for name, x in inputs.items())
    raise ValueError(f"the budget overflows: {term} is {float(value)!r} at {given}")


@dataclass(frozen=True)
class SampleBudget:
    """Rollout length sufficient for epsilon-accurate estimates, with inputs echoed."""

    rollout_len: int
    epsilon: float
    epsilon_prime: float
    gamma: float
    mu: float
    horizon: float
    delta: float
    c_l: float


def plan_sample_budget(
    n_actions_p1: int,
    n_actions_p2: int,
    gamma: float,
    mu: float,
    epsilon: float,
    horizon: float,
    delta: float,
    c_l: float = 1.0,
) -> SampleBudget:
    """Per-iteration rollout length for epsilon-accurate payoff estimates.

    L = ceil(c_l * (A^3 + B^3) / ((1-gamma) * mu * epsilon^3) * log(T/delta)^2),
    where T is the number of iterations the estimates must stay accurate for
    and mu the irreducibility constant of the explored dynamics.  Every
    input is checked before any arithmetic, and a bad one raises ValueError
    naming it; so does a budget that overflows float64 on valid inputs.
    """
    _integer("n_actions_p1", n_actions_p1, 1)
    _integer("n_actions_p2", n_actions_p2, 1)
    _check_planning(gamma, epsilon=epsilon, mu=mu, c_l=c_l)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got delta={delta!r}")
    if not 1 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and >= 1, got horizon={horizon!r}")
    log_term = np.log(horizon / delta) ** 2
    inputs = dict(epsilon=epsilon, mu=mu, gamma=gamma, c_l=c_l, horizon=horizon, delta=delta)
    scale = _representable((1.0 - gamma) * mu * epsilon**3, "(1-gamma) * mu * epsilon^3",
                           **inputs)
    raw = _representable(c_l * (n_actions_p1**3 + n_actions_p2**3) / scale * log_term,
                         "rollout_len", **inputs)
    return SampleBudget(
        rollout_len=int(np.ceil(raw)),
        epsilon=float(epsilon),
        epsilon_prime=(1.0 - gamma) * float(epsilon),
        gamma=float(gamma), mu=float(mu), horizon=float(horizon),
        delta=float(delta), c_l=float(c_l),
    )


@dataclass(frozen=True)
class AccuracyBudget:
    """Iteration count and estimation accuracy needed for a target gap."""

    iterations: int
    epsilon: float
    log_factor: float | None
    mode: str
    xi: float
    n_states: int
    gamma: float
    eta: float
    c_hat: float | None
    c_t: float


def plan_accuracy_budget(
    xi: float,
    mode: str,
    n_states: int,
    gamma: float,
    eta: float,
    c_hat: float | None = None,
    c_t: float = 1.0,
) -> AccuracyBudget:
    """Invert the convergence guarantees: how long and how accurately to run.

    'average-gap' targets an average duality gap of xi:
        T = ceil(c_t * S^2 / (eta^2 (1-gamma)^4 xi^2)),  eps = eta (1-gamma)^4 xi^2 / S^2,
    with the logarithmic factor log(S / (eta (1-gamma) xi)) reported separately.
    'last-iterate' targets a mean squared distance of xi and needs the margin
    constant estimate ``c_hat``:
        T = ceil(c_t * S^2 / (eta^4 c^4 (1-gamma)^4 xi)),  eps = eta c^2 (1-gamma)^3 xi.
    Every input is checked before any arithmetic, and a bad one raises
    ValueError naming it; so does a budget that overflows float64 on valid
    inputs.
    """
    _check_planning(gamma, xi=xi, eta=eta, c_t=c_t)
    _integer("n_states", n_states, 1)
    one_minus = 1.0 - gamma
    inputs = dict(xi=xi, eta=eta, gamma=gamma, n_states=n_states, c_t=c_t)
    if mode == "average-gap":
        scale = _representable(eta**2 * one_minus**4 * xi**2, "eta^2 (1-gamma)^4 xi^2",
                               **inputs)
        iterations = int(np.ceil(_representable(c_t * n_states**2 / scale, "iterations",
                                                **inputs)))
        epsilon = _representable(eta * one_minus**4 * xi**2 / n_states**2, "epsilon",
                                 **inputs)
        log_factor = float(np.log(n_states / (eta * one_minus * xi)))
    elif mode == "last-iterate":
        if c_hat is None:
            raise ValueError("last-iterate planning requires the margin constant c_hat")
        _check_tol(c_hat, "c_hat")
        inputs["c_hat"] = c_hat
        scale = _representable(eta**4 * c_hat**4 * one_minus**4 * xi,
                               "eta^4 c^4 (1-gamma)^4 xi", **inputs)
        iterations = int(np.ceil(_representable(c_t * n_states**2 / scale, "iterations",
                                                **inputs)))
        epsilon = _representable(eta * c_hat**2 * one_minus**3 * xi, "epsilon", **inputs)
        log_factor = None
    else:
        raise ValueError(f"unknown planning mode {mode!r}")
    return AccuracyBudget(
        iterations=iterations, epsilon=float(epsilon), log_factor=log_factor,
        mode=mode, xi=float(xi), n_states=int(n_states), gamma=float(gamma),
        eta=float(eta), c_hat=None if c_hat is None else float(c_hat), c_t=float(c_t),
    )


# ---------------------------------------------------------------------------
# Irreducibility probing
# ---------------------------------------------------------------------------

class ReducibleChainError(RuntimeError):
    """A probed policy pair induces a (nearly) reducible chain."""

    def __init__(self, message: str, probe_index: int):
        super().__init__(message)
        self.probe_index = probe_index


@dataclass(frozen=True)
class MuEstimate:
    """Heuristic irreducibility constant: 1 / (worst expected hitting time observed).

    The true constant takes the worst case over all stationary policy pairs,
    so this sampled value is an upper bound on it, not a certificate.
    """

    mu: float
    max_hitting_time: float
    n_pairs_probed: int


def estimate_mu(
    game: MarkovGame,
    n_probe_policies: int = 32,
    horizon: float = 1e7,
    seed: int = 0,
) -> MuEstimate:
    """Probe random stationary policy pairs and bound their mixing difficulty.

    For each pair, expected hitting times between every ordered state pair are
    computed exactly from the induced chain by solving (I - P_without_target) h = 1.
    A singular system or a hitting time above ``horizon`` means the chain is
    (effectively) reducible and raises ``ReducibleChainError`` naming the probe.
    Single-state games return mu = 1 by convention (nothing to traverse).
    """
    n_s = game.n_states
    if n_s == 1:
        return MuEstimate(mu=1.0, max_hitting_time=0.0, n_pairs_probed=0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    eye = np.eye(n_s - 1)
    for probe in range(n_probe_policies):
        x = rng.dirichlet(np.ones(game.n_actions_p1), size=n_s)
        y = rng.dirichlet(np.ones(game.n_actions_p2), size=n_s)
        chain = np.einsum("sabt,sa,sb->st", game.transition, x, y)
        for target in range(n_s):
            keep = [s for s in range(n_s) if s != target]
            sub = chain[np.ix_(keep, keep)]
            try:
                h = np.linalg.solve(eye - sub, np.ones(n_s - 1))
            except np.linalg.LinAlgError:
                raise ReducibleChainError(
                    f"probe {probe}: hitting-time system for target state {target} "
                    f"is singular (chain reducible)", probe
                ) from None
            top = float(h.max())
            if not np.isfinite(top) or top > horizon or h.min() < 0:
                raise ReducibleChainError(
                    f"probe {probe}: expected hitting time {top:.3e} to state {target} "
                    f"exceeds horizon {horizon:.3e} (chain effectively reducible)", probe
                )
            worst = max(worst, top)
    return MuEstimate(mu=1.0 / worst, max_hitting_time=worst, n_pairs_probed=n_probe_policies)
