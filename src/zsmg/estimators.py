"""Payoff estimators feeding the learner, plus sampling-budget planners.

The learner only ever sees per-state payoff estimates: each player's
stage-game payoff vector (``ell`` for player 1, ``r`` for player 2) and the
scalar payoff both share (``rho``).  Both estimate functions write ``ell``
and ``r`` into arrays the caller owns and return ``rho``.  In exact mode the
learner calls ``exact_triple_from_q`` itself, once over the stage games of
every run; it reads the critic's stage games directly.  In sampled mode the
learner mixes exploration into the strategies of every run at once with
``explore_mix``, and each run has a ``SampledEstimator`` bound to its game,
whose ``estimate_into`` rolls out under the run's mixed strategies and
averages the visits with ``sampled_estimates``: the rollout is the only way
the sampled path touches the game.  At logged iterations the learner measures
every run's estimate error in one ``exact_triple_from_q`` call over the mixed
strategies.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .games import DimensionMismatchError, MarkovGame, _check_tol, _integer

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
) -> Trajectory:
    """Simulate ``n_steps`` of play under stationary strategies (x, y).

    ``x`` has shape (S, A) and ``y`` shape (S, B), and every row of each must
    be a distribution: the shapes are checked, the values are not (the
    learner's mixed strategies are distributions by construction).  A shape
    that does not match raises ``DimensionMismatchError`` naming ``x`` or ``y``.

    Draws are inverse-CDF lookups against pre-drawn uniforms, so the trajectory
    is a pure function of the generator state.  The walk runs over plain
    Python lists: each lookup is ``bisect_right`` on a cumulative row, clamped
    to the last index.  ``bisect_right`` probes the same midpoints as
    ``np.searchsorted(side="right")``, so on NaN-free rows the indices match
    it, even on the slightly non-monotone rows that rounding leaves in a
    valid kernel.  The strategy rows are accumulated by ``np.add.accumulate``,
    and the transition rows are the game's own cumulative kernel, built by
    one ``np.add.accumulate`` the first time any rollout reads that game and
    kept on it: every rollout on one game object reads the same rows, at flat
    index ``(s*A + a)*B + b``.  Both accumulate left to right as
    ``np.cumsum`` does, so the bits match too.  The walk records only
    each step's flat index, with both strategy clamps folded into it, then
    the final state's as ``s*A*B``; one array and one ``np.unravel_index``
    call give the states and both players' actions, and the losses are read
    at the flat indices.  The other buffers are O(L).
    """
    n_steps = _integer("n_steps", n_steps, 1)
    s = _integer("s_init", s_init, 0)
    n_s, n_a, n_b = game.loss.shape
    if s >= n_s:
        raise ValueError(f"s_init must be < n_states={n_s}, got s_init={s}")
    for name, point, axes, want in (("x", x, "(S, A)", (n_s, n_a)),
                                    ("y", y, "(S, B)", (n_s, n_b))):
        if np.shape(point) != want:
            raise DimensionMismatchError(f"{name} shape {np.shape(point)} does not match "
                                         f"{axes} = {want}")
    n_ab = n_a * n_b
    rows = game._cumulative_rows
    cum_x = np.add.accumulate(x, axis=1).tolist()
    cum_y = np.add.accumulate(y, axis=1).tolist()
    last_a, last_b = n_a - 1, n_b - 1
    walk = []
    for u_a, u_b, u_s in zip(*rng.random((3, n_steps)).tolist()):
        a = bisect_right(cum_x[s], u_a)
        b = bisect_right(cum_y[s], u_b)
        k = s * n_ab + (a if a < n_a else last_a) * n_b + (b if b < n_b else last_b)
        walk.append(k)
        s = bisect_right(rows[k], u_s)
        if s == n_s:
            s -= 1
    walk.append(s * n_ab)
    flat = np.array(walk, dtype=np.int64)
    states, acts_a, acts_b = np.unravel_index(flat, (n_s, n_a, n_b))
    return Trajectory(
        states=states, actions_p1=acts_a[:-1], actions_p2=acts_b[:-1],
        losses=game.loss.reshape(-1)[flat[:-1]],
        n_states=n_s, n_actions_p1=n_a, n_actions_p2=n_b,
    )


def sampled_estimates(traj: Trajectory, v_prev: np.ndarray, gamma: float,
                      ell: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Visitation-average payoff estimates from one rollout.

    Each sample contributes its realized loss plus the discounted critic value
    of the observed next state; estimates average these over the matching
    visits.  The means for ``ell`` and ``r`` are written into the given
    arrays, and the one for ``rho`` is returned.  Entries with zero visits
    are exactly 0, whatever the arrays held before.  The three means share
    one bin range: the ``(s, a)`` bins, then the ``(s, b)`` bins, then the
    states.  Each bin receives only its own samples, in step order, so one
    pair of bincounts keeps the sums of three.  A ``v_prev`` of a shape other
    than (S,), or an ``ell`` or ``r`` other than (S, A) or (S, B), raises
    ``DimensionMismatchError`` naming it.
    """
    v_prev = np.asarray(v_prev, dtype=np.float64)
    n_s, n_a, n_b = traj.n_states, traj.n_actions_p1, traj.n_actions_p2
    for name, array, want in (("v_prev", v_prev, (n_s,)), ("ell", ell, (n_s, n_a)),
                              ("r", r, (n_s, n_b))):
        if np.shape(array) != want:
            raise DimensionMismatchError(f"{name} shape {np.shape(array)} does not match "
                                         f"{want} for a trajectory on {n_s} states with "
                                         f"{n_a}x{n_b} actions")
    n_sa, n_sab = n_s * n_a, n_s * (n_a + n_b)
    target = traj.losses + gamma * v_prev[traj.states[1:]]
    s = traj.states[:-1]
    idx = np.concatenate((s * n_a + traj.actions_p1, s * n_b + traj.actions_p2 + n_sa,
                          s + n_sab))
    sums = np.bincount(idx, weights=np.concatenate((target, target, target)),
                       minlength=n_sab + n_s)
    counts = np.bincount(idx, minlength=n_sab + n_s)
    means = np.zeros(n_sab + n_s)
    np.divide(sums, counts, out=means, where=counts > 0)
    ell[...] = means[:n_sa].reshape(n_s, n_a)
    r[...] = means[n_sa:n_sab].reshape(n_s, n_b)
    return means[n_sab:]


class SampledEstimator:
    """One run's rollout stream on one game: its generator and its current state.

    Bound to ``game`` when built.  The generator is seeded once and, by
    default, each rollout continues from where the previous one stopped,
    modeling one uninterrupted stream of play.  ``reset_each_iteration``
    restarts every rollout from state 0 instead (useful when debugging
    visitation issues).  The rollouts read the game's own cumulative kernel,
    so every run on one game object shares it.  Exploration is mixed by the
    caller: the learner mixes it once over the run axis and hands each run
    its own rows of the mixed stack.  A ``rollout_len`` below 1 or a
    ``seed`` below 0, or either not an integer, raises ``ValueError``
    naming it.
    """

    def __init__(self, game: MarkovGame, rollout_len: int, seed: int = 0,
                 reset_each_iteration: bool = False):
        self.game = game
        self.rollout_len = _integer("rollout_len", rollout_len, 1)
        self.reset_each_iteration = bool(reset_each_iteration)
        self._current = 0
        self._rng = np.random.default_rng(_integer("seed", seed, 0))

    def estimate_into(self, x: np.ndarray, y: np.ndarray, v: np.ndarray,
                      ell: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Roll out under (x, y), write the visit means into ``ell`` and ``r``, return ``rho``."""
        start = 0 if self.reset_each_iteration else self._current
        traj = rollout(self.game, x, y, self.rollout_len, start, self._rng)
        self._current = int(traj.states[-1])
        return sampled_estimates(traj, v, self.game.gamma, ell, r)


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


def _representable(compute, term: str, **inputs) -> float:
    """``compute()``, the intermediate ``term`` of a budget, unless it goes to zero
    or infinity or raises OverflowError (as a float power does): then the
    budget cannot be represented, and ValueError names the inputs.

    Checking the intermediate, rather than reordering the arithmetic, keeps
    every budget that can be represented at its value.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
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
    scale = _representable(lambda: (1.0 - gamma) * mu * epsilon**3,
                           "(1-gamma) * mu * epsilon^3", **inputs)
    raw = _representable(lambda: c_l * (n_actions_p1**3 + n_actions_p2**3) / scale * log_term,
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
        scale = _representable(lambda: eta**2 * one_minus**4 * xi**2,
                               "eta^2 (1-gamma)^4 xi^2", **inputs)
        iterations = int(np.ceil(_representable(lambda: c_t * n_states**2 / scale,
                                                "iterations", **inputs)))
        epsilon = _representable(lambda: eta * one_minus**4 * xi**2 / n_states**2, "epsilon",
                                 **inputs)
        log_factor = float(np.log(n_states / (eta * one_minus * xi)))
    elif mode == "last-iterate":
        if c_hat is None:
            raise ValueError("last-iterate planning requires the margin constant c_hat")
        _check_tol(c_hat, "c_hat")
        inputs["c_hat"] = c_hat
        scale = _representable(lambda: eta**4 * c_hat**4 * one_minus**4 * xi,
                               "eta^4 c^4 (1-gamma)^4 xi", **inputs)
        iterations = int(np.ceil(_representable(lambda: c_t * n_states**2 / scale,
                                                "iterations", **inputs)))
        epsilon = _representable(lambda: eta * c_hat**2 * one_minus**3 * xi, "epsilon", **inputs)
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
    A ``n_probe_policies`` below 1 or a ``seed`` below 0, or either not an
    integer, or a ``horizon`` that is not a finite positive number, raises
    ``ValueError`` naming it before any probe.
    """
    n_probe_policies = _integer("n_probe_policies", n_probe_policies, 1)
    _check_tol(horizon, "horizon")
    seed = _integer("seed", seed, 0)
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
