"""Payoff estimators feeding the learner, plus sampling-budget planners.

The learner only ever sees an ``EstimateTriple``: per-state estimates of the
stage-game payoff vector for each player and the scalar payoff both share.  In
exact mode the triple is computed from the critic's stage games directly; in
sampled mode it comes from visitation averages along a rollout generated by
the exploration-mixed strategies, which is the only way the sampled path
touches the game.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import MarkovGame, q_from_v

__all__ = [
    "EstimateTriple",
    "Trajectory",
    "SampleBudget",
    "AccuracyBudget",
    "MuEstimate",
    "ReducibleChainError",
    "exact_estimates",
    "exact_triple_from_q",
    "ExactEstimator",
    "SampledEstimator",
    "explore_mix",
    "rollout",
    "sampled_estimates",
    "plan_sample_budget",
    "plan_accuracy_budget",
    "estimate_mu",
]


@dataclass(frozen=True)
class EstimateTriple:
    """Per-state payoff estimates: player 1's action payoffs ``ell``,
    player 2's action payoffs ``r``, and the shared scalar payoff ``rho``."""

    ell: np.ndarray  # (S, A) estimate of Q_t[s] @ y[s]
    r: np.ndarray    # (S, B) estimate of Q_t[s].T @ x[s]
    rho: np.ndarray  # (S,)  estimate of x[s] @ Q_t[s] @ y[s]


def exact_triple_from_q(q_t: np.ndarray, x: np.ndarray, y: np.ndarray) -> EstimateTriple:
    """Noise-free estimate triple from a stage-game tensor and the current strategies."""
    ell = np.einsum("sab,sb->sa", q_t, y)
    r = np.einsum("sab,sa->sb", q_t, x)
    rho = np.einsum("sa,sa->s", x, ell)
    return EstimateTriple(ell=ell, r=r, rho=rho)


def exact_estimates(game: MarkovGame, v_prev: np.ndarray,
                    x: np.ndarray, y: np.ndarray) -> EstimateTriple:
    """Exact payoff triple for strategies (x, y) under critic values ``v_prev``."""
    return exact_triple_from_q(q_from_v(game, v_prev), x, y)


class ExactEstimator:
    """Estimator that reads the stage games directly (zero estimation error)."""

    def estimates(self, game: MarkovGame, state, q_t: np.ndarray,
                  collect_error: bool = False) -> tuple[EstimateTriple, float | None]:
        return exact_triple_from_q(q_t, state.x, state.y), None


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

    Draws are inverse-CDF lookups against pre-drawn uniforms, so the trajectory
    is a pure function of the generator state.
    """
    if n_steps < 1:
        raise ValueError("rollout length must be >= 1")
    if not 0 <= s_init < game.n_states:
        raise ValueError(f"initial state {s_init} out of range")
    cum_x = np.cumsum(x, axis=1)
    cum_y = np.cumsum(y, axis=1)
    cum_p = np.cumsum(game.transition, axis=3)
    u = rng.random((3, n_steps))
    states = np.empty(n_steps + 1, dtype=np.int64)
    acts_a = np.empty(n_steps, dtype=np.int64)
    acts_b = np.empty(n_steps, dtype=np.int64)
    losses = np.empty(n_steps)
    s = s_init
    n_a, n_b, n_s = game.n_actions_p1, game.n_actions_p2, game.n_states
    for i in range(n_steps):
        states[i] = s
        a = min(int(np.searchsorted(cum_x[s], u[0, i], side="right")), n_a - 1)
        b = min(int(np.searchsorted(cum_y[s], u[1, i], side="right")), n_b - 1)
        acts_a[i] = a
        acts_b[i] = b
        losses[i] = game.loss[s, a, b]
        s = min(int(np.searchsorted(cum_p[s, a, b], u[2, i], side="right")), n_s - 1)
    states[n_steps] = s
    return Trajectory(
        states=states, actions_p1=acts_a, actions_p2=acts_b, losses=losses,
        n_states=n_s, n_actions_p1=n_a, n_actions_p2=n_b,
    )


def sampled_estimates(traj: Trajectory, v_prev: np.ndarray, gamma: float) -> EstimateTriple:
    """Visitation-average payoff estimates from one rollout.

    Each sample contributes its realized loss plus the discounted critic value
    of the observed next state; estimates average these over the matching
    visits.  Entries with zero visits are exactly 0.
    """
    v_prev = np.asarray(v_prev, dtype=np.float64)
    n_s, n_a, n_b = traj.n_states, traj.n_actions_p1, traj.n_actions_p2
    target = traj.losses + gamma * v_prev[traj.states[1:]]
    s = traj.states[:-1]

    def mean_by(idx: np.ndarray, n_bins: int) -> np.ndarray:
        sums = np.bincount(idx, weights=target, minlength=n_bins)
        counts = np.bincount(idx, minlength=n_bins)
        return np.divide(sums, counts, out=np.zeros(n_bins), where=counts > 0)

    ell = mean_by(s * n_a + traj.actions_p1, n_s * n_a).reshape(n_s, n_a)
    r = mean_by(s * n_b + traj.actions_p2, n_s * n_b).reshape(n_s, n_b)
    rho = mean_by(s, n_s)
    return EstimateTriple(ell=ell, r=r, rho=rho)


class SampledEstimator:
    """Estimator that learns payoffs from rollouts under exploration-mixed play.

    Keeps its own generator (seeded once) and, by default, continues each
    rollout from where the previous one stopped, modeling one uninterrupted
    stream of play.  ``reset_each_iteration`` restarts from ``s_init`` instead
    (useful when debugging visitation issues).
    """

    def __init__(self, rollout_len: int, epsilon_prime: float, seed: int = 0,
                 reset_each_iteration: bool = False, s_init: int = 0):
        if rollout_len < 1:
            raise ValueError("rollout_len must be >= 1")
        self.rollout_len = int(rollout_len)
        self.epsilon_prime = float(epsilon_prime)
        self.reset_each_iteration = bool(reset_each_iteration)
        self.s_init = int(s_init)
        self._current = int(s_init)
        self._rng = np.random.default_rng(seed)
        self.last_trajectory: Trajectory | None = None

    def estimates(self, game: MarkovGame, state, q_t: np.ndarray,
                  collect_error: bool = False) -> tuple[EstimateTriple, float | None]:
        x_mix = explore_mix(state.x, self.epsilon_prime)
        y_mix = explore_mix(state.y, self.epsilon_prime)
        start = self.s_init if self.reset_each_iteration else self._current
        traj = rollout(game, x_mix, y_mix, self.rollout_len, start, self._rng)
        self._current = int(traj.states[-1])
        self.last_trajectory = traj
        triple = sampled_estimates(traj, state.v, game.gamma)
        err = None
        if collect_error:
            exact = exact_triple_from_q(q_t, x_mix, y_mix)
            err = float(max(
                np.max(np.abs(triple.ell - exact.ell)),
                np.max(np.abs(triple.r - exact.r)),
                np.max(np.abs(triple.rho - exact.rho)),
            ))
        return triple, err


# ---------------------------------------------------------------------------
# Budget planning
# ---------------------------------------------------------------------------

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
    and mu the irreducibility constant of the explored dynamics.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive to plan a finite budget")
    if mu <= 0:
        raise ValueError("mu must be positive (irreducibility constant)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    log_term = np.log(horizon / delta) ** 2
    raw = c_l * (n_actions_p1**3 + n_actions_p2**3) / ((1.0 - gamma) * mu * epsilon**3) * log_term
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
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    if eta <= 0:
        raise ValueError("eta must be positive")
    one_minus = 1.0 - gamma
    if mode == "average-gap":
        iterations = int(np.ceil(c_t * n_states**2 / (eta**2 * one_minus**4 * xi**2)))
        epsilon = eta * one_minus**4 * xi**2 / n_states**2
        log_factor = float(np.log(n_states / (eta * one_minus * xi)))
    elif mode == "last-iterate":
        if c_hat is None:
            raise ValueError("last-iterate planning requires the margin constant c_hat")
        if c_hat <= 0:
            raise ValueError("c_hat must be positive")
        iterations = int(np.ceil(c_t * n_states**2 / (eta**4 * c_hat**4 * one_minus**4 * xi)))
        epsilon = eta * c_hat**2 * one_minus**3 * xi
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
    certified: bool = False


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
