"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms and data
layouts than the library code (grids and exhaustive enumeration instead of
LPs and projections, triple loops instead of einsum), so agreement between
the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import combinations, product

import numpy as np


# ---------------------------------------------------------------------------
# Simplex grids, grid-based minimax and exhaustive projection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def simplex_grid(n: int, step: float) -> np.ndarray:
    """All points of the n-simplex with coordinates on a uniform grid.

    Returns an array of shape (count, n) whose rows sum to one.  Supports
    n in {2, 3}, which is all the tests need.  Each grid is built once per
    ``(n, step)`` and returned read-only, since every caller gets the same
    array.
    """
    m = int(round(1.0 / step))
    if n == 2:
        a = np.arange(m + 1) / m
        grid = np.stack([a, 1.0 - a], axis=1)
    elif n == 3:
        blocks = []
        for i in range(m + 1):
            j = np.arange(m - i + 1)
            blocks.append(np.stack([np.full(j.size, i), j, m - i - j], axis=1))
        grid = np.concatenate(blocks) / m
    else:
        raise ValueError(f"simplex_grid supports n in {{2, 3}}, got {n}")
    grid.flags.writeable = False
    return grid


def grid_minimax_value(q: np.ndarray, step: float = 1e-3) -> float:
    """min over grid x of max over columns of x @ q.

    The inner maximum over the opponent's simplex is attained at a vertex, so
    only the outer player needs the grid; the result is within O(step) of the
    exact matrix-game value.  The columns are folded with ``np.maximum``, one
    pass each, rather than reduced along a short row axis, which is several
    times slower; max and min are exact, so the value is the same.
    """
    grid = simplex_grid(q.shape[0], step)
    return float(np.min(reduce(np.maximum, (grid @ q).T)))


def grid_distance_sq(z: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray,
                     step: float = 2e-3, slack: float = 1e-12) -> float:
    """min ||u - z||^2 over grid points of the simplex with a_mat @ u <= b_vec."""
    grid = simplex_grid(z.size, step)
    feasible = grid[(grid @ a_mat.T <= b_vec + slack).all(axis=1)]
    if feasible.size == 0:
        raise ValueError("no feasible grid point; polytope too small for this step")
    return float(np.min(np.sum((feasible - z) ** 2, axis=1)))


def enumerate_projection(z: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    """Projection of z onto {u in simplex : a_mat @ u <= b_vec} by active-set sweep.

    The normal cone at the projection is generated by at most n - 1 linearly
    independent constraint rows besides the sum equality, so projecting onto
    the affine hull of every row subset smaller than n and keeping the closest
    candidate that is feasible within 1e-10 recovers the optimum: the true
    active set appears as one subset.  Exponential in n, so only for n <= 4.
    Each candidate uses the library's least-norm affine formula with rows in
    ascending order, so a unique active set gives the library's bits.
    """
    n = z.size
    ineq = np.vstack([-np.eye(n), np.asarray(a_mat, dtype=np.float64).reshape(-1, n)])
    rhs = np.concatenate([np.zeros(n), np.asarray(b_vec, dtype=np.float64).reshape(-1)])
    best = None
    best_d = np.inf
    for k in range(n):
        for subset in combinations(range(ineq.shape[0]), k):
            m_mat = np.vstack([np.ones((1, n)), ineq[list(subset)]])
            c_vec = np.concatenate([[1.0], rhs[list(subset)]])
            correction, *_ = np.linalg.lstsq(m_mat @ m_mat.T, m_mat @ z - c_vec, rcond=None)
            u = z - m_mat.T @ correction
            if abs(float(u.sum()) - 1.0) > 1e-10 or float(np.max(ineq @ u - rhs)) > 1e-10:
                continue
            d = float(np.sum((u - z) ** 2))
            if d < best_d:
                best, best_d = u, d
    if best is None:
        raise ValueError("no feasible active set; the polytope is empty")
    return best


def two_nnls_project_point(z, a_arr, b_arr, ineq, rhs, plane, neg_gt, kkt_tol=1e-9):
    """``groundtruth._project_point`` as it was before its multiplier
    certificate: the affine point is accepted only on ``_kkt_residual``, a
    second NNLS, and otherwise the NNLS point is, under the same check.

    It takes the constants of ``groundtruth._polytope`` and uses the
    library's ``_affine_projection`` and ``_kkt_residual``, so it pins which
    point the certificate lets through rather than re-deriving the points.
    """
    from scipy.optimize import nnls

    from zsmg.groundtruth import _affine_projection, _kkt_residual

    n = z.size
    p = z + (1.0 - float(z.sum())) / n
    lhs = np.vstack([neg_gt, -(rhs - ineq @ p)])
    target = np.zeros(n)
    target[-1] = 1.0
    multipliers, _ = nnls(lhs, target)
    residual = lhs @ multipliers - target
    if not residual[-1] < 0.0:
        raise ArithmeticError("infeasible polytope in projection")
    active = np.nonzero(multipliers > 0.0)[0]
    u = _affine_projection(z, np.vstack([np.ones((1, n)), ineq[active]]),
                           np.concatenate([[1.0], rhs[active]]))
    if (abs(float(u.sum()) - 1.0) <= 1e-10 and float(np.max(ineq @ u - rhs)) <= 1e-10
            and _kkt_residual(z, u, a_arr, b_arr) <= kkt_tol):
        return u
    u = p + plane @ (-residual[:-1] / residual[-1])
    kkt = _kkt_residual(z, u, a_arr, b_arr)
    if kkt <= kkt_tol:
        return u
    raise ArithmeticError(
        f"projection failed to reach KKT residual {kkt_tol:.1e} (got {kkt:.3e})"
    )


# ---------------------------------------------------------------------------
# Exhaustive solvers for small Markov games
# ---------------------------------------------------------------------------

def q_values_triple_loop(loss: np.ndarray, transition: np.ndarray,
                         gamma: float, v: np.ndarray) -> np.ndarray:
    """Stage values sigma + gamma * E_next[v], written as explicit loops."""
    n_s, n_a, n_b = loss.shape
    q = np.zeros((n_s, n_a, n_b))
    for s in range(n_s):
        for a in range(n_a):
            for b in range(n_b):
                acc = 0.0
                for s2 in range(n_s):
                    acc += transition[s, a, b, s2] * v[s2]
                q[s, a, b] = loss[s, a, b] + gamma * acc
    return q


def policy_pair_value(loss: np.ndarray, transition: np.ndarray, gamma: float,
                      x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact discounted loss of a fixed policy pair via the linear system."""
    n_s = loss.shape[0]
    sigma = np.einsum("sa,sab,sb->s", x, loss, y)
    p = np.einsum("sa,sabt,sb->st", x, transition, y)
    return np.linalg.solve(np.eye(n_s) - gamma * p, sigma)


def unstacked_best_response(game, fixed_policy: np.ndarray, fixed_side: int,
                            tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray, int]:
    """Policy iteration on one induced MDP, each side in its own direction.

    The reference for the stacked ``best_response``, which runs every item
    through one minimizing loop and writes the maximizer's side as the
    minimizer of the negated loss.  Here the maximizer takes ``argmax`` and
    ``max`` on the loss as it is.  Returns ``(value, one-hot policy, the
    number of improvement steps)``; no certificate is checked.
    """
    if fixed_side == 2:
        loss = np.einsum("sab,sb->sa", game.loss, fixed_policy)
        trans = np.einsum("sabt,sb->sat", game.transition, fixed_policy)
    else:
        loss = np.einsum("sab,sa->sb", game.loss, fixed_policy)
        trans = np.einsum("sabt,sa->sbt", game.transition, fixed_policy)
    minimize = fixed_side == 2
    pick = np.argmin if minimize else np.argmax
    n_states, n_act = loss.shape
    rows = np.arange(n_states)
    actions = pick(loss, axis=1)
    steps = 0
    while True:
        v = np.linalg.solve(np.eye(n_states) - game.gamma * trans[rows, actions],
                            loss[rows, actions])
        q = loss + game.gamma * (trans @ v)
        q_cur = q[rows, actions]
        q_best = q.min(axis=1) if minimize else q.max(axis=1)
        tie_tol = 1e-13 * max(1.0, float(np.max(np.abs(v))))
        improves = (q_cur - q_best > tie_tol) if minimize else (q_best - q_cur > tie_tol)
        if not improves.any():
            break
        actions = np.where(improves, pick(q, axis=1), actions)
        steps += 1
    policy = np.zeros((n_states, n_act))
    policy[rows, actions] = 1.0
    return v, policy, steps


def enumeration_best_response(loss: np.ndarray, transition: np.ndarray,
                              gamma: float, y: np.ndarray) -> np.ndarray:
    """Minimizing best response to y by brute force over deterministic policies.

    Evaluates every pure stationary policy exactly and takes the elementwise
    minimum, which equals the best-response value vector because the response
    MDP admits a deterministic optimal policy that is optimal in every state.
    """
    n_s, n_a, _ = loss.shape
    best = np.full(n_s, np.inf)
    for assignment in product(range(n_a), repeat=n_s):
        x = np.zeros((n_s, n_a))
        x[np.arange(n_s), assignment] = 1.0
        best = np.minimum(best, policy_pair_value(loss, transition, gamma, x, y))
    return best


# ---------------------------------------------------------------------------
# Reference learner pieces
# ---------------------------------------------------------------------------

def sort_projection_1d(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of one vector onto the simplex, in plain Python floats.

    Textbook O(n log n) sort-threshold algorithm, written independently of
    the library's batched version.  The vector is sorted in descending order
    and walked once with a running sum, left to right as ``np.cumsum`` adds,
    taking the Duchi et al. test ``u_j + (1 - css_j) / j > 0`` at every
    rank.  The support size is the number of ranks that pass, the library's
    rule: where rounding makes the test fail and then pass again, the passing
    ranks are not a prefix and the largest of them would give another
    support.  A vector that passes no test has no projection and raises
    ``ValueError``.
    """
    entries = np.asarray(v, dtype=np.float64).tolist()
    css, running, support = 0.0, [], 0
    for j, value in enumerate(sorted(entries, reverse=True), start=1):
        css += value
        running.append(css)
        support += value + (1.0 - css) / j > 0.0
    if support == 0:
        raise ValueError("empty support")
    tau = (running[support - 1] - 1.0) / support
    return np.array([value - tau if value - tau > 0.0 else 0.0 for value in entries])


def sort_projection_rows(v: np.ndarray) -> np.ndarray:
    """``sort_projection_1d`` applied to every row (last axis) of ``v``."""
    v = np.asarray(v, dtype=np.float64)
    rows = v.reshape(-1, v.shape[-1])
    return np.array([sort_projection_1d(row) for row in rows]).reshape(v.shape)


def scalar_mat_vec(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """q @ v computed entry by entry with plain scalar multiply-then-add.

    BLAS matmul kernels may fuse the multiply and add into one rounding (FMA),
    which occasionally lands one ulp away from the sequential IEEE result;
    spelling the dot products out keeps the reference bit-reproducible.
    """
    out = np.empty(q.shape[0])
    for i in range(q.shape[0]):
        acc = q[i, 0] * v[0]
        for k in range(1, v.size):
            acc = acc + q[i, k] * v[k]
        out[i] = acc
    return out


def scalar_vec_mat(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """v @ q with the same explicit scalar arithmetic as scalar_mat_vec."""
    out = np.empty(q.shape[1])
    for j in range(q.shape[1]):
        acc = v[0] * q[0, j]
        for k in range(1, v.size):
            acc = acc + v[k] * q[k, j]
        out[j] = acc
    return out


def matrix_ogda_run(q: np.ndarray, eta: float, n_steps: int,
                    x0: np.ndarray, y0: np.ndarray):
    """Optimistic gradient descent/ascent on a fixed matrix game.

    Four projected steps per iteration with gradients taken at the secondary
    iterates; returns the final (x_hat, x, y_hat, y).  Uses its own 1-D
    projection and scalar dot products so it shares no code paths with the
    library learner.
    """
    x_hat, x = x0.copy(), x0.copy()
    y_hat, y = y0.copy(), y0.copy()
    for _ in range(n_steps):
        ell = scalar_mat_vec(q, y)
        r = scalar_vec_mat(x, q)
        x_hat = sort_projection_1d(x_hat - eta * ell)
        x = sort_projection_1d(x_hat - eta * ell)
        y_hat = sort_projection_1d(y_hat + eta * r)
        y = sort_projection_1d(y_hat + eta * r)
    return x_hat, x, y_hat, y


# ---------------------------------------------------------------------------
# The learner step with one projection per player and half-step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnstackedState:
    """Learner iterates with each player's strategies in its own array."""

    x_hat: np.ndarray  # (S, A)
    x: np.ndarray      # (S, A)
    y_hat: np.ndarray  # (S, B)
    y: np.ndarray      # (S, B)
    v: np.ndarray      # (S,)
    t: int
    eta: float


def unstacked_ogda_step(state: UnstackedState, ell, r, rho) -> UnstackedState:
    """The optimistic step as four ``project_simplex`` calls.

    Unlike the other oracles this is the library's own arithmetic on purpose:
    it is the reference for ``ogda_step``, which stacks both players' rows
    into one padded projection per half-step and must return the same bits.
    """
    from zsmg.learner import project_simplex

    if not (np.isfinite(ell).all() and np.isfinite(r).all() and np.isfinite(rho).all()):
        raise ValueError("non-finite payoff estimates passed to ogda_step")
    gx = state.eta * ell
    gy = state.eta * r
    x_hat = project_simplex(state.x_hat - gx)
    x = project_simplex(x_hat - gx)
    y_hat = project_simplex(state.y_hat + gy)
    y = project_simplex(y_hat + gy)
    return replace(state, x_hat=x_hat, x=x, y_hat=y_hat, y=y, t=state.t + 1)


def unstacked_diagnostics_update(j_prev, k_prev, x_t, x_prev, y_t, y_prev, q_t, q_prev,
                                 alpha_t):
    """The movement diagnostics with each player's strategies in its own array.

    The library's own arithmetic on purpose: it is the reference for
    ``diagnostics_update``, which differences and squares the stacked
    iterates in one pass and must return the same bits.
    """
    move = ((x_t - x_prev) ** 2).sum(axis=1) + ((y_t - y_prev) ** 2).sum(axis=1)
    q_step = np.abs(q_t - q_prev).max(axis=(1, 2))
    j_new = (1.0 - alpha_t) * j_prev + alpha_t * move
    k_new = (1.0 - alpha_t) * k_prev + alpha_t * q_step**2
    return j_new, k_new, q_step


def contiguous_exact_triple(q_t, x, y):
    """The exact ``(ell, r, rho)`` from three einsums into fresh contiguous arrays.

    The reference for the learner's exact estimates, which the library writes
    with ``out=`` into arrays its loop reuses and which must keep these bits.
    """
    ell = np.einsum("sab,sb->sa", q_t, y)
    r = np.einsum("sab,sa->sb", q_t, x)
    return ell, r, np.einsum("sa,sa->s", x, ell)


def fresh_sampled_estimates(traj, v_prev, gamma):
    """Visit-mean ``(ell, r, rho)`` of a rollout, each built in a fresh zeroed array.

    The reference for ``sampled_estimates``, which writes ``ell`` and ``r``
    into arrays the caller owns and reuses, and must give these bits whatever
    those arrays held before.
    """
    v_prev = np.asarray(v_prev, dtype=np.float64)
    n_s, n_a, n_b = traj.n_states, traj.n_actions_p1, traj.n_actions_p2
    target = traj.losses + gamma * v_prev[traj.states[1:]]
    s = traj.states[:-1]

    def mean_by(idx, n_bins):
        sums = np.bincount(idx, weights=target, minlength=n_bins)
        counts = np.bincount(idx, minlength=n_bins)
        return np.divide(sums, counts, out=np.zeros(n_bins), where=counts > 0)

    ell = mean_by(s * n_a + traj.actions_p1, n_s * n_a).reshape(n_s, n_a)
    r = mean_by(s * n_b + traj.actions_p2, n_s * n_b).reshape(n_s, n_b)
    return ell, r, mean_by(s, n_s)


def per_run_metrics_row(t, game, ground_truth, x_hat, y_hat, q_t, j_max, k_max, q_step_max,
                        est_err=None, wall_clock=None):
    """One run's metric row, each metric from its own unstacked call.

    The reference for ``make_metrics_row`` with a run axis: one
    ``game_duality_gap`` and one ``dist_to_optimal_sets`` call for this run
    alone, and the stage gaps state by state through ``duality_gap_state``.
    """
    from zsmg.games import JointPolicy
    from zsmg.groundtruth import dist_to_optimal_sets, duality_gap_state, game_duality_gap
    from zsmg.metrics import MetricsRow

    policy = JointPolicy(x=x_hat, y=y_hat)
    state_gap = max(duality_gap_state(ground_truth.q_star[s], x_hat[s], y_hat[s])
                    for s in range(game.n_states))
    return MetricsRow(
        t=t,
        game_gap=float(game_duality_gap(game, policy, tol=ground_truth.tol)),
        mean_dist_sq=float(dist_to_optimal_sets(ground_truth, policy).mean),
        state_gap_max=float(state_gap),
        q_err_max=float(np.max(np.abs(q_t - ground_truth.q_star))),
        policy_step_avg_max=float(j_max),
        q_step_avg_max=float(k_max),
        q_step_max=float(q_step_max),
        est_err_max=est_err,
        wall_clock=wall_clock,
    )


def unstacked_selfplay(game, config, ground_truth=None):
    """Self-play loop built on ``unstacked_ogda_step``; returns (final state, rows).

    The loop updates the movement diagnostics every iteration, with or
    without metric rows, computes exact estimates with
    ``contiguous_exact_triple`` and rows with ``per_run_metrics_row``.
    Sampled estimates mix exploration per run, walk with
    ``searchsorted_rollout`` from a generator seeded once, building no kept
    rows, and average with ``fresh_sampled_estimates``; at logged iterations
    the estimate error is the largest of three whole-array deviations from
    ``contiguous_exact_triple`` on the mixed strategies.
    ``ground_truth`` is required when ``config.cadence > 0``.
    """
    from zsmg.estimators import explore_mix
    from zsmg.learner import _setup, critic_step, initial_state, make_alpha_schedule
    from zsmg.games import q_from_v

    run = _setup(game, config)
    game = run.game
    alpha_fn = make_alpha_schedule(config.alpha, game.gamma)
    stacked = initial_state(game, eta=run.shared["eta"],
                            init_x=config.init_x, init_y=config.init_y)
    eps_prime, rng, current = run.shared["epsilon_prime"], np.random.default_rng(run.seed), 0
    state = UnstackedState(
        x_hat=stacked.x_hat.copy(), x=stacked.x.copy(), y_hat=stacked.y_hat.copy(),
        y=stacked.y.copy(), v=stacked.v, t=stacked.t, eta=stacked.eta,
    )
    cadence = int(config.cadence)
    q_prev = np.zeros_like(game.loss)
    x_prev, y_prev = np.zeros_like(state.x), np.zeros_like(state.y)
    j_state = k_state = np.zeros(game.n_states)
    rows = []
    for t in range(1, config.iterations + 1):
        q_t = q_from_v(game, state.v)
        alpha_t = alpha_fn(t)
        j_state, k_state, q_step = unstacked_diagnostics_update(
            j_state, k_state, state.x, x_prev, state.y, y_prev, q_t, q_prev, alpha_t
        )
        logging_now = cadence > 0 and t % cadence == 0
        if config.estimator == "exact":
            (ell, r, rho), est_err = contiguous_exact_triple(q_t, state.x, state.y), None
        else:
            x_mix, y_mix = explore_mix(state.x, eps_prime), explore_mix(state.y, eps_prime)
            traj = searchsorted_rollout(game, x_mix, y_mix, run.shared["rollout_len"],
                                        0 if run.rollout_reset else current, rng)
            current = int(traj.states[-1])
            (ell, r, rho), est_err = fresh_sampled_estimates(traj, state.v, game.gamma), None
            if logging_now:
                exact = contiguous_exact_triple(q_t, x_mix, y_mix)
                est_err = float(max(np.max(np.abs(got - want))
                                    for got, want in zip((ell, r, rho), exact)))
        if logging_now:
            rows.append(per_run_metrics_row(
                t=t, game=game, ground_truth=ground_truth,
                x_hat=state.x_hat, y_hat=state.y_hat, q_t=q_t,
                j_max=float(j_state.max()), k_max=float(k_state.max()),
                q_step_max=float(q_step.max()), est_err=est_err,
            ))
        x_prev, y_prev, q_prev = state.x, state.y, q_t
        stepped = unstacked_ogda_step(state, ell, r, rho)
        state = replace(stepped, v=critic_step(state.v, rho, alpha_t))
    return state, rows


# ---------------------------------------------------------------------------
# Reference budget formulas
# ---------------------------------------------------------------------------

def sample_budget_reference(n_a: int, n_b: int, gamma: float, mu: float,
                            epsilon: float, horizon: int, delta: float,
                            c_l: float = 1.0) -> int:
    """Rollout-length formula recomputed from scratch with math.* scalars."""
    import math

    log_term = math.log(horizon / delta) ** 2
    raw = c_l * (n_a ** 3 + n_b ** 3) / ((1.0 - gamma) * mu * epsilon ** 3) * log_term
    return int(math.ceil(raw))


def average_gap_budget_reference(xi: float, n_states: int, gamma: float,
                                 eta: float, c_t: float = 1.0):
    """(iterations, epsilon, log_factor) for the average-gap accuracy mode."""
    import math

    iterations = int(math.ceil(c_t * n_states ** 2 / (eta ** 2 * (1.0 - gamma) ** 4 * xi ** 2)))
    epsilon = eta * (1.0 - gamma) ** 4 * xi ** 2 / n_states ** 2
    log_factor = math.log(n_states / (eta * (1.0 - gamma) * xi))
    return iterations, epsilon, log_factor


def last_iterate_budget_reference(xi: float, n_states: int, gamma: float,
                                  eta: float, c_hat: float, c_t: float = 1.0):
    """(iterations, epsilon) for the last-iterate accuracy mode."""
    import math

    iterations = int(math.ceil(c_t * n_states ** 2 / (eta ** 4 * c_hat ** 4 * (1.0 - gamma) ** 4 * xi)))
    epsilon = eta * c_hat ** 2 * (1.0 - gamma) ** 3 * xi
    return iterations, epsilon


# ---------------------------------------------------------------------------
# Cold-start value iteration
# ---------------------------------------------------------------------------

def cold_start_shapley(game, tol: float = 1e-9, max_iter: int = 1_000_000):
    """Shapley value iteration that solves every stage game from a cold simplex start.

    Unlike the other oracles this is the library's own algorithm on purpose:
    it is the reference for the solver's warm start, which must change only
    where the simplex begins, never the returned bits.  Returns
    (v_star, x_star, y_star).
    """
    from zsmg.games import q_from_v
    from zsmg.groundtruth import solve_matrix_game

    threshold = tol * (1.0 - game.gamma) ** 2 / (2.0 * game.gamma)
    v = np.zeros(game.n_states)
    for _ in range(max_iter):
        q = q_from_v(game, v)
        v_new = np.array([solve_matrix_game(q[s], tol=tol).value
                          for s in range(game.n_states)])
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if step <= threshold:
            break
    else:
        raise ArithmeticError("cold-start value iteration did not converge")
    q_star = q_from_v(game, v)
    sols = [solve_matrix_game(q_star[s], tol=tol) for s in range(game.n_states)]
    return v, np.array([sol.x for sol in sols]), np.array([sol.y for sol in sols])


def per_state_shapley(game, tol: float = 1e-9, max_iter: int = 1_000_000):
    """Shapley value iteration with one warm-started scalar simplex per state per sweep.

    Like ``cold_start_shapley`` this is the library's own algorithm on
    purpose: it is the solver's loop before the stacked sweep, and the
    reference for it.  The stacked basis read may only decide which states
    skip the scalar solve, never the returned bits.  Returns
    (v_star, q_star, x_star, y_star).
    """
    from zsmg.games import q_from_v
    from zsmg.groundtruth import solve_matrix_game

    threshold = tol * (1.0 - game.gamma) ** 2 / (2.0 * game.gamma)
    v = np.zeros(game.n_states)
    bases = [None] * game.n_states
    for _ in range(max_iter):
        q = q_from_v(game, v)
        sols = [solve_matrix_game(q[s], tol=tol, basis=bases[s]) for s in range(game.n_states)]
        bases = [sol.basis for sol in sols]
        v_new = np.array([sol.value for sol in sols])
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if step <= threshold:
            break
    else:
        raise ArithmeticError("per-state value iteration did not converge")
    q_star = q_from_v(game, v)
    sols = [solve_matrix_game(q_star[s], tol=tol, basis=bases[s]) for s in range(game.n_states)]
    return v, q_star, np.array([sol.x for sol in sols]), np.array([sol.y for sol in sols])


def certify_sweeps(sweeps: list, tol: float) -> None:
    """Certify the queued sweeps ``(q, shift, bases, x_b, duals)`` in one ``_certified``
    call over their concatenated stacks, first sweep first, and empty the queue."""
    from zsmg.groundtruth import _certified

    if sweeps:
        stacked = [np.concatenate(part) for part in zip(*sweeps)]
        sweeps.clear()
        _certified(*stacked, tol)


def settle_every_sweep_shapley(game, tol: float = 1e-9, max_iter: int = 1_000_000):
    """Shapley value iteration in which every sweep runs the whole ``_settle``.

    The solver's loop before its sweeps were checked in stacks, kept as the
    reference for them: each sweep reads its bases, tests settlement and
    pivots through ``_settle``; its certificate is queued, and the queue is
    certified every ``_CERTIFY_EVERY`` sweeps, at convergence, and before the
    iteration cap's or any other error leaves the loop.  Checking settlement
    once per stack of sweeps may change neither the returned bits nor the
    error raised, message and matrix.  Returns (v_star, q_star, x_star, y_star).
    """
    from zsmg import groundtruth
    from zsmg.games import q_from_v

    threshold = tol * (1.0 - game.gamma) ** 2 / (2.0 * game.gamma) if game.gamma else np.inf
    v = np.zeros(game.n_states)
    q = q_from_v(game, v)
    bases, stack, sweeps = None, groundtruth._LpStack(), []
    try:
        for _ in range(max_iter):
            shift, x_b, duals, _, bases = groundtruth._settle(q, bases, stack)
            sweeps.append((q, shift, bases.copy(), x_b, duals))
            if len(sweeps) == groundtruth._CERTIFY_EVERY:
                certify_sweeps(sweeps, tol)
            v_new = groundtruth._basic_solutions(shift, bases, x_b, game.n_actions_p1,
                                                 stack.rows)[1]
            step = float(np.maximum.reduce(np.abs(v_new - v)))
            v = v_new
            q = q_from_v(game, v)
            if step <= threshold:
                break
        else:
            raise ArithmeticError(
                f"value iteration did not converge in {max_iter} iterations "
                f"(last step {step:.3e}, threshold {threshold:.3e})"
            )
        certify_sweeps(sweeps, tol)
    except Exception:
        certify_sweeps(sweeps, tol)
        raise
    values, x_star, y_star, *_ = groundtruth._stage_solutions(q, bases, tol, stack)
    for s in range(game.n_states):
        if abs(values[s] - v[s]) > tol:
            raise ArithmeticError(f"fixed-point consistency failed at state {s}: "
                                  f"val={float(values[s])!r} vs v_star={float(v[s])!r}")
    return v, q, x_star, y_star


# ---------------------------------------------------------------------------
# Rollouts by numpy binary search
# ---------------------------------------------------------------------------

def searchsorted_rollout(game, x, y, n_steps: int, s_init: int, rng):
    """Rollout with one ``np.searchsorted`` per draw, stored into numpy arrays.

    The reference for ``rollout``, which walks plain lists with
    ``bisect_right`` instead and must return the same trajectory and leave
    the generator in the same state.
    """
    from zsmg.estimators import Trajectory

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


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def binomial_three_se(p_hat: float, p: float, n: int) -> bool:
    """True when a frequency estimate sits within three standard errors."""
    return abs(p_hat - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n)


def two_state_hitting_time(p_switch: float) -> float:
    """Expected steps to reach the other state of a two-state chain: 1/p."""
    return 1.0 / p_switch
