"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms and data
layouts than the library code (grids and exhaustive enumeration instead of
LPs and projections, triple loops instead of einsum), so agreement between
the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from itertools import product

import numpy as np


# ---------------------------------------------------------------------------
# Simplex grids and grid-based minimax
# ---------------------------------------------------------------------------

def simplex_grid(n: int, step: float) -> np.ndarray:
    """All points of the n-simplex with coordinates on a uniform grid.

    Returns an array of shape (count, n) whose rows sum to one.  Supports
    n in {2, 3}, which is all the tests need.
    """
    m = int(round(1.0 / step))
    if n == 2:
        a = np.arange(m + 1) / m
        return np.stack([a, 1.0 - a], axis=1)
    if n == 3:
        blocks = []
        for i in range(m + 1):
            j = np.arange(m - i + 1)
            blocks.append(np.stack([np.full(j.size, i), j, m - i - j], axis=1))
        return np.concatenate(blocks) / m
    raise ValueError(f"simplex_grid supports n in {{2, 3}}, got {n}")


def grid_minimax_value(q: np.ndarray, step: float = 1e-3) -> float:
    """min over grid x of max over columns of x @ q.

    The inner maximum over the opponent's simplex is attained at a vertex, so
    only the outer player needs the grid; the result is within O(step) of the
    exact matrix-game value.
    """
    grid = simplex_grid(q.shape[0], step)
    return float(np.min(np.max(grid @ q, axis=1)))


def grid_distance_sq(z: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray,
                     step: float = 2e-3, slack: float = 1e-12) -> float:
    """min ||u - z||^2 over grid points of the simplex with a_mat @ u <= b_vec."""
    grid = simplex_grid(z.size, step)
    feasible = grid[(grid @ a_mat.T <= b_vec + slack).all(axis=1)]
    if feasible.size == 0:
        raise ValueError("no feasible grid point; polytope too small for this step")
    return float(np.min(np.sum((feasible - z) ** 2, axis=1)))


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
    """Euclidean projection of one vector onto the simplex (sort-threshold form).

    Textbook O(n log n) algorithm written independently of the library's
    batched version: sort descending, find the largest prefix whose running
    threshold stays positive, subtract, clip.
    """
    u = np.sort(v)[::-1]
    rho = 0
    for j in range(1, v.size + 1):
        if u[j - 1] + (1.0 - np.sum(u[:j])) / j > 0.0:
            rho = j
    tau = (np.sum(u[:rho]) - 1.0) / rho
    return np.maximum(v - tau, 0.0)


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


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def binomial_three_se(p_hat: float, p: float, n: int) -> bool:
    """True when a frequency estimate sits within three standard errors."""
    return abs(p_hat - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n)


def two_state_hitting_time(p_switch: float) -> float:
    """Expected steps to reach the other state of a two-state chain: 1/p."""
    return 1.0 / p_switch
