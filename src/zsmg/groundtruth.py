"""Independent ground-truth solvers for zero-sum Markov games.

Nothing in this module shares code with the learner: matrix games are solved by
a small dense simplex method, the Markov game itself by value iteration over
per-state matrix games, and distances to the optimal-strategy polytopes by
exact projection: one nonnegative least-squares solve finds the active set,
and a KKT residual certifies the point.  These routines provide the yardstick
against which learned policies are measured.

The simplex can start from a given basis.  Value iteration keeps each state's
optimal basis from one sweep to the next; late in the iteration it rarely
changes, so most stage-game solves would take no pivot.  Every solution
reports its final ``basis`` and the ``pivots`` it took, and is certified the
same way whatever the start.

Each value-iteration sweep therefore first checks all S kept bases at once:
one stacked ``np.linalg.solve`` on the basis columns (the same LAPACK solve,
on the same matrices, as the scalar simplex, so the values have its bits),
then every optimality and certificate check of the scalar path in batched
arithmetic.  Batched rounding may differ from the scalar code's, so a state
settles only if it clears each of those thresholds by a rounding margin.
Every other state (no basis yet, a basis that must pivot, a state within the
margin, or any state of a singular stack) goes through the scalar
``solve_matrix_game``, warm-started from its basis, which decides exactly as
it would alone.  The scalar simplex stays the only code that pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .games import MarkovGame, JointPolicy, best_response, q_from_v

__all__ = [
    "MatrixGameSolution",
    "GroundTruth",
    "DistanceResult",
    "LpSolveError",
    "solve_matrix_game",
    "shapley_solve",
    "duality_gap_state",
    "game_duality_gap",
    "dist_to_optimal_sets",
    "dist_state",
    "margin_constant_estimate",
]


class LpSolveError(ArithmeticError):
    """Simplex failure; carries the offending matrix for post-mortem."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message)
        self.matrix = np.array(matrix)


@dataclass(frozen=True)
class MatrixGameSolution:
    """Minimax solution of a bilinear matrix game min_x max_y x^T Q y."""

    value: float
    x: np.ndarray          # (A,) minimizer's optimal mixed strategy
    y: np.ndarray          # (B,) maximizer's optimal mixed strategy
    col_payoffs: np.ndarray  # (B,) payoffs x^T Q, all <= value + tol
    row_payoffs: np.ndarray  # (A,) payoffs Q y, all >= value - tol
    basis: np.ndarray      # (B+1,) sorted column indices of the final optimal simplex basis
    pivots: int            # simplex pivots taken from the starting basis to ``basis``


def _simplex_pivot(
    q: np.ndarray, tol: float, basis: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int]:
    """Solve min_x max_b (Q^T x)_b over the simplex by primal simplex with Bland's rule.

    Uses the classic value-variable LP: minimize v subject to Q^T x <= v * 1,
    sum(x) = 1, x >= 0.  Entries are shifted positive first so the value
    variable stays basic throughout.  Returns (value, x, y, basis, pivots) with
    y read off the dual multipliers of the column constraints.

    The loop starts from ``basis`` when one is given (a warm start, e.g. the
    optimal basis of a nearby matrix).  If that basis is singular or not
    primal feasible in the loop's first solve, the loop continues from the
    cold start instead, so the rejected basis costs no extra solve.  Value,
    x and y are all read from the solve at the terminal basis, so every start
    that ends at the same optimal basis returns the same bits.  The loop ends
    only at a basis that is both primal and dual feasible within ``tol``, so
    re-solving from the returned basis takes no pivot (unless rounding made
    the solve widen ``tol``, see below).
    """
    n_a, n_b = q.shape
    shift = 1.0 - float(q.min())
    qs = q + shift

    # Standard form: columns are [x_1..x_A, v, s_1..s_B]; rows are the B column
    # constraints (with slacks) followed by the simplex equality.
    m = n_b + 1
    n = n_a + 1 + n_b
    a_mat = np.zeros((m, n))
    a_mat[:n_b, :n_a] = qs.T
    a_mat[:n_b, n_a] = -1.0
    a_mat[:n_b, n_a + 1:] = np.eye(n_b)
    a_mat[n_b, :n_a] = 1.0
    b_vec = np.zeros(m)
    b_vec[n_b] = 1.0
    rhs = np.column_stack([b_vec, np.eye(m)])
    cost = np.zeros(n)
    cost[n_a] = 1.0

    def cold_basis() -> np.ndarray:
        # The vertex x = e_0, v = max_b Q[0, b]: basic variables are x_0, v,
        # and every slack except the binding column's.
        b_star = int(np.argmax(qs[0]))
        return np.array([0, n_a] + [n_a + 1 + b for b in range(n_b) if b != b_star])

    warm = basis is not None
    if warm:
        basis = np.sort(np.asarray(basis, dtype=np.intp))
        if (basis.shape != (m,) or basis[0] < 0 or basis[-1] >= n
                or bool((basis[1:] == basis[:-1]).any())):
            raise ValueError(
                f"basis must hold {m} distinct column indices in [0, {n}), got {basis.tolist()}"
            )
    else:
        basis = cold_basis()

    # Bland's rule cannot cycle in exact arithmetic, but near-tied entries make
    # some bases nearly singular, and rounding there can revisit a basis or
    # pivot into an exactly singular one.  The step after such an event is
    # taken carefully instead: steepest entering column, largest pivot among
    # the tied leaving rows, and a ratio test that ignores rounding-level
    # infeasibility; a revisit also widens tol tenfold, up to 1e-9.  Solves
    # that never meet such a basis take only Bland steps.
    pivots = 0
    seen = set()
    careful = False
    previous = None
    for _ in range(20_000):
        try:
            b_inv_ab = np.linalg.solve(a_mat[:, basis], rhs)
        except np.linalg.LinAlgError:
            if not warm and previous is None:
                raise
            b_inv_ab = None
        if warm:
            warm = False
            # A primal-infeasible start would walk the ratio test backwards;
            # entries within tol of zero are the rounding of degenerate pivots.
            if b_inv_ab is None or bool((b_inv_ab[:, 0] < -tol).any()):
                basis = cold_basis()
                continue
        if b_inv_ab is None:
            basis = previous  # already seen, so the retry is a careful step
            continue
        if basis.tobytes() in seen:
            careful = True
            tol = min(10.0 * tol, 1e-9)
        seen.add(basis.tobytes())
        previous = basis.copy()
        x_b = b_inv_ab[:, 0]
        b_inv = b_inv_ab[:, 1:]
        duals = cost[basis] @ b_inv
        reduced = cost - duals @ a_mat
        reduced[basis] = 0.0
        entering_candidates = np.nonzero(reduced < -tol)[0]
        if entering_candidates.size:
            # Bland: lowest index enters
            j = int(np.argmin(reduced)) if careful else int(entering_candidates[0])
            direction = b_inv @ a_mat[:, j]
            positive = direction > tol
            if not positive.any():
                raise LpSolveError("matrix-game LP is unbounded (should not happen)", q)
            ratios = np.full(m, np.inf)
            ratios[positive] = (np.maximum(x_b, 0.0) if careful else x_b)[positive] \
                / direction[positive]
            best = ratios.min()
            ties = np.nonzero(ratios <= best + tol * max(1.0, best))[0]
            if careful:
                leave_pos = ties[np.argmax(direction[ties])]
            else:
                leave_pos = ties[np.argmin(basis[ties])]  # Bland: lowest basic index leaves
        else:
            infeasible = np.nonzero(x_b < -tol)[0]
            if infeasible.size == 0:
                x = np.zeros(n)
                x[basis] = x_b
                sol_x = x[:n_a]
                value = float(x[n_a]) - shift
                y = -duals[:n_b]
                return value, sol_x, y, basis, pivots
            # Rounding can also end the primal phase at a slightly infeasible
            # basis.  A dual simplex step repairs it and keeps the reduced
            # costs nonnegative; of the near-minimal ratios it takes the
            # largest pivot, which keeps the next basis well posed.
            leave_pos = (int(np.argmin(x_b)) if careful
                         else infeasible[np.argmin(basis[infeasible])])  # Bland
            row = b_inv[leave_pos] @ a_mat
            row[basis] = 0.0
            candidates = np.nonzero(row < -tol)[0]
            if candidates.size == 0:
                raise LpSolveError("matrix-game LP is infeasible (should not happen)", q)
            ratios = np.maximum(reduced[candidates], 0.0) / -row[candidates]
            near = candidates[ratios <= ratios.min() + tol]
            j = int(near[np.argmin(row[near])])
        careful = False
        basis[leave_pos] = j
        basis.sort()
        pivots += 1
    raise LpSolveError("simplex iteration cap exceeded", q)


def solve_matrix_game(
    q: np.ndarray, tol: float = 1e-9, basis: np.ndarray | None = None
) -> MatrixGameSolution:
    """Exact minimax solution of the matrix game where the row player minimizes.

    The optimal strategies are certified directly: every column payoff under
    ``x`` is at most ``value + tol`` and every row payoff under ``y`` at least
    ``value - tol``; a failed certificate raises ``LpSolveError``.

    ``basis`` warm-starts the simplex, typically with the ``basis`` field of
    the solution of a nearby matrix of the same shape.  A singular or
    infeasible basis falls back to the cold start, so the result is always a
    certified solution; ``pivots`` reports how many pivots the solve took.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.size == 0:
        raise ValueError(f"expected a nonempty 2-D payoff matrix, got shape {q.shape}")
    value, x, y, basis, pivots = _simplex_pivot(q, tol=1e-11, basis=basis)

    x = np.maximum(x, 0.0)
    x /= x.sum()
    y = np.maximum(y, 0.0)
    ysum = y.sum()
    if not (0.5 < ysum < 2.0):
        raise LpSolveError(f"dual strategy sum {ysum:.6f} far from 1", q)
    y /= ysum

    col_payoffs = x @ q
    row_payoffs = q @ y
    if col_payoffs.max() > value + tol or row_payoffs.min() < value - tol:
        raise LpSolveError(
            f"minimax certificate failed: value={value!r}, "
            f"max col payoff={col_payoffs.max()!r}, min row payoff={row_payoffs.min()!r}",
            q,
        )
    return MatrixGameSolution(
        value=value, x=x, y=y, col_payoffs=col_payoffs, row_payoffs=row_payoffs,
        basis=basis, pivots=pivots,
    )


@dataclass(frozen=True)
class GroundTruth:
    """Minimax values, stage games, and equilibrium witnesses of a Markov game."""

    v_star: np.ndarray   # (S,) minimax value per state
    q_star: np.ndarray   # (S, A, B) stage game at the fixed point
    x_star: np.ndarray   # (S, A) per-state minimax witness for player 1
    y_star: np.ndarray   # (S, B) per-state maximin witness for player 2
    tol: float           # solve tolerance: |val(q_star[s]) - v_star[s]| <= tol

    @property
    def witness_policy(self) -> JointPolicy:
        return JointPolicy(x=self.x_star, y=self.y_star)


# How far, in units of eps per term times the size of the terms, a threshold
# that the stacked check computes in batched arithmetic must be cleared.  Two
# evaluations of a k-term dot product in different orders differ by at most
# about 2 (k + 2) eps times the sum of the terms' magnitudes, so 8 (k + 2)
# leaves a factor of four.
_ROUNDING_ULPS = 8.0


class _StackedCheck:
    """One stacked certificate of every state's warm simplex basis per sweep.

    Holds the parts of the ``(S, B+1, A+1+B)`` standard-form LPs of
    ``_simplex_pivot`` that do not change between sweeps: the value column,
    the slack identity, the simplex row and the ``[b | I]`` right-hand side.
    """

    def __init__(self, n_states: int, n_a: int, n_b: int):
        m = n_b + 1
        self.a_mat = np.zeros((n_states, m, n_a + 1 + n_b))
        self.a_mat[:, :n_b, n_a] = -1.0
        self.a_mat[:, :n_b, n_a + 1:] = np.eye(n_b)
        self.a_mat[:, n_b, :n_a] = 1.0
        rhs = np.zeros((m, m + 1))
        rhs[n_b, 0] = 1.0
        rhs[:, 1:] = np.eye(m)
        self.rhs = np.broadcast_to(rhs, (n_states, m, m + 1))
        self.rows = np.arange(n_states)
        eps = np.finfo(np.float64).eps
        self.reduced_margin = _ROUNDING_ULPS * (m + 2) * eps
        self.payoff_margin = _ROUNDING_ULPS * (max(n_a, n_b) + 2) * eps

    def __call__(self, q: np.ndarray, bases: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, settled)`` for the stage games ``q`` at the given bases.

        One stacked ``np.linalg.solve`` on the basis columns runs LAPACK's
        ``gesv`` on the same matrices and right-hand side as the scalar solve,
        so ``x_b`` and the value read from it have the scalar bits.  A state
        is settled when its basis passes every check ``solve_matrix_game``
        makes without a pivot: ``x_b >= -1e-11``, no reduced cost below
        ``-1e-11``, a dual sum in (0.5, 2) and the minimax certificate within
        ``tol``.  The reduced costs, the dual sum and the payoffs are computed
        in batched arithmetic, whose rounding may differ from the scalar
        code's, so each of those thresholds must be cleared by a rounding
        margin.  ``values`` holds only where ``settled`` does; a singular
        stack settles no state.
        """
        n_states, n_a, n_b = q.shape
        rows = self.rows
        q_min = q.min(axis=(1, 2))
        shift = 1.0 - q_min
        a_mat = self.a_mat
        a_mat[:, :n_b, :n_a] = (q + shift[:, None, None]).transpose(0, 2, 1)
        try:
            b_inv_ab = np.linalg.solve(a_mat[rows[:, None], :, bases].transpose(0, 2, 1),
                                       self.rhs)
        except np.linalg.LinAlgError:
            return np.full(n_states, np.nan), np.zeros(n_states, dtype=bool)
        with np.errstate(all="ignore"):
            x_b = b_inv_ab[:, :, 0]
            v_pos = (bases < n_a).sum(axis=1)
            values = x_b[rows, v_pos] - shift
            # The cost vector is the value column's unit vector, so the duals
            # are the value row of B^-1 and the reduced costs c - duals @ A.
            # Every other column of A is nonnegative, and the value column is
            # basic in a settled state, so (|duals| @ A)_j bounds the terms.
            duals = b_inv_ab[rows, v_pos, 1:]
            slack = 1e-11 - self.reduced_margin - (
                (duals + self.reduced_margin * np.abs(duals))[:, None, :] @ a_mat)[:, 0]
            # Basic columns never enter; their slot holds the primal check.
            slack[rows[:, None], bases] = x_b + 1e-11

            x = np.zeros(slack.shape)
            x[rows[:, None], bases] = x_b
            x = np.maximum(x[:, :n_a], 0.0)
            x /= x.sum(axis=1, keepdims=True)
            y = np.maximum(-duals[:, :n_b], 0.0)
            y_sum = y.sum(axis=1)
            y /= y_sum[:, None]
            # Strategies sum to 1, so no payoff sums terms beyond max |q|.
            margin = self.payoff_margin * (1.0 + np.maximum(-q_min, q.max(axis=(1, 2))))
            settled = (
                (bases[rows, v_pos] == n_a)
                & (slack.min(axis=1) >= 0.0)
                & (np.abs(y_sum - 1.25) < 0.75 - margin)
                & ((x[:, None, :] @ q)[:, 0].max(axis=1) + margin <= values + tol)
                & ((q @ y[:, :, None])[:, :, 0].min(axis=1) - margin >= values - tol)
            )
        return values, settled


def shapley_solve(game: MarkovGame, tol: float = 1e-9, max_iter: int = 1_000_000) -> GroundTruth:
    """Solve the Markov game by value iteration with per-state matrix-game solves.

    The update V <- val(q_from_v(V)) is a gamma-contraction in the sup norm.
    Iteration stops once the step size guarantees both a sup-norm error below
    ``tol`` and a game-level duality gap of the returned witnesses below
    ``2 * tol`` (the per-step threshold is ``tol * (1-gamma)^2 / (2*gamma)``,
    which bounds the sup error by ``tol * (1-gamma) / 2``).

    Each sweep handles all S stage games at once.  Every state's optimal
    basis of the previous sweep is checked in one stacked solve
    (``_StackedCheck``); late in the iteration the optimal basis rarely
    changes, so almost every state settles there, with the bits the scalar
    simplex would give.  A state goes to the scalar ``solve_matrix_game``,
    warm-started from its basis, when it has no basis yet (the first sweep),
    when its basis must pivot, when it is within the rounding margin of any
    threshold of the check, or when the stack is singular.  The final witness
    solves are scalar and warm-started from the last sweep's bases.  A stage
    game with a single optimal basis gives the same bits as a cold solve;
    with several, the warm start may return another, equally certified,
    witness.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    gamma = game.gamma
    threshold = tol * (1.0 - gamma) ** 2 / (2.0 * gamma)
    n_states, n_a, n_b = game.loss.shape
    stacked_check = _StackedCheck(n_states, n_a, n_b)
    v = np.zeros(n_states)
    bases = np.zeros((n_states, n_b + 1), dtype=np.intp)
    for sweep in range(max_iter):
        q = q_from_v(game, v)
        if sweep:
            v_new, settled = stacked_check(q, bases, tol)
        else:
            v_new, settled = np.empty(n_states), np.zeros(n_states, dtype=bool)
        for s in np.flatnonzero(~settled):
            sol = solve_matrix_game(q[s], tol=tol, basis=bases[s] if sweep else None)
            v_new[s] = sol.value
            bases[s] = sol.basis
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if step <= threshold:
            break
    else:
        raise ArithmeticError(
            f"value iteration did not converge in {max_iter} iterations "
            f"(last step {step:.3e}, threshold {threshold:.3e})"
        )

    q_star = q_from_v(game, v)
    sols = [solve_matrix_game(q_star[s], tol=tol, basis=bases[s]) for s in range(n_states)]
    for s, sol in enumerate(sols):
        if abs(sol.value - v[s]) > tol:
            raise ArithmeticError(
                f"fixed-point consistency failed at state {s}: "
                f"val={sol.value!r} vs v_star={v[s]!r}"
            )
    return GroundTruth(
        v_star=v,
        q_star=q_star,
        x_star=np.array([sol.x for sol in sols]),
        y_star=np.array([sol.y for sol in sols]),
        tol=tol,
    )


def duality_gap_state(q_star_s: np.ndarray, x_s: np.ndarray, y_s: np.ndarray) -> float:
    """Stage-game duality gap max_y' x^T Q y' - min_x' x'^T Q y at one state.

    Inner optima are attained at vertices, so this is just max-column minus
    min-row payoff.  Zero exactly at the equilibria of ``q_star_s``.
    """
    return float(np.max(x_s @ q_star_s) - np.min(q_star_s @ y_s))


def game_duality_gap(game: MarkovGame, policy: JointPolicy, tol: float = 1e-9) -> float:
    """Game-level duality gap max_s [max_y' V_{x,y'}(s) - min_x' V_{x',y}(s)].

    Both inner optimizations are full best-response MDP solves, so this is the
    exploitability of the pair in the Markov game, not just in the stage games.
    """
    v_max, _ = best_response(game, policy.x, fixed_side=1, tol=tol)
    v_min, _ = best_response(game, policy.y, fixed_side=2, tol=tol)
    return float(np.max(v_max - v_min))


# ---------------------------------------------------------------------------
# Distance to the optimal-strategy polytopes
# ---------------------------------------------------------------------------

def _kkt_residual(z, u, a_mat, b_vec, feas_tol=1e-8):
    """Stationarity + feasibility residual for u ~ argmin ||u-z||^2 over the polytope.

    Recovers multipliers for the active constraints by nonnegative least
    squares and measures how well z - u decomposes into the active normals.
    """
    feas = max(
        abs(float(u.sum()) - 1.0),
        float(np.max(-u, initial=0.0)),
        float(np.max(a_mat @ u - b_vec, initial=0.0)) if a_mat.size else 0.0,
    )
    cols = [np.ones_like(u), -np.ones_like(u)]             # free multiplier for sum(u)=1
    if a_mat.size:
        for i in np.nonzero(a_mat @ u >= b_vec - feas_tol)[0]:
            cols.append(a_mat[i])
    for j in np.nonzero(u <= feas_tol)[0]:
        basis = np.zeros_like(u)
        basis[j] = -1.0
        cols.append(basis)
    mat = np.column_stack(cols)
    _, stat = nnls(mat, z - u)
    return max(feas, float(stat))


def _affine_projection(z: np.ndarray, m_mat: np.ndarray, c_vec: np.ndarray) -> np.ndarray:
    """Euclidean projection of z onto the affine set {u : m_mat @ u = c_vec}.

    Least-norm multipliers keep the formula valid for rank-deficient row sets;
    inconsistent row sets yield some point that downstream feasibility checks
    discard.
    """
    correction, *_ = np.linalg.lstsq(m_mat @ m_mat.T, m_mat @ z - c_vec, rcond=None)
    return z - m_mat.T @ correction


def _project_polytope(z: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray,
                      kkt_tol: float = 1e-9) -> np.ndarray:
    """Euclidean projection of z onto {u in simplex : a_mat @ u <= b_vec}.

    Two-dimensional problems use the exact interval form (the feasible set is
    a segment of the simplex, so projection is a clamp).  Larger problems are
    solved as a least-distance program by one nonnegative least-squares solve
    (Lawson & Hanson 1974, *Solving Least Squares Problems*, ch. 23).  The
    constraints with positive multipliers form the active set, and z is
    projected onto their affine hull exactly; should that point fail its
    checks, the NNLS point itself is the fallback.  Either is returned only
    once certified against the KKT conditions.
    """
    n = z.size
    if n == 1:
        return np.ones(1)
    if n == 2:
        # u = (t, 1-t); each constraint is linear in t, so the feasible set is an interval.
        lo, hi = 0.0, 1.0
        for a, b in zip(a_mat, b_vec):
            coef = a[0] - a[1]
            rhs = b - a[1]
            if coef > 0.0:
                hi = min(hi, rhs / coef)
            elif coef < 0.0:
                lo = max(lo, rhs / coef)
            elif rhs < -1e-12:
                raise ArithmeticError("infeasible polytope in 2-action projection")
        if lo > hi + 1e-12:
            raise ArithmeticError("infeasible polytope in 2-action projection")
        t = min(max((z[0] - z[1] + 1.0) / 2.0, lo), min(hi, max(lo, hi)))
        return np.array([t, 1.0 - t])

    a_arr = np.asarray(a_mat, dtype=np.float64).reshape(-1, n)
    b_arr = np.asarray(b_vec, dtype=np.float64).reshape(-1)
    ineq = np.vstack([-np.eye(n), a_arr])
    rhs = np.concatenate([np.zeros(n), b_arr])
    # With p the projection of z onto the plane sum(u) = 1 and the columns of
    # ``plane`` an orthonormal basis of its directions, u = p + plane @ w has
    # ||u - z||^2 = ||p - z||^2 + ||w||^2.  So w is the least-norm point of
    # {w : g @ w <= h}, whose dual is the NNLS below; its residual r gives
    # w = -r[:-1] / r[-1], and r[-1] = -||r||^2 is zero only when the
    # constraints are inconsistent.
    plane = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
    p = z + (1.0 - float(z.sum())) / n
    g = ineq @ plane
    h = rhs - ineq @ p
    lhs = np.vstack([-g.T, -h])
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


@dataclass(frozen=True)
class DistanceResult:
    """Squared distances of a policy pair to the per-state optimal-strategy sets."""

    per_state: np.ndarray  # (S,) dist^2(x[s] -> X*[s]) + dist^2(y[s] -> Y*[s])
    mean: float            # average of per_state over states
    x_proj: np.ndarray     # (S, A) nearest relaxed-optimal player-1 strategies
    y_proj: np.ndarray     # (S, B) nearest relaxed-optimal player-2 strategies


def dist_state(
    gt: GroundTruth, s: int, x_s: np.ndarray, y_s: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared distance of (x_s, y_s) to the relaxed optimal sets at state ``s``.

    The player-1 set is {u in simplex : Q*^T u <= (v* + tol) 1}; relaxing by the
    solve tolerance keeps the exact optimal set inside, so the reported distance
    is a slight underestimate (never an overestimate) of the true distance.
    """
    q = gt.q_star[s]
    v = gt.v_star[s]
    px = _project_polytope(np.asarray(x_s, dtype=np.float64), q.T, np.full(q.shape[1], v + gt.tol))
    py = _project_polytope(np.asarray(y_s, dtype=np.float64), -q, np.full(q.shape[0], -(v - gt.tol)))
    d2 = float(np.sum((x_s - px) ** 2) + float(np.sum((y_s - py) ** 2)))
    return d2, px, py


def dist_to_optimal_sets(gt: GroundTruth, policy: JointPolicy) -> DistanceResult:
    """Per-state and mean squared distance of a policy pair to the optimal sets."""
    n_states = gt.v_star.shape[0]
    per_state = np.zeros(n_states)
    x_proj = np.zeros_like(gt.x_star)
    y_proj = np.zeros_like(gt.y_star)
    for s in range(n_states):
        per_state[s], x_proj[s], y_proj[s] = dist_state(gt, s, policy.x[s], policy.y[s])
    return DistanceResult(
        per_state=per_state, mean=float(per_state.mean()), x_proj=x_proj, y_proj=y_proj
    )


def margin_constant_estimate(
    gt: GroundTruth, n_samples: int = 10_000, seed: int = 0, min_dist: float = 1e-6
) -> float:
    """Empirical estimate of the error-bound constant relating gap to distance.

    Samples strategy pairs uniformly per state, discards those closer than
    ``min_dist`` to the optimal sets, and returns the smallest observed ratio
    duality_gap / distance.  Sampling can only overestimate the true infimum,
    so treat the result as an upper bound.  Raises if every sample is discarded
    (e.g. single-action games where every strategy is optimal).
    """
    rng = np.random.default_rng(seed)
    n_states, n_a, n_b = gt.q_star.shape
    best = np.inf
    kept = 0
    for _ in range(n_samples):
        for s in range(n_states):
            x = rng.dirichlet(np.ones(n_a))
            y = rng.dirichlet(np.ones(n_b))
            d2, _, _ = dist_state(gt, s, x, y)
            d = np.sqrt(d2)
            if d < min_dist:
                continue
            kept += 1
            ratio = duality_gap_state(gt.q_star[s], x, y) / d
            if ratio < best:
                best = ratio
    if kept == 0:
        raise RuntimeError(
            "all samples were discarded: game appears fully optimal "
            "(every strategy pair is within min_dist of the optimal sets)"
        )
    return float(best)
