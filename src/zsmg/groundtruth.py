"""Independent ground-truth solvers for zero-sum Markov games.

Nothing in this module shares code with the learner: matrix games are solved by
a small dense simplex method, the Markov game itself by value iteration over
per-state matrix games, and distances to the optimal-strategy polytopes by
exact projection: one nonnegative least-squares solve finds the active set,
and a KKT residual certifies the point.  These routines provide the yardstick
against which learned policies are measured.

The simplex can start from a given basis, and value iteration keeps each
state's optimal basis from one sweep to the next.  Building the LP, reading a
basis and the minimax certificate are written once with a leading stack axis:
the simplex uses a stack of one, and each sweep reads all S kept bases at
once, so a state settles exactly when the simplex, started there, would take
no pivot.  numpy's stacked ``solve`` and ``matmul`` run the same per-matrix
kernel on every item, so each item has the bits it would have alone.  The
scalar simplex stays the only code that pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

# The simplex's starting feasibility and optimality tolerance.
_PIVOT_TOL = 1e-11


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


def _check_finite(name: str, array: np.ndarray, axes: str) -> None:
    """Raise ``ValueError`` naming the first non-finite entry of ``array``."""
    finite = np.isfinite(array)
    if not finite.all():
        bad = np.argwhere(~finite)
        where = ", ".join(f"{axis}={i}" for axis, i in zip(axes.split(), bad[0]))
        raise ValueError(f"non-finite {name} at ({where}): {float(array[tuple(bad[0])])!r}")


@lru_cache(maxsize=64)
def _lp_constants(n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only shape-only parts of the value-variable LP: the constraint matrix
    with a zero payoff block, the right-hand side ``[b | I]`` of a basis solve, the cost."""
    m, n = n_b + 1, n_a + 1 + n_b
    frame = np.zeros((m, n))
    frame[:n_b, n_a] = -1.0
    frame[:n_b, n_a + 1:] = np.eye(n_b)
    frame[n_b, :n_a] = 1.0
    constants = frame, np.column_stack([np.eye(m)[n_b], np.eye(m)])[None], np.eye(n)[n_a]
    for array in constants:
        array.flags.writeable = False
    return constants


def _value_lp(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shifts (S,) and standard-form LPs (S, B+1, A+1+B) of the stage games ``q``.

    Each LP minimizes v s.t. Q^T x <= v * 1, sum(x) = 1, x >= 0, on entries
    shifted to at least 1 so v is basic at every feasible basis.  Columns are
    [x_1..x_A, v, s_1..s_B]; rows the B column constraints, then sum(x) = 1.
    """
    n_states, n_a, n_b = q.shape
    shift = 1.0 - q.min(axis=(1, 2))
    frame = _lp_constants(n_a, n_b)[0]
    a_mat = np.empty((n_states,) + frame.shape)
    a_mat[:] = frame
    a_mat[:, :n_b, :n_a] = (q + shift[:, None, None]).transpose(0, 2, 1)
    return shift, a_mat


def _read_bases(a_mat: np.ndarray, bases: np.ndarray) -> tuple:
    """Read each LP of ``_value_lp`` at its basis: ``(x_b, duals, b_inv, reduced)``.

    One stacked solve gives ``[B^-1 b | B^-1]``; the duals are ``c_B B^-1``, the
    reduced costs ``c - duals A`` (zero on the basis).  Any singular basis raises.
    """
    n_states, m, n = a_mat.shape
    _, rhs, cost = _lp_constants(n - m, m - 1)
    rows = np.arange(n_states)[:, None]
    b_inv_ab = np.linalg.solve(a_mat[rows, :, bases].transpose(0, 2, 1), rhs)
    b_inv = b_inv_ab[:, :, 1:]
    duals = (cost[bases][:, None, :] @ b_inv)[:, 0]
    reduced = cost - (duals[:, None, :] @ a_mat)[:, 0]
    reduced[rows, bases] = 0.0
    return b_inv_ab[:, :, 0], duals, b_inv, reduced


def _certify(q: np.ndarray, shift: np.ndarray, bases: np.ndarray, x_b: np.ndarray,
             duals: np.ndarray, tol: float) -> tuple:
    """``(value, x, y, col_payoffs, row_payoffs, y_sum, dual_ok, payoff_ok)`` at each basis.

    x and y (the duals of the column constraints) are clipped and normalised;
    ``dual_ok`` when the clipped duals sum into (0.5, 2), ``payoff_ok`` when no
    column payoff exceeds ``value + tol`` and no row payoff is below ``value - tol``.
    """
    n_states, n_a, n_b = q.shape
    primal = np.zeros((n_states, n_a + 1 + n_b))
    primal[np.arange(n_states)[:, None], bases] = x_b
    value = primal[:, n_a] - shift
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.maximum(primal[:, :n_a], 0.0)
        x /= x.sum(axis=1, keepdims=True)
        y = np.maximum(-duals[:, :n_b], 0.0)
        y_sum = y.sum(axis=1)
        y /= y_sum[:, None]
        col_payoffs = (x[:, None, :] @ q)[:, 0]
        row_payoffs = (q @ y[:, :, None])[:, :, 0]
        payoff_ok = ~((col_payoffs.max(axis=1) > value + tol)
                      | (row_payoffs.min(axis=1) < value - tol))
    dual_ok = (0.5 < y_sum) & (y_sum < 2.0)
    return value, x, y, col_payoffs, row_payoffs, y_sum, dual_ok, payoff_ok


def _simplex_pivot(
    q: np.ndarray, a_stack: np.ndarray, tol: float, basis: np.ndarray | None = None
) -> tuple[tuple, np.ndarray, int]:
    """Solve min_x max_b (Q^T x)_b over the simplex by primal simplex with Bland's rule.

    Works on the stack-of-one LP ``a_stack`` of ``_value_lp``; returns ``(x_b,
    duals)`` read at the terminal basis, the basis and the pivots taken.  The
    loop starts from ``basis`` when one is given (a warm start, e.g. the
    optimal basis of a nearby matrix).  If that basis is singular or not
    primal feasible in the loop's first solve, the loop continues from the
    cold start instead, so the rejected basis costs no extra solve.  Every
    start that ends at the same optimal basis returns the same bits.  The loop
    ends only at a basis that is both primal and dual feasible within
    ``tol``, so re-solving from the returned basis takes no pivot (unless
    rounding made the solve widen ``tol``, see below).
    """
    n_a, n_b = q.shape
    a_mat = a_stack[0]
    m, n = a_mat.shape

    def cold_basis() -> np.ndarray:
        # The vertex x = e_0, v = max_b Q[0, b]: basic variables are x_0, v,
        # and every slack except the binding column's.
        b_star = int(np.argmax(a_mat[:n_b, 0]))
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
            read = _read_bases(a_stack, basis[None])
            x_b, _, b_inv, reduced = (part[0] for part in read)
        except np.linalg.LinAlgError:
            if not warm and previous is None:
                raise
            read = None
        if warm:
            warm = False
            # A primal-infeasible start would walk the ratio test backwards;
            # entries within tol of zero are the rounding of degenerate pivots.
            if read is None or bool((x_b < -tol).any()):
                basis = cold_basis()
                continue
        if read is None:
            basis = previous  # already seen, so the retry is a careful step
            continue
        if basis.tobytes() in seen:
            careful = True
            tol = min(10.0 * tol, 1e-9)
        seen.add(basis.tobytes())
        previous = basis.copy()
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
                return read[:2], basis, pivots
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
    ``value - tol``; a failed certificate raises ``LpSolveError``.  A
    non-finite payoff raises ``ValueError`` before any simplex work.

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
    _check_finite("payoff", q, "a b")
    shift, a_stack = _value_lp(q[None])
    read, basis, pivots = _simplex_pivot(q, a_stack, tol=_PIVOT_TOL, basis=basis)
    value, x, y, col_payoffs, row_payoffs, y_sum, dual_ok, payoff_ok = (
        part[0] for part in _certify(q[None], shift, basis[None], *read, tol))
    value = float(value)
    if not dual_ok:
        raise LpSolveError(f"dual strategy sum {y_sum:.6f} far from 1", q)
    if not payoff_ok:
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


def _settled_values(q: np.ndarray, bases: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(values, settled)``: a state settles when ``solve_matrix_game`` started
    from its basis would take no pivot and pass its certificate, so its value
    has that solve's bits.  A singular stack settles no state."""
    shift, a_mat = _value_lp(q)
    try:
        x_b, duals, _, reduced = _read_bases(a_mat, bases)
    except np.linalg.LinAlgError:
        return np.empty(len(q)), np.zeros(len(q), dtype=bool)
    values, *_, dual_ok, payoff_ok = _certify(q, shift, bases, x_b, duals, tol)
    pivot_free = ~(x_b < -_PIVOT_TOL).any(axis=1) & ~(reduced < -_PIVOT_TOL).any(axis=1)
    return values, pivot_free & dual_ok & payoff_ok


def shapley_solve(game: MarkovGame, tol: float = 1e-9, max_iter: int = 1_000_000) -> GroundTruth:
    """Solve the Markov game by value iteration with per-state matrix-game solves.

    The update V <- val(q_from_v(V)) is a gamma-contraction in the sup norm.
    Iteration stops once the step size guarantees both a sup-norm error below
    ``tol`` and a game-level duality gap of the returned witnesses below
    ``2 * tol`` (the per-step threshold is ``tol * (1-gamma)^2 / (2*gamma)``,
    which bounds the sup error by ``tol * (1-gamma) / 2``).  At gamma = 0 the
    stage games do not depend on V, so one sweep is exact.  A discount outside
    [0, 1) or a non-finite loss or transition entry raises ``ValueError``
    before any sweep.

    Each sweep reads every state's basis of the previous sweep at once with
    the simplex's own arithmetic (``_settled_values``).  The first sweep, a
    basis that must pivot and a singular stack send states to the scalar
    ``solve_matrix_game``, warm-started, as do the final witness solves.  A
    stage game with several optimal bases may get another, equally certified,
    witness than a cold solve would give.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    gamma = game.gamma
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got gamma={gamma!r}")
    _check_finite("loss", game.loss, "s a b")
    _check_finite("transition probability", game.transition, "s a b s'")
    threshold = tol * (1.0 - gamma) ** 2 / (2.0 * gamma) if gamma else np.inf
    n_states, _, n_b = game.loss.shape
    v = np.zeros(n_states)
    bases = np.zeros((n_states, n_b + 1), dtype=np.intp)
    for sweep in range(max_iter):
        q = q_from_v(game, v)
        v_new, settled = (_settled_values(q, bases, tol) if sweep else
                          (np.empty(n_states), np.zeros(n_states, dtype=bool)))
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


@lru_cache(maxsize=64)
def _plane_basis(n: int) -> np.ndarray:
    """Read-only ``(n, n-1)`` orthonormal basis of the directions of the plane sum(u) = 1."""
    plane = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
    plane.flags.writeable = False
    return plane


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
    plane = _plane_basis(n)
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
