"""Independent ground-truth solvers for zero-sum Markov games.

Nothing in this module shares code with the learner: matrix games are solved by
a small dense simplex method, the Markov game itself by value iteration over
per-state matrix games, and distances to the optimal-strategy polytopes by
exact projection: one nonnegative least-squares solve finds the active set,
and a KKT residual certifies the point.  These routines provide the yardstick
against which learned policies are measured.  ``scipy.optimize.nnls`` is
imported on first use, only by projections onto three or more actions and
their KKT certificate, so importing this module loads only numpy.

Every stage game is solved with a leading stack axis, in two halves.
``_settle`` reads all S start bases at once, restarts a singular or infeasible
one from the cold basis, and hands only the states that must pivot, with their
read, to the scalar pivot loop ``_simplex_pivot``; ``_certified`` certifies
every terminal basis in one stacked call.  ``_stage_solutions`` is the one
then the other, and ``solve_matrix_game`` is that solve on a stack of one.
Value iteration keeps each state's optimal basis from one sweep to the next,
and one ``_LpStack`` per solve: the LP stack, whose constant frame is written
once, the state index and the basis cost rows.  A basis read is split in two:
``_solve_bases``, one stacked solve, and ``_read_solved``, the duals and
reduced costs.  Late in the iteration a sweep rarely moves a basis, so after a
sweep that runs ``_settle`` value iteration runs stacks of 1, 2, 4, ... up to
``_CERTIFY_EVERY`` (16) sweeps, each one ``_solve_bases`` and its value.  One
``_read_solved`` over a stack's (sweeps * S) LPs then tests settlement as
``_settle`` does, and one ``_certified`` call certifies the settled sweeps.
The first unsettled sweep is redone through ``_settle`` from its own ``q``
and bases, which repeats the arithmetic on the same numbers, and the stack's
later sweeps are discarded; a failing certificate raises its own sweep's
error, with that sweep's matrix, before any later sweep can raise.  numpy's
stacked ``solve`` and ``matmul`` run the same per-matrix kernel on every item,
so each item has the bits it would have alone, in a stack of one state or of
16 sweeps.
"""

from __future__ import annotations

import numbers
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .games import (DimensionMismatchError, MarkovGame, JointPolicy, _check_max_iter,
                    _check_tol, _integer, best_response, distribution_rows_error, q_from_v)

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
]

# The simplex's starting feasibility and optimality tolerance.
_PIVOT_TOL = 1e-11

# Value iteration checks and certifies at most this many sweeps in one stacked call.
_CERTIFY_EVERY = 16


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


def _value_lp(q: np.ndarray, a_mat: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Shifts (S,) and standard-form LPs (S, B+1, A+1+B) of the stage games ``q``.

    Each LP minimizes v s.t. Q^T x <= v * 1, sum(x) = 1, x >= 0, on entries
    shifted to at least 1 so v is basic at every feasible basis.  Columns are
    [x_1..x_A, v, s_1..s_B]; rows the B column constraints, then sum(x) = 1.
    Given an earlier result's ``a_mat``, only its payoff block is rewritten.
    """
    n_states, n_a, n_b = q.shape
    shift = 1.0 - np.minimum.reduce(q, axis=(1, 2))
    if a_mat is None:
        frame = _lp_constants(n_a, n_b)[0]
        a_mat = np.empty((n_states,) + frame.shape)
        a_mat[:] = frame
    np.add(q.transpose(0, 2, 1), shift[:, None, None], out=a_mat[:, :n_b, :n_a])
    return shift, a_mat


def _solve_bases(a_mat: np.ndarray, bases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``[B^-1 b | B^-1]`` (S, B+1, B+2) of each LP of ``_value_lp`` at its basis, in
    one stacked solve; any singular basis raises.  ``rows`` is the LP index (S, 1)."""
    _, m, n = a_mat.shape
    return np.linalg.solve(a_mat[rows, :, bases].transpose(0, 2, 1), _lp_constants(n - m, m - 1)[1])


def _read_solved(a_mat: np.ndarray, bases: np.ndarray, b_inv_ab: np.ndarray, rows: np.ndarray,
                 basis_cost: np.ndarray | None = None) -> tuple:
    """``(x_b, duals, b_inv, reduced)`` of the LPs ``a_mat`` from their ``_solve_bases``
    ``b_inv_ab``: the duals are ``c_B B^-1``, the reduced costs ``c - duals A`` (zero
    on the basis).  ``rows`` and ``basis_cost`` as for ``_read_bases``."""
    _, m, n = a_mat.shape
    cost = _lp_constants(n - m, m - 1)[2]
    basis_cost = cost[bases] if basis_cost is None else basis_cost
    b_inv = b_inv_ab[:, :, 1:]
    duals = (basis_cost[:, None, :] @ b_inv)[:, 0]
    reduced = cost - (duals[:, None, :] @ a_mat)[:, 0]
    reduced[rows, bases] = 0.0
    return b_inv_ab[:, :, 0], duals, b_inv, reduced


def _read_bases(a_mat: np.ndarray, bases: np.ndarray, rows: np.ndarray | None = None,
                basis_cost: np.ndarray | None = None) -> tuple:
    """Read each LP of ``_value_lp`` at its basis: ``(x_b, duals, b_inv, reduced)``.

    ``_solve_bases``, then ``_read_solved``.  A caller may keep ``rows``, the
    state index (S, 1), and ``basis_cost = cost[bases]``.
    """
    rows = np.arange(len(a_mat))[:, None] if rows is None else rows
    return _read_solved(a_mat, bases, _solve_bases(a_mat, bases, rows), rows, basis_cost)


def _basic_solutions(shift: np.ndarray, bases: np.ndarray, x_b: np.ndarray, n_a: int,
                     rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(primal, value)``: each LP's basic solution ``x_b`` placed at its columns
    ``bases``, and the stage-game value ``v - shift`` it gives (``rows`` as for
    ``_read_bases``).  A value iteration sweep and ``_certify`` both take their
    values here, so the two cannot differ by a bit."""
    n_states, m = bases.shape
    primal = np.zeros((n_states, n_a + m))
    primal[np.arange(n_states)[:, None] if rows is None else rows, bases] = x_b
    return primal, primal[:, n_a] - shift


def _certify(q: np.ndarray, shift: np.ndarray, bases: np.ndarray, x_b: np.ndarray,
             duals: np.ndarray, tol: float, rows: np.ndarray | None = None) -> tuple:
    """``(value, x, y, col_payoffs, row_payoffs, y_sum, dual_ok, payoff_ok)`` at each basis.

    x and y (the duals of the column constraints) are clipped and normalised;
    ``dual_ok`` when the clipped duals sum into (0.5, 2), ``payoff_ok`` when
    every column payoff is at most ``value + tol`` and every row payoff at least
    ``value - tol``.  Both tests are written so that NaN fails them.  ``rows`` is
    the state index (S, 1), as for ``_read_bases``.
    """
    n_a, n_b = q.shape[1:]
    primal, value = _basic_solutions(shift, bases, x_b, n_a, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.maximum(primal[:, :n_a], 0.0)
        x /= x.sum(axis=1, keepdims=True)
        y = np.maximum(-duals[:, :n_b], 0.0)
        y_sum = y.sum(axis=1)
        y /= y_sum[:, None]
        col_payoffs = (x[:, None, :] @ q)[:, 0]
        row_payoffs = (q @ y[:, :, None])[:, :, 0]
        payoff_ok = ((col_payoffs.max(axis=1) <= value + tol)
                     & (row_payoffs.min(axis=1) >= value - tol))
    dual_ok = (0.5 < y_sum) & (y_sum < 2.0)
    return value, x, y, col_payoffs, row_payoffs, y_sum, dual_ok, payoff_ok


def _cold_bases(a_mat: np.ndarray) -> np.ndarray:
    """The simplex's cold start for each LP of ``_value_lp``: the vertex x = e_0,
    v = max_b Q[0, b], with x_0, v and every slack but the binding column's basic."""
    n_states, m, n = a_mat.shape
    n_a = n - m
    others = np.arange(m - 2)
    b_star = np.argmax(a_mat[:, :m - 1, 0], axis=1)[:, None]
    bases = np.empty((n_states, m), dtype=np.intp)
    bases[:, 0], bases[:, 1] = 0, n_a
    bases[:, 2:] = n_a + 1 + others + (others >= b_star)
    return bases


def _simplex_pivot(q: np.ndarray, a_stack: np.ndarray, basis: np.ndarray, read: tuple) -> tuple:
    """Primal simplex with Bland's rule on the stack-of-one LP ``a_stack`` of ``_value_lp``.

    Starts from ``basis``, sorted, nonsingular and primal feasible, which it
    may change in place, and its ``read`` by ``_read_bases``; returns ``(x_b,
    duals)`` at the terminal basis, the basis and the pivots taken.  That basis
    is primal and dual feasible within ``_PIVOT_TOL`` (unless rounding widened
    it, see below), so a start there takes no pivot.  A failed pivot raises
    ``LpSolveError`` carrying ``q``.
    """
    a_mat = a_stack[0]
    m = a_mat.shape[0]
    tol = _PIVOT_TOL

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
    for _ in range(20_000):
        x_b, duals, b_inv, reduced = read
        if basis.tobytes() in seen:
            careful = True
            tol = min(10.0 * tol, 1e-9)
        seen.add(basis.tobytes())
        previous = basis.copy(), read
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
                return (x_b, duals), basis, pivots
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
        try:
            read = [part[0] for part in _read_bases(a_stack, basis[None])]
        except np.linalg.LinAlgError:
            basis, read = previous  # already seen, so the retry is a careful step
    raise LpSolveError("simplex iteration cap exceeded", q)


@dataclass
class _LpStack:
    """What ``_stage_solutions`` keeps between its calls on one ``bases`` array,
    filled on first use; only the states that restart or pivot refresh their cost row.
    A caller may hand in ``a_mat`` framed by ``_value_lp``, as value iteration
    hands in the first slot of its sweeps' LP stacks."""

    a_mat: np.ndarray | None = None       # (S, B+1, A+1+B)
    rows: np.ndarray | None = None        # (S, 1) state index
    basis_cost: np.ndarray | None = None  # (S, B+1) cost rows of the current bases


def _unsettled(x_b: np.ndarray, reduced: np.ndarray) -> tuple | None:
    """``(infeasible, unsettled)`` per LP of a ``_read_bases`` read, or None when
    every basis is optimal where it stands: primal feasible and with no negative
    reduced cost, within ``_PIVOT_TOL``.  Two whole-stack tests decide that, and
    NaN passes them; the per-LP flags are built only when a test fires."""
    # A primal-infeasible start would walk the ratio test backwards; entries
    # within _PIVOT_TOL of zero are the rounding of degenerate pivots.
    infeasible, improvable = x_b < -_PIVOT_TOL, reduced < -_PIVOT_TOL
    if not (np.logical_or.reduce(infeasible, axis=None)
            or np.logical_or.reduce(improvable, axis=None)):
        return None
    infeasible = infeasible.any(axis=1)
    return infeasible, infeasible | improvable.any(axis=1)


def _settle(q: np.ndarray, bases: np.ndarray | None, stack: _LpStack) -> tuple:
    """``(shift, x_b, duals, pivots, bases)``: the stage games ``q`` read at optimal bases.

    The first half of ``_stage_solutions``, uncertified.  Solves each state from
    its sorted basis in ``bases`` (None: cold) and writes its final basis there.
    All S bases are read at once, or each alone should that solve raise.
    Singular or primal-infeasible bases restart cold, read at once; they and
    every basis with a negative reduced cost go to ``_simplex_pivot`` with their
    read.  ``stack`` keeps the LP stack and cost rows between calls.  Settlement
    is tested once over the whole stack; the per-state work runs only when a
    test fires.
    """
    shift, a_mat = _value_lp(q, stack.a_mat)
    n_states, m, n = a_mat.shape
    cost = _lp_constants(n - m, m - 1)[2]
    bases = _cold_bases(a_mat) if bases is None else bases
    if stack.rows is None:
        stack.a_mat, stack.rows, stack.basis_cost = a_mat, np.arange(n_states)[:, None], cost[bases]
    rows = stack.rows
    try:
        x_b, duals, b_inv, reduced = _read_bases(a_mat, bases, rows, stack.basis_cost)
    except np.linalg.LinAlgError:
        # Read alone, a singular basis keeps x_b = -inf: it restarts cold.
        x_b = np.full((n_states, m), -np.inf)
        duals, b_inv, reduced = (np.zeros((n_states,) + shape) for shape in ((m,), (m, m), (n,)))
        for s in range(n_states):
            with suppress(np.linalg.LinAlgError):
                x_b[s:s + 1], duals[s:s + 1], b_inv[s:s + 1], reduced[s:s + 1] = \
                    _read_bases(a_mat[s:s + 1], bases[s:s + 1])
    pivots = np.zeros(n_states, dtype=np.intp)
    if (tested := _unsettled(x_b, reduced)) is not None:
        infeasible, unsettled = tested
        todo = np.flatnonzero(unsettled)
        if (cold := todo[infeasible[todo]]).size:
            bases[cold] = _cold_bases(a_mat[cold])
            x_b[cold], duals[cold], b_inv[cold], reduced[cold] = \
                _read_bases(a_mat[cold], bases[cold])
        for s in todo:
            (x_b[s], duals[s]), bases[s], pivots[s] = _simplex_pivot(
                q[s], a_mat[s:s + 1], bases[s], (x_b[s], duals[s], b_inv[s], reduced[s]))
        # A cold restart changes the basis even when it takes no pivot.
        stack.basis_cost[todo] = cost[bases[todo]]
    return shift, x_b, duals, pivots, bases


def _certified(q: np.ndarray, shift: np.ndarray, bases: np.ndarray, x_b: np.ndarray,
               duals: np.ndarray, tol: float, rows: np.ndarray | None = None) -> tuple:
    """``(values, x, y, col_payoffs, row_payoffs)`` of ``_certify`` once every state passes.

    The second half of ``_stage_solutions``: no column payoff under ``x`` above
    ``value + tol``, no row payoff under ``y`` below ``value - tol``, or
    ``LpSolveError`` carries the first failing state's matrix.
    """
    values, x, y, col_payoffs, row_payoffs, y_sum, dual_ok, payoff_ok = _certify(
        q, shift, bases, x_b, duals, tol, rows)
    certified = dual_ok & payoff_ok
    if not certified.all():
        s = np.flatnonzero(~certified)[0]
        if not dual_ok[s]:
            raise LpSolveError(f"dual strategy sum {y_sum[s]:.6f} far from 1", q[s])
        message = (f"minimax certificate failed: value={float(values[s])!r}, "
                   f"max col payoff={col_payoffs[s].max()!r}, "
                   f"min row payoff={row_payoffs[s].min()!r}")
        # A miss of a few ulps of the value is rounding: tol is below its spacing.
        miss = np.maximum(col_payoffs[s].max() - values[s], values[s] - row_payoffs[s].min())
        ulp = np.spacing(abs(values[s]))
        if miss <= 4.0 * ulp:
            message += (f" (miss = {miss / ulp:.1f} ulps of the value: tol is below the "
                        f"float resolution at this payoff scale)")
        raise LpSolveError(message, q[s])
    return values, x, y, col_payoffs, row_payoffs


def _stage_solutions(q: np.ndarray, bases: np.ndarray | None, tol: float,
                     stack: _LpStack | None = None) -> tuple:
    """``(values, x, y, col_payoffs, row_payoffs, pivots, bases)`` of the stage games ``q``.

    ``_settle``, then ``_certified``: solves each state from its sorted basis in
    ``bases`` (None: cold), writes its final basis there, and certifies every
    terminal basis at once, or ``LpSolveError`` carries the first failing
    state's matrix.  ``stack`` keeps the LP stack and cost rows between calls
    (None: this call's).
    """
    stack = _LpStack() if stack is None else stack
    shift, x_b, duals, pivots, bases = _settle(q, bases, stack)
    return _certified(q, shift, bases, x_b, duals, tol, stack.rows) + (pivots, bases)


def solve_matrix_game(
    q: np.ndarray, tol: float = 1e-9, basis: np.ndarray | None = None
) -> MatrixGameSolution:
    """Exact minimax solution of the matrix game where the row player minimizes.

    ``_stage_solutions`` on a stack of one: the optimal strategies are
    certified directly, and a failed certificate raises ``LpSolveError``.  A
    non-finite payoff or a malformed ``basis`` (anything but B+1 distinct
    integer column indices in range; a bool or a float is not one) raises
    ``ValueError`` first.

    ``basis`` warm-starts the simplex (by default it starts cold), typically
    with the ``basis`` field of a nearby matrix's solution.  A singular or
    infeasible basis falls back to the cold start, so the result is always a
    certified solution; ``pivots`` reports how many pivots the solve took.
    """
    _check_tol(tol)
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.size == 0:
        raise ValueError(f"expected a nonempty 2-D payoff matrix, got shape {q.shape}")
    _check_finite("payoff", q, "a b")
    if basis is not None:
        m, n = q.shape[1] + 1, sum(q.shape) + 1
        # An intp cast would truncate 0.9 to 0 and read [True, False, 2] as
        # ints, so every entry is checked, range included, before the cast.
        integral = all(
            isinstance(b, numbers.Integral) and not isinstance(b, bool) and 0 <= b < n
            for b in np.asarray(basis, dtype=object).ravel())
        cast = np.asarray(basis, dtype=np.intp) if integral else None
        if (cast is None or cast.shape != (m,)
                or ((ordered := np.sort(cast))[1:] == ordered[:-1]).any()):
            raise ValueError(f"basis must hold {m} distinct column indices in [0, {n}), "
                             f"got {np.asarray(basis, dtype=object).tolist()}")
        basis = ordered[None]
    value, x, y, col_payoffs, row_payoffs, pivots, basis = (
        part[0] for part in _stage_solutions(q[None], basis, tol))
    return MatrixGameSolution(value=float(value), x=x, y=y, col_payoffs=col_payoffs,
                              row_payoffs=row_payoffs, basis=basis, pivots=int(pivots))


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


def _sweep_stack(game: MarkovGame, q: np.ndarray, v: np.ndarray, length: int,
                 threshold: float, tol: float, lps: np.ndarray, tiled: tuple) -> tuple:
    """``(kept, v, step, redo)``: up to ``length`` value-iteration sweeps from
    ``q = q_from_v(game, v)`` at the kept bases, checked in one stacked call.

    A sweep is one ``_solve_bases`` on its slot of ``lps`` and its value; a
    sweep that converges ends the stack, and one whose solve raises ends it
    unsettled.  One ``_read_solved`` over the stack's (sweeps * S) LPs then
    tests settlement as ``_settle`` does, and ``_certified`` certifies every
    sweep before the first unsettled one.  ``kept`` counts those sweeps, ``v``
    and ``step`` are the last one's (the arguments' and inf when none is
    kept), and ``redo`` is the unsettled sweep's ``q`` (None: every sweep
    settled), for ``_settle``; the sweeps after it are discarded.  ``tiled``
    holds the bases and their cost rows, repeated once per slot of ``lps``,
    and the LP index (S * len(lps), 1).
    """
    n_states = len(q)
    bases, rows = (part[:n_states] for part in tiled[::2])
    qs, shifts, solved, values, steps = [], [], [], [], [np.inf]
    for i in range(length):
        if i:
            q = q_from_v(game, values[-1])
        qs.append(q)
        shifts.append(_value_lp(q, lps[i])[0])
        try:
            solved.append(_solve_bases(lps[i], bases, rows))
        except np.linalg.LinAlgError:
            break
        values.append(_basic_solutions(shifts[-1], bases, solved[-1][:, :, 0],
                                       game.n_actions_p1, rows)[1])
        steps.append(float(np.maximum.reduce(np.abs(values[-1] - (values[-2] if i else v)))))
        if steps[-1] <= threshold:
            break
    kept = len(solved)
    if kept:
        n_items = kept * n_states
        bases_t, cost_t, rows_t = (part[:n_items] for part in tiled)
        x_b, duals, _, reduced = _read_solved(lps[:kept].reshape((n_items,) + lps.shape[2:]),
                                              bases_t, np.concatenate(solved), rows_t, cost_t)
        if (tested := _unsettled(x_b, reduced)) is not None:
            kept = int(np.argmax(tested[1].reshape(kept, n_states).any(axis=1)))
            n_items = kept * n_states
        if kept:
            _certified(np.concatenate(qs[:kept]), np.concatenate(shifts[:kept]),
                       bases_t[:n_items], x_b[:n_items], duals[:n_items], tol, rows_t[:n_items])
            v = values[kept - 1]
    return kept, v, steps[kept], qs[kept] if kept < len(qs) else None


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

    The first sweep runs ``_settle`` from the simplex's cold bases; later
    sweeps start from the bases the states ended at, and the witness step at
    ``q_star`` runs ``_stage_solutions`` from them.  A stage game with several
    optimal bases may get another, equally certified, witness than a cold
    solve would give.  Late in the iteration a sweep rarely moves a basis, so
    the sweeps after a ``_settle`` sweep run in stacks of 1, 2, 4, ... up to
    ``_CERTIFY_EVERY`` (16) sweeps (``_sweep_stack``): each sweep is one
    stacked basis solve and its value, and one call per stack tests every
    sweep's settlement as ``_settle`` would and certifies the settled sweeps
    with ``_certified``.  The first unsettled sweep, or the first whose solve
    raises, is redone by ``_settle`` from its own ``q`` and bases, which
    repeats the same arithmetic on the same numbers, and the stack's later
    sweeps are discarded.  So the values, bases, pivots and errors are those
    of running ``_settle`` and ``_certified`` on every sweep: a failing
    certificate raises the ``LpSolveError``, message and matrix, that
    ``_stage_solutions`` gives on its own sweep, the first failing sweep's,
    and the iteration cap raises only after every kept sweep is certified.
    ``max_iter`` counts kept sweeps; ``q_from_v`` runs once per kept or
    discarded sweep, and once more before the first.  All calls share one
    ``_LpStack``, whose LP stack is framed once.
    """
    _check_tol(tol)
    _check_max_iter(max_iter)
    gamma = game.gamma
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got gamma={gamma!r}")
    _check_finite("loss", game.loss, "s a b")
    _check_finite("transition probability", game.transition, "s a b s'")
    threshold = tol * (1.0 - gamma) ** 2 / (2.0 * gamma) if gamma else np.inf
    n_states = game.n_states
    frame = _lp_constants(game.n_actions_p1, game.n_actions_p2)[0]
    lps = np.empty((_CERTIFY_EVERY, n_states) + frame.shape)
    lps[:] = frame
    stack, bases, length = _LpStack(a_mat=lps[0]), None, 1
    rows_t = np.arange(_CERTIFY_EVERY * n_states)[:, None]
    v = np.zeros(n_states)
    q = redo = q_from_v(game, v)
    kept = 0
    while True:
        if redo is None:
            done, v, step, redo = _sweep_stack(game, q, v, min(length, max_iter - kept),
                                               threshold, tol, lps, tiled)
            kept += done
            length = min(2 * length, _CERTIFY_EVERY)
        if redo is not None:
            shift, x_b, duals, _, bases = _settle(redo, bases, stack)
            _certified(redo, shift, bases, x_b, duals, tol, stack.rows)
            v_new = _basic_solutions(shift, bases, x_b, game.n_actions_p1, stack.rows)[1]
            step = float(np.maximum.reduce(np.abs(v_new - v)))
            v, kept, length, redo = v_new, kept + 1, 1, None
            tiled = (np.tile(bases, (_CERTIFY_EVERY, 1)),
                     np.tile(stack.basis_cost, (_CERTIFY_EVERY, 1)), rows_t)
        q = q_from_v(game, v)
        if step <= threshold:
            break
        if kept == max_iter:
            raise ArithmeticError(
                f"value iteration did not converge in {max_iter} iterations "
                f"(last step {step:.3e}, threshold {threshold:.3e})"
            )

    values, x_star, y_star, *_ = _stage_solutions(q, bases, tol, stack)
    for s in range(game.n_states):
        if abs(values[s] - v[s]) > tol:
            raise ArithmeticError(f"fixed-point consistency failed at state {s}: "
                                  f"val={float(values[s])!r} vs v_star={float(v[s])!r}")
    return GroundTruth(v_star=v, q_star=q, x_star=x_star, y_star=y_star, tol=tol)


def duality_gap_state(q_star_s: np.ndarray, x_s: np.ndarray, y_s: np.ndarray) -> float:
    """Stage-game duality gap max_y' x^T Q y' - min_x' x'^T Q y at one state.

    Inner optima are attained at vertices, so this is just max-column minus
    min-row payoff.  Zero exactly at the equilibria of ``q_star_s``.
    """
    return float(np.max(x_s @ q_star_s) - np.min(q_star_s @ y_s))


def game_duality_gap(game: MarkovGame, policy: JointPolicy, tol: float = 1e-9):
    """Game-level duality gap max_s [max_y' V_{x,y'}(s) - min_x' V_{x',y}(s)].

    Both inner optimizations are full best-response MDP solves, so this is the
    exploitability of the pair in the Markov game, not just in the stage games.
    ``policy.x`` and ``policy.y`` may carry the same leading stack axes (the
    learner's run axis); the gap then has those axes, each item with the bits
    of its own call.  When ``A == B`` one ``best_response`` call serves both
    sides of every item, else one call per side.
    """
    x, y = policy.x, policy.y
    if x.shape == y.shape:
        sides = np.array([1, 2]).reshape((2,) + (1,) * (x.ndim - 2))
        v_max, v_min = best_response(game, np.stack([x, y]), sides, tol=tol)[0]
    else:
        v_max = best_response(game, x, fixed_side=1, tol=tol)[0]
        v_min = best_response(game, y, fixed_side=2, tol=tol)[0]
    gap = np.max(v_max - v_min, axis=-1)
    return float(gap) if gap.ndim == 0 else gap


# ---------------------------------------------------------------------------
# Distance to the optimal-strategy polytopes
# ---------------------------------------------------------------------------

def _kkt_residual(z, u, a_mat, b_vec, feas_tol=1e-8):
    """Stationarity + feasibility residual for u ~ argmin ||u-z||^2 over the polytope.

    Recovers multipliers for the active constraints by nonnegative least
    squares and measures how well z - u decomposes into the active normals.
    """
    a_u = a_mat @ u
    feas = max(abs(float(u.sum()) - 1.0), float(np.max(-u, initial=0.0)),
               float(np.max(a_u - b_vec, initial=0.0)))
    # Columns: a free multiplier for sum(u) = 1 (as +1 and -1), the active
    # constraint rows, and -e_j for each coordinate at its bound.
    ones = np.ones((1, u.size))
    mat = np.concatenate([ones, -ones, a_mat[a_u >= b_vec - feas_tol],
                          0.0 - np.eye(u.size)[u <= feas_tol]]).T
    from scipy.optimize import nnls
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


def _interval(a_mat: np.ndarray, b_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the interval ``lo <= u_0 <= hi`` of the segment {u in simplex :
    a_mat @ u <= b_vec} of two actions, for stacked ``a_mat`` (..., m, 2) and
    ``b_vec`` (..., m); ``ArithmeticError`` when a segment is empty.

    With u = (t, 1-t) each constraint reads coef * t <= rhs, so one array
    expression bounds every item.
    """
    coef, rhs = a_mat[..., 0] - a_mat[..., 1], b_vec - a_mat[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = rhs / coef
    lo = np.where(coef < 0.0, bound, 0.0).max(axis=-1, initial=0.0)
    hi = np.where(coef > 0.0, bound, 1.0).min(axis=-1, initial=1.0)
    if (lo > hi + 1e-12).any() or ((coef == 0.0) & (rhs < -1e-12)).any():
        raise ArithmeticError("infeasible polytope in 2-action projection")
    return lo, hi


def _polytope(a_mat: np.ndarray, b_vec: np.ndarray) -> tuple:
    """What every projection onto {u in simplex : a_mat @ u <= b_vec} of three or
    more actions reads, built once: ``a_mat`` and ``b_vec``, the constraints
    ``ineq @ u <= rhs`` with u >= 0 as their first rows, an orthonormal basis
    ``plane`` of the directions of the plane sum(u) = 1, and the fixed block
    ``-(ineq @ plane).T`` of the NNLS matrix of ``_project_point``.
    """
    a_mat = np.ascontiguousarray(a_mat)  # the layout picks the BLAS kernel, and so the bits
    n = a_mat.shape[-1]
    ineq = np.vstack([-np.eye(n), a_mat])
    plane = _plane_basis(n)
    return a_mat, b_vec, ineq, np.concatenate([np.zeros(n), b_vec]), plane, -(ineq @ plane).T


def _project_states(z: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    """Euclidean projections of the points ``z`` (..., S, n), each row onto its
    state's polytope {u in simplex : a_mat[s] @ u <= b_vec[s]}.

    Two-dimensional problems use the exact interval form: the projection is
    a clamp, one array expression for every state and point.  Larger
    problems are solved point by point as a least-distance program by one
    nonnegative least-squares solve (Lawson & Hanson 1974, *Solving Least
    Squares Problems*, ch. 23), from constants built once per state.  The
    constraints with positive multipliers form the active set, and z is
    projected onto their affine hull exactly; should that point fail its
    checks, the NNLS point itself is the fallback.  Either is returned only
    once certified against the KKT conditions.
    """
    n = z.shape[-1]
    if n == 1:
        return np.ones_like(z)
    if n == 2:
        lo, hi = _interval(a_mat, b_vec)
        t = np.minimum(np.maximum((z[..., 0] - z[..., 1] + 1.0) / 2.0, lo), hi)
        return np.stack([t, 1.0 - t], axis=-1)
    out = np.empty_like(z)
    for s in range(z.shape[-2]):
        polytope = _polytope(a_mat[s], b_vec[s])
        out[..., s, :] = np.reshape([_project_point(point, *polytope)
                                     for point in z[..., s, :].reshape(-1, n)], z.shape[:-2] + (n,))
    return out


def _multipliers_certify(z, u, ineq_active, lam, slack_active, kkt_tol) -> bool:
    """Whether the first NNLS's own multipliers ``lam`` of the active rows
    ``ineq_active`` certify ``u`` as the projection of ``z`` within ``kkt_tol``.

    The best multiplier of sum(u) = 1 is the mean of
    d = z - u - ineq_active.T @ lam, so ||d - mean(d)|| is the stationarity
    residual of that pair.  The pair is a feasible point of
    ``_kkt_residual``'s NNLS whenever every active row's slack lies inside
    its 1e-8 activity window, so that NNLS's residual is no larger.  The
    window is taken at half its width and the residual at half of
    ``kkt_tol``, margins that absorb the rounding of the two computations.
    A ``False`` decides nothing: the caller then runs ``_kkt_residual``.
    """
    d = z - u - ineq_active.T @ lam
    d -= d.sum() / d.size
    return bool(d @ d <= (kkt_tol / 2.0) ** 2 and (slack_active <= 5e-9).all())


def _project_point(z, a_arr, b_arr, ineq, rhs, plane, neg_gt, kkt_tol=1e-9) -> np.ndarray:
    """One point of ``_project_states`` onto three or more actions.

    The first NNLS solves the least-distance program; its positive
    multipliers name the active rows, and z is projected onto their affine
    hull exactly.  A point that is feasible within 1e-10 is accepted first
    on ``_multipliers_certify``, the KKT certificate those same multipliers
    give, and only when that fails on ``_kkt_residual``, a second NNLS.
    Whenever the certificate accepts, ``_kkt_residual`` would too, so the
    certificate changes which check runs, never which point is returned.
    Should the affine point fail, the NNLS point itself is the fallback,
    returned only once ``_kkt_residual`` certifies it.
    """
    n = z.size
    # With p the projection of z onto the plane sum(u) = 1 and the columns of
    # ``plane`` an orthonormal basis of its directions, u = p + plane @ w has
    # ||u - z||^2 = ||p - z||^2 + ||w||^2.  So w is the least-norm point of
    # {w : g @ w <= h}, with g = ineq @ plane, whose dual is the NNLS below;
    # its residual r gives w = -r[:-1] / r[-1], and r[-1] = -||r||^2 is zero
    # only when the constraints are inconsistent.
    p = z + (1.0 - float(z.sum())) / n
    lhs = np.concatenate((neg_gt, -(rhs - ineq @ p)[None]))
    target = np.zeros(n)
    target[-1] = 1.0
    from scipy.optimize import nnls
    multipliers, _ = nnls(lhs, target)
    residual = lhs @ multipliers - target
    if not residual[-1] < 0.0:
        raise ArithmeticError("infeasible polytope in projection")
    active = np.nonzero(multipliers > 0.0)[0]
    ineq_active = ineq[active]
    u = _affine_projection(z, np.concatenate((np.ones((1, n)), ineq_active)),
                           np.concatenate([[1.0], rhs[active]]))
    slack = rhs - ineq @ u
    if (abs(float(u.sum()) - 1.0) <= 1e-10 and -float(slack.min()) <= 1e-10
            and (_multipliers_certify(z, u, ineq_active, multipliers[active] / -residual[-1],
                                      slack[active], kkt_tol)
                 or _kkt_residual(z, u, a_arr, b_arr) <= kkt_tol)):
        return u
    u = p + plane @ (-residual[:-1] / residual[-1])
    kkt = _kkt_residual(z, u, a_arr, b_arr)
    if kkt <= kkt_tol:
        return u
    raise ArithmeticError(
        f"projection failed to reach KKT residual {kkt_tol:.1e} (got {kkt:.3e})"
    )


def _project_polytope(z: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    """Euclidean projection of one point z onto {u in simplex : a_mat @ u <= b_vec}."""
    a_mat = np.asarray(a_mat, dtype=np.float64)
    return _project_states(np.asarray(z, dtype=np.float64)[None],
                           a_mat.reshape((1, -1, a_mat.shape[-1])),
                           np.asarray(b_vec, dtype=np.float64).reshape(1, -1))[0]


@dataclass(frozen=True)
class DistanceResult:
    """Squared distances of a policy pair to the per-state optimal-strategy sets.

    A stacked pair gives every field its leading axes; ``mean`` is then an array.
    """

    per_state: np.ndarray  # (..., S) dist^2(x[s] -> X*[s]) + dist^2(y[s] -> Y*[s])
    mean: float            # average of per_state over states
    x_proj: np.ndarray     # (..., S, A) nearest relaxed-optimal player-1 strategies
    y_proj: np.ndarray     # (..., S, B) nearest relaxed-optimal player-2 strategies


def dist_state(
    gt: GroundTruth, s: int, x_s: np.ndarray, y_s: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared distance of (x_s, y_s) to the relaxed optimal sets at state ``s``.

    The player-1 set is {u in simplex : Q*^T u <= (v* + tol) 1}; relaxing by the
    solve tolerance keeps the exact optimal set inside, so the reported distance
    is a slight underestimate (never an overestimate) of the true distance.
    A state index that is not an integer in [0, S) raises ``ValueError``, and
    so do strategies that are not ``_check_strategies``'s distributions.
    """
    s = _integer("s", s, 0)
    if s >= len(gt.v_star):
        raise ValueError(f"s must be < n_states={len(gt.v_star)}, got s={s}")
    x, y = np.asarray(x_s, dtype=np.float64), np.asarray(y_s, dtype=np.float64)
    _check_strategies(x, y, gt.q_star.shape[1:2], gt.q_star.shape[2:], "({},)")
    d2, px, py = _distances(gt.q_star[s:s + 1], gt.v_star[s:s + 1], gt.tol, x[None], y[None])
    return float(d2[0]), px[0], py[0]


def _check_strategies(x: np.ndarray, y: np.ndarray, want_x: tuple, want_y: tuple,
                      form: str) -> None:
    """Raise ``DimensionMismatchError`` naming the player unless ``x`` and ``y``
    have the shapes ``want_x`` and ``want_y`` (``form`` spells them with the
    action letter), and ``ValueError`` naming the player and the row, counted
    over any stack in C order, unless every row is a distribution within
    ``distribution_rows_error``'s 1e-9, the rule ``best_response`` applies."""
    for player, point, want in ((1, x, want_x), (2, y, want_y)):
        if point.shape != want:
            raise DimensionMismatchError(f"player-{player} strategy shape {point.shape} does not "
                                         f"match {form.format('AB'[player - 1])} = {want}")
        error = distribution_rows_error(f"player-{player} strategy", point.reshape(-1, want[-1]))
        if error is not None:
            raise ValueError(error)


def _distances(q: np.ndarray, v: np.ndarray, tol: float, x: np.ndarray, y: np.ndarray) -> tuple:
    """``(per_state, x_proj, y_proj)`` of the points ``x`` (..., S, A) and ``y``
    (..., S, B) against the relaxed optimal sets of the stage games ``q`` (S, A, B)
    with values ``v`` (S,)."""
    n_a, n_b = q.shape[1:]
    px = _project_states(x, q.transpose(0, 2, 1), np.repeat((v + tol)[:, None], n_b, axis=1))
    py = _project_states(y, -q, np.repeat((-(v - tol))[:, None], n_a, axis=1))
    return ((x - px) ** 2).sum(axis=-1) + ((y - py) ** 2).sum(axis=-1), px, py


def dist_to_optimal_sets(gt: GroundTruth, policy: JointPolicy) -> DistanceResult:
    """Per-state and mean squared distance of a policy pair to the optimal sets.

    ``policy.x`` and ``policy.y`` may carry the same leading stack axes (the
    learner's run axis); every field of the result then has them, and each
    item has the bits of its own call.  Each state's polytope constants are
    built once per call, for every item.  Strategies that are not
    ``_check_strategies``'s distributions, or whose stacks differ, raise
    ``ValueError`` first, with one check over the whole stack.
    """
    x, y = np.asarray(policy.x, dtype=np.float64), np.asarray(policy.y, dtype=np.float64)
    stack = x.shape[:-2]
    _check_strategies(x, y, stack + gt.q_star.shape[:2], stack + gt.q_star.shape[::2],
                      "(..., S, {})")
    per_state, x_proj, y_proj = _distances(gt.q_star, gt.v_star, gt.tol, x, y)
    mean = per_state.mean(axis=-1)
    return DistanceResult(per_state=per_state, mean=float(mean) if mean.ndim == 0 else mean,
                          x_proj=x_proj, y_proj=y_proj)
