"""Convergence metrics, their CSV representation, and cross-run aggregation.

A metric row snapshots a run at one iteration: equilibrium gaps measured
against independently solved ground truth, squared distance to the optimal
strategy sets, and cheap per-iteration diagnostics (decaying averages of
policy and stage-game movement).  CSV output is deterministic: a commented
metadata block, a fixed column schema, shortest round-trip float formatting,
and no timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .games import MarkovGame, JointPolicy
from .groundtruth import GroundTruth, dist_to_optimal_sets, game_duality_gap

__all__ = [
    "MetricsRow",
    "CSV_COLUMNS",
    "diagnostics_update",
    "make_metrics_row",
    "write_metrics_csv",
    "read_metrics_csv",
    "aggregate_metrics",
    "write_aggregate_csv",
    "config_digest",
]

# Fixed column order of the per-repetition CSV schema.  Debug columns
# (est_err_max, wall_clock) are appended only when explicitly requested so
# default output is byte-identical across runs.
CSV_COLUMNS = (
    "t",
    "game_gap",
    "mean_dist_sq",
    "state_gap_max",
    "q_err_max",
    "policy_step_avg_max",
    "q_step_avg_max",
    "q_step_max",
)
DEBUG_COLUMNS = ("est_err_max", "wall_clock")


@dataclass(frozen=True)
class MetricsRow:
    """One logged iteration of a run.

    ``game_gap`` is the exploitability of the anchor pair in the Markov game;
    ``state_gap_max`` the worst stage-game duality gap; ``q_err_max`` the
    worst-entry error of the critic's stage games versus the solved ones;
    ``policy_step_avg_max`` / ``q_step_avg_max`` the decaying averages of
    squared iterate / stage-game movement; ``q_step_max`` the raw stage-game
    movement this iteration.
    """

    t: int
    game_gap: float
    mean_dist_sq: float
    state_gap_max: float
    q_err_max: float
    policy_step_avg_max: float
    q_step_avg_max: float
    q_step_max: float
    est_err_max: float | None = None
    wall_clock: float | None = None


def diagnostics_update(
    j_prev: np.ndarray,
    k_prev: np.ndarray,
    z: np.ndarray,
    z_prev: np.ndarray,
    q: np.ndarray,
    q_prev: np.ndarray,
    alpha,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the decaying movement averages over an interval of T iterations.

    For each step t of the interval, in order:
    J[s] <- (1-a_t) J[s] + a_t * ||z_t[s] - z_{t-1}[s]||^2   (policy movement)
    K[s] <- (1-a_t) K[s] + a_t * ||Q_t[s] - Q_{t-1}[s]||^2   (stage-game movement)

    ``z`` and ``q`` hold the interval's iterates and stage games in step
    order, as T arrays or one array with a leading time axis, and ``alpha``
    the T weights; ``z_prev`` and ``q_prev`` are the ones just before the
    interval.  A single step is an interval of one.  The iterates are the
    learner's stacked ``(2S, W)`` arrays: player 1's strategies in rows
    ``0..S-1``, player 2's in ``S..2S-1``, each in its own leading ``A`` or
    ``B`` columns, where ``(S, A, B)`` is the shape of ``q_prev``.  Every
    step's rows are differenced and squared in one pass; each player's
    squares are then summed over its own columns only.  A whole padded row
    sums in another order once ``W`` reaches 8 (numpy's pairwise sum unrolls
    eight wide), so it would not keep the bits of summing each player's rows
    on their own.  Axes between the time axis and the last ones (the
    learner's run axis) ride along, and each run keeps its own bits.

    Only the recurrence walks the interval, two ufunc calls a step with J and
    K stacked; the norms and their ``a_t``-scaled forms are a few array
    operations over all of it.  Each element goes through the IEEE operations
    of T one-step updates in the same order, so the bits do not depend on how
    the iterations are split into intervals.

    At t=1 call with zero prev arrays and alpha=1; the recursions then start at
    the first movement norms themselves.  Returns (J, K, per-state max-abs
    stage-game step of the last step) so callers can log the raw step too.
    """
    n_states, n_a, n_b = np.shape(q_prev)[-3:]
    # One concatenation each (cheaper than np.stack's per-array views).
    z = np.concatenate((z_prev, *z)).reshape((-1,) + np.shape(z_prev))
    q = np.concatenate((q_prev, *q)).reshape((-1,) + np.shape(q_prev))
    alpha = np.asarray(alpha, dtype=np.float64)
    sq = (z[1:] - z[:-1]) ** 2
    # scaled[t] stacks step t's movement norms and squared stage-game steps, times a_t.
    scaled = np.empty((len(alpha), 2) + np.shape(j_prev))
    np.add(sq[..., :n_states, :n_a].sum(axis=-1), sq[..., n_states:, :n_b].sum(axis=-1),
           out=scaled[:, 0])
    q_step = np.abs(q[1:] - q[:-1]).max(axis=(-2, -1))
    np.square(q_step, out=scaled[:, 1])
    scaled *= alpha.reshape((-1,) + (1,) * (scaled.ndim - 1))
    jk = np.stack((j_prev, k_prev))
    for decay, step in zip((1.0 - alpha).tolist(), scaled):
        np.multiply(decay, jk, out=jk)
        np.add(jk, step, out=jk)
    return jk[0], jk[1], q_step[-1]


def make_metrics_row(
    t: int,
    game: MarkovGame | list[MarkovGame],
    ground_truth: GroundTruth | list[GroundTruth],
    x_hat: np.ndarray,
    y_hat: np.ndarray,
    q_t: np.ndarray,
    j_max,
    k_max,
    q_step_max,
    est_err=None,
    wall_clock: float | None = None,
) -> MetricsRow | list[MetricsRow]:
    """Evaluate the expensive ground-truth metrics for the anchor iterates at ``t``.

    With a leading run axis on ``x_hat``, ``y_hat`` and ``q_t``, the other
    arguments but ``t`` and ``wall_clock`` are sequences with one entry per
    run (``est_err`` may be None), and the call returns one row per run,
    each with the bits of its run's own call; the rows share ``wall_clock``.
    Runs that share a game and a ground truth (the same objects) share one
    ``game_duality_gap`` and one ``dist_to_optimal_sets`` call; the stage
    gaps and critic errors are one array expression over runs and states.
    """
    x_hat, y_hat, q_t = (np.asarray(a, dtype=np.float64) for a in (x_hat, y_hat, q_t))
    single = x_hat.ndim == 2
    if single:
        x_hat, y_hat, q_t = x_hat[None], y_hat[None], q_t[None]
        game, ground_truth, j_max, k_max, q_step_max, est_err = (
            [game], [ground_truth], [j_max], [k_max], [q_step_max], [est_err])
    n_runs = len(x_hat)
    groups: dict[tuple, list[int]] = {}
    for run, pair in enumerate(zip(map(id, game), map(id, ground_truth))):
        groups.setdefault(pair, []).append(run)
    gap, dist = np.empty(n_runs), np.empty(n_runs)
    for runs in groups.values():
        run_game, gt = game[runs[0]], ground_truth[runs[0]]
        # A group of every run reads the iterates as they are, with no gathered copy.
        index = slice(None) if len(runs) == n_runs else runs
        policy = JointPolicy(x=x_hat[index], y=y_hat[index])
        gap[index] = game_duality_gap(run_game, policy, tol=gt.tol)
        dist[index] = dist_to_optimal_sets(gt, policy).mean
    q_star = np.stack([gt.q_star for gt in ground_truth])
    col_payoffs = (x_hat[..., None, :] @ q_star)[..., 0, :]
    row_payoffs = (q_star @ y_hat[..., None])[..., 0]
    state_gap = (col_payoffs.max(axis=-1) - row_payoffs.min(axis=-1)).max(axis=-1)
    q_err = np.abs(q_t - q_star).max(axis=(1, 2, 3))
    est_err = [None] * n_runs if est_err is None else est_err
    rows = [MetricsRow(t=t, game_gap=float(gap[run]), mean_dist_sq=float(dist[run]),
                       state_gap_max=float(state_gap[run]), q_err_max=float(q_err[run]),
                       policy_step_avg_max=float(j_max[run]), q_step_avg_max=float(k_max[run]),
                       q_step_max=float(q_step_max[run]), est_err_max=est_err[run],
                       wall_clock=wall_clock)
            for run in range(n_runs)]
    return rows[0] if single else rows


def config_digest(payload: dict) -> str:
    """Stable hash of a config dict (sorted-key JSON, sha256, first 16 hex chars)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str | Path, metadata: dict | None, columns, records) -> None:
    """Write a sorted ``# key: value`` metadata block, a header, then ``records``."""
    buf = io.StringIO()
    for key in sorted(metadata or {}):
        buf.write(f"# {key}: {metadata[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(records)
    Path(path).write_text(buf.getvalue())


def write_metrics_csv(
    path: str | Path,
    rows: list[MetricsRow],
    metadata: dict | None = None,
    debug_columns: bool = False,
) -> None:
    """Write rows with a leading ``# key: value`` metadata block.

    Output bytes are a pure function of rows and metadata; the wall-clock and
    estimator-error fields are only emitted when ``debug_columns`` is set.
    """
    columns = CSV_COLUMNS + (DEBUG_COLUMNS if debug_columns else ())
    _write_csv(path, metadata, columns,
               ([_fmt(getattr(row, col)) for col in columns] for row in rows))


def read_metrics_csv(path: str | Path) -> tuple[dict, list[MetricsRow]]:
    """Read a metrics CSV back into (metadata, rows)."""
    metadata: dict[str, str] = {}
    lines = Path(path).read_text().splitlines()
    data_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, val = line.lstrip("# ").partition(": ")
            metadata[key] = val
            data_start = i + 1
        else:
            break
    reader = csv.reader(lines[data_start:])
    try:
        header = next(reader)
    except StopIteration:
        return metadata, []
    valid = {f.name for f in fields(MetricsRow)}
    unknown = set(header) - valid
    if unknown:
        raise ValueError(f"{path}: unknown metric columns {sorted(unknown)}")
    rows = []
    for record in reader:
        if not record:
            continue
        kwargs = {}
        for col, cell in zip(header, record):
            if cell == "":
                kwargs[col] = None
            elif col == "t":
                kwargs[col] = int(cell)
            else:
                kwargs[col] = float(cell)
        rows.append(MetricsRow(**kwargs))
    return metadata, rows


def aggregate_metrics(runs: list[list[MetricsRow]]) -> dict[str, np.ndarray]:
    """Median and quartiles of every metric column across repetitions.

    All runs must share the same iteration grid.  Returns a mapping with key
    ``t`` plus ``<column>_med`` / ``<column>_q25`` / ``<column>_q75`` arrays.
    """
    if not runs:
        raise ValueError("no runs to aggregate")
    grid = np.array([row.t for row in runs[0]])
    for rep, rows in enumerate(runs):
        if not np.array_equal(np.array([row.t for row in rows]), grid):
            raise ValueError(f"repetition {rep} logged a different iteration grid")
    out: dict[str, np.ndarray] = {"t": grid}
    for col in CSV_COLUMNS[1:]:
        stack = np.array([[getattr(row, col) for row in rows] for rows in runs])
        q25, med, q75 = np.percentile(stack, [25.0, 50.0, 75.0], axis=0)
        out[f"{col}_med"] = med
        out[f"{col}_q25"] = q25
        out[f"{col}_q75"] = q75
    return out


def write_aggregate_csv(path: str | Path, aggregate: dict[str, np.ndarray],
                        metadata: dict | None = None) -> None:
    """Write the aggregate table with the same metadata conventions as run CSVs."""
    columns = ["t"]
    for col in CSV_COLUMNS[1:]:
        columns += [f"{col}_med", f"{col}_q25", f"{col}_q75"]
    _write_csv(path, metadata, columns, (
        [str(int(aggregate[col][i])) if col == "t" else repr(float(aggregate[col][i]))
         for col in columns]
        for i in range(len(aggregate["t"]))
    ))
