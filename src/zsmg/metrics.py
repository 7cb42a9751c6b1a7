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
    interval.  A ``z`` or ``q`` whose step count is not ``alpha``'s raises
    ``ValueError`` naming it.  A single step is an interval of one.  The
    iterates are the learner's stacked ``(2S, W)`` arrays: player 1's
    strategies in rows ``0..S-1``, player 2's in ``S..2S-1``, each in its own
    leading ``A`` or ``B`` columns, where ``(S, A, B)`` is the shape of
    ``q_prev``.  Every step's rows are differenced and squared in one pass;
    each player's squares are then summed over its own columns only.  A
    whole padded row sums in another order once ``W`` reaches 8 (numpy's
    pairwise sum unrolls eight wide), so it would not keep the bits of
    summing each player's rows on their own.  Axes between the time axis and
    the last ones (the learner's run axis) ride along, and each run keeps its
    own bits.

    Only the recurrence walks the interval, two ufunc calls a step with J and
    K stacked; the norms and their ``a_t``-scaled forms are a few array
    operations over all of it.  Each element goes through the IEEE operations
    of T one-step updates in the same order, so the bits do not depend on how
    the iterations are split into intervals.

    At t=1 call with zero prev arrays and alpha=1; the recursions then start at
    the first movement norms themselves.  Returns (J, K, per-state max-abs
    stage-game step of the last step) so callers can log the raw step too.
    """
    for name, steps in (("z", z), ("q", q)):
        if len(steps) != len(alpha):
            raise ValueError(f"diagnostics_update: {name} has {len(steps)} steps, but alpha "
                             f"has {len(alpha)}")
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
    t: int | list[int],
    game: list[MarkovGame],
    ground_truth: list[GroundTruth],
    x_hat: np.ndarray,
    y_hat: np.ndarray,
    q_t: np.ndarray,
    j_max,
    k_max,
    q_step_max,
    est_err=None,
    wall_clock: float | list[float] | None = None,
) -> list[MetricsRow]:
    """Evaluate the expensive ground-truth metrics for stacked anchor iterates.

    ``x_hat``, ``y_hat`` and ``q_t`` carry a leading item axis, and ``game``,
    ``ground_truth``, ``j_max``, ``k_max``, ``q_step_max`` and ``est_err`` (which
    may be None) are sequences with one entry per item.  ``t`` and
    ``wall_clock`` are either one value that every row shares or one entry per
    item.  An item is a run at one logged iteration: the learner stacks the
    logged iterations of every run on this axis and evaluates them in one call
    per pass.  A sequence whose length is not the item count raises
    ValueError naming it, before any metric is computed.

    Returns one row per item, each with the bits its item's metrics have
    alone.  Items that share a game and a ground truth (the same objects)
    share one ``game_duality_gap`` and one ``dist_to_optimal_sets`` call; the
    stage gaps and critic errors are one array expression over items and
    states.
    """
    x_hat, y_hat, q_t = (np.asarray(a, dtype=np.float64) for a in (x_hat, y_hat, q_t))
    n_items = len(x_hat)
    # A single t or wall_clock is every item's.
    t, wall_clock = ([value] * n_items if value is None or np.isscalar(value) else value
                     for value in (t, wall_clock))
    est_err = [None] * n_items if est_err is None else est_err
    for name, value in (("game", game), ("ground_truth", ground_truth), ("y_hat", y_hat),
                        ("q_t", q_t), ("j_max", j_max), ("k_max", k_max),
                        ("q_step_max", q_step_max), ("est_err", est_err), ("t", t),
                        ("wall_clock", wall_clock)):
        if len(value) != n_items:
            raise ValueError(f"make_metrics_row: {name} has {len(value)} entries, but x_hat "
                             f"has {n_items} items")
    groups: dict[tuple, list[int]] = {}
    for item, pair in enumerate(zip(map(id, game), map(id, ground_truth))):
        groups.setdefault(pair, []).append(item)
    gap, dist = np.empty(n_items), np.empty(n_items)
    for items in groups.values():
        item_game, gt = game[items[0]], ground_truth[items[0]]
        # A group of every item reads the iterates as they are, with no gathered copy.
        index = slice(None) if len(items) == n_items else items
        policy = JointPolicy(x=x_hat[index], y=y_hat[index])
        gap[index] = game_duality_gap(item_game, policy, tol=gt.tol)
        dist[index] = dist_to_optimal_sets(gt, policy).mean
    q_star = np.stack([gt.q_star for gt in ground_truth])
    col_payoffs = (x_hat[..., None, :] @ q_star)[..., 0, :]
    row_payoffs = (q_star @ y_hat[..., None])[..., 0]
    state_gap = (col_payoffs.max(axis=-1) - row_payoffs.min(axis=-1)).max(axis=-1)
    q_err = np.abs(q_t - q_star).max(axis=(1, 2, 3))
    return [MetricsRow(t=t[item], game_gap=float(gap[item]), mean_dist_sq=float(dist[item]),
                       state_gap_max=float(state_gap[item]), q_err_max=float(q_err[item]),
                       policy_step_avg_max=float(j_max[item]),
                       q_step_avg_max=float(k_max[item]), q_step_max=float(q_step_max[item]),
                       est_err_max=est_err[item], wall_clock=wall_clock[item])
            for item in range(n_items)]


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
    """Read a metrics CSV back into (metadata, rows).

    An unknown column, a header without one of ``CSV_COLUMNS``, a record whose
    cell count differs from the header's, or a cell that does not parse
    (``t`` as an integer, the rest as floats) raises ``ValueError`` naming
    the file and the line.  Only the debug columns ``est_err_max`` and
    ``wall_clock`` may be empty, read as None; an empty cell elsewhere does
    not parse.
    """
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
        raise ValueError(f"{path}, line {data_start + 1}: unknown metric columns "
                         f"{sorted(unknown)}")
    missing = [col for col in CSV_COLUMNS if col not in header]
    if missing:
        raise ValueError(f"{path}, line {data_start + 1}: header lacks the columns {missing}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(header):
            raise ValueError(f"{path}, line {data_start + reader.line_num}: {len(record)} cells "
                             f"for {len(header)} columns")
        kwargs = {}
        try:
            for col, cell in zip(header, record):
                if cell == "" and col in DEBUG_COLUMNS:
                    kwargs[col] = None
                elif col == "t":
                    kwargs[col] = int(cell)
                else:
                    kwargs[col] = float(cell)
        except ValueError:
            raise ValueError(f"{path}, line {data_start + reader.line_num}: column {col} "
                             f"cannot hold {cell!r}") from None
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
    columns = CSV_COLUMNS[1:]
    # One percentile call over the (column, repetition, row) stack.
    stack = np.array([[[getattr(row, col) for row in rows] for rows in runs] for col in columns])
    q25, med, q75 = np.percentile(stack, [25.0, 50.0, 75.0], axis=1)
    for index, col in enumerate(columns):
        out[f"{col}_med"] = med[index]
        out[f"{col}_q25"] = q25[index]
        out[f"{col}_q75"] = q75[index]
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
