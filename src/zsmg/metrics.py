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
from .groundtruth import GroundTruth, dist_to_optimal_sets, duality_gap_state, game_duality_gap

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
    z_t: np.ndarray,
    z_prev: np.ndarray,
    q_t: np.ndarray,
    q_prev: np.ndarray,
    alpha_t: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the decaying movement averages one iteration.

    J[s] <- (1-a) J[s] + a * ||z_t[s] - z_{t-1}[s]||^2   (policy movement)
    K[s] <- (1-a) K[s] + a * ||Q_t[s] - Q_{t-1}[s]||^2   (stage-game movement)

    ``z_t`` and ``z_prev`` are the learner's stacked ``(2S, W)`` iterates:
    player 1's strategies in rows ``0..S-1``, player 2's in ``S..2S-1``, each
    in its own leading ``A`` or ``B`` columns, where ``(S, A, B)`` is the
    shape of ``q_t``.  Both players' rows are differenced and squared in one
    pass; each player's squares are then summed over its own columns only.
    A whole padded row sums in another order once ``W`` reaches 8 (numpy's
    pairwise sum unrolls eight wide), so it would not keep the bits of
    summing each player's rows on their own.

    At t=1 call with zero prev arrays and alpha=1; the recursions then start at
    the first movement norms themselves.  Returns (J, K, per-state max-abs
    stage-game step) so callers can log the raw step too.
    """
    n_states, n_a, n_b = q_t.shape
    sq = (z_t - z_prev) ** 2
    move = sq[:n_states, :n_a].sum(axis=1) + sq[n_states:, :n_b].sum(axis=1)
    q_step = np.abs(q_t - q_prev).max(axis=(1, 2))
    j_new = (1.0 - alpha_t) * j_prev + alpha_t * move
    k_new = (1.0 - alpha_t) * k_prev + alpha_t * q_step**2
    return j_new, k_new, q_step


def make_metrics_row(
    t: int,
    game: MarkovGame,
    ground_truth: GroundTruth,
    x_hat: np.ndarray,
    y_hat: np.ndarray,
    q_t: np.ndarray,
    j_max: float,
    k_max: float,
    q_step_max: float,
    est_err: float | None = None,
    wall_clock: float | None = None,
) -> MetricsRow:
    """Evaluate the expensive ground-truth metrics for the anchor iterates at ``t``."""
    policy = JointPolicy(x=x_hat, y=y_hat)
    gap = game_duality_gap(game, policy, tol=ground_truth.tol)
    dist = dist_to_optimal_sets(ground_truth, policy)
    state_gap = max(
        duality_gap_state(ground_truth.q_star[s], x_hat[s], y_hat[s])
        for s in range(game.n_states)
    )
    return MetricsRow(
        t=t,
        game_gap=gap,
        mean_dist_sq=dist.mean,
        state_gap_max=float(state_gap),
        q_err_max=float(np.max(np.abs(q_t - ground_truth.q_star))),
        policy_step_avg_max=j_max,
        q_step_avg_max=k_max,
        q_step_max=q_step_max,
        est_err_max=est_err,
        wall_clock=wall_clock,
    )


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
