"""Learning and solving two-player zero-sum discounted Markov games.

Decentralized optimistic gradient play with a slowly-averaged critic, exact
ground-truth solvers to measure it against, trajectory-based payoff
estimators, and a small CLI for running seeded experiments.
"""

__version__ = "0.1.0"

from .games import (
    DimensionMismatchError,
    JointPolicy,
    MarkovGame,
    best_response,
    evaluate_policy_pair,
    q_from_v,
    uniform_policy,
    validate_game,
    value_upper_bound,
)
from .groundtruth import (
    DistanceResult,
    GroundTruth,
    LpSolveError,
    MatrixGameSolution,
    dist_to_optimal_sets,
    duality_gap_state,
    game_duality_gap,
    shapley_solve,
    solve_matrix_game,
)
from .learner import (
    LearnerState,
    RunConfig,
    RunResult,
    alpha_schedule,
    critic_step,
    eta_max,
    initial_state,
    ogda_step,
    project_simplex,
    reduce_game_for_opponent,
    run_selfplay,
    run_selfplay_batch,
    run_single_player,
)
from .estimators import (
    AccuracyBudget,
    MuEstimate,
    ReducibleChainError,
    SampleBudget,
    SampledEstimator,
    Trajectory,
    estimate_mu,
    explore_mix,
    plan_accuracy_budget,
    plan_sample_budget,
    rollout,
    sampled_estimates,
)
from .gamegen import (
    BUILTIN_NAMES,
    GameFormatError,
    builtin,
    load_game,
    load_policy,
    random_game,
    save_game,
    save_policy,
)
from .metrics import (
    MetricsRow,
    aggregate_metrics,
    diagnostics_update,
    read_metrics_csv,
    write_metrics_csv,
)
from .experiments import ExperimentConfig, run_experiment, resolve_game
