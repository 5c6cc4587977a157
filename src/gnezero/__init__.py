"""Payoff-based learning of variational generalized Nash equilibria.

Strongly monotone games with jointly affine coupling constraints: exact
first-order oracles, the zeroth-order (two-point) primal-dual learning
iteration with Tikhonov-regularized dual updates, and a diagnostics /
rate-measurement harness.
"""

from .augmented import extended_pseudo_gradient
from .diagnostics import (
    CheckCase,
    CheckReport,
    SmoothingProbe,
    drift_spread_report,
    dual_perturbation_stats,
    estimator_second_moment,
    path_drift_ratios,
    regularization_path_report,
    smoothing_bias_stats,
)
from .games import (
    ConstraintSet,
    DimensionMismatchError,
    GameConfigError,
    GameSpec,
    InfeasibleConstraintsError,
    JointAction,
    PayoffEnvironment,
    QuadraticGame,
    SoftplusQuadraticGame,
    builtin_game,
    game_from_config,
    load_game,
    paper_example,
    probe_lipschitz,
    probe_monotonicity,
    random_quadratic_game,
    resolve_game,
    softplus_game,
)
from .harness import (
    ExperimentConfig,
    MetricsTable,
    RateFit,
    emit_plot_script,
    fit_rate,
    reproduce_fig1,
    run_experiment,
)
from .learner import (
    DivergenceError,
    checkpoints,
    run,
    two_point_estimate,
)
from .oracles import (
    OracleSolution,
    SolverError,
    solve_regularized_path,
    solve_regularized_vi,
    solve_vgne,
    solve_vi_extragradient,
)
from .schedules import ScheduleError, ScheduleReport, Schedules, validate_schedules

__version__ = "0.1.0"
