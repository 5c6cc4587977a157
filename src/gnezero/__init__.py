"""Payoff-based learning of variational generalized Nash equilibria.

Strongly monotone games with jointly affine coupling constraints: exact
first-order oracles, the zeroth-order (two-point) primal-dual learning
iteration with Tikhonov-regularized dual updates, and a diagnostics /
rate-measurement harness.

The package loads a module when one of its names is first read (PEP 562),
so `import gnezero` loads none of them, and a command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# every exported name and the module that defines it; a module's __all__ is
# its entry here plus the names it exports as a module only
_EXPORTS = {
    "augmented": ("extended_pseudo_gradient",),
    "diagnostics": (
        "CheckCase",
        "CheckReport",
        "SmoothingProbe",
        "drift_spread_report",
        "dual_perturbation_stats",
        "estimator_second_moment",
        "path_drift_ratios",
        "regularization_path_report",
        "smoothing_bias_stats",
    ),
    "games": (
        "ConstraintSet",
        "DimensionMismatchError",
        "GameConfigError",
        "GameSpec",
        "InfeasibleConstraintsError",
        "JointAction",
        "PayoffEnvironment",
        "QuadraticGame",
        "SoftplusQuadraticGame",
        "builtin_game",
        "game_from_config",
        "load_game",
        "paper_example",
        "probe_lipschitz",
        "probe_monotonicity",
        "random_quadratic_game",
        "resolve_game",
        "softplus_game",
    ),
    "harness": (
        "ExperimentConfig",
        "MetricsTable",
        "RateFit",
        "emit_plot_script",
        "fit_rate",
        "reproduce_fig1",
        "run_experiment",
    ),
    "learner": ("DivergenceError", "checkpoints", "run", "two_point_estimate"),
    "oracles": (
        "OracleSolution",
        "SolverError",
        "solve_regularized_path",
        "solve_regularized_vi",
        "solve_vgne",
        "solve_vi_extragradient",
    ),
    "schedules": ("ScheduleError", "ScheduleReport", "Schedules", "validate_schedules"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "lcp"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
