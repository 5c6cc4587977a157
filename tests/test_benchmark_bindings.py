"""The benchmark's tracer binds package names; each must still exist.

perfbench/tracing.py wraps package functions by name and skips a class
attribute that is not defined on its owner (it is wrapped where it is
defined). A renamed or deleted name would then silently read zero in a
per-layer metric, so this test fails first. Traced mini-runs pin the
counts that the payoff boundary feeds: every learner payoff goes through
GameSpec.costs_at, one row per evaluated joint action, and a learner step
makes one payoff call for all seeds. The Monte Carlo pass of the
diagnostics evaluates its costs on worker threads, through no traced
function, so diagnose counts no payoff call and no cost row. diagnose
reaches the pass through the untraced diagnostics._probe_reports, not
through the traced per-statistic functions, so it counts no Monte Carlo
sample either.
"""

import importlib.util
from pathlib import Path

import gnezero
import gnezero.cli  # noqa: F401  (the tracer binds cli functions)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracing()._targets(gnezero)
    assert targets
    bound = {(owner, attr) for owner, attr, _, _ in targets}
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner!r} has no callable {attr}"
        if isinstance(owner, type):
            # an inherited method is wrapped only where it is defined, so the
            # defining class must be a target too
            definer = next(c for c in owner.__mro__ if attr in vars(c))
            assert (definer, attr) in bound, f"{owner.__name__}.{attr} is never wrapped"


def _traced_round(argv) -> dict:
    """The per-layer metrics of one CLI call, traced as one benchmark round."""
    tracer = _load_tracing().Tracer(gnezero)
    tracer.install()
    try:
        span = tracer.open("bench.round")
        try:
            assert gnezero.cli.main(argv) == 0
        finally:
            tracer.close(span)
    finally:
        tracer.uninstall()
    return tracer.layer_metrics([])


def test_traced_diagnose_counts_one_pass_for_all_players(capsys):
    m = _traced_round(["diagnose", "--checks", "estimator-mean", "--num-samples", "2000"])
    # the pass runs under the untraced _probe_reports: mc_samples counts the
    # traced per-statistic calls only, and diagnose makes none
    assert m["diagnostics.mc_samples"] == 0
    # the sampled actions and the probe's mean point go through the pass's
    # untraced cost evaluation
    assert m["games.payoff_calls"] == 0
    assert m["games.costs_at_rows"] == 0


def test_traced_diagnose_records_one_span_per_blocked_cost_batch(capsys):
    # 20,000 rows are cut into row blocks on worker threads; the tracer keeps
    # one span stack, so those threads must run no wrapped function, and a
    # wrapped payoff or cost call on a worker would show in these counts
    m = _traced_round(["diagnose", "--checks", "estimator-mean", "--num-samples", "20000"])
    assert m["diagnostics.mc_samples"] == 0
    assert m["games.payoff_calls"] == 0
    assert m["games.costs_at_rows"] == 0


def test_traced_learn_evaluates_two_rows_per_step(tmp_path, capsys):
    m = _traced_round(["learn", "--T", "50", "--num-seeds", "1", "--outdir", str(tmp_path)])
    assert m["learner.steps"] == 50
    assert m["games.costs_at_rows"] == 2 * m["learner.steps"]


def test_traced_learn_makes_one_payoff_call_per_step_for_all_seeds(tmp_path, capsys):
    m = _traced_round(["learn", "--T", "50", "--num-seeds", "3", "--outdir", str(tmp_path)])
    assert m["learner.run_calls"] == 1
    assert m["games.payoff_calls"] == 50
    assert m["games.costs_at_rows"] == 2 * 3 * 50


def test_traced_diagnose_all_counts(capsys):
    # every check of the diagnose-all workload, at 2,000 samples: no check
    # samples through a traced function; estimator-mean and dual-perturbation
    # read the scale-1.0 row of second-moment-growth's sweep, in one pass
    # under the untraced _probe_reports, and smoothing-bias-order's pass
    # (24,576 antithetic pairs for each of its four sigmas, whatever
    # --num-samples says) calls no traced sampling function either; no check
    # makes a traced payoff or cost call
    m = _traced_round(["diagnose", "--checks", "all", "--num-samples", "2000"])
    assert m["diagnostics.mc_samples"] == 0
    assert m["games.payoff_calls"] == 0
    assert m["games.costs_at_rows"] == 0
    # both eps grids go through solve_regularized_path, which is no traced
    # span: its linear solves tally under the diagnostics span that calls it,
    # and the oracle counts keep only the one solve_vgne of the path report
    # (its P^{-1} solve, saddle lstsq and multiplier lstsq)
    assert m["oracles.regularized_calls_in_diag"] == 0
    assert m["oracles.linear_solves"] == 3
