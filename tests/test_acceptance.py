"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured statistics. Heavy multi-seed runs are shared through
module-scoped fixtures; everything is seeded and deterministic.
"""

import time

import numpy as np
import pytest

from gnezero.cli import main as cli_main
from gnezero.diagnostics import (
    SmoothingProbe,
    dual_perturbation_stats,
    path_drift_ratios,
    smoothing_bias_order_report,
    smoothing_bias_stats,
)
from gnezero.games import paper_example, random_quadratic_game, softplus_game
from gnezero.harness import ExperimentConfig, fit_rate, run_experiment
from gnezero.oracles import solve_regularized_vi, solve_vgne
from gnezero.schedules import Schedules, validate_schedules

SEEDS = list(range(20))


def _report(criterion: str, passed: bool, detail: str):
    print(f"\n[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def standard_run():
    """Standard-exponent run on the two-player example: 20 seeds, T = 1e5."""
    t0 = time.perf_counter()
    table = run_experiment(ExperimentConfig(
        game="paper-example", schedules=Schedules(), T=100_000, seeds=SEEDS,
        label="standard"))
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stall_run():
    """Same setup with sampling spread exponent s = 10, T = 1e4."""
    table = run_experiment(ExperimentConfig(
        game="paper-example", schedules=Schedules(s=10.0), T=10_000, seeds=SEEDS,
        label="stall"))
    return table


def _at(table, t):
    idx = int(np.nonzero(table.t == t)[0][0])
    return float(table.mean_err_primal_sq[idx])


def test_criterion_1_oracle_exactness():
    t0 = time.perf_counter()
    sol = solve_vgne(paper_example())
    elapsed = time.perf_counter() - t0
    ok = (np.allclose(sol.primal.flat, [0.0, 1.0], atol=1e-10)
          and np.allclose(sol.dual, [1.0], atol=1e-10)
          and sol.stationarity_residual <= 1e-10
          and sol.complementarity_residual <= 1e-10
          and elapsed < 1.0)
    _report("1 oracle exactness", ok,
            f"a*={sol.primal.flat.tolist()}, lam*={sol.dual.tolist()}, "
            f"stat={sol.stationarity_residual:.2e}, comp={sol.complementarity_residual:.2e}, "
            f"runtime={elapsed:.3f}s")


def test_criterion_2_rate_reproduction(standard_run):
    table, elapsed = standard_run
    err_1e3 = _at(table, 1_000)
    err_1e5 = _at(table, 100_000)
    drop = err_1e3 / err_1e5
    fit = fit_rate(table.t, table.mean_err_primal_sq, 1e3, 1e5)
    ok = drop >= 5.0 and -0.95 <= fit.slope <= -0.35 and elapsed <= 180.0
    _report("2 rate reproduction", ok,
            f"err(1e3)={err_1e3:.3e}, err(1e5)={err_1e5:.3e}, drop={drop:.1f}x (need >=5), "
            f"slope={fit.slope:.3f} (band [-0.95,-0.35], target -4/7={-4/7:.3f}), "
            f"R2={fit.r_squared:.3f}, runtime={elapsed:.0f}s (~2 min budget)")


def test_criterion_3_stall_reproduction(standard_run, stall_run):
    table, _ = standard_run
    stalled = stall_run
    converged_1e4 = _at(table, 10_000)
    stalled_1e3 = _at(stalled, 1_000)
    stalled_1e4 = _at(stalled, 10_000)
    ratio = stalled_1e4 / converged_1e4
    rel_change = abs(stalled_1e4 - stalled_1e3) / stalled_1e3
    ok = ratio >= 5.0 and rel_change < 0.01
    _report("3 stall reproduction", ok,
            f"stalled err(1e4)={stalled_1e4:.3e} vs converged {converged_1e4:.3e} "
            f"(ratio {ratio:.0f}x, need >=5), flat-curve change {rel_change:.2e} (need <1%)")


def test_criterion_4_regularization_gap_bound():
    t0 = time.perf_counter()
    games = [paper_example()] + [random_quadratic_game(seed) for seed in range(10)]
    worst = 0.0
    for game in games:
        assert game.D <= 6 and game.constraints.num_constraints <= 3
        base = solve_vgne(game)
        coeff = (np.linalg.norm(base.dual) * game.lipschitz()
                 / (np.linalg.norm(game.constraints.K, 2) * game.nu()))
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            gap = np.linalg.norm(
                solve_regularized_vi(game, eps).primal.flat - base.primal.flat)
            bound = eps * coeff
            worst = max(worst, gap / bound if bound > 0 else 0.0)
            assert gap <= bound + 1e-12, (game.name, eps, gap, bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-9 and elapsed < 10.0
    _report("4 regularization gap bound", ok,
            f"11 games x 4 eps, worst gap/bound={worst:.3f}, runtime={elapsed:.2f}s (<10s)")


def test_criterion_5_path_drift_ratios():
    game = paper_example()
    ts = np.arange(1, 201)
    eps_path = ts.astype(float) ** (-2.0 / 7.0)  # values for t = 1..200, pairs 2..200
    r_primal, r_dual = path_drift_ratios(game, eps_path)
    sp = float(np.max(r_primal) / np.median(r_primal))
    sd = float(np.max(r_dual) / np.median(r_dual))
    ok = sp <= 10.0 and sd <= 10.0
    _report("5 path drift ratios", ok,
            f"primal max/median={sp:.2f}, dual max/median={sd:.2f} (need <=10)")


def test_criterion_6_estimator_statistics():
    game = paper_example()
    probe = SmoothingProbe(mu=np.array([0.3, -0.2]), lam=np.array([0.7]),
                           sigma=0.5, num_samples=1_000_000, seed=101)
    worst_dev = 0.0
    for stats in smoothing_bias_stats(game, probe):
        devs = np.abs(stats.bias) / stats.stderr
        worst_dev = max(worst_dev, float(devs.max()))
    ok_a = worst_dev <= 4.0

    probe_s = SmoothingProbe(mu=np.array([0.3, -0.2]), lam=np.array([0.7]),
                             sigma=0.5, num_samples=100_000, seed=102)
    est, exact = dual_perturbation_stats(game, probe_s)
    rel = abs(est - exact) / exact
    ok_b = rel <= 0.05

    ridge = softplus_game(0)
    ridge_probe = SmoothingProbe(mu=np.zeros(ridge.D), lam=np.zeros(1), sigma=0.1,
                                 num_samples=1_000_000, seed=103)
    report = smoothing_bias_order_report(ridge, ridge_probe)
    slope = report.cases[0].statistic
    ok_c = abs(slope - 2.0) <= 0.3

    _report("6 estimator statistics", ok_a and ok_b and ok_c,
            f"(a) worst mean deviation {worst_dev:.2f} se (need <=4); "
            f"(b) E||S||^2 rel err {rel:.3%} (need <=5%); "
            f"(c) E||Q||^2 slope {slope:.3f} (need 2+-0.3)")


def test_criterion_7_operator_inequalities():
    rng = np.random.default_rng(77)
    eps = 0.37
    violations = 0
    worst_slack = np.inf
    for seed in range(10):
        game = random_quadratic_game(seed)
        D, n = game.D, game.constraints.num_constraints
        nu = game.nu()
        K, l = game.constraints.K, game.constraints.l

        a1 = rng.normal(size=(1000, D))
        a2 = rng.normal(size=(1000, D))
        l1 = np.abs(rng.normal(size=(1000, n)))
        l2 = np.abs(rng.normal(size=(1000, n)))
        dwp = (game.pseudo_gradient(a1) - game.pseudo_gradient(a2)
               + (l1 - l2) @ K)
        dwd = -(a1 - a2) @ K.T
        da, dl = a1 - a2, l1 - l2
        lhs = (np.einsum("ij,ij->i", dwp, da) + np.einsum("ij,ij->i", dwd, dl))
        slack_plain = lhs - nu * np.einsum("ij,ij->i", da, da)
        lhs_reg = lhs + eps * np.einsum("ij,ij->i", dl, dl)
        slack_reg = (lhs_reg - nu * np.einsum("ij,ij->i", da, da)
                     - eps * np.einsum("ij,ij->i", dl, dl))
        violations += int(np.sum(slack_plain < -1e-12))
        violations += int(np.sum(slack_reg < -1e-12))
        worst_slack = min(worst_slack, float(slack_plain.min()), float(slack_reg.min()))
    ok = violations == 0
    _report("7 operator inequalities", ok,
            f"10 games x 1000 pairs, violations={violations}, "
            f"worst slack={worst_slack:.2e} (tolerance -1e-12)")


def test_criterion_8_schedule_validation():
    rep = validate_schedules(Schedules(g=4 / 7, e=2 / 7, s=4 / 7))
    ok = (rep.valid
          and rep.h == pytest.approx(8 / 7, rel=1e-12)
          and rep.exponent == pytest.approx(4 / 7, rel=1e-12))
    rep_g = validate_schedules(Schedules(g=0.5, e=2 / 7, s=4 / 7))
    rep_ge = validate_schedules(Schedules(g=0.6, e=0.4, s=4 / 7))
    ok = ok and not rep_g.valid and not rep_ge.valid
    _report("8 schedule validation", ok,
            f"(4/7,2/7,4/7): valid={rep.valid}, h={rep.h:.6f}, exp={rep.exponent:.6f}; "
            f"g=1/2 invalid={not rep_g.valid}; g+e=1 invalid={not rep_ge.valid}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    pairs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        rc = cli_main(["learn", "--T", "500", "--num-seeds", "3",
                       "--outdir", str(out), "--label", "det"])
        assert rc == 0
        pairs.append((out / "det_raw.csv", out / "det_agg.csv"))
    learn_same = (pairs[0][0].read_bytes() == pairs[1][0].read_bytes()
                  and pairs[0][1].read_bytes() == pairs[1][1].read_bytes())

    o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    cli_main(["oracle", "--csv", str(o1)])
    cli_main(["oracle", "--csv", str(o2)])
    oracle_same = o1.read_bytes() == o2.read_bytes()

    d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    for p in (d1, d2):
        cli_main(["diagnose", "--checks", "estimator-mean",
                  "--num-samples", "20000", "--out", str(p)])
    diagnose_same = d1.read_bytes() == d2.read_bytes()
    capsys.readouterr()  # swallow the CLI chatter

    ok = learn_same and oracle_same and diagnose_same
    _report("9 CLI determinism", ok,
            f"learn byte-identical={learn_same}, oracle={oracle_same}, "
            f"diagnose={diagnose_same}")
