"""Command-line interface: learn, oracle, diagnose, rate-fit, reproduce-fig1."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .games import QuadraticGame, resolve_game
from .harness import ExperimentConfig, _fmt, fit_rate, reproduce_fig1, run_experiment
from .learner import DivergenceError
from .oracles import SolverError, solve_regularized_vi, solve_vgne
from .schedules import Schedules

DEFAULT_OUTDIR = "gnezero-out"


def _parse_number(text: str) -> float:
    """Float parser that also accepts exact fractions like 4/7, but not a zero denominator."""
    if "/" in text:
        num, den = text.split("/", 1)
        if float(den) == 0.0:
            raise ValueError(f"{text!r} has a zero denominator")
        return float(num) / float(den)
    return float(text)


def _resolve_outdir(flag_value) -> Path:
    if flag_value is not None:
        return Path(flag_value)
    return Path(os.environ.get("GNEZERO_OUTDIR", DEFAULT_OUTDIR))


def _record_every(text: str):
    return text if text == "log" else int(text)


# -- oracle -------------------------------------------------------------------


def _oracle_csv_lines(sol) -> list[str]:
    lines = ["key,value"]
    a = sol.primal.flat
    for k in range(a.shape[0]):
        lines.append(f"a[{k}],{_fmt(a[k])}")
    for j in range(sol.dual.shape[0]):
        lines.append(f"lambda[{j}],{_fmt(sol.dual[j])}")
    lines.append("active_set," + ";".join(str(j) for j in sol.active_set))
    lines.append(f"stationarity_residual,{_fmt(sol.stationarity_residual)}")
    lines.append(f"complementarity_residual,{_fmt(sol.complementarity_residual)}")
    lines.append(f"dual_norm,{_fmt(np.linalg.norm(sol.dual))}")
    if sol.epsilon > 0:
        lines.append(f"eps,{_fmt(sol.epsilon)}")
    return lines


def cmd_oracle(args) -> int:
    game = resolve_game(args.game)
    if not isinstance(game, QuadraticGame):
        raise ValueError(f"{args.game} is not a quadratic game; the exact oracle needs one")
    if args.eps is not None:
        sol = solve_regularized_vi(game, args.eps, tol=args.tol)
        kind = f"regularized solution at eps={args.eps:g}"
    else:
        sol = solve_vgne(game, tol=args.tol)
        kind = "variational equilibrium"
    print(f"game: {game.name}")
    print(f"{kind}:")
    print(f"  a* = [{', '.join(f'{x:.12g}' for x in sol.primal.flat)}]")
    print(f"  lambda* = [{', '.join(f'{x:.12g}' for x in sol.dual)}]")
    print(f"  active set: {list(sol.active_set)}")
    print(f"  stationarity residual: {sol.stationarity_residual:.3e}")
    print(f"  complementarity residual: {sol.complementarity_residual:.3e}")
    print(f"  ||lambda*|| = {np.linalg.norm(sol.dual):.12g}")
    csv_lines = _oracle_csv_lines(sol)
    print()
    print("\n".join(csv_lines))
    if args.csv:
        Path(args.csv).write_text("\n".join(csv_lines) + "\n")
        print(f"\nwrote {args.csv}", file=sys.stderr)
    return 0


# -- learn ---------------------------------------------------------------------


def cmd_learn(args) -> int:
    sched = Schedules(G=args.G, g=args.g, E=args.E, e=args.e, S=args.S, s=args.s)
    print(sched.validate())
    cfg = ExperimentConfig(
        game=args.game,
        schedules=sched,
        T=args.T,
        seeds=[args.seed_base + k for k in range(args.num_seeds)],
        record_every=args.record_every,
        outdir=_resolve_outdir(args.outdir),
        label=args.label,
        allow_invalid_schedules=args.allow_invalid_schedules,
        workers=args.workers,
    )
    table = run_experiment(cfg)
    print(f"game: {args.game}, T={args.T}, seeds={cfg.seeds[0]}..{cfg.seeds[-1]}")
    print(f"checkpoints: {table.t.shape[0]}")
    print(f"final mean err_primal_sq: {table.mean_err_primal_sq[-1]:.6e}")
    print(f"raw CSV: {table.raw_csv}")
    print(f"aggregate CSV: {table.agg_csv}")
    return 0


# -- diagnose -------------------------------------------------------------------

CHECK_NAMES = ("reg-path", "estimator-mean", "dual-perturbation",
               "smoothing-bias-order", "second-moment-growth")


def _report_csv_lines(reports) -> list[str]:
    lines = ["check,case,statistic,bound,passed"]
    for rep in reports:
        for case in rep.cases:
            lines.append(",".join([
                rep.check,
                case.case.replace(",", ";"),
                _fmt(case.statistic),
                _fmt(case.bound),
                str(case.passed),
            ]))
    return lines


def cmd_diagnose(args) -> int:
    wanted = CHECK_NAMES if args.checks == "all" else tuple(args.checks.split(","))
    unknown = [w for w in wanted if w not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(CHECK_NAMES)}")
    game = resolve_game(args.game)
    rng = np.random.default_rng(args.seed)
    # both built before any check runs, so a bad --sigma or --eps-grid fails
    # before any work, whichever checks use it
    probe = diag.SmoothingProbe(
        mu=rng.normal(scale=0.5, size=game.D),
        lam=np.abs(rng.normal(scale=0.5, size=game.constraints.num_constraints)),
        sigma=args.sigma,
        num_samples=args.num_samples,
        seed=args.seed,
    )
    grid = [_parse_number(x) for x in args.eps_grid.split(",")]
    reports = []
    if "reg-path" in wanted:
        if not isinstance(game, QuadraticGame):
            print("reg-path needs a quadratic game; skipping", file=sys.stderr)
        else:
            reports.append(diag.regularization_path_report(game, grid))
            reports.append(diag.drift_spread_report(game))
    if "estimator-mean" in wanted and not isinstance(game, QuadraticGame):
        # smoothing shifts the estimator's mean off the exact gradient
        # unless the costs are quadratic
        print("estimator-mean needs a quadratic game; skipping", file=sys.stderr)
        wanted = tuple(w for w in wanted if w != "estimator-mean")
    # one Monte Carlo pass for estimator-mean, dual-perturbation and second-moment-growth
    reports.extend(diag._probe_reports(game, probe, wanted))
    if "smoothing-bias-order" in wanted:
        # needs costs with a nonvanishing smoothing bias; the quadratic
        # families have none, so this check runs on the softplus builtin
        ridge = resolve_game("softplus-ridge")
        ridge_probe = diag.SmoothingProbe(
            mu=np.zeros(ridge.D),
            lam=np.zeros(ridge.constraints.num_constraints),
            sigma=args.sigma,
            num_samples=args.num_samples,
            seed=args.seed,
        )
        reports.append(diag.smoothing_bias_order_report(ridge, ridge_probe))

    lines = _report_csv_lines(reports)
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    failures = [c for rep in reports for c in rep.cases if not c.passed]
    if failures:
        print(f"{len(failures)} check case(s) FAILED", file=sys.stderr)
        return 1
    return 0


# -- rate-fit -------------------------------------------------------------------


def cmd_rate_fit(args) -> int:
    if not Path(args.csv).read_text().strip():  # genfromtxt raises IndexError on it
        raise ValueError(f"{args.csv} is empty")
    data = np.genfromtxt(args.csv, delimiter=",", names=True)
    t = np.atleast_1d(data["t"])
    err = np.atleast_1d(data[args.column])
    fit = fit_rate(t, err, args.t_min, args.t_max)
    print(f"window: t in [{fit.t_min:g}, {fit.t_max:g}]")
    print(f"slope: {fit.slope:.6f}")
    print(f"intercept: {fit.intercept:.6f}")
    print(f"r_squared: {fit.r_squared:.6f}")
    return 0


# -- reproduce-fig1 ---------------------------------------------------------------


def cmd_reproduce_fig1(args) -> int:
    outdir = _resolve_outdir(args.outdir)
    s_values = tuple(_parse_number(x) for x in args.s_values.split(","))
    tables = reproduce_fig1(
        outdir,
        T=args.T,
        num_seeds=args.num_seeds,
        seed_base=args.seed_base,
        s_values=s_values,
        workers=args.workers,
    )
    for table in tables:
        print(f"{table.label}: final mean err_primal_sq "
              f"{table.mean_err_primal_sq[-1]:.6e} ({table.agg_csv})")
    print(f"plot script: {outdir / 'convergence_plot.py'}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnezero",
        description=("Payoff-based learning of variational generalized Nash "
                     "equilibria, exact oracles, and diagnostics."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exact equilibrium / regularized solution")
    p.add_argument("--game", default="paper-example",
                   help="builtin name or path to a JSON game file")
    p.add_argument("--eps", type=_parse_number, default=None,
                   help="solve the regularized problem at this eps instead")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--csv", default=None, help="also write the CSV block to this path")

    p = sub.add_parser("learn", help="run the payoff-based learning iteration")
    p.add_argument("--game", default="paper-example")
    p.add_argument("--G", type=_parse_number, default=1.0)
    p.add_argument("--g", type=_parse_number, default=4.0 / 7.0)
    p.add_argument("--E", type=_parse_number, default=1.0)
    p.add_argument("--e", type=_parse_number, default=2.0 / 7.0)
    p.add_argument("--S", type=_parse_number, default=1.0)
    p.add_argument("--s", type=_parse_number, default=4.0 / 7.0)
    p.add_argument("--T", type=int, default=10_000)
    p.add_argument("--num-seeds", type=int, default=1)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--record-every", type=_record_every, default="log",
                   help='integer cadence or "log" (default)')
    p.add_argument("--outdir", default=None,
                   help=f"output directory (default {DEFAULT_OUTDIR}; "
                        "GNEZERO_OUTDIR overrides the default)")
    p.add_argument("--label", default="learn")
    p.add_argument("--allow-invalid-schedules", action="store_true")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("diagnose", help="statistical and oracle-based checks")
    p.add_argument("--game", default="paper-example")
    p.add_argument("--checks", default="all",
                   help="comma list of " + ",".join(CHECK_NAMES))
    p.add_argument("--eps-grid", default="1e-1,1e-2,1e-3,1e-4")
    p.add_argument("--sigma", type=_parse_number, default=0.5,
                   help="sampling spread of the estimator probes; smoothing-bias-order "
                        "ignores it and sweeps sigma in {0.2, 0.1, 0.05, 0.025}")
    p.add_argument("--num-samples", type=int, default=100_000,
                   help="Monte Carlo samples of the estimator probes; smoothing-bias-order "
                        f"ignores it and draws {diag._BIAS_PAIRS} antithetic pairs per sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the report CSV here")

    p = sub.add_parser("rate-fit", help="log-log rate fit of an aggregate CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--t-min", type=_parse_number, default=1e3)
    p.add_argument("--t-max", type=_parse_number, default=1e5)
    p.add_argument("--column", default="mean_err_primal_sq")

    p = sub.add_parser("reproduce-fig1",
                       help="convergence comparison across sampling spreads")
    p.add_argument("--outdir", default=None)
    p.add_argument("--T", type=int, default=100_000)
    p.add_argument("--num-seeds", type=int, default=20)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--s-values", default="4/7,2,10")
    p.add_argument("--workers", type=int, default=1)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main() call in this process.

    Sharing it is safe: parse_args returns a fresh namespace per call, and
    no default depends on the environment (GNEZERO_OUTDIR is read when a
    command runs, by _resolve_outdir).
    """
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; every failure a command raises prints one stderr line.

    Bad input (a flag value, a missing or malformed file) returns 2, a
    diverging run or a failed solver check 1. A value argparse rejects
    (`learn --G abc`) prints usage and an error line and raises SystemExit(2).
    """
    args = _parser().parse_args(argv)
    # looked up when called, not bound into the shared parser, so a function
    # that later replaces cmd_<name> on this module is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as err:
        print(f"gnezero {args.command}: error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        # a run writes its CSVs after all its seeds finished; reproduce-fig1 sets where
        print(f"{args.command} diverged{getattr(err, 'where', ', no CSV written')}: {err}",
              file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"gnezero {args.command}: solver failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
