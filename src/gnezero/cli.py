"""Command-line interface: learn, oracle, diagnose, rate-fit, reproduce-fig1.

The module parses arguments and prints results; the library owns every
decision. A learn schedule flag or a reproduce-fig1 value flag that is left
out is absent from the parsed arguments, so Schedules or reproduce_fig1
supplies its default. A command imports the modules it runs when it runs:
oracle needs only games and oracles, so `gnezero oracle` never loads
harness, schedules or diagnostics, and only diagnose loads diagnostics
(building the parser, and any --help, loads none of them).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .games import QuadraticGame, _csv, _fmt, _integer, _positive, resolve_game
from .learner import DivergenceError
from .oracles import SolverError, solve_regularized_vi, solve_vgne

DEFAULT_OUTDIR = "gnezero-out"
_SCHEDULE_FLAGS = ("G", "g", "E", "e", "S", "s")  # learn's flags, one per Schedules field


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


def _oracle_csv(sol) -> str:
    # one tolist() per vector: Python floats, whose repr is _fmt's text
    rows = [(f"a[{k}]", _fmt(x)) for k, x in enumerate(sol.primal.flat.tolist())]
    rows += [(f"lambda[{j}]", _fmt(x)) for j, x in enumerate(sol.dual.tolist())]
    rows += [("active_set", ";".join(str(j) for j in sol.active_set)),
             ("stationarity_residual", _fmt(sol.stationarity_residual)),
             ("complementarity_residual", _fmt(sol.complementarity_residual)),
             ("dual_norm", _fmt(np.linalg.norm(sol.dual)))]
    if sol.epsilon > 0:
        rows.append(("eps", _fmt(sol.epsilon)))
    return _csv("key,value", rows)


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
    print(f"  a* = [{', '.join(f'{x:.12g}' for x in sol.primal.flat.tolist())}]")
    print(f"  lambda* = [{', '.join(f'{x:.12g}' for x in sol.dual.tolist())}]")
    print(f"  active set: {list(sol.active_set)}")
    print(f"  stationarity residual: {sol.stationarity_residual:.3e}")
    print(f"  complementarity residual: {sol.complementarity_residual:.3e}")
    print(f"  ||lambda*|| = {np.linalg.norm(sol.dual):.12g}")
    text = _oracle_csv(sol)
    print(f"\n{text}", end="")
    if args.csv:
        Path(args.csv).write_text(text)
        print(f"\nwrote {args.csv}", file=sys.stderr)
    return 0


# -- learn ---------------------------------------------------------------------


def cmd_learn(args) -> int:
    from .harness import ExperimentConfig, run_experiment
    from .schedules import Schedules

    # a schedule flag the user left out is not in args: Schedules has its default
    sched = Schedules(**{name: getattr(args, name) for name in _SCHEDULE_FLAGS if name in args})
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
    if table.frozen:
        print("frozen seeds (mean bit-identical from checkpoint t to T): "
              + ", ".join(f"{seed} from t={t}" for seed, t in table.frozen.items()))
    print(f"raw CSV: {table.raw_csv}")
    print(f"aggregate CSV: {table.agg_csv}")
    return 0


# -- diagnose -------------------------------------------------------------------

def cmd_diagnose(args) -> int:
    from . import diagnostics as diag

    game = resolve_game(args.game)
    rng = np.random.default_rng(_integer("seed", args.seed, 0))  # numpy words a bad seed its own way
    # both built before any check runs, so a bad --sigma or --eps-grid fails
    # before any work, whichever checks use it
    probe = diag.SmoothingProbe(
        mu=rng.normal(scale=0.5, size=game.D),
        lam=np.abs(rng.normal(scale=0.5, size=game.constraints.num_constraints)),
        sigma=args.sigma,
        num_samples=args.num_samples,
        seed=args.seed,
    )
    grid = [_positive("eps", _parse_number(x)) for x in args.eps_grid.split(",")]
    checks = diag.CHECKS if args.checks == "all" else args.checks.split(",")
    reports, skipped = diag.run_checks(game, probe, grid, checks)
    for check in skipped:
        print(f"{check} needs a quadratic game; skipping", file=sys.stderr)

    text = _csv("check,case,statistic,bound,passed", (
        (rep.check, case.case.replace(",", ";"), _fmt(case.statistic), _fmt(case.bound),
         str(case.passed))
        for rep in reports for case in rep.cases))
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    failures = [c for rep in reports for c in rep.cases if not c.passed]
    if failures:
        print(f"{len(failures)} check case(s) FAILED", file=sys.stderr)
        return 1
    return 0


# -- rate-fit -------------------------------------------------------------------


def cmd_rate_fit(args) -> int:
    from .harness import fit_rate

    if not Path(args.csv).read_text().strip():  # genfromtxt raises IndexError on it
        raise ValueError(f"{args.csv} is empty")
    try:
        data = np.genfromtxt(args.csv, delimiter=",", names=True)
    except ValueError as err:  # numpy's report: a heading, then one line per bad row
        first = str(err).splitlines()[1:2] or [str(err)]
        raise ValueError(f"malformed CSV {args.csv}: {first[0].strip()}") from None
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
    from .harness import reproduce_fig1

    outdir = _resolve_outdir(args.outdir)
    # only the flags the user gave are in args: reproduce_fig1 has the defaults
    given = {name: value for name, value in vars(args).items()
             if name not in ("command", "outdir")}
    if "s_values" in given:
        given["s_values"] = tuple(_parse_number(x) for x in given["s_values"].split(","))
    tables = reproduce_fig1(outdir, **given)
    for table in tables:
        print(f"{table.label}: final mean err_primal_sq "
              f"{table.mean_err_primal_sq[-1]:.6e} ({table.agg_csv})")
    print(f"plot script: {outdir / 'convergence_plot.py'}")
    return 0


# -- parser ----------------------------------------------------------------------


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", default="paper-example",
                   help="builtin name or path to a JSON game file")
    p.add_argument("--eps", type=_parse_number, default=None,
                   help="solve the regularized problem at this eps instead")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--csv", default=None, help="also write the CSV block to this path")


def _learn_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", default="paper-example")
    for name in _SCHEDULE_FLAGS:
        p.add_argument(f"--{name}", type=_parse_number, default=argparse.SUPPRESS)
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


def _diagnose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", default="paper-example")
    p.add_argument("--checks", default="all", help='comma list of check names, or "all"')
    p.add_argument("--eps-grid", default="1e-1,1e-2,1e-3,1e-4")
    p.add_argument("--sigma", type=_parse_number, default=0.5,
                   help="sampling spread of the estimator probes; smoothing-bias-order "
                        "sweeps its own")
    p.add_argument("--num-samples", type=int, default=100_000,
                   help="Monte Carlo samples of the estimator probes; smoothing-bias-order "
                        "draws its own")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the report CSV here")


def _rate_fit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", required=True)
    p.add_argument("--t-min", type=_parse_number, default=1e3)
    p.add_argument("--t-max", type=_parse_number, default=1e5)
    p.add_argument("--column", default="mean_err_primal_sq")


def _reproduce_fig1_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--outdir", default=None)
    p.add_argument("--T", type=int, default=argparse.SUPPRESS)
    p.add_argument("--num-seeds", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed-base", type=int, default=argparse.SUPPRESS)
    p.add_argument("--s-values", default=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main() call in this process, built once.

    Sharing it is safe: parse_args returns a fresh namespace per call, and
    no default depends on the environment (GNEZERO_OUTDIR is read when a
    command runs, by _resolve_outdir).
    """
    parser = argparse.ArgumentParser(
        prog="gnezero",
        description=("Payoff-based learning of variational generalized Nash "
                     "equilibria, exact oracles, and diagnostics."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _oracle_arguments(sub.add_parser("oracle", help="exact equilibrium / regularized solution"))
    _learn_arguments(sub.add_parser("learn", help="run the payoff-based learning iteration"))
    _diagnose_arguments(sub.add_parser("diagnose", help="statistical and oracle-based checks"))
    _rate_fit_arguments(sub.add_parser("rate-fit", help="log-log rate fit of an aggregate CSV"))
    _reproduce_fig1_arguments(sub.add_parser(
        "reproduce-fig1", help="convergence comparison across sampling spreads"))
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every failure a command raises prints one stderr line.

    Bad input (a flag value, a missing or malformed file) returns 2, a
    diverging run, a schedule that overflows the floats or a failed solver
    check 1. A value argparse rejects
    (`learn --G abc`) prints usage and an error line and raises SystemExit(2).
    """
    args = build_parser().parse_args(argv)
    # looked up when called, not bound into the shared parser, so a function
    # that later replaces cmd_<name> on this module is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as err:
        print(f"gnezero {args.command}: error: {err}", file=sys.stderr)
        return 2
    except (DivergenceError, OverflowError) as err:
        # a run writes its CSVs after all its seeds finished; reproduce-fig1 sets
        # where. A schedule past the floats (learner.run's OverflowError) ends a
        # run as a divergence does
        print(f"{args.command} diverged{getattr(err, 'where', ', no CSV written')}: {err}",
              file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"gnezero {args.command}: solver failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
