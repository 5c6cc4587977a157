"""Experiment orchestration: multi-seed runs, aggregation, rate fits, CSV output.

Every run is determined by its config (game, schedules, horizon, seed list);
aggregation over seeds is a fixed-order reduction, so identical configs
produce byte-identical CSV files regardless of how the seeds were executed.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _EXPORTS, oracles
from .games import (GameSpec, PayoffEnvironment, QuadraticGame, _csv, _fmt, _integer, _row_dots,
                    resolve_game)
from .learner import DivergenceError, _seed_list, checkpoints, run
from .schedules import ScheduleError, Schedules, validate_schedules

__all__ = [*_EXPORTS["harness"], "write_raw_csv", "write_aggregate_csv"]

RAW_HEADER = "t,seed,err_primal_sq,err_dual_sq,gamma,eps,sigma"
AGG_HEADER = ("t,mean_err_primal_sq,sem_err_primal_sq,"
              "mean_err_dual_sq,sem_err_dual_sq,num_seeds")


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment depends on, checked before any disk access.

    seeds, T, record_every and workers are counts (games._integer), stored as
    ints but for record_every; a label with a path separator raises
    ValueError; invalid schedules raise ScheduleError unless
    allow_invalid_schedules is set.
    """

    game: GameSpec | str
    schedules: Schedules
    T: int
    seeds: list[int]
    record_every: object = "log"
    outdir: Path | str | None = None
    label: str = "run"
    allow_invalid_schedules: bool = False
    workers: int = 1

    def __post_init__(self):
        self.seeds = _seed_list(self.seeds)
        self.T = _integer("T", self.T, 1)
        checkpoints(self.T, self.record_every)
        self.workers = _integer("workers", self.workers, 1)
        if {os.sep, os.altsep} & set(self.label):  # the CSVs are named <outdir>/<label>_*.csv
            raise ValueError(f"label {self.label!r} contains a path separator")
        report = validate_schedules(self.schedules)
        if not (report.valid or self.allow_invalid_schedules):
            raise ScheduleError("schedules violate validity conditions: "
                                + ", ".join(report.failing()))


@dataclass
class MetricsTable:
    """Per-checkpoint aggregate statistics across seeds, plus the per-seed errors.

    Row r of err_primal_sq and err_dual_sq (seeds, checkpoints) belongs to
    seeds[r], in seed-list order as in the raw CSV. frozen maps each seed
    whose mean mu is bit-identical at every checkpoint from some t_j < T to T
    to the earliest such t_j, in seed-list order: once sigma_t xi falls
    below mu's float resolution every payoff difference is 0, and the primal
    stops without a non-finite iterate.
    """

    label: str
    t: np.ndarray
    mean_err_primal_sq: np.ndarray
    sem_err_primal_sq: np.ndarray
    mean_err_dual_sq: np.ndarray
    sem_err_dual_sq: np.ndarray
    num_seeds: int
    seeds: list[int] = field(default_factory=list)
    frozen: dict[int, int] = field(default_factory=dict)
    err_primal_sq: np.ndarray | None = field(default=None, repr=False)
    err_dual_sq: np.ndarray | None = field(default=None, repr=False)
    raw_csv: Path | None = None
    agg_csv: Path | None = None


def write_raw_csv(table: MetricsTable, path: Path, sched: Schedules):
    """One row per seed and checkpoint, with the schedule values of that step."""
    steps = [(str(int(t)), _fmt(sched.gamma(int(t))), _fmt(sched.eps(int(t))),
              _fmt(sched.sigma(int(t)))) for t in table.t]
    path.write_text(_csv(RAW_HEADER, (
        (t, str(seed), _fmt(p), _fmt(d), gamma, eps, sigma)
        for seed, ep, ed in zip(table.seeds, table.err_primal_sq, table.err_dual_sq)
        for (t, gamma, eps, sigma), p, d in zip(steps, ep, ed))))


def write_aggregate_csv(table: MetricsTable, path: Path):
    k = str(table.num_seeds)
    path.write_text(_csv(AGG_HEADER, (
        (str(int(t)), _fmt(mp), _fmt(sp), _fmt(md), _fmt(sd), k)
        for t, mp, sp, md, sd in zip(table.t, table.mean_err_primal_sq, table.sem_err_primal_sq,
                                     table.mean_err_dual_sq, table.sem_err_dual_sq))))


def _reference(game: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reference point (a*, lam*) of the error metrics.

    The exact v-GNE for a quadratic game; NaN vectors, and so NaN errors,
    for any other game.
    """
    if isinstance(game, QuadraticGame):
        sol = oracles.solve_vgne(game)
        return sol.primal.flat, sol.dual
    return np.full(game.D, np.nan), np.full(game.constraints.num_constraints, np.nan)


def _aggregate(label: str, seeds: list[int], t: np.ndarray, mus: np.ndarray,
               lams: np.ndarray, reference) -> MetricsTable:
    """Per-seed squared errors of the iterates and their mean and sem over seeds.

    The primal and dual errors are one (2, seeds, checkpoints) stack, reduced
    once; a seed-axis reduction adds row by row, so each error's figures are
    bit-equal to a reduction of that error alone.
    """
    errs = np.stack([_row_dots(mus - reference[0]), _row_dots(lams - reference[1])])
    # per seed, how many checkpoints at the end hold T's mean; counted in
    # Python, as a cumprod here raised a learn process's peak RSS by 0.1 MiB
    trailing = [len(list(itertools.takewhile(bool, reversed(row))))
                for row in (mus == mus[:, -1:]).all(axis=2).tolist()]
    # canonical seed order makes the reduction invariant to seed-list shuffles
    ordered, k = errs[:, np.argsort(seeds, kind="stable")], len(seeds)
    mean = ordered.mean(axis=1)
    sem = ordered.std(axis=1, ddof=1) / np.sqrt(k) if k > 1 else np.zeros(mean.shape)
    return MetricsTable(
        label=label, t=t, num_seeds=k, seeds=seeds,
        frozen={seed: int(t[-n]) for seed, n in zip(seeds, trailing) if n > 1},
        mean_err_primal_sq=mean[0], sem_err_primal_sq=sem[0],
        mean_err_dual_sq=mean[1], sem_err_dual_sq=sem[1],
        err_primal_sq=errs[0], err_dual_sq=errs[1],
    )


def run_experiment(cfg: ExperimentConfig) -> MetricsTable:
    """Run every seed, aggregate, and (when an output directory is set) write CSVs.

    All seeds step together through one batched learner run; with
    cfg.workers = k > 1 the seed list is cut into k contiguous slices, one
    batched run each in a process pool. A seed's iterates do not depend on
    its batch, and the aggregate is a reduction in sorted seed order, so the
    CSV bytes do not depend on the worker count. The errors are squared
    distances of the iterates to one reference per experiment. The output
    directory is validated before any run starts.
    """
    game = resolve_game(cfg.game) if isinstance(cfg.game, str) else cfg.game

    outdir = None
    if cfg.outdir is not None:
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if not os.access(outdir, os.W_OK):
            raise PermissionError(f"output directory {outdir} is not writable")

    reference = _reference(game)  # one exact solve serves every seed
    learn = functools.partial(run, PayoffEnvironment(game), cfg.schedules, cfg.T,
                              record_every=cfg.record_every)
    k = min(cfg.workers, len(cfg.seeds))
    if k > 1:
        cuts = [len(cfg.seeds) * j // k for j in range(k + 1)]
        batches = [cfg.seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        # imported here so that a run without worker processes never loads
        # multiprocessing at startup
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=k) as pool:
            mus, lams = (np.concatenate(parts) for parts in zip(*pool.map(learn, batches)))
    else:
        mus, lams = learn(cfg.seeds)

    table = _aggregate(cfg.label, cfg.seeds, checkpoints(cfg.T, cfg.record_every),
                       mus, lams, reference)
    if outdir is not None:
        table.raw_csv = outdir / f"{cfg.label}_raw.csv"
        table.agg_csv = outdir / f"{cfg.label}_agg.csv"
        write_raw_csv(table, table.raw_csv, cfg.schedules)
        write_aggregate_csv(table, table.agg_csv)
    return table


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of an error series in log-log space."""

    slope: float
    intercept: float
    t_min: float
    t_max: float
    r_squared: float


def fit_rate(t, err, t_min: float, t_max: float) -> RateFit:
    """Ordinary least squares of log(err) against log(t) on a window.

    Needs at least five checkpoints inside [t_min, t_max], all positive and
    with finite, strictly positive error values (the log is undefined otherwise).
    """
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got {t_min} >= {t_max}")
    t = np.asarray(t, dtype=float)
    err = np.asarray(err, dtype=float)
    mask = (t >= t_min) & (t <= t_max)
    if int(mask.sum()) < 5:
        raise ValueError(
            f"need at least 5 checkpoints in [{t_min:g}, {t_max:g}], found {int(mask.sum())}"
        )
    window_t, window_err = t[mask], err[mask]
    if np.any(window_t <= 0):
        raise ValueError(f"checkpoints must be positive for a log-log fit, got t = "
                         f"{window_t[window_t <= 0][0]:g}")
    if not np.all(np.isfinite(window_err) & (window_err > 0)):
        raise ValueError("error values must be finite and positive for a log-log fit")
    x = np.log(window_t)
    y = np.log(window_err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a flat series is fit exactly; its ss_tot need not be 0.0, as the mean
    # of equal logs can be off by an ulp
    r_squared = 1.0 if (y == y[0]).all() else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(t_min), float(t_max),
                   float(r_squared))


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Log-log convergence plot over the aggregate CSVs listed below."""

import csv
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
SERIES = {series}

fig, ax = plt.subplots(figsize=(6.0, 4.5))
for label, rel_path in SERIES:
    ts, means = [], []
    with open(HERE / rel_path) as fh:
        for row in csv.DictReader(fh):
            ts.append(float(row["t"]))
            means.append(float(row["mean_err_primal_sq"]))
    ax.loglog(ts, means, label=label)
ax.set_xlabel("iteration t")
ax.set_ylabel("mean squared primal error")
ax.legend()
ax.grid(True, which="both", alpha=0.3)
fig.tight_layout()
out = HERE / "{png_name}"
fig.savefig(out, dpi=150)
print(f"wrote {{out}}")
'''


def emit_plot_script(tables: list[MetricsTable], script_path: Path | str) -> Path:
    """Write a self-contained plot script referencing the aggregate CSVs.

    One curve per table; CSV paths are stored relative to the script so the
    output directory can be moved as a unit.
    """
    if not tables:
        raise ValueError("need at least one metrics table to plot")
    script_path = Path(script_path)
    series = []
    for table in tables:
        if table.agg_csv is None:
            raise ValueError(f"table {table.label!r} has no aggregate CSV on disk")
        rel = os.path.relpath(table.agg_csv, script_path.parent)
        series.append((table.label, rel))
    png_name = script_path.stem + ".png"
    script_path.write_text(_PLOT_TEMPLATE.format(series=repr(series), png_name=png_name))
    return script_path


def reproduce_fig1(
    outdir: Path | str,
    T: int = 100_000,
    num_seeds: int = 20,
    seed_base: int = 0,
    s_values: tuple[float, ...] = (4.0 / 7.0, 2.0, 10.0),
    workers: int = 1,
) -> list[MetricsTable]:
    """Convergence comparison across sampling-spread schedules on paper-example.

    Runs the learning iteration for each spread exponent s (the step-size and
    regularization exponents stay at their standard values), aggregates over
    seeds, writes CSVs, and emits a plot script drawing one curve per s.
    Every config is built before the first run, so bad input, an invalid s
    (its ScheduleError names it) or two s values whose CSVs would share a
    label writes nothing. A DivergenceError, or the OverflowError of a
    schedule that overflows the floats, carries `where`: the s value, and
    which s wrote CSVs; the plot script is written for those before the
    error is raised.
    """
    if not s_values:
        raise ValueError("need at least one s value")
    num_seeds = _integer("num_seeds", num_seeds, 1)
    outdir = Path(outdir)
    runs = {}  # label -> (s, config)
    for s in s_values:
        label = f"s_{s:g}".replace(".", "p")
        try:
            cfg = ExperimentConfig(
                game="paper-example", schedules=Schedules(s=float(s)), T=T,
                seeds=[seed_base + k for k in range(num_seeds)],
                outdir=outdir, label=label, workers=workers,
            )
        except ScheduleError as err:
            raise ScheduleError(f"s={s:g}: {err}") from None
        if label in runs:
            raise ValueError(f"s values {runs[label][0]!r} and {s!r} would both "
                             f"write {label}_raw.csv")
        runs[label] = (s, cfg)
    tables = []
    try:
        for s, cfg in runs.values():
            table = run_experiment(cfg)
            table.label = f"s={s:g}"
            tables.append(table)
    except (DivergenceError, OverflowError) as err:  # a schedule overflow ends it too
        done = ", ".join(t.label for t in tables) or "none"
        err.where = f" at s={s:g} (CSVs written: {done})"
        raise
    finally:
        if tables:  # the CSVs that were written keep their plot script
            emit_plot_script(tables, outdir / "convergence_plot.py")
    return tables
