"""Standalone statistical checks of the estimator and the regularization path.

Monte Carlo probes of the two-point gradient estimator (its mean, its bias
relative to the exact pseudo-gradient, the second moments of its noise
terms and of the dual player's sampling term), plus exact-oracle checks of
the regularization path: the gap bound to the unregularized solution and
the drift between consecutive solutions.

run_checks is what `gnezero diagnose` runs: the checks named in CHECKS, in
that report order. It rejects an unknown name before any check runs, skips
reg-path and estimator-mean on a game that is not quadratic, runs
smoothing-bias-order on the softplus-ridge builtin and keeps numpy's
overflow warnings of an overflowing sigma off stderr.

Every Monte Carlo figure comes from one seeded stream of standard-normal
chunks (_draws), read only by _moments. Probes that share a seed share that
stream (common random numbers): the sigma sweep of
smoothing_bias_order_report and the scale sweep of
second_moment_growth_report draw each chunk once for all their probes, and
every probe's figures are bit-identical to a pass over that probe alone.
_moments sums the sampled terms of the extended game, the D primal estimate
coordinates and the n dual columns -sigma K xi, and their squares, per row
block, and adds the block sums in order, so no figure depends on the number
of worker threads. It evaluates each block on its transpose, rows
innermost: the column layout of GameSpec._costs, and every estimate and sum
along the contiguous row axis. Each statistic is read from the pass's
(sum, sumsq) by one function, whichever pass feeds it. _probe_reports builds the
estimator-mean, dual-perturbation and second-moment-growth reports from one
pass, the growth check's scale sweep when it runs (estimator-mean and
dual-perturbation read its scale-1.0 row) and the probe alone otherwise; it
serves run_checks and every public stats and report function of those
checks. They test the learner's own two-point estimate, with u(mu) as
its base point. The sigma sweep measures the smoothing bias of the costs
instead, which any unbiased estimate of the smoothed gradient shows, so it
takes _moments' antithetic pairs mu +- sigma xi: a fixed _BIAS_PAIRS of them
per sigma, whatever the probe's num_samples. So a diagnose run with every
check draws its seed's stream once per game. The reports' bounds and sweeps
are fixed; their case strings name them.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .games import (DimensionMismatchError, GameSpec, PayoffEnvironment, QuadraticGame,
                    _integer, _positive, resolve_game)
from .learner import _two_point
from .oracles import solve_regularized_path, solve_vgne

__all__ = [*_EXPORTS["diagnostics"], "CHECKS", "run_checks", "SmoothingBias",
           "estimator_mean_report", "dual_perturbation_report", "smoothing_bias_order_report",
           "second_moment_growth_report"]

_CHUNK = 100_000
# _moments cuts each chunk into row blocks of this size, one worker task
# per block: a block's temporaries stay in cache, and the blocks run on all CPUs
_BLOCK = 8192
# antithetic pairs per sigma of smoothing_bias_order_report: whole blocks,
# because a remainder block raised diagnose's peak RSS
_BIAS_PAIRS = 3 * _BLOCK


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SmoothingProbe:
    """Where and how hard to probe: mean point, dual, spread, samples, seed.

    sigma is a positive finite scale (games._positive), stored as a float;
    num_samples >= 1 and seed >= 0 are counts (games._integer), stored as
    ints; else ValueError.
    """

    mu: np.ndarray
    lam: np.ndarray
    sigma: float
    num_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float).reshape(-1))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        object.__setattr__(self, "sigma", _positive("sigma", self.sigma))
        for field in ("mu", "lam"):
            if not np.all(np.isfinite(getattr(self, field))):
                raise ValueError(f"{field} must be finite")
        for field, low in (("num_samples", 1), ("seed", 0)):
            object.__setattr__(self, field, _integer(field, getattr(self, field), low))

    def scaled(self, factor: float) -> "SmoothingProbe":
        return SmoothingProbe(self.mu * factor, self.lam * factor, self.sigma,
                              self.num_samples, self.seed)


def _draws(seed: int, num_samples: int, dim: int):
    """The seeded stream of standard normals: (size, dim) chunks of at most _CHUNK rows."""
    rng = np.random.default_rng(seed)
    for start in range(0, num_samples, _CHUNK):
        yield rng.standard_normal((min(_CHUNK, num_samples - start), dim))


def _shared_stream(game: GameSpec, probes: Sequence[SmoothingProbe]) -> tuple[int, int, int]:
    """The (seed, num_samples, D) that all probes share; ValueError if they differ.

    DimensionMismatchError if the probes' mu or lam does not fit the game.
    """
    streams = {(p.seed, p.num_samples, p.mu.shape[0]) for p in probes}
    if len(streams) != 1:
        raise ValueError("probes must share one seed, num_samples and dimension, "
                         f"got (seed, num_samples, D) in {sorted(streams)}")
    for p in probes:
        for what, vec, size in (("probe mu", p.mu, game.D),
                                ("probe lam", p.lam, game.constraints.num_constraints)):
            if vec.shape[0] != size:
                raise DimensionMismatchError(what, size, vec.shape[0])
    return streams.pop()


@dataclass(frozen=True)
class SmoothingBias:
    """Gap between the estimator's sample mean and the exact pseudo-gradient block.

    norm_sq_debiased subtracts the Monte Carlo variance of the sample mean
    from ||bias||^2, giving an (almost) unbiased estimate of the true squared
    smoothing bias.
    """

    bias: np.ndarray
    stderr: np.ndarray
    norm_sq_debiased: float


def _moments(game: GameSpec, probes: Sequence[SmoothingProbe],
             antithetic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(sum_m, sumsq_m): sums of every sampled term of the extended game and of its square.

    Each is a (len(probes), D + n) array: row k sums m and m^2 over the
    shared draws, where m is every player's estimate at
    X = mu_k + sigma_k xi, so X is bit-identical to a draw from probe k
    alone, followed by the dual player's sampling term
    K (mu_k - X) = K (-sigma_k xi), in either mode. With antithetic, m is
    instead the estimate of the pair X, Y = mu_k - sigma_k xi, which lie
    2 sigma_k xi apart: the two-point estimate from Y to X at spread
    2 sigma_k, (u(X) - u(Y)) xi / (2 sigma_k), the mean of the estimates at
    xi and at -xi; the draw count is then a pair count. Each chunk xi of the
    stream is drawn once and cut into row blocks of _BLOCK rows; the last
    block takes the remainder, since numpy sends a matrix product with one
    row or column to gemv, which rounds differently from gemm. One pool of
    worker threads per pass, at most one per available CPU, takes one block
    per task and returns its own (2, len(probes), D + n) sums. The caller
    adds them in block order, so no figure depends on the thread count.

    A task reads its block as the transpose xi' (D, rows) and keeps every
    array rows innermost: X (D, rows), the column costs of GameSpec._costs,
    the multiplier term through PayoffEnvironment._lagrangian on the
    transposes, each player's _two_point estimate (d_i, rows) and the dual
    term (n, rows). Each term's block sum is np.sum along the row axis, a
    pairwise sum, and its sum of squares an einsum there. For a term with one
    coordinate (every term on paper-example) that is the sum numpy takes of
    its rows in either layout, so those figures do not depend on it. X and
    the pair point are buffers of the task, written from the strided xi', so
    no task holds a transposed copy of its block.

    Each task runs in a copy of the caller's context, so np.errstate
    carries over (numpy >= 2 keeps it in a context variable). The workers
    call no traced function: perfbench's tracer keeps one span stack.
    """
    seed, num_samples, dim = _shared_stream(game, probes)  # before any draw
    env, K = PayoffEnvironment(game), game.constraints.K

    def payoffs(X, lam):
        # the (N, P) Lagrangian payoffs at the columns of X (D, P): the column
        # costs, and _lagrangian on the transposes, the layout it takes
        return env._lagrangian(game._costs(X, True).T, (K @ X).T, lam)[0].T

    # one one-column call per probe, not one batch of all means: numpy sends a
    # matrix-vector product to gemv, which rounds differently from the gemm
    # of a larger batch, so only this keeps each probe's results as alone
    u_mu = [None if antithetic else payoffs(p.mu[:, None], p.lam) for p in probes]

    width = game.D + K.shape[0]

    def block_sums(xi):  # xi: a block's transpose (D, rows); every array here is rows innermost
        X, pair = np.empty(xi.shape), np.empty(xi.shape) if antithetic else None
        sums = np.empty((2, len(probes), width))
        for k, (p, u) in enumerate(zip(probes, u_mu)):
            S = K @ np.multiply(-p.sigma, xi, out=X)
            sums[0, k, game.D:] = S.sum(axis=1)
            sums[1, k, game.D:] = np.einsum("jk,jk->j", S, S)
            mu = p.mu[:, None]
            np.add(mu, np.multiply(p.sigma, xi, out=X), out=X)
            U = payoffs(X, p.lam)
            # the estimate's second point, its payoffs and its distance to X:
            # (mu, u(mu), sigma) for a plain row, (mu - sigma xi, V, 2 sigma) for a pair
            Y, V, spread = mu, u, p.sigma
            if antithetic:
                Y = np.subtract(mu, np.multiply(p.sigma, xi, out=pair), out=pair)
                V, spread = payoffs(Y, p.lam), 2.0 * p.sigma
            for i, sl in enumerate(game.slices):  # the learner's estimator core
                m = _two_point(U[i] - V[i], X[sl], Y[sl], spread)
                sums[0, k, sl] = m.sum(axis=1)
                sums[1, k, sl] = np.einsum("jk,jk->j", m, m)
        return sums

    # imported here so that commands which draw no samples do not pay for it
    from concurrent.futures import ThreadPoolExecutor

    total = np.zeros((2, len(probes), width))
    most = max(1, min(_CHUNK, num_samples) // _BLOCK)  # blocks in the first chunk
    with ThreadPoolExecutor(min(_available_cpus(), most)) as pool:
        for xi in _draws(seed, num_samples, dim):
            edges = [i * _BLOCK for i in range(max(1, len(xi) // _BLOCK))] + [len(xi)]
            for future in [pool.submit(contextvars.copy_context().run, block_sums, xi[a:b].T)
                           for a, b in zip(edges, edges[1:])]:
                total += future.result()
    return total[0], total[1]


_GROWTH_SCALES = (1.0, 2.0, 4.0, 8.0)
# the checks of run_checks, in report order
CHECKS = ("reg-path", "estimator-mean", "dual-perturbation", "second-moment-growth",
          "smoothing-bias-order")
# the checks that _probe_reports builds from one pass at the probe, in report order
_PROBE_CHECKS = CHECKS[1:4]
# the checks whose bound holds on quadratic costs only: reg-path needs the
# exact oracle, and smoothing shifts the estimator's mean off the exact
# gradient unless the costs are quadratic
_QUADRATIC_CHECKS = CHECKS[:2]


def _probe_pass(game: GameSpec, probe: SmoothingProbe, checks: Sequence[str]):
    """(probes, moments): the one _moments pass that checks need at probe.

    probes is second-moment-growth's scale sweep if it is in checks, else
    [probe]; its first row is probe's either way, as probe.scaled(1.0) is
    bit-identical to probe. estimator-mean's standard error needs
    num_samples >= 2, checked before any draw.
    """
    probes = ([probe.scaled(c) for c in _GROWTH_SCALES]
              if "second-moment-growth" in checks else [probe])
    if "estimator-mean" in checks and _shared_stream(game, probes)[1] < 2:
        raise ValueError(f"the standard error needs num_samples >= 2, got {probe.num_samples}")
    return probes, _moments(game, probes)


def _bias_stats_from(game: GameSpec, probes: Sequence[SmoothingProbe],
                     moments: tuple[np.ndarray, np.ndarray]) -> list[tuple[SmoothingBias, ...]]:
    """smoothing_bias_stats of each probe from the (sum_m, sumsq_m) of its _moments row.

    From an antithetic pass, num_samples counts pairs, so the standard error
    comes from the pair estimates: the two halves of a pair are correlated.
    """
    M = probes[0].num_samples
    out = []
    for probe, total, total_sq in zip(probes, *moments):
        mean_m = total[:game.D] / M
        se = np.sqrt(np.maximum(total_sq[:game.D] / M - mean_m**2, 0.0) / M)
        exact = game.pseudo_gradient(probe.mu) + game.constraints.K.T @ probe.lam
        bias = mean_m - exact
        out.append(tuple(
            SmoothingBias(bias=bias[sl], stderr=se[sl],
                          norm_sq_debiased=float(bias[sl] @ bias[sl] - se[sl] @ se[sl]))
            for sl in game.slices
        ))
    return out


def smoothing_bias_stats(game: GameSpec, probe: SmoothingProbe) -> tuple[SmoothingBias, ...]:
    """Sample mean of every player's two-point estimate minus the exact gradient block.

    Needs num_samples >= 2 for a standard error (ValueError otherwise).
    """
    return _bias_stats_from(game, *_probe_pass(game, probe, ["estimator-mean"]))[0]


def _dual_stats_from(game: GameSpec, probes: Sequence[SmoothingProbe],
                     moments: tuple[np.ndarray, np.ndarray]) -> list[tuple[float, float]]:
    """dual_perturbation_stats of each probe from the dual columns of its _moments row."""
    K = game.constraints.K
    return [(float(total_sq[game.D:].sum()) / p.num_samples,
             p.sigma * p.sigma * float(np.sum(K * K)))  # inf, not OverflowError, at huge sigma
            for p, total_sq in zip(probes, moments[1])]


def dual_perturbation_stats(game: GameSpec, probe: SmoothingProbe) -> tuple[float, float]:
    """Empirical and exact second moment of the dual-side sampling term.

    The term is K (mu - a) with a ~ N(mu, sigma^2 I); its exact second moment
    is sigma^2 times the sum of squared entries of K.
    """
    return _dual_stats_from(game, *_probe_pass(game, probe, ["dual-perturbation"]))[0]


def _second_moments_from(game: GameSpec, probes: Sequence[SmoothingProbe],
                         moments: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """estimator_second_moment of each probe, (len(probes), N), from its _moments row."""
    sumsq_m = moments[1]
    total = np.stack([sumsq_m[:, sl].sum(axis=1) for sl in game.slices], axis=1)
    return total / probes[0].num_samples


def estimator_second_moment(game: GameSpec, probe: SmoothingProbe) -> np.ndarray:
    """Empirical E||m^i||^2 of the two-point estimate at the probe point, one per player."""
    return _second_moments_from(game, *_probe_pass(game, probe, []))[0]


# -- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class CheckCase:
    """One verified inequality: what it checks, its statistic and its bound."""

    case: str
    statistic: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    check: str
    cases: tuple[CheckCase, ...]


def path_drift_ratios(game: QuadraticGame, eps_values: Sequence[float]):
    """Normalized drift of consecutive regularized solutions along an eps path.

    For consecutive (eps_prev, eps_cur) the primal ratio is
    ||a_cur - a_prev||^2 * eps_cur / (eps_cur - eps_prev)^2 and the dual ratio
    carries eps_cur^2 instead; equal eps values yield zero drift by
    convention.
    """
    eps_values = [float(e) for e in eps_values]
    return _drift_ratios(solve_regularized_path(game, eps_values), eps_values)


def _drift_ratios(sols, eps_values: list[float]):
    """path_drift_ratios of the regularized solutions sols, one per eps value.

    Each row sum runs over one contiguous row, so it is bit-equal to np.sum
    on that pair's difference alone.
    """
    if len(sols) < 2:  # no pair
        return np.zeros(0), np.zeros(0)
    eps = np.asarray(eps_values, dtype=float)
    e_cur, de = eps[1:], np.diff(eps)
    da = np.sum(np.diff([s.primal.flat for s in sols], axis=0) ** 2, axis=1)
    dl = np.sum(np.diff([s.dual for s in sols], axis=0) ** 2, axis=1)
    moved = de != 0.0
    r_primal, r_dual = np.zeros(len(de)), np.zeros(len(de))
    np.divide(da * e_cur, de**2, out=r_primal, where=moved)
    np.divide(dl * e_cur**2, de**2, out=r_dual, where=moved)
    return r_primal, r_dual


def regularization_path_report(
    game: QuadraticGame,
    eps_grid: Sequence[float],
) -> CheckReport:
    """Check the regularization path against its exact-oracle properties.

    For every eps on the grid the distance of the regularized primal solution
    to the unregularized one must stay below eps * ||lam*|| * L / (||K|| nu),
    which is 0 when lam* = 0 (then ||K|| may be 0 as well).
    Consecutive-pair drift ratios are reported as well, checked only for
    finiteness; drift_spread_report bounds their spread along a schedule path.
    """
    eps_grid = [float(e) for e in eps_grid]
    sols = solve_regularized_path(game, eps_grid)  # rejects a bad eps before any solve
    base = solve_vgne(game)
    lam_norm = float(np.linalg.norm(base.dual))
    norm_K = float(np.linalg.norm(game.constraints.K, 2))
    # with lam* = 0 every regularized solution is the v-GNE
    gap_coeff = lam_norm * game.lipschitz() / (norm_K * game.nu()) if lam_norm > 0 else 0.0

    cases = []
    for eps, sol in zip(eps_grid, sols):
        gap = float(np.linalg.norm(base.primal.flat - sol.primal.flat))
        bound = eps * gap_coeff
        cases.append(CheckCase(
            case=f"gap-bound eps={eps:g}",
            statistic=gap,
            bound=bound,
            passed=gap <= bound * (1.0 + 1e-9) + 1e-14,
        ))

    for name, ratios in zip(("primal", "dual"), _drift_ratios(sols, eps_grid)):
        for (e_prev, e_cur), r in zip(zip(eps_grid, eps_grid[1:]), ratios):
            cases.append(CheckCase(
                case=f"{name}-drift eps={e_prev:g}->{e_cur:g}",
                statistic=float(r),
                bound=float("inf"),
                passed=bool(np.isfinite(r)),
            ))

    return CheckReport(check="regularization-path", cases=tuple(cases))


def drift_spread_report(game: QuadraticGame) -> CheckReport:
    """Boundedness of the drift ratios along the schedule path eps_t = 1 / t^(2/7).

    Solves the regularized problem at every t in [1, 200] in one
    solve_regularized_path call; the max of each normalized drift ratio over
    t must stay within 10 times its median: the path must not show runaway
    growth.
    """
    ts = np.arange(1, 201)
    eps_path = 1.0 / ts.astype(float) ** (2.0 / 7.0)
    cases = []
    for name, ratios in zip(("primal", "dual"), path_drift_ratios(game, eps_path)):
        med = float(np.median(ratios))
        peak = float(np.max(ratios))
        spread = peak / med if med > 0 else (0.0 if peak == 0 else float("inf"))
        cases.append(CheckCase(case=f"{name}-drift spread max/median", statistic=spread,
                               bound=10.0, passed=spread <= 10.0))
    return CheckReport(check="drift-spread", cases=tuple(cases))


def _probe_reports(game: GameSpec, probe: SmoothingProbe,
                   checks: Sequence[str]) -> list[CheckReport]:
    """The estimator-mean, dual-perturbation and second-moment-growth reports in checks.

    In that order, from one _probe_pass; other names in checks are ignored.
    The estimator mean and the dual term are read at the probe's own row,
    the growth slopes over the scale sweep.
    """
    checks = [c for c in _PROBE_CHECKS if c in checks]
    if not checks:
        return []
    probes, moments = _probe_pass(game, probe, checks)
    reports = []
    if "estimator-mean" in checks:
        cases = []
        for i, stats in enumerate(_bias_stats_from(game, probes[:1], moments)[0]):
            for k, (b, se) in enumerate(zip(stats.bias, stats.stderr)):
                gap, bound = abs(float(b)), 4.0 * float(se)
                cases.append(CheckCase(f"player{i}[{k}] |mean - exact| <= 4 se", gap, bound,
                                       gap <= bound))
        reports.append(CheckReport("estimator-mean", tuple(cases)))
    if "dual-perturbation" in checks:
        est, exact = _dual_stats_from(game, probes[:1], moments)[0]
        rel = abs(est - exact) / exact if exact > 0 else abs(est)
        reports.append(CheckReport("dual-perturbation", (CheckCase(
            "E||S||^2 within 5% of sigma^2 sum(K^2)", rel, 0.05, rel <= 0.05),)))
    if "second-moment-growth" in checks:
        per_scale = _second_moments_from(game, probes, moments)
        slopes = [_loglog_slope(_GROWTH_SCALES, per_scale[:, i].tolist())
                  for i in range(game.num_players)]
        reports.append(CheckReport("second-moment-growth", tuple(
            CheckCase(f"player{i} loglog growth slope <= 2.2", slope, 2.2, slope <= 2.2)
            for i, slope in enumerate(slopes))))
    return reports


def estimator_mean_report(game: GameSpec, probe: SmoothingProbe) -> CheckReport:
    """Per-coordinate check that the estimator mean is within 4 se of the exact gradient.

    Meaningful as an exactness check only for quadratic costs, where Gaussian
    smoothing does not shift the gradient.
    """
    return _probe_reports(game, probe, ["estimator-mean"])[0]


def dual_perturbation_report(game: GameSpec, probe: SmoothingProbe) -> CheckReport:
    """Empirical second moment of the dual sampling term within 5% of its exact value."""
    return _probe_reports(game, probe, ["dual-perturbation"])[0]


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(np.log(np.asarray(x, dtype=float)),
                        np.log(np.asarray(y, dtype=float)), 1)
    return float(coeffs[0])


def smoothing_bias_order_report(game: GameSpec, probe: SmoothingProbe) -> CheckReport:
    """Fit the scaling of the squared smoothing bias against the spread.

    For each sigma in 0.2, 0.1, 0.05, 0.025 the squared norm of the bias
    (Monte Carlo corrected) is measured at the probe point, summed over
    players; the log-log slope against sigma must be within 0.3 of the
    expected second-order scaling 2. The bias is that of the Gaussian-
    smoothed costs, whichever unbiased estimate of their gradient measures
    it, so it comes from _BIAS_PAIRS antithetic pairs mu +- sigma xi
    (_moments). Their estimate has the two-point estimate's mean, but the
    second-order term of the costs cancels from it: at mu = 0 on
    softplus-ridge its variance is about 380 times lower at every sigma of
    the sweep. The standard error comes from the pair estimates. The
    probe's own sigma and num_samples are not used. All sigmas share the
    probe seed's draws, in one pass.
    """
    sigmas = [0.2, 0.1, 0.05, 0.025]
    probes = [SmoothingProbe(probe.mu, probe.lam, s, _BIAS_PAIRS, probe.seed) for s in sigmas]
    pairs = _bias_stats_from(game, probes, _moments(game, probes, antithetic=True))
    norms_sq = [max(sum(stats.norm_sq_debiased for stats in per_player), 1e-30)
                for per_player in pairs]
    slope = _loglog_slope(sigmas, norms_sq)
    case = CheckCase(
        case=f"loglog slope of E||Q||^2 vs sigma in 2.0+-0.3 over {_BIAS_PAIRS} antithetic pairs",
        statistic=slope,
        bound=0.3,
        passed=abs(slope - 2.0) <= 0.3,
    )
    return CheckReport(check="smoothing-bias-order", cases=(case,))


def second_moment_growth_report(game: GameSpec, probe: SmoothingProbe) -> CheckReport:
    """Check that E||m^i||^2 grows at most quadratically with the point scale.

    The probe point (means and dual) is scaled by 1, 2, 4 and 8; the fitted
    log-log slope of each player's second moment against the scale must not
    exceed 2.2. All scales share the probe's draws, in one pass.
    """
    return _probe_reports(game, probe, ["second-moment-growth"])[0]


def run_checks(game: GameSpec, probe: SmoothingProbe, eps_grid: Sequence[float],
               checks: Sequence[str]) -> tuple[list[CheckReport], list[str]]:
    """(reports, skipped): the reports of checks on game in CHECKS order, and the checks skipped.

    An unknown name raises ValueError before any check runs. On a game that
    is not quadratic the _QUADRATIC_CHECKS are skipped. reg-path reports
    regularization_path_report over eps_grid and drift_spread_report; the
    probe checks share one pass at probe (_probe_reports). smoothing-bias-order
    needs costs with a nonvanishing smoothing bias, which the quadratic
    families lack, so it runs on the softplus-ridge builtin at mu = 0,
    lam = 0 with the probe's seed. An overflowing probe sigma makes the
    probe checks report failed nan rows, without numpy's warnings.
    """
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(CHECKS)}")
    quadratic = isinstance(game, QuadraticGame)
    skipped = [c for c in _QUADRATIC_CHECKS if c in checks and not quadratic]
    checks = [c for c in checks if c not in skipped]
    reports = []
    # the report functions are looked up as module globals when called, so
    # a wrapper that replaces one on this module sees the call
    with np.errstate(over="ignore", invalid="ignore"):
        if "reg-path" in checks:
            reports += [regularization_path_report(game, eps_grid), drift_spread_report(game)]
        reports += _probe_reports(game, probe, checks)
        if "smoothing-bias-order" in checks:
            ridge = resolve_game("softplus-ridge")
            reports.append(smoothing_bias_order_report(ridge, SmoothingProbe(
                np.zeros(ridge.D), np.zeros(ridge.constraints.num_constraints),
                probe.sigma, probe.num_samples, probe.seed)))
    return reports, skipped
