"""Standalone statistical checks of the estimator and the regularization path.

Monte Carlo probes of the two-point gradient estimator (its mean, its bias
relative to the exact pseudo-gradient, the second moments of its noise
terms), plus exact-oracle checks of the regularization path: the gap bound
to the unregularized solution and the drift between consecutive solutions.

Every Monte Carlo figure comes from one seeded stream of standard-normal
chunks (_draws). Probes that share a seed share that stream (common random
numbers): the sigma sweep of smoothing_bias_order_report and the scale sweep
of second_moment_growth_report draw each chunk once for all their probes,
and every probe's figures are bit-identical to a separate
smoothing_bias_stats or estimator_second_moment call. The reports' bounds
and sweeps are fixed; their case strings name them.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import DimensionMismatchError, GameSpec, QuadraticGame
from .learner import PayoffEnvironment, two_point_estimate
from .oracles import solve_regularized_path, solve_vgne

__all__ = [
    "SmoothingProbe",
    "SmoothingBias",
    "CheckCase",
    "CheckReport",
    "smoothing_bias_stats",
    "dual_perturbation_stats",
    "estimator_second_moment",
    "path_drift_ratios",
    "regularization_path_report",
    "drift_spread_report",
    "estimator_mean_report",
    "dual_perturbation_report",
    "smoothing_bias_order_report",
    "second_moment_growth_report",
]

_CHUNK = 100_000
# _estimates cuts each chunk into row blocks of this size, one worker task
# per block: a block's temporaries stay in cache, and the blocks run on all CPUs
_BLOCK = 8192


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SmoothingProbe:
    """Where and how hard to probe: mean point, dual, spread, samples, seed."""

    mu: np.ndarray
    lam: np.ndarray
    sigma: float
    num_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float).reshape(-1))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        for field in ("mu", "lam"):
            if not np.all(np.isfinite(getattr(self, field))):
                raise ValueError(f"{field} must be finite")
        for field, low in (("num_samples", 1), ("seed", 0)):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{field} must be an integer >= {low}, got {value!r}")

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


def _estimates(game: GameSpec, probes: Sequence[SmoothingProbe]):
    """Two-point estimates of every player's gradient block at each probe point, in chunks.

    Each chunk xi of the probes' shared stream is drawn once and cut into
    row blocks of _BLOCK rows; the last block takes the remainder, since
    numpy sends a one-row matrix product to gemv, which rounds differently
    from gemm. One pool of worker threads per pass, at most one per
    available CPU, takes one block per task: for every probe k it builds
    X = mu_k + sigma_k xi, so X is bit-identical to a draw from that probe
    alone, evaluates the Lagrangian payoffs with the learner's formula and
    writes each player's estimates into probe k's chunk buffers. No row's
    arithmetic depends on the other rows of its block (ConstraintSet keeps
    K C-ordered for this), so the buffers equal one evaluation of the whole
    chunk. Yields (k, blocks) per chunk and probe: one row-major (size, d_i)
    array per player, all from the same draws around probes[k].mu; separate
    blocks keep each player's column sums rounding as over that player's
    estimates alone.

    Each task runs in a copy of the caller's context, so np.errstate
    carries over (numpy >= 2 keeps it in a context variable). The workers
    call no traced function: perfbench's tracer keeps one span stack.
    """
    seed, num_samples, dim = _shared_stream(game, probes)  # before any draw
    env = PayoffEnvironment(game)

    def payoffs(X, lam):
        # at D >= 3 the einsum contraction rounds the costs differently from
        # the learner's product and sum, in the last bits
        return env._lagrangian(game._costs(X, True), X, lam)[0]

    # one one-row call per probe, not one batch of all means: numpy sends a
    # one-row matrix product to gemv, which rounds differently from the gemm
    # of a larger batch, so only this keeps each probe's results as alone
    u_mu = [payoffs(p.mu[None], p.lam)[0] for p in probes]

    def block(xi, out, rows):
        for p, u, blocks in zip(probes, u_mu, out):
            X = p.mu + p.sigma * xi[rows]
            U = payoffs(X, p.lam)
            for i, sl in enumerate(game.slices):
                blocks[i][rows] = two_point_estimate(U[:, i, None], u[i], X[:, sl],
                                                     p.mu[sl], p.sigma)

    # imported here so that commands which draw no samples do not pay for it
    from concurrent.futures import ThreadPoolExecutor

    most = max(1, min(_CHUNK, num_samples) // _BLOCK)  # blocks in the first chunk
    with ThreadPoolExecutor(min(_available_cpus(), most)) as pool:
        for xi in _draws(seed, num_samples, dim):
            size = xi.shape[0]
            edges = [i * _BLOCK for i in range(max(1, size // _BLOCK))] + [size]
            out = [[np.empty((size, d)) for d in game.dims] for _ in probes]
            for future in [pool.submit(contextvars.copy_context().run, block, xi, out,
                                       slice(a, b)) for a, b in zip(edges, edges[1:])]:
                future.result()
            yield from enumerate(out)
            del out  # free this chunk's buffers before the next is drawn


def _bias_stats(game: GameSpec,
                probes: Sequence[SmoothingProbe]) -> list[tuple[SmoothingBias, ...]]:
    """smoothing_bias_stats for probes that share one draw stream, one pass for all."""
    M = _shared_stream(game, probes)[1]
    if M < 2:
        raise ValueError(f"the standard error needs num_samples >= 2, got {M}")
    sum_m = np.zeros((len(probes), game.D))
    sumsq_m = np.zeros((len(probes), game.D))
    for k, blocks in _estimates(game, probes):
        for sl, m in zip(game.slices, blocks):
            sum_m[k, sl] += m.sum(axis=0)
            sumsq_m[k, sl] += np.einsum("kj,kj->j", m, m)
    out = []
    for probe, total, total_sq in zip(probes, sum_m, sumsq_m):
        mean_m = total / M
        se = np.sqrt(np.maximum(total_sq / M - mean_m**2, 0.0) / M)
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
    return _bias_stats(game, [probe])[0]


def dual_perturbation_stats(game: GameSpec, probe: SmoothingProbe) -> tuple[float, float]:
    """Empirical and exact second moment of the dual-side sampling term.

    The term is K (mu - a) with a ~ N(mu, sigma^2 I); its exact second moment
    is sigma^2 times the sum of squared entries of K.
    """
    K = game.constraints.K
    total = 0.0
    for xi in _draws(*_shared_stream(game, [probe])):
        S = -probe.sigma * xi @ K.T
        total += float(np.einsum("kj,kj->", S, S))
    exact = probe.sigma**2 * float(np.sum(K * K))
    return total / probe.num_samples, exact


def _second_moments(game: GameSpec, probes: Sequence[SmoothingProbe]) -> np.ndarray:
    """estimator_second_moment for probes that share one draw stream: (len(probes), N)."""
    total = np.zeros((len(probes), game.num_players))
    for k, blocks in _estimates(game, probes):
        total[k] += [np.einsum("kj,kj->", m, m) for m in blocks]
    return total / probes[0].num_samples


def estimator_second_moment(game: GameSpec, probe: SmoothingProbe) -> np.ndarray:
    """Empirical E||m^i||^2 of the two-point estimate at the probe point, one per player."""
    return _second_moments(game, [probe])[0]


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list[CheckCase]:
        return [c for c in self.cases if not c.passed]


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
    """path_drift_ratios of the regularized solutions sols, one per eps value."""
    r_primal, r_dual = [], []
    for prev, cur, e_prev, e_cur in zip(sols, sols[1:], eps_values, eps_values[1:]):
        de = e_cur - e_prev
        if de == 0.0:
            r_primal.append(0.0)
            r_dual.append(0.0)
            continue
        da = float(np.sum((cur.primal.flat - prev.primal.flat) ** 2))
        dl = float(np.sum((cur.dual - prev.dual) ** 2))
        r_primal.append(da * e_cur / de**2)
        r_dual.append(dl * e_cur**2 / de**2)
    return np.asarray(r_primal), np.asarray(r_dual)


def regularization_path_report(
    game: QuadraticGame,
    eps_grid: Sequence[float],
) -> CheckReport:
    """Check the regularization path against its exact-oracle properties.

    For every eps on the grid the distance of the regularized primal solution
    to the unregularized one must stay below eps * ||lam*|| * L / (||K|| nu).
    Consecutive-pair drift ratios are reported as well, checked only for
    finiteness; drift_spread_report bounds their spread along a schedule path.
    """
    eps_grid = [float(e) for e in eps_grid]
    sols = solve_regularized_path(game, eps_grid)  # rejects a bad eps before any solve
    base = solve_vgne(game)
    lam_norm = float(np.linalg.norm(base.dual))
    norm_K = float(np.linalg.norm(game.constraints.K, 2))
    gap_coeff = lam_norm * game.lipschitz() / (norm_K * game.nu())

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

    if len(eps_grid) >= 2:
        r_primal, r_dual = _drift_ratios(sols, eps_grid)
        for name, ratios in (("primal", r_primal), ("dual", r_dual)):
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


def estimator_mean_report(game: GameSpec, probe: SmoothingProbe) -> CheckReport:
    """Per-coordinate check that the estimator mean is within 4 se of the exact gradient.

    Meaningful as an exactness check only for quadratic costs, where Gaussian
    smoothing does not shift the gradient.
    """
    cases = []
    for i, stats in enumerate(smoothing_bias_stats(game, probe)):
        for k, (b, se) in enumerate(zip(stats.bias, stats.stderr)):
            cases.append(CheckCase(
                case=f"player{i}[{k}] |mean - exact| <= 4 se",
                statistic=abs(float(b)),
                bound=4.0 * float(se),
                passed=abs(float(b)) <= 4.0 * float(se),
            ))
    return CheckReport(check="estimator-mean", cases=tuple(cases))


def dual_perturbation_report(game: GameSpec, probe: SmoothingProbe) -> CheckReport:
    """Empirical second moment of the dual sampling term within 5% of its exact value."""
    est, exact = dual_perturbation_stats(game, probe)
    rel = abs(est - exact) / exact if exact > 0 else abs(est)
    case = CheckCase(
        case="E||S||^2 within 5% of sigma^2 sum(K^2)",
        statistic=rel,
        bound=0.05,
        passed=rel <= 0.05,
    )
    return CheckReport(check="dual-perturbation", cases=(case,))


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(np.log(np.asarray(x, dtype=float)),
                        np.log(np.asarray(y, dtype=float)), 1)
    return float(coeffs[0])


def smoothing_bias_order_report(game: GameSpec, probe: SmoothingProbe) -> CheckReport:
    """Fit the scaling of the squared smoothing bias against the spread.

    For each sigma in 0.2, 0.1, 0.05, 0.025 the squared norm of the bias
    (Monte Carlo corrected) is measured at the probe point, summed over
    players; the log-log slope against sigma must be within 0.3 of the
    expected second-order scaling 2. The probe's own sigma is not used. All
    sigmas share the probe's draws, in one pass.
    """
    sigmas = [0.2, 0.1, 0.05, 0.025]
    probes = [SmoothingProbe(probe.mu, probe.lam, s, probe.num_samples, probe.seed)
              for s in sigmas]
    norms_sq = [max(sum(stats.norm_sq_debiased for stats in per_player), 1e-30)
                for per_player in _bias_stats(game, probes)]
    slope = _loglog_slope(sigmas, norms_sq)
    case = CheckCase(
        case="loglog slope of E||Q||^2 vs sigma in 2.0+-0.3",
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
    scales = (1.0, 2.0, 4.0, 8.0)
    per_scale = _second_moments(game, [probe.scaled(c) for c in scales])
    cases = []
    for i in range(game.num_players):
        slope = _loglog_slope(scales, per_scale[:, i].tolist())
        cases.append(CheckCase(
            case=f"player{i} loglog growth slope <= 2.2",
            statistic=slope,
            bound=2.2,
            passed=slope <= 2.2,
        ))
    return CheckReport(check="second-moment-growth", cases=tuple(cases))
