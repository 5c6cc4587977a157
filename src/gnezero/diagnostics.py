"""Standalone statistical checks of the estimator and the regularization path.

Monte Carlo probes of the two-point gradient estimator (its mean, its bias
relative to the exact pseudo-gradient, the second moments of its noise
terms), plus exact-oracle checks of the regularization path: the gap bound
to the unregularized solution and the drift between consecutive solutions.

Probes that share a seed share one draw stream (common random numbers): the
sigma sweep of smoothing_bias_order_report and the scale sweep of
second_moment_growth_report draw each chunk of standard normals once for all
their probes, and every probe's figures are bit-identical to a separate
smoothing_bias_stats or estimator_second_moment call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .games import GameSpec, QuadraticGame
from .learner import PayoffEnvironment, two_point_estimate
from .oracles import solve_regularized_vi, solve_vgne

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
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")

    def scaled(self, factor: float) -> "SmoothingProbe":
        return SmoothingProbe(self.mu * factor, self.lam * factor, self.sigma,
                              self.num_samples, self.seed)


def _iter_chunks(total: int):
    done = 0
    while done < total:
        size = min(_CHUNK, total - done)
        yield size
        done += size


def _shared_stream(probes: Sequence[SmoothingProbe]) -> tuple[int, int, int]:
    """The (seed, num_samples, D) that all probes share; ValueError if they differ."""
    streams = {(p.seed, p.num_samples, p.mu.shape[0]) for p in probes}
    if len(streams) != 1:
        raise ValueError("probes must share one seed, num_samples and dimension, "
                         f"got (seed, num_samples, D) in {sorted(streams)}")
    return streams.pop()


def _payoff_draws(game: GameSpec, probes: Sequence[SmoothingProbe]):
    """Gaussian joint actions around each probe's mean and every player's payoff at them.

    The probes share one seeded stream: each chunk of standard normals xi is
    drawn once, and for each probe k in turn X = mu_k + sigma_k xi is built
    and evaluated, so X is bit-identical to a draw from that probe alone.
    Yields (k, X, U): X (size, D) and U (size, N) the Lagrangian payoffs
    from the learner's boundary. Feedback runs in the calling thread, one
    probe's chunk at a time, so the caller folds it before the next is made.
    """
    seed, num_samples, dim = _shared_stream(probes)
    env = PayoffEnvironment(game)
    rng = np.random.default_rng(seed)
    for size in _iter_chunks(num_samples):
        xi = rng.standard_normal((size, dim))
        for k, probe in enumerate(probes):
            X = probe.mu + probe.sigma * xi
            yield k, X, env.feedback(X, probe.lam)[0]
            del X  # with the caller's del, the next probe's X replaces this one


@dataclass(frozen=True)
class SmoothingBias:
    """Gap between the estimator's sample mean and the exact pseudo-gradient block.

    norm_sq_debiased subtracts the Monte Carlo variance of the sample mean
    from ||bias||^2, giving an (almost) unbiased estimate of the true squared
    smoothing bias.
    """

    bias: np.ndarray
    stderr: np.ndarray
    norm: float
    norm_sq_debiased: float
    exact_gradient: np.ndarray
    num_samples: int


def _estimates(game: GameSpec, probes: Sequence[SmoothingProbe]):
    """Two-point estimates of every player's gradient block at each probe point, in chunks.

    Yields (k, blocks) per chunk and probe k in the order of _payoff_draws:
    one row-major (size, d_i) array per player, all from the same draws
    around probes[k].mu; separate blocks keep each player's column sums
    rounding as over that player's estimates alone.
    """
    _shared_stream(probes)  # before any payoff is evaluated
    env = PayoffEnvironment(game)
    # one one-row call per probe, not one batch of all means: numpy sends a
    # one-row matrix product to gemv, which rounds differently from the gemm
    # of a larger batch, so only this keeps each probe's results as alone
    u_mu = [env.feedback(p.mu[None], p.lam)[0][0] for p in probes]
    for k, X, U in _payoff_draws(game, probes):
        p = probes[k]
        yield k, [two_point_estimate(U[:, i, None], u_mu[k][i], X[:, sl], p.mu[sl], p.sigma)
                  for i, sl in enumerate(game.slices)]
        del X, U  # free this chunk before the next is built and evaluated


def _bias_stats(game: GameSpec,
                probes: Sequence[SmoothingProbe]) -> list[tuple[SmoothingBias, ...]]:
    """smoothing_bias_stats for probes that share one draw stream, one pass for all."""
    M = _shared_stream(probes)[1]
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
            SmoothingBias(
                bias=bias[sl],
                stderr=se[sl],
                norm=float(np.linalg.norm(bias[sl])),
                norm_sq_debiased=float(bias[sl] @ bias[sl] - se[sl] @ se[sl]),
                exact_gradient=exact[sl],
                num_samples=M,
            )
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
    rng = np.random.default_rng(probe.seed)
    K = game.constraints.K
    total = 0.0
    M = probe.num_samples
    for size in _iter_chunks(M):
        xi = rng.standard_normal((size, probe.mu.shape[0]))
        S = -probe.sigma * xi @ K.T
        total += float(np.einsum("kj,kj->", S, S))
    exact = probe.sigma**2 * float(np.sum(K * K))
    return total / M, exact


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
    """One verified inequality: statistic, its bound, and the inputs used."""

    case: str
    statistic: float
    bound: float
    passed: bool
    detail: dict = field(default_factory=dict)


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
    return _drift_ratios([solve_regularized_vi(game, e) for e in eps_values], eps_values)


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
    if any(e <= 0 for e in eps_grid):
        raise ValueError("all eps values must be positive")
    base = solve_vgne(game)
    lam_norm = float(np.linalg.norm(base.dual))
    norm_K = float(np.linalg.norm(game.constraints.K, 2))
    gap_coeff = lam_norm * game.lipschitz() / (norm_K * game.nu())

    sols = [solve_regularized_vi(game, eps) for eps in eps_grid]
    cases = []
    for eps, sol in zip(eps_grid, sols):
        gap = float(np.linalg.norm(base.primal.flat - sol.primal.flat))
        bound = eps * gap_coeff
        cases.append(CheckCase(
            case=f"gap-bound eps={eps:g}",
            statistic=gap,
            bound=bound,
            passed=gap <= bound * (1.0 + 1e-9) + 1e-14,
            detail={"game": game.name, "eps": eps, "dual_norm": lam_norm},
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
                    detail={"game": game.name},
                ))

    return CheckReport(check="regularization-path", cases=tuple(cases))


def _spread_case(name: str, ratios: np.ndarray, bound: float, game_name: str) -> CheckCase:
    med = float(np.median(ratios))
    peak = float(np.max(ratios))
    spread = peak / med if med > 0 else (0.0 if peak == 0 else float("inf"))
    return CheckCase(
        case=f"{name}-drift spread max/median",
        statistic=spread,
        bound=bound,
        passed=spread <= bound,
        detail={"game": game_name, "max": peak, "median": med},
    )


def drift_spread_report(
    game: QuadraticGame,
    E: float = 1.0,
    e: float = 2.0 / 7.0,
    t_start: int = 2,
    t_end: int = 200,
    spread_bound: float = 10.0,
) -> CheckReport:
    """Boundedness of the drift ratios along the schedule path eps_t = E / t^e.

    Solves the regularized problem at every t in [t_start - 1, t_end] and
    requires the max of each normalized drift ratio over t to stay within
    spread_bound times its median: the path must not show runaway growth.
    """
    ts = np.arange(t_start - 1, t_end + 1)
    eps_path = E / ts.astype(float) ** e
    r_primal, r_dual = path_drift_ratios(game, eps_path)
    cases = (
        _spread_case("primal", r_primal, spread_bound, game.name),
        _spread_case("dual", r_dual, spread_bound, game.name),
    )
    return CheckReport(check="drift-spread", cases=cases)


def estimator_mean_report(game: GameSpec, probe: SmoothingProbe,
                          band_stderrs: float = 4.0) -> CheckReport:
    """Per-coordinate check that the estimator mean matches the exact gradient.

    Meaningful as an exactness check only for quadratic costs, where Gaussian
    smoothing does not shift the gradient.
    """
    cases = []
    for i, stats in enumerate(smoothing_bias_stats(game, probe)):
        for k, (b, se) in enumerate(zip(stats.bias, stats.stderr)):
            cases.append(CheckCase(
                case=f"player{i}[{k}] |mean - exact| <= {band_stderrs:g} se",
                statistic=abs(float(b)),
                bound=band_stderrs * float(se),
                passed=abs(float(b)) <= band_stderrs * float(se),
                detail={"game": game.name, "sigma": probe.sigma,
                        "num_samples": probe.num_samples, "seed": probe.seed},
            ))
    return CheckReport(check="estimator-mean", cases=tuple(cases))


def dual_perturbation_report(game: GameSpec, probe: SmoothingProbe,
                             rel_tol: float = 0.05) -> CheckReport:
    """Empirical second moment of the dual sampling term vs its exact value."""
    est, exact = dual_perturbation_stats(game, probe)
    rel = abs(est - exact) / exact if exact > 0 else abs(est)
    case = CheckCase(
        case=f"E||S||^2 within {rel_tol:.0%} of sigma^2 sum(K^2)",
        statistic=rel,
        bound=rel_tol,
        passed=rel <= rel_tol,
        detail={"game": game.name, "estimate": est, "exact": exact,
                "sigma": probe.sigma, "num_samples": probe.num_samples},
    )
    return CheckReport(check="dual-perturbation", cases=(case,))


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(np.log(np.asarray(x, dtype=float)),
                        np.log(np.asarray(y, dtype=float)), 1)
    return float(coeffs[0])


def smoothing_bias_order_report(
    game: GameSpec,
    sigmas: Sequence[float],
    probe: SmoothingProbe,
    slope_target: float = 2.0,
    slope_tol: float = 0.3,
) -> CheckReport:
    """Fit the scaling of the squared smoothing bias against the spread.

    For each sigma the squared norm of the bias (Monte Carlo corrected) is
    measured at the probe point, summed over players; the log-log slope
    against sigma is compared to the expected second-order scaling. All
    sigmas share the probe's draws, in one pass.
    """
    sigmas = [float(s) for s in sigmas]
    probes = [SmoothingProbe(probe.mu, probe.lam, s, probe.num_samples, probe.seed)
              for s in sigmas]
    norms_sq = [max(sum(stats.norm_sq_debiased for stats in per_player), 1e-30)
                for per_player in _bias_stats(game, probes)]
    slope = _loglog_slope(sigmas, norms_sq)
    case = CheckCase(
        case=f"loglog slope of E||Q||^2 vs sigma in {slope_target}+-{slope_tol}",
        statistic=slope,
        bound=slope_tol,
        passed=abs(slope - slope_target) <= slope_tol,
        detail={"game": game.name, "sigmas": sigmas, "norms_sq": norms_sq,
                "num_samples": probe.num_samples, "seed": probe.seed},
    )
    return CheckReport(check="smoothing-bias-order", cases=(case,))


def second_moment_growth_report(
    game: GameSpec,
    probe: SmoothingProbe,
    scales: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    slope_bound: float = 2.2,
) -> CheckReport:
    """Check that E||m^i||^2 grows at most quadratically with the point scale.

    The probe point (means and dual) is scaled by each factor; the fitted
    log-log slope of the second moment against the scale must not exceed
    the quadratic-growth bound. All scales share the probe's draws, in one pass.
    """
    per_scale = _second_moments(game, [probe.scaled(c) for c in scales])
    cases = []
    for i in range(game.num_players):
        moments = per_scale[:, i].tolist()
        slope = _loglog_slope(scales, moments)
        cases.append(CheckCase(
            case=f"player{i} loglog growth slope <= {slope_bound:g}",
            statistic=slope,
            bound=slope_bound,
            passed=slope <= slope_bound,
            detail={"game": game.name, "scales": list(scales), "moments": moments},
        ))
    return CheckReport(check="second-moment-growth", cases=tuple(cases))
