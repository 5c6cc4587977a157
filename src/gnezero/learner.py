"""Payoff-based learning of the variational equilibrium.

Each primal player keeps a running mean, samples its action from a Gaussian
centered there, and observes only realized cost values (its Lagrangian cost
at the sampled and at the mean joint action) plus the realized constraint
values. A two-point difference of the observed costs yields an unbiased
estimate of the smoothed pseudo-gradient, which drives a projected
primal-dual step with a vanishing Tikhonov term on the dual block. No
gradients and no constraint data cross the feedback boundary. `run` is the
one implementation of the iteration; there is no separate sampling or
single-step API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmented import _projected_step
from .games import GameSpec, QuadraticGame
from .schedules import ScheduleError, ScheduleReport, Schedules, validate_schedules

__all__ = [
    "DivergenceError",
    "PayoffEnvironment",
    "TrajectoryRecord",
    "Schedules",
    "ScheduleReport",
    "ScheduleError",
    "validate_schedules",
    "two_point_estimate",
    "run",
    "checkpoints",
]


class DivergenceError(ArithmeticError):
    """The learning iterate left the finite floats.

    Carries the seed, the step at whose checkpoint a non-finite mean or
    multiplier was found, and the last checkpoint with a finite iterate
    (None when there was none).
    """

    def __init__(self, seed: int, step: int, last_finite: int | None):
        super().__init__(
            f"seed {seed}: non-finite iterate at step {step} "
            f"(last finite checkpoint: {'none' if last_finite is None else last_finite})"
        )
        self.seed = seed
        self.step = step
        self.last_finite = last_finite

    def __reduce__(self):
        return DivergenceError, (self.seed, self.step, self.last_finite)


class PayoffEnvironment:
    """Payoff-only view of a game: Lagrangian payoffs and constraint values."""

    def __init__(self, game: GameSpec):
        self._game = game
        self._K = game.constraints.K
        self._l = game.constraints.l

    def feedback(self, X: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every player's Lagrangian payoff and the constraint values at each row of X.

        For a (P, D) batch of joint actions returns U (P, N) with
        U[p, i] = J^i(X[p]) + lam'g(X[p]) and g (P, n) with g[p] = K X[p] - l.
        These opaque values are the only information that crosses from the
        game to the players.
        """
        g = X @ self._K.T - self._l
        return self._game.costs_at(X) + (g @ lam)[:, None], g


def two_point_estimate(u_at_a, u_at_mu, a_i, mu_i, sigma: float) -> np.ndarray:
    """Gradient estimate (u_at_a - u_at_mu) * (a_i - mu_i) / sigma^2.

    a_i is one action (d,) or a batch of actions (P, d) drawn around the
    mean mu_i (d,); the cost values broadcast against a_i - mu_i (a scalar,
    one value per coordinate, or a (P, 1) column for a batch).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    a_i = np.asarray(a_i, dtype=float)
    mu_i = np.asarray(mu_i, dtype=float)
    if a_i.shape[-1:] != mu_i.shape:
        raise ValueError(f"a_i and mu_i must have equal block dimensions, "
                         f"got {a_i.shape} vs {mu_i.shape}")
    return (u_at_a - u_at_mu) * (a_i - mu_i) / (sigma * sigma)


def checkpoints(T: int, record_every) -> np.ndarray:
    """Iterations at which metrics are recorded.

    An integer k records every k-th step (plus the final one); the default
    "log" cadence uses about 200 log-spaced steps, always including the
    first step, the powers of ten, and the final step.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if record_every == "log":
        pts = np.geomspace(1, T, num=min(T, 200))
        decades = 10 ** np.arange(0, int(np.floor(np.log10(T))) + 1)
        ts = np.unique(np.concatenate([
            np.round(pts).astype(np.int64),
            decades.astype(np.int64),
            [1, T],
        ]))
    else:
        k = int(record_every)
        if k < 1:
            raise ValueError(f"record_every must be >= 1, got {record_every}")
        ts = np.unique(np.concatenate([np.arange(k, T + 1, k, dtype=np.int64),
                                       [T]]))
    return ts[(ts >= 1) & (ts <= T)]


@dataclass
class TrajectoryRecord:
    """Recorded metrics of one seeded run.

    Row j holds the state after completing iteration t[j]: the squared
    distances of the means and of the dual to the reference solution, and
    the schedule values used at that iteration.
    """

    seed: int
    t: np.ndarray
    err_primal_sq: np.ndarray
    err_dual_sq: np.ndarray
    gamma: np.ndarray
    eps: np.ndarray
    sigma: np.ndarray
    final_mu: np.ndarray
    final_lam: np.ndarray
    schedules: Schedules
    game_name: str = ""


def _resolve_reference(game: GameSpec, reference):
    if reference is None:
        if isinstance(game, QuadraticGame):
            from .oracles import solve_vgne

            sol = solve_vgne(game)
            return sol.primal.flat, sol.dual
        return None
    a_ref, lam_ref = reference
    return np.asarray(a_ref, dtype=float).reshape(-1), np.asarray(lam_ref, dtype=float).reshape(-1)


def run(
    game: GameSpec,
    sched: Schedules,
    T: int,
    seed: int,
    record_every="log",
    mu0=None,
    lam0=None,
    allow_invalid_schedules: bool = False,
    reference=None,
) -> TrajectoryRecord:
    """Run the payoff-based iteration for T steps with a seeded RNG stream.

    The loop touches the game only through a PayoffEnvironment: per step it
    samples one joint action a ~ N(mu, sigma_t^2 I), obtains every player's
    payoff at the stacked points [a; mu] and the constraint values, and
    applies the projected primal-dual step with the two-point estimate as
    the primal direction and eps_t * lam - g(a) as the dual one. The
    reference solution (computed by the exact oracle for quadratic games, or
    supplied explicitly) is used only to record error metrics.

    Raises ScheduleError when the schedule exponents are invalid, unless
    allow_invalid_schedules is set, and DivergenceError when a checkpoint
    finds a non-finite mean or multiplier.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    report = validate_schedules(sched)
    if not report.valid and not allow_invalid_schedules:
        raise ScheduleError(
            "schedules violate validity conditions: " + ", ".join(report.failing())
        )

    ref = _resolve_reference(game, reference)
    if ref is None:
        a_ref = np.full(game.D, np.nan)
        lam_ref = np.full(game.constraints.num_constraints, np.nan)
    else:
        a_ref, lam_ref = ref

    env = PayoffEnvironment(game)
    D = game.D
    dims = game.dims
    block_of = np.repeat(np.arange(game.num_players), dims)
    rng = np.random.default_rng(seed)
    mu = np.zeros(D) if mu0 is None else np.asarray(mu0, dtype=float).reshape(-1).copy()
    lam = (np.zeros(game.constraints.num_constraints) if lam0 is None
           else np.asarray(lam0, dtype=float).reshape(-1).copy())
    if np.any(lam < 0):
        raise ValueError("lam0 must be componentwise nonnegative")

    record_at = set(checkpoints(T, record_every).tolist())
    rows_t, rows_ep, rows_ed, rows_g, rows_e, rows_s = [], [], [], [], [], []

    # overflow shows as a non-finite iterate, which a checkpoint reports
    # as a DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            gamma = sched.gamma(t)
            eps = sched.eps(t)
            sigma = sched.sigma(t)
            a = mu + sigma * rng.standard_normal(D)
            U, g = env.feedback(np.array([a, mu]), lam)
            m = two_point_estimate(U[0][block_of], U[1][block_of], a, mu, sigma)
            mu, lam = _projected_step(mu, lam, gamma, m, eps * lam - g[0])
            if t in record_at:
                if not (np.isfinite(mu).all() and np.isfinite(lam).all()):
                    raise DivergenceError(seed, t, rows_t[-1] if rows_t else None)
                d_mu = mu - a_ref
                d_lam = lam - lam_ref
                rows_t.append(t)
                rows_ep.append(float(d_mu @ d_mu))
                rows_ed.append(float(d_lam @ d_lam))
                rows_g.append(gamma)
                rows_e.append(eps)
                rows_s.append(sigma)

    return TrajectoryRecord(
        seed=seed,
        t=np.asarray(rows_t, dtype=np.int64),
        err_primal_sq=np.asarray(rows_ep),
        err_dual_sq=np.asarray(rows_ed),
        gamma=np.asarray(rows_g),
        eps=np.asarray(rows_e),
        sigma=np.asarray(rows_s),
        final_mu=mu,
        final_lam=lam,
        schedules=sched,
        game_name=game.name,
    )
