"""Payoff-based learning of the variational equilibrium.

Each primal player keeps a running mean, samples its action from a Gaussian
centered there, and observes only realized cost values (its Lagrangian cost
at the sampled and at the mean joint action) plus the realized constraint
values. A two-point difference of the observed costs yields an unbiased
estimate of the smoothed pseudo-gradient, which drives a projected
primal-dual step with a vanishing Tikhonov term on the dual block. No
gradients and no constraint data cross the feedback boundary. `run` is the
one implementation of the iteration and steps every seed of an experiment
together, one payoff batch per step; there is no separate sampling or
single-step API. It returns iterates only: no reference solution reaches the
learner, and the harness measures the errors.
"""

from __future__ import annotations

import math

import numpy as np

from .augmented import _start_point
from .games import GameSpec
from .schedules import ScheduleError, Schedules, validate_schedules

__all__ = [
    "DivergenceError",
    "PayoffEnvironment",
    "two_point_estimate",
    "run",
    "checkpoints",
]

# steps of Gaussian draws taken ahead per seed; bounds the (steps, R, D) buffer
_DRAW_CHUNK = 1024


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
    """Payoff-only view of a game: Lagrangian payoffs and constraint values.

    feedback evaluates the costs with games.costs_at. The Monte Carlo pass
    of the diagnostics evaluates them itself, with the einsum contraction of
    games._quadratic_costs, on worker threads, and adds the multiplier term
    through _lagrangian, the one copy of the payoff formula.
    """

    def __init__(self, game: GameSpec):
        self._game = game
        self._K = game.constraints.K
        self._l = game.constraints.l

    def feedback(self, X: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every player's Lagrangian payoff and the constraint values at each joint action.

        X holds joint actions along its last axis: a (P, D) batch, or an
        (R, P, D) stack of such batches with one multiplier row per batch in
        lam (R, n). Returns U (..., P, N) with U[..., p, i] = J^i(X[..., p]) +
        lam'g(X[..., p]) and g (..., P, n) with g[..., p] = K X[..., p] - l.
        These opaque values are the only information that crosses from the
        game to the players.
        """
        costs = self._game.costs_at(X.reshape(-1, X.shape[-1])).reshape(
            X.shape[:-1] + (self._game.num_players,))
        return self._lagrangian(costs, X, lam)

    def _lagrangian(self, costs: np.ndarray, X: np.ndarray, lam: np.ndarray):
        """(U, g) of feedback from the costs J(X) (..., P, N) at the joint actions X."""
        g = X @ self._K.T - self._l
        return costs + g @ lam[..., None], g


def two_point_estimate(u_at_a, u_at_mu, a_i, mu_i, sigma: float) -> np.ndarray:
    """Gradient estimate (u_at_a - u_at_mu) * (a_i - mu_i) / sigma^2.

    a_i is one action (d,) or a batch of actions (P, d); mu_i is the one
    mean (d,) they were drawn around, or one mean per action (P, d). The
    cost values broadcast against a_i - mu_i (a scalar, one value per
    coordinate, or a (P, 1) column for a batch).
    """
    # one scalar comparison per learner step; NaN fails it too
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    a_i = np.asarray(a_i, dtype=float)
    mu_i = np.asarray(mu_i, dtype=float)
    if mu_i.shape not in (a_i.shape, a_i.shape[-1:]):
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


def run(
    game: GameSpec,
    sched: Schedules,
    T: int,
    seeds,
    record_every="log",
    mu0=None,
    lam0=None,
    allow_invalid_schedules: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the payoff-based iteration for T steps, one seeded run per entry of seeds.

    Every seed starts at (mu0, lam0) and draws its samples from its own
    default_rng(seed) stream, so a seed's iterates do not depend on which
    other seeds share the call. The loop touches the game only through a
    PayoffEnvironment: per step it samples one joint action
    a_r ~ N(mu_r, sigma_t^2 I) per seed, obtains every player's payoff at the
    (R, 2, D) stack of [a_r; mu_r] pairs and the constraint values in one
    call, and applies the projected primal-dual step with the two-point
    estimate as the primal direction and eps_t * lam_r - g(a_r) as the dual
    one. Returns the iterates mus (R, k, D) and lams (R, k, n), row r for
    seeds[r] and column j for the state after step checkpoints(T,
    record_every)[j].

    Raises ScheduleError when the schedule exponents are invalid, unless
    allow_invalid_schedules is set, and DivergenceError when a checkpoint
    finds a non-finite mean or multiplier; the error names the first seed in
    list order that is non-finite at that checkpoint.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("seed list must be nonempty")
    report = validate_schedules(sched)
    if not report.valid and not allow_invalid_schedules:
        raise ScheduleError(
            "schedules violate validity conditions: " + ", ".join(report.failing())
        )

    env = PayoffEnvironment(game)
    R, D = len(seeds), game.D
    block_of = np.repeat(np.arange(game.num_players), game.dims)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    mu, lam = _start_point(game, mu0, lam0)
    mu = np.tile(mu, (R, 1))  # (R, D), one row per seed
    lam = np.tile(lam, (R, 1))  # (R, n)

    ts = checkpoints(T, record_every).tolist()
    mus = np.empty((R, len(ts), D))
    lams = np.empty((R, len(ts), lam.shape[1]))
    j = 0  # the next checkpoint; the last one is T, so ts[j] exists while t <= T

    # overflow shows as a non-finite iterate, which a checkpoint reports
    # as a DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, T + 1, _DRAW_CHUNK):
            steps = min(_DRAW_CHUNK, T + 1 - start)
            # each seed's stream is drawn ahead in order, so the draws equal
            # one standard_normal(D) call per step
            xi = np.empty((steps, R, D))
            for r, rng in enumerate(rngs):
                xi[:, r] = rng.standard_normal((steps, D))
            for t, xi_t in zip(range(start, start + steps), xi):
                # scalar calls: numpy's vectorized power can differ from t**g in the last ulp
                gamma = sched.gamma(t)
                eps = sched.eps(t)
                sigma = sched.sigma(t)
                a = mu + sigma * xi_t
                # row r of the (R, 2D) concatenation is [a_r, mu_r]: the (R, 2, D) stack
                U, g = env.feedback(np.concatenate((a, mu), axis=1).reshape(R, 2, D), lam)
                U = U.take(block_of, axis=2)  # each player's payoff on each of its coordinates
                m = two_point_estimate(U[:, 0], U[:, 1], a, mu, sigma)
                mu = mu - gamma * m
                lam = np.maximum(lam - gamma * (eps * lam - g[:, 0]), 0.0)  # dual stays >= 0
                if t == ts[j]:
                    finite = np.isfinite(mu).all(axis=1) & np.isfinite(lam).all(axis=1)
                    if not finite.all():
                        raise DivergenceError(seeds[int(np.argmin(finite))], t,
                                              ts[j - 1] if j else None)
                    mus[:, j], lams[:, j] = mu, lam
                    j += 1
    return mus, lams
