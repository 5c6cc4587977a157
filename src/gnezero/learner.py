"""Payoff-based learning of the variational equilibrium.

Each primal player keeps a running mean, samples its action from a Gaussian
centered there, and observes only realized cost values (its Lagrangian cost
at the sampled and at the mean joint action) plus the realized constraint
values. A two-point difference of the observed costs yields an unbiased
estimate of the smoothed pseudo-gradient, which drives a projected
primal-dual step with a vanishing Tikhonov term on the dual block. The game
reaches the learner only as a games.PayoffEnvironment, so no gradients and
no constraint data cross the feedback boundary. `run` is the one
implementation of the iteration and steps every seed of an experiment
together, one payoff batch per step, in one (R, 2, D) buffer of action
pairs; the estimate goes through `_two_point`, the unchecked core of
`two_point_estimate`. There is no separate sampling or single-step API.
It returns iterates only: no reference solution reaches the learner, and
the harness measures the errors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _EXPORTS
from .games import PayoffEnvironment, _integer, _positive

if TYPE_CHECKING:  # annotations only; harness loads schedules when a run needs them
    from .schedules import Schedules

__all__ = [*_EXPORTS["learner"]]

# steps of Gaussian draws and schedule values taken ahead; bounds the (steps,
# R, D) buffer and the chunk's Python tuples and floats, whose 1,024-step
# burst raised a 3-seed learn process's peak RSS by about 0.15 MiB
_DRAW_CHUNK = 256
# the largest horizon: past it a float no longer holds every step count exactly
_MAX_T = 2**53


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


def two_point_estimate(u_at_a, u_at_mu, a_i, mu_i, sigma: float) -> np.ndarray:
    """Gradient estimate (u_at_a - u_at_mu) * (a_i - mu_i) / sigma^2.

    a_i is one action (d,) or a batch of actions (P, d); mu_i is the one
    mean (d,) they were drawn around, or one mean per action (P, d). The
    cost values broadcast against a_i - mu_i (a scalar, one value per
    coordinate, or a (P, 1) column for a batch). ValueError unless sigma is
    positive and finite.
    """
    sigma = _positive("sigma", sigma)
    a_i = np.asarray(a_i, dtype=float)
    mu_i = np.asarray(mu_i, dtype=float)
    if mu_i.shape not in (a_i.shape, a_i.shape[-1:]):
        raise ValueError(f"a_i and mu_i must have equal block dimensions, "
                         f"got {a_i.shape} vs {mu_i.shape}")
    return _two_point(u_at_a - u_at_mu, a_i, mu_i, sigma)


def _two_point(du, a_i, mu_i, sigma: float) -> np.ndarray:
    """two_point_estimate, unchecked, from the payoff difference du = u_at_a - u_at_mu.

    The one estimator core: run and the Monte Carlo pass of
    diagnostics._moments call it with a sigma and shapes fixed beforehand.
    """
    return du * (a_i - mu_i) / (sigma * sigma)


def checkpoints(T: int, record_every) -> np.ndarray:
    """Iterations at which metrics are recorded; the last one is T.

    An integer k records every k-th step (plus the final one); the default
    "log" cadence uses about 200 log-spaced steps, always including the
    first step, the powers of ten, and the final step. T and k are counts
    >= 1 (games._integer) and T is at most 2**53, else ValueError.
    """
    T = _integer("T", T, 1)
    if T > _MAX_T:
        raise ValueError(f"T must be at most 2**53 = {_MAX_T}, got {T}")
    if record_every == "log":
        pts = np.geomspace(1, T, num=min(T, 200))
        decades = 10 ** np.arange(len(str(T)))  # exact; np.log10(10**15 - 1) is 15.0
        return np.unique(np.concatenate([
            np.round(pts).astype(np.int64),
            decades.astype(np.int64),
            [1, T],
        ]))
    k = _integer("record_every", record_every, 1)
    return np.unique(np.concatenate([np.arange(k, T + 1, k, dtype=np.int64), [T]]))


def _seed_list(seeds) -> list[int]:
    """seeds as a nonempty list of ints; ValueError for a seed that is not an integer >= 0."""
    seeds = [_integer("seed", seed, 0) for seed in seeds]
    if not seeds:
        raise ValueError("seed list must be nonempty")
    return seeds


def run(
    env: PayoffEnvironment,
    sched: Schedules,
    T: int,
    seeds,
    record_every="log",
) -> tuple[np.ndarray, np.ndarray]:
    """Run the payoff-based iteration for T steps, one seeded run per entry of seeds.

    Every seed starts at mu = 0, lam = 0 and draws its samples from its own
    default_rng(seed) stream, so a seed's iterates do not depend on which
    other seeds share the call. run reads only env's player dims, constraint
    count and feedback: per step it samples one joint action
    a_r ~ N(mu_r, sigma_t^2 I) per seed, obtains every player's payoff at the
    (R, 2, D) stack of [a_r; mu_r] pairs and the constraint values in one
    call, and applies the projected primal-dual step with the two-point
    estimate as the primal direction and eps_t * lam_r - g(a_r) as the dual
    one. The stack is one buffer, rewritten in place and passed to feedback
    every step, so the environment reuses the buffers it bound to it.
    Returns the iterates mus (R, k, D) and lams (R, k, n), row r for
    seeds[r] and column j for the state after step checkpoints(T,
    record_every)[j].

    T = 10.0 runs exactly as T = 10. Raises ValueError for a T or
    record_every that checkpoints rejects, then unless seeds is a nonempty
    list of integers >= 0, and DivergenceError when a checkpoint finds a
    non-finite mean or multiplier, naming the first seed in list order that
    is non-finite there. A schedule whose power t^x overflows the floats
    raises OverflowError naming the schedule and the step, and a sigma_t
    that is not positive and finite raises two_point_estimate's ValueError;
    every seed stops there, after the checkpoints of the steps before it.
    Schedules are not checked: that policy is harness.ExperimentConfig's.
    """
    ts = checkpoints(T, record_every).tolist()
    T = ts[-1]  # the checked int: checkpoints ends at T
    seeds = _seed_list(seeds)

    R, D = len(seeds), sum(env.dims)
    block_of = np.repeat(np.arange(len(env.dims)), env.dims)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # row r of the (R, 2D) concatenation is [a_r, mu_r]: the (R, 2, D) stack that
    # feedback evaluates, one buffer for the run. a and mu stay contiguous
    # arrays of their own, on which a ufunc costs about half of what it costs
    # on the stack's strided views.
    pair = np.empty((R, 2, D))
    pairs = pair.reshape(R, 2 * D)
    a, mu = np.empty((R, D)), np.zeros((R, D))
    lam = np.zeros((R, env.num_constraints))
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
            # scalar calls, in the order of a step: numpy's vectorized power can
            # differ from t**g in the last ulp. A step whose schedule overflows,
            # or whose sigma two_point_estimate would reject, ends the chunk; its
            # error is raised after the steps before it have run.
            values, error = [], None
            try:
                for t in range(start, start + steps):
                    gamma, eps, sigma = sched.gamma(t), sched.eps(t), sched.sigma(t)
                    if not 0.0 < sigma < np.inf:
                        _positive("sigma", sigma)  # raises two_point_estimate's ValueError
                    values.append((gamma, eps, sigma))
            except OverflowError:  # t**x grows with x: the largest exponent overflows
                x, name = max(zip((sched.g, sched.e, sched.s), ("gamma", "eps", "sigma")))
                error = OverflowError(f"the {name} schedule overflows at step {t}: "
                                      f"t^{x:g} exceeds the largest float")
            except ValueError as err:
                error = err
            xi[:len(values)] *= np.array([v[2] for v in values]).reshape(-1, 1, 1)  # sigma_t xi_t
            for t, (gamma, eps, sigma), sxi in zip(range(start, start + steps), values, xi):
                np.add(mu, sxi, out=a)
                np.concatenate((a, mu), axis=1, out=pairs)
                U, g = env.feedback(pair, lam)
                # each player's payoff difference on each of its coordinates
                m = _two_point((U[:, 0] - U[:, 1]).take(block_of, axis=1), a, mu, sigma)
                mu -= gamma * m
                lam = np.maximum(lam - gamma * (eps * lam - g[:, 0]), 0.0)  # dual stays >= 0
                if t == ts[j]:
                    finite = np.isfinite(mu).all(axis=1) & np.isfinite(lam).all(axis=1)
                    if not finite.all():
                        raise DivergenceError(seeds[int(np.argmin(finite))], t,
                                              ts[j - 1] if j else None)
                    mus[:, j], lams[:, j] = mu, lam
                    j += 1
            if error is not None:
                raise error
    return mus, lams
