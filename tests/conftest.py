import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnezero
from gnezero.games import paper_example, random_quadratic_game
from gnezero.oracles import solve_vgne


@pytest.fixture(scope="session")
def paper_game():
    return paper_example()


@pytest.fixture(scope="session")
def paper_solution(paper_game):
    return solve_vgne(paper_game)


@pytest.fixture(scope="session")
def random_games():
    """Ten seeded strongly monotone quadratic games (D <= 6, n <= 3)."""
    return [random_quadratic_game(seed) for seed in range(10)]


def central_difference_gradient(f, x, h=None):
    """Test-local finite-difference oracle, independent of library code."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    out = np.empty(x.shape[0])
    for k in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        out[k] = (f(xp) - f(xm)) / (2 * h)
    return out


def enumerate_kkt(game, eps=0.0):
    """Test-local reference: the KKT solution by enumerating all 2^n active sets.

    For each candidate set A the saddle system
        [P    K_A'   ] [a    ]   [-q ]
        [K_A  -eps I ] [lam_A] = [l_A]
    is solved (least squares plus minimal-norm multipliers at eps = 0, solve
    plus one refinement step at eps > 0). A candidate is kept when the system
    is consistent, its multipliers are nonnegative and the inactive
    constraints hold; the candidate of minimal multiplier norm is returned
    as (a, lam, active). Exponential in n, so only for small games.
    """
    K, l = game.constraints.K, game.constraints.l
    n, D = K.shape[0], game.D
    P, q = game.P, game.q
    check_tol = 1e-9 * (1.0 + float(np.linalg.norm(q)) + float(np.linalg.norm(l)))
    candidates = []
    for size in range(n + 1):
        for active in itertools.combinations(range(n), size):
            idx = list(active)
            K_A = K[idx]
            sys = np.zeros((D + size, D + size))
            sys[:D, :D] = P
            sys[:D, D:] = K_A.T
            sys[D:, :D] = K_A
            sys[D:, D:] = -eps * np.eye(size)
            rhs = np.concatenate([-q, l[idx]])
            if eps > 0:
                try:
                    sol = np.linalg.solve(sys, rhs)
                    sol += np.linalg.solve(sys, rhs - sys @ sol)
                except np.linalg.LinAlgError:
                    continue
                a, lam_A = sol[:D], sol[D:]
            else:
                sol, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
                if np.linalg.norm(sys @ sol - rhs) > check_tol:
                    continue
                a, lam_A = sol[:D], np.zeros(0)
                if size:
                    lam_A, *_ = np.linalg.lstsq(K_A.T, -(P @ a + q), rcond=None)
                    if np.linalg.norm(K_A.T @ lam_A + P @ a + q) > check_tol:
                        continue
            if np.any(lam_A < -check_tol):
                continue
            g = game.constraints.value(a)
            if np.any(np.delete(g, idx) > check_tol):
                continue
            lam = np.zeros(n)
            lam[idx] = np.maximum(lam_A, 0.0)
            candidates.append((a, lam, tuple(active)))
    if not candidates:
        raise AssertionError("no active set satisfies the KKT conditions")
    return min(candidates, key=lambda c: float(np.linalg.norm(c[1])))


def reference_run(game, sched, T, seed):
    """Test-local reference: the payoff-based iteration written out per player.

    At step t the joint action a = mu + sigma_t xi is drawn with one
    standard-normal vector xi of length D from default_rng(seed). Player i
    sees its Lagrangian cost U^i = J^i + lam'(K x - l) at x = a and x = mu,
    evaluated on the two stacked points, and moves its block by gamma_t times
    the two-point estimate (U^i(a) - U^i(mu)) (a^i - mu^i) / sigma_t^2. The
    dual moves by gamma_t (eps_t lam - (K a - l)) and is clipped at zero.
    Both blocks read the same current point, which starts at mu = 0,
    lam = 0. Returns the final (mu, lam).
    """
    K, l = game.constraints.K, game.constraints.l
    rng = np.random.default_rng(seed)
    mu = np.zeros(game.D)
    lam = np.zeros(K.shape[0])
    for t in range(1, T + 1):
        gamma, eps, sigma = sched.gamma(t), sched.eps(t), sched.sigma(t)
        a = mu + sigma * rng.standard_normal(game.D)
        X = np.stack([a, mu])
        g = X @ K.T - l
        U = game.costs_at(X) + (g @ lam)[:, None]
        new_mu = mu.copy()
        for i, sl in enumerate(game.slices):
            m_i = (U[0, i] - U[1, i]) * (a[sl] - mu[sl]) / (sigma * sigma)
            new_mu[sl] = mu[sl] - gamma * m_i
        lam = np.maximum(lam - gamma * (eps * lam - g[0]), 0.0)
        mu = new_mu
    return mu, lam


def reference_estimates(game, probe, i):
    """Test-local reference: player i's two-point estimates at a probe, one player alone.

    Draws the probe's joint actions x ~ N(mu, sigma^2 I) from its own
    default_rng(probe.seed), in chunks of 100,000 rows, and evaluates player
    i's Lagrangian payoff U^i = J^i + lam'(K x - l) at them and, through
    game.cost, at mu. Returns the list of (size, d_i) chunks of
    (U^i(x) - U^i(mu)) (x^i - mu^i) / sigma^2.
    """
    K, l = game.constraints.K, game.constraints.l
    mu, lam, sigma = probe.mu, probe.lam, probe.sigma
    sl = game.slices[i]
    rng = np.random.default_rng(probe.seed)
    u_mu = float(game.costs_at(mu)[0, i]) + float(lam @ game.constraints.value(mu))
    chunks = []
    for start in range(0, probe.num_samples, 100_000):
        size = min(100_000, probe.num_samples - start)
        X = mu + sigma * rng.standard_normal((size, game.D))
        u = game.costs_at(X)[:, i] + (X @ K.T - l) @ lam
        chunks.append((u - u_mu)[:, None] * (X[:, sl] - mu[sl]) / (sigma * sigma))
    return chunks


def fresh_python(*args) -> str:
    """Test-local helper: stdout of a new interpreter, run with this gnezero on its path."""
    src = str(Path(gnezero.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout
