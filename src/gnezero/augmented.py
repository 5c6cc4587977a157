"""Dual-extended game: the extended pseudo-gradient and the projected step.

The original game is extended with one virtual dual player whose action is the
multiplier vector on the shared constraints. Primal costs become Lagrangians
J^i(a) + <lam, K a - l>, the dual player maximizes the aggregate constraint
value, and a Tikhonov term eps * lam acting on the dual block only restores
strong monotonicity of the extended pseudo-gradient. One operator, with eps
as an argument, and one projected primal-dual step serve both iterations:
the extragradient oracle and the payoff-based learner. Points are plain
arrays: an action a (D,) and multipliers lam (n,).
"""

from __future__ import annotations

import numpy as np

from .games import GameSpec, _as_flat

__all__ = [
    "extended_pseudo_gradient",
]


def _operator(game: GameSpec, a: np.ndarray, lam: np.ndarray, eps: float):
    """Primal and dual blocks of the extended pseudo-gradient at (a, lam).

    Primal block: M(a) + K' lam; dual block: -(K a - l) + eps * lam. The
    arrays are used as given; extended_pseudo_gradient is the checked entry.
    """
    K, l = game.constraints.K, game.constraints.l
    return game.pseudo_gradient(a) + K.T @ lam, -(K @ a) + l + eps * lam


def _projected_step(a: np.ndarray, lam: np.ndarray, tau: float, v, w):
    """One primal-dual step (a - tau v, max(lam - tau w, 0)); the dual stays >= 0."""
    return a - tau * v, np.maximum(lam - tau * w, 0.0)


def _start_point(game: GameSpec, mu0, lam0) -> tuple[np.ndarray, np.ndarray]:
    """Start point (mu, lam) of an iteration, zeros where None.

    A wrong length raises DimensionMismatchError, a negative lam0 ValueError.
    """
    n = game.constraints.num_constraints
    mu = np.zeros(game.D) if mu0 is None else _as_flat(mu0, game.D, "mu0")
    lam = np.zeros(n) if lam0 is None else _as_flat(lam0, n, "lam0")
    if np.any(lam < 0):
        raise ValueError("lam0 must be componentwise nonnegative")
    return mu, lam


def extended_pseudo_gradient(game: GameSpec, a, lam, eps: float = 0.0) -> np.ndarray:
    """Pseudo-gradient of the extended game at (a, lam), length D + n.

    Primal block i is M^i(a) + (K' lam) restricted to block i; the dual block
    is -K a + l + eps * lam, the Tikhonov term acting on the dual block only.
    """
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    a = _as_flat(a, game.D)
    lam = _as_flat(lam, game.constraints.num_constraints, "dual variable")
    return np.concatenate(_operator(game, a, lam, eps))
