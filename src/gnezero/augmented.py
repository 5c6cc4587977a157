"""Dual-extended game: the extended pseudo-gradient and the projected step.

The original game is extended with one virtual dual player whose action is the
multiplier vector on the shared constraints. Primal costs become Lagrangians
J^i(a) + <lam, K a - l>, the dual player maximizes the aggregate constraint
value, and a Tikhonov term eps * lam acting on the dual block only restores
strong monotonicity of the extended pseudo-gradient. One operator, with eps
as an argument, and one projected primal-dual step serve every solver: the
extragradient oracle, the exact-gradient baseline and the payoff-based
learner.
"""

from __future__ import annotations

import numpy as np

from .games import DimensionMismatchError, GameSpec, JointAction, _as_flat

__all__ = [
    "AugmentedPoint",
    "extended_pseudo_gradient",
]


class AugmentedPoint:
    """A primal joint action together with a dual multiplier vector z = [a, lam]."""

    __slots__ = ("a", "lam")

    def __init__(self, a, lam):
        if isinstance(a, JointAction):
            a = a.flat
        a = np.array(a, dtype=float).reshape(-1)
        lam = np.array(lam, dtype=float).reshape(-1)
        a.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, name, value):
        raise AttributeError("AugmentedPoint is immutable")

    def __reduce__(self):
        return AugmentedPoint, (self.a, self.lam)

    @property
    def primal(self) -> np.ndarray:
        return self.a

    @property
    def dual(self) -> np.ndarray:
        return self.lam

    def __repr__(self) -> str:
        return f"AugmentedPoint(a={self.a.tolist()}, lam={self.lam.tolist()})"


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


def extended_pseudo_gradient(game: GameSpec, z: AugmentedPoint, eps: float = 0.0) -> np.ndarray:
    """Pseudo-gradient of the extended game at z, length D + n.

    Primal block i is M^i(a) + (K' lam) restricted to block i; the dual block
    is -K a + l + eps * lam, the Tikhonov term acting on the dual block only.
    """
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    a = _as_flat(z.a, game.D)
    lam = np.asarray(z.lam, dtype=float).reshape(-1)
    n = game.constraints.num_constraints
    if lam.shape[0] != n:
        raise DimensionMismatchError("dual variable", n, lam.shape[0])
    return np.concatenate(_operator(game, a, lam, eps))
