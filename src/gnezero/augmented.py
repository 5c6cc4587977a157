"""Dual-extended game: the extended pseudo-gradient on the stacked point.

The original game is extended with one virtual dual player whose action is the
multiplier vector on the shared constraints. Primal costs become Lagrangians
J^i(a) + <lam, K a - l>, the dual player maximizes the aggregate constraint
value, and a Tikhonov term eps * lam acting on the dual block only restores
strong monotonicity of the extended pseudo-gradient. A point of the extended
game is one stacked vector z = [a; lam] of length D + n. The operator
F(z) = B z + c + [h(a); 0] holds the affine part P a + q of the game's
pseudo-gradient in B = [[P, K'], [-K, eps I]] and c = [q; l], built once per
eps; h, its non-affine part, is None on a quadratic game. The extragradient
oracle iterates on F; extended_pseudo_gradient is its checked entry. The
learner never evaluates it: it sees payoffs only and takes its own step.
"""

from __future__ import annotations

import numpy as np

from . import _EXPORTS
from .games import GameSpec, _as_flat, _nonnegative

__all__ = [*_EXPORTS["augmented"]]


def _operator(game: GameSpec, eps: float):
    """The extended pseudo-gradient z -> F(z) at eps, on stacked points z (D + n,).

    F(z) = B z + c + [h(a); 0] with a = z[:D], B = [[P, K'], [-K, eps I]],
    c = [q; l] and h the game's _nonaffine_gradient: primal block M(a) + K' lam
    for the pseudo-gradient M = P a + q + h, dual block -(K a - l) + eps lam.
    Where h is None, F is one matvec. F leaves z alone and returns a new
    array, which the extragradient loop then overwrites in place. The
    matvec is B.dot(z), the same BLAS gemv as B @ z at half the dispatch
    cost on these short vectors.
    """
    K, l = game.constraints.K, game.constraints.l
    n, D = K.shape
    B = np.zeros((D + n, D + n))
    B[:D, :D] = game.P
    B[:D, D:] = K.T
    B[D:, :D] = -K
    B[D:, D:] = eps * np.eye(n)
    c = np.concatenate([game.q, l])
    h = game._nonaffine_gradient
    if h is None:
        return lambda z: B.dot(z) + c

    def F(z: np.ndarray) -> np.ndarray:
        out = B.dot(z) + c
        out[:D] += h(z[:D])
        return out

    return F


def extended_pseudo_gradient(game: GameSpec, a, lam, eps: float = 0.0) -> np.ndarray:
    """Pseudo-gradient of the extended game at (a, lam), length D + n.

    Primal block i is M^i(a) + (K' lam) restricted to block i; the dual block
    is -K a + l + eps * lam, the Tikhonov term acting on the dual block only.
    """
    eps = _nonnegative("epsilon", eps)
    a = _as_flat(a, game.D)
    lam = _as_flat(lam, game.constraints.num_constraints, "dual variable")
    return _operator(game, eps)(np.concatenate([a, lam]))
