"""Lemke's method, numpy only, for the LCPs of both `games` and `oracles`."""

from __future__ import annotations

import numpy as np


class SolverError(RuntimeError):
    """A solver could not produce a solution satisfying its checks."""


def _lemke(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solution lam of the LCP 0 <= lam, M lam + r >= 0, lam'(M lam + r) = 0.

    Lemke's complementary pivoting with covering vector e and a ratio test
    lexicographic over the right-hand side and the initial basis inverse, so
    degenerate pivots cannot cycle; on a tie the artificial z0 leaves first.
    When r >= 0, lam = 0 is returned without a pivot.

    The callers pass three kinds of M:
    - K K' in the Slater check of ConstraintSet: symmetric positive
      semidefinite;
    - K P^{-1} K' + eps I in the oracle's dual LCP: monotone, and not
      symmetric when P has a skew part;
    - the projector Pi onto a null space in the oracle's minimal-norm
      multiplier: symmetric positive semidefinite.
    For M of these kinds the callers read ray termination as proof that the
    LCP has no solution. That reading is not taken for other monotone M: the
    skew-symmetric KKT LCP of a small feasible LP (max t subject to
    K x + t 1 <= l, t <= 1, in nonnegative parts) has ended on a ray
    although the LP has an optimum, because of the order of its degenerate
    pivots. SolverError is raised on a ray and at the pivot cap.
    """
    n = r.shape[0]
    if n == 0 or r.min() >= 0.0:
        return np.zeros(n)
    # tableau of w - M lam - e z0 = r; columns w (0..n-1), lam (n..2n-1), z0, rhs
    z0, rhs = 2 * n, 2 * n + 1
    T = np.hstack([np.eye(n), -M, -np.ones((n, 1)), r[:, None]])
    basis = np.arange(n)

    def lex_min_row(rows, denom):
        for c in (rhs, *range(n)):
            ratios = T[rows, c] / denom[rows]
            rows = rows[ratios <= ratios.min() + 1e-12 * max(1.0, abs(ratios.min()))]
            if rows.size == 1:
                break
            if c == rhs and z0 in basis[rows]:
                return rows[basis[rows] == z0][0]
        return rows[0]

    row, entering = lex_min_row(np.arange(n), np.ones(n)), z0
    for _ in range(50 * (n + 1)):  # no basis repeats; the cap guards round-off
        pivot_row = T[row] / T[row, entering]
        T -= np.outer(T[:, entering], pivot_row)
        T[row] = pivot_row
        leaving, basis[row] = basis[row], entering
        if leaving == z0:
            values = np.zeros(rhs)
            values[basis] = T[:, rhs]
            return np.maximum(values[n:z0], 0.0)
        entering = leaving + n if leaving < n else leaving - n
        col = T[:, entering]
        rows = np.flatnonzero(col > 1e-12 * max(1.0, float(np.abs(col).max())))
        if rows.size == 0:
            raise SolverError("complementary pivoting ended on a ray: the LCP has no solution")
        row = lex_min_row(rows, col)
    raise SolverError("complementary pivoting did not terminate")
