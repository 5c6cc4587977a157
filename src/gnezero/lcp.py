"""Lemke's method, numpy only, for the LCPs of both `games` and `oracles`."""

from __future__ import annotations

import numpy as np


class SolverError(RuntimeError):
    """A solver could not produce a solution satisfying its checks.

    ray is None, or, where Lemke's method ended on a ray, the ray's
    direction in lam: a vector (n,) along which the multipliers grow.
    """

    def __init__(self, message: str, ray: np.ndarray | None = None):
        super().__init__(message)
        self.ray = ray


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
    Ray termination is not read as proof that the LCP has no solution: the
    skew-symmetric KKT LCP of a small feasible LP (max t subject to
    K x + t 1 <= l, t <= 1, in nonnegative parts) has ended on a ray
    although the LP has an optimum, because of the order of its degenerate
    pivots. SolverError is raised on a ray, carrying the ray's direction in
    lam for a caller to check as a certificate, and at the pivot cap.
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
            least = ratios.min()
            rows = rows[ratios <= least + 1e-12 * max(1.0, abs(least))]
            if rows.size == 1:
                break
            if c == rhs and z0 in basis[rows]:
                return rows[basis[rows] == z0][0]
        return rows[0]

    row, entering = lex_min_row(np.arange(n), np.ones(n)), z0
    for _ in range(50 * (n + 1)):  # no basis repeats; the cap guards round-off
        pivot_row = T[row] / T[row, entering]
        T -= T[:, entering, None] * pivot_row
        T[row] = pivot_row
        leaving, basis[row] = basis[row], entering
        if leaving == z0:
            values = np.zeros(rhs)
            values[basis] = T[:, rhs]
            return np.maximum(values[n:z0], 0.0)
        entering = leaving + n if leaving < n else leaving - n
        col = T[:, entering]
        rows = (col > 1e-12 * max(1.0, float(np.abs(col).max()))).nonzero()[0]
        if rows.size == 0:
            # the entering variable grows without bound, the basic ones by -col
            ray = np.zeros(rhs)
            ray[basis], ray[entering] = -col, 1.0
            raise SolverError("complementary pivoting ended on a ray", ray=ray[n:z0])
        row = lex_min_row(rows, col)
    raise SolverError("complementary pivoting did not terminate")
