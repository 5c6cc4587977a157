"""Exact first-order solvers used as ground truth for the learning algorithm.

For quadratic games the variational equilibrium and its Tikhonov-regularized
counterpart solve one KKT system, to near machine precision in polynomial
time and for any number of constraints: eliminating the primal leaves a
monotone linear complementarity problem in the multipliers, complementary
pivoting (Lemke's method) identifies the active set, and an exact linear
solve on that set polishes the answer. Tseng's forward-backward-forward
iteration over the extended primal-dual space, with a backtracked adaptive
step, serves as an independent cross-check and as the only solver available
for non-quadratic games (the softplus-ridge family). It iterates on one
stacked vector z = [a; lam] with the operator of gnezero.augmented, and its
projection keeps the dual block >= 0. Every solver rejects a non-finite or
non-positive tolerance, and the regularized ones a non-finite eps, with
ValueError. solve_regularized_path solves an eps grid in groups of
consecutive eps sharing an active set, one Lemke call, one stacked solve and
one stacked verification each, bit-equal to single solves where Lemke's
method finds the group's set. The verification (_verified) checks a stack
of solutions at once, the group's or solve_vgne's one row, with one BLAS
call per row for each product, so a row's residuals are bit-equal to those
computed on it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .augmented import _operator
from .games import GameSpec, JointAction, QuadraticGame, _positive, _row_dots
from .lcp import SolverError, _lemke

__all__ = [*_EXPORTS["oracles"]]


@dataclass(frozen=True)
class OracleSolution:
    """Solution at epsilon (0.0 at the v-GNE) with multipliers and optimality residuals."""

    primal: JointAction
    dual: np.ndarray
    epsilon: float
    active_set: tuple[int, ...]
    stationarity_residual: float
    complementarity_residual: float


def _require_quadratic(game: GameSpec, who: str) -> QuadraticGame:
    if not isinstance(game, QuadraticGame):
        raise TypeError(
            f"{who} needs a QuadraticGame, got {type(game).__name__}; for a "
            "non-quadratic game use solve_vi_extragradient, which carries an "
            "iteration tolerance"
        )
    return game


def _min_norm_multiplier(K_T: np.ndarray, c: np.ndarray, check_tol: float) -> np.ndarray:
    """Minimal-norm lam >= 0 with K_T' lam = c, given that one exists.

    That is the minimal-norm solution lam_p of the equations when it is
    nonnegative. Otherwise lam = lam_p + Pi y solves the least-distance
    problem, with Pi the projector onto the null space of K_T' and y from
    LCP(Pi, lam_p); the multipliers are then recomputed on its support. A
    shift of lam_p far below check_tol keeps that LCP feasible when round-off
    would push a multiplier forced to zero just below it.
    """
    lam, *_ = np.linalg.lstsq(K_T.T, c, rcond=None)
    if np.any(lam < -check_tol):
        Pi = np.eye(K_T.shape[0]) - np.linalg.pinv(K_T.T) @ K_T.T
        shifted = lam + 1e-3 * check_tol
        support = np.flatnonzero(Pi @ _lemke(Pi, shifted) + shifted > check_tol)
        lam = np.zeros(K_T.shape[0])
        lam[support], *_ = np.linalg.lstsq(K_T[support].T, c, rcond=None)
    return np.maximum(lam, 0.0)


def _dual_lcp(game: QuadraticGame) -> tuple[float, np.ndarray, np.ndarray]:
    """The check tolerance and the data (M0, r) of the game's dual LCP.

    Stationarity P a + q + K' lam = 0 gives a = -P^{-1}(q + K' lam), which
    leaves the dual LCP(M0 + eps I, r) with M0 = K P^{-1} K' and
    r = l + K P^{-1} q, monotone as P's symmetric part is positive definite.
    Lemke's method identifies the active set A, whose rows are independent,
    and the saddle system (second row: (K a - l)_j = eps lam_j)
        [P    K_A'   ] [a    ]   [-q ]
        [K_A  -eps I ] [lam_A] = [l_A]
    gives the exact answer, by least squares at eps = 0.
    """
    K, l, q = game.constraints.K, game.constraints.l, game.q
    check_tol = 1e-9 * (1.0 + float(np.linalg.norm(q)) + float(np.linalg.norm(l)))
    X = np.linalg.solve(game.P, np.column_stack([q, K.T]))  # P^{-1} [q, K']
    return check_tol, K @ X[:, 1:], l + K @ X[:, 0]


def _saddle(game: QuadraticGame, M0: np.ndarray, r: np.ndarray, eps: float, count: int):
    """Lemke's active set A at eps, count saddle matrices of A (eps block 0), [-q; l_A]."""
    K, D = game.constraints.K, game.D
    idx = np.flatnonzero(_lemke(M0 + eps * np.eye(len(r)), r) > 0.0)
    sys = np.zeros((count, D + len(idx), D + len(idx)))
    sys[:, :D, :D], sys[:, :D, D:], sys[:, D:, :D] = game.P, K[idx].T, K[idx]
    return idx, sys, np.concatenate([-game.q, game.constraints.l[idx]])[:, None]


def _verified(game, A, LAM, LAM_A, eps, tol, check_tol):
    """How many leading rows of a stack pass the checks, and every row's residuals.

    Row i is the primal A[i] (D,), the multipliers LAM[i] (n,), their raw
    active-set block LAM_A[i] and eps[i]. A row fails the sign or
    feasibility check when LAM_A[i] < -check_tol or the shifted constraint
    value K a - l - eps lam exceeds check_tol somewhere; the first failing
    row ends the stack. SolverError when row 0 fails, or when a residual of
    a row before the first failing one exceeds tol. Stacked matmuls, and
    games._row_dots for the stationarity norm, make one gemv or dot call
    per row, so each residual is bit-equal to K @ a and np.linalg.norm on
    that row alone.
    """
    K, l = game.constraints.K, game.constraints.l
    # complementarity against the shifted constraint value (K a - l) - eps lam
    shifted = np.matmul(K, A[:, :, None])[:, :, 0] - l - eps[:, None] * LAM
    fails = (LAM_A < -check_tol).any(axis=1) | (shifted > check_tol).any(axis=1)
    V = (np.matmul(game.P, A[:, :, None])[:, :, 0] + game.q
         + np.matmul(K.T, LAM[:, :, None])[:, :, 0])
    stat = np.sqrt(_row_dots(V))
    comp = np.abs(LAM * shifted).max(axis=1, initial=0.0)
    passed = int(fails.argmax()) if fails.any() else len(fails)
    if passed == 0:
        raise SolverError("the identified active set fails the optimality checks")
    # fmax ignores a nan: a row is over tol when either residual is
    over = np.fmax(stat[:passed], comp[:passed]) > tol
    if over.any():
        i = over.argmax()
        raise SolverError(f"optimality residuals at eps={eps[i]:g} exceed tol={tol:g}: "
                          f"stationarity {stat[i]:.3e}, complementarity {comp[i]:.3e}")
    return passed, stat, comp


def solve_vgne(game: QuadraticGame, tol: float = 1e-10) -> OracleSolution:
    """Exact variational equilibrium of a quadratic game, any number of constraints.

    Solves the KKT system of the game extended by the dual player through
    its dual linear complementarity problem and an exact polish on the
    identified active set (_dual_lcp). The primal part is unique, and so are
    the multipliers when the tight constraint rows are linearly independent.
    Otherwise the multiplier of minimal norm is returned: a row repeated k
    times carries 1/k of the multiplier in each copy.
    """
    game, tol = _require_quadratic(game, "solve_vgne"), _positive("tol", tol)
    K, l, D = game.constraints.K, game.constraints.l, game.D
    check_tol, M0, r = _dual_lcp(game)
    _, sys, rhs = _saddle(game, M0, r, 0.0, 1)
    sol, *_ = np.linalg.lstsq(sys[0], rhs[:, 0], rcond=None)
    # tight rows outside the support can make the multiplier non-unique;
    # the one of minimal norm lives on the tight set
    active = np.flatnonzero(np.abs(K @ sol[:D] - l) <= check_tol)
    lam = np.zeros(K.shape[0])
    lam[active] = _min_norm_multiplier(K[active], -(game.P @ sol[:D] + game.q), check_tol)
    _, stat, comp = _verified(game, sol[None, :D], lam[None], sol[None, D:], np.zeros(1),
                              tol, check_tol)
    return OracleSolution(JointAction(sol[:D]), lam, 0.0, tuple(active.tolist()),
                          float(stat[0]), float(comp[0]))


def solve_regularized_path(game: QuadraticGame, eps_values: Sequence[float],
                           tol: float = 1e-10) -> list[OracleSolution]:
    """Unique solutions of the Tikhonov-regularized problem, one per eps value.

    Solved like solve_vgne with eps * lam on the dual block, which makes the
    multipliers unique, and one refinement step of the polish. Lemke's method
    runs at the first eps of a group, whose saddle systems are solved and
    verified as one stack; the first eps where its active set fails the sign
    or feasibility check starts the next group, and a residual above tol
    before it raises SolverError naming that eps. Each solution is bit-equal
    to a one-element call whenever Lemke's method at its eps finds the
    group's set.
    """
    eps_values = [_positive("eps", eps) for eps in eps_values]  # before any work
    tol, game = _positive("tol", tol), _require_quadratic(game, "solve_regularized_path")
    D, n = game.D, game.constraints.num_constraints
    check_tol, M0, r = _dual_lcp(game)
    sols: list[OracleSolution] = []
    while len(sols) < len(eps_values):
        group = eps_values[len(sols):]
        eps = np.array(group)
        idx, sys, rhs = _saddle(game, M0, r, group[0], len(group))
        sys[:, D:, D:] = -eps[:, None, None] * np.eye(len(idx))
        sol = np.linalg.solve(sys, rhs)  # one LAPACK gesv per matrix of the stack
        sol += np.linalg.solve(sys, rhs - sys @ sol)  # refinement
        S = sol[:, :, 0]
        lam = np.zeros((len(group), n))
        lam[:, idx] = np.maximum(S[:, D:], 0.0)
        # the first row failing the checks has a new active set and starts the next group
        passed, stat, comp = _verified(game, S[:, :D], lam, S[:, D:], eps, tol, check_tol)
        active = tuple(idx.tolist())
        sols += [OracleSolution(JointAction(a), dual, e, active, st, co) for a, dual, e, st, co
                 in zip(S[:passed, :D], lam, group, stat.tolist(), comp.tolist())]
    return sols


def solve_regularized_vi(game: QuadraticGame, eps: float, tol: float = 1e-10) -> OracleSolution:
    """Unique solution of the Tikhonov-regularized problem: solve_regularized_path at [eps]."""
    return solve_regularized_path(game, [eps], tol)[0]


# Step control of solve_vi_extragradient, as multiples of the reference step
# tau0 = 1 / (2 (L + ||K|| + eps)): the first trial step, the growth after
# each accepted iteration, the shrink factor of a rejected trial, the
# acceptance ratio theta < 1 of tau ||F(y) - F(z)|| <= theta ||y - z||, and
# the floor below which the backtracking gives up. The solver gives up after
# _MAX_ITER iterations.
_STEP_START = 1.9
_STEP_GROW = 1.05
_STEP_SHRINK = 0.7
_STEP_THETA = 0.9
_STEP_FLOOR = 1e-12
_MAX_ITER = 200_000


def _finite(value: float) -> float:
    """value, or SolverError when it is not finite.

    Applied to squared norms of operator values: a NaN or infinite entry,
    or an overflow, makes them non-finite.
    """
    if not math.isfinite(value):
        raise SolverError("the extended pseudo-gradient returned a non-finite value")
    return value


def solve_vi_extragradient(game: GameSpec, eps: float, tol: float = 1e-8) -> OracleSolution:
    """Forward-backward-forward iteration for the regularized problem on any game.

    Works from pseudo-gradient evaluations only, so it also covers
    non-quadratic games; accuracy is the iteration tolerance, not machine
    precision. The iterate is the stacked point z = [a; lam] (D + n,). Each
    iteration of Tseng's method takes, with F the extended pseudo-gradient
    and P(x) = max(x, lo), lo = [-inf 1_D; 0_n], the projection keeping the
    dual block >= 0,
        y = P(z - tau F(z)),   z+ = P(y - tau (F(y) - F(z))),
    from z = 0. The step tau adapts: it starts at 1.9 tau0, grows by 5% per
    iteration and shrinks by 0.7 until tau ||F(y) - F(z)|| <= 0.9 ||y - z||,
    after which each iteration moves z closer to the solution for any
    monotone F, so no global Lipschitz constant has to hold. Here
    tau0 = 1 / (2 (L + ||K|| + eps)) is the reference step, with L the
    (possibly probed) Lipschitz constant of the pseudo-gradient. The
    iteration stops at the first z whose fixed-point residual at tau0,
    d = z - P(z - tau0 F(z)), has ||d_a|| + ||d_lam|| <= tol * tau0.
    ValueError is raised for a non-finite or non-positive eps or tol;
    SolverError when F returns a non-finite value, when tau falls below
    1e-12 tau0, or after 200,000 iterations (_MAX_ITER).
    """
    eps, tol = _positive("eps", eps), _positive("tol", tol)
    K = game.constraints.K
    D, n = game.D, K.shape[0]
    norm_K = float(np.linalg.norm(K, 2))
    tau0 = 1.0 / (2.0 * (game.lipschitz() + norm_K + eps))
    tau = _STEP_START * tau0

    F = _operator(game, eps)
    lo = np.concatenate([np.full(D, -np.inf), np.zeros(n)])
    z = np.zeros(D + n)
    # numpy's per-call dispatch, not arithmetic, sets the cost on vectors
    # this short: every step writes into a buffer allocated once, in the
    # order of the allocating expressions, and x.dot(x) stands in for the
    # dearer x @ x
    d, y, dz, w = (np.empty(D + n) for _ in range(4))
    da, dlam = d[:D], d[D:]
    residual = np.inf
    for _ in range(_MAX_ITER):
        Fz = F(z)  # a new array, free to overwrite
        np.multiply(tau0, Fz, out=d)
        np.subtract(z, d, out=d)
        np.maximum(d, lo, out=d)
        np.subtract(z, d, out=d)
        residual = math.sqrt(_finite(da.dot(da))) + math.sqrt(dlam.dot(dlam))
        if residual <= tol * tau0:
            break
        while True:
            np.multiply(tau, Fz, out=y)
            np.subtract(z, y, out=y)
            np.maximum(y, lo, out=y)
            dF = F(y)
            np.subtract(dF, Fz, out=dF)
            np.subtract(y, z, out=dz)
            if tau * tau * _finite(dF.dot(dF)) <= _STEP_THETA ** 2 * dz.dot(dz):
                break
            tau *= _STEP_SHRINK
            if tau < _STEP_FLOOR * tau0:
                raise SolverError(
                    f"step fell below {_STEP_FLOOR:g} of the reference step {tau0:.3e}: "
                    "the pseudo-gradient is not locally Lipschitz here")
        np.multiply(tau, dF, out=w)
        np.subtract(y, w, out=z)
        np.maximum(z, lo, out=z)
        tau *= _STEP_GROW
    else:
        raise SolverError(
            f"extragradient did not reach tolerance {tol:g} within {_MAX_ITER} "
            f"iterations (residual {residual:.3e})"
        )

    # copies, so the read-only primal shares no buffer with the dual; Fz is
    # F(z) at the returned point, its dual block -(K a - l - eps lam) the
    # shifted constraint value
    a, lam = z[:D].copy(), z[D:].copy()
    return OracleSolution(
        primal=JointAction(a),
        dual=lam,
        epsilon=eps,
        active_set=tuple(int(j) for j in range(n) if lam[j] > tol),
        stationarity_residual=float(np.linalg.norm(Fz[:D])),
        complementarity_residual=float(np.max(np.abs(lam * Fz[D:]))) if n else 0.0,
    )
