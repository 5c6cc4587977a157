import math
import re

import numpy as np
import pytest
from conftest import enumerate_kkt
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gnezero import oracles
from gnezero.augmented import _operator, extended_pseudo_gradient
from gnezero.games import (
    ConstraintSet,
    QuadraticGame,
    paper_example,
    random_quadratic_game,
    softplus_game,
)
from gnezero.oracles import (
    OracleSolution,
    SolverError,
    solve_regularized_path,
    solve_regularized_vi,
    solve_vgne,
    solve_vi_extragradient,
)


def test_paper_game_equilibrium(paper_game, paper_solution):
    sol = paper_solution
    assert sol.primal.flat == pytest.approx([0.0, 1.0], abs=1e-12)
    assert sol.dual == pytest.approx([1.0], abs=1e-12)
    assert sol.active_set == (0,)
    assert sol.stationarity_residual <= 1e-10
    assert sol.complementarity_residual <= 1e-10


def test_unconstrained_reduces_to_linear_solve():
    game = random_quadratic_game(2, dims=(1, 1, 1), num_constraints=1)
    free = QuadraticGame(game.A, game.b, ConstraintSet(np.zeros((0, 3)), np.zeros(0)),
                         dims=game.dims)
    sol = solve_vgne(free)
    assert sol.primal.flat == pytest.approx(np.linalg.solve(game.P, -game.q))
    assert sol.dual.shape == (0,)
    assert sol.active_set == ()


def test_feasibility_and_residual_invariants(random_games):
    for game in random_games:
        sol = solve_vgne(game)
        assert sol.stationarity_residual <= 1e-10
        assert sol.complementarity_residual <= 1e-10
        assert np.all(sol.dual >= 0)
        assert np.all(game.constraints.value(sol.primal.flat) <= 1e-9)


def test_agrees_with_grid_search_oracle():
    # independent natural-residual minimization on a dense grid; the single
    # halfspace makes the projection onto C exact and trivial
    for seed in (11, 12, 13):
        game = random_quadratic_game(seed, dims=(1, 1), num_constraints=1)
        a_star = solve_vgne(game).primal.flat
        k = game.constraints.K[0]
        l0 = float(game.constraints.l[0])
        ksq = float(k @ k)
        res = 0.01
        lo = a_star - 1.0037  # keep the solution off the grid nodes
        xs = lo[0] + res * np.arange(201)
        ys = lo[1] + res * np.arange(201)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        z = pts - (pts @ game.P.T + game.q)
        viol = np.maximum(z @ k - l0, 0.0)
        proj = z - np.outer(viol / ksq, k)
        natural_residual = np.linalg.norm(proj - pts, axis=1)
        best = pts[np.argmin(natural_residual)]
        assert np.linalg.norm(best - a_star) <= 1.5 * res * np.sqrt(2)


def test_no_constraint_cap_and_type_check(paper_game):
    # 22 rows (eye(2) repeated 11 times), none binding: no cap on n any more
    big = ConstraintSet(np.vstack([np.eye(2)] * 11), np.full(22, 5.0))
    sol = solve_vgne(QuadraticGame(paper_game.A, paper_game.b, big))
    assert sol.stationarity_residual <= 1e-10
    assert sol.complementarity_residual <= 1e-10
    assert np.array_equal(sol.dual, np.zeros(22))
    with pytest.raises(TypeError):
        solve_vgne(softplus_game(0))


def _solve(game, eps):
    return solve_vgne(game) if eps == 0 else solve_regularized_vi(game, eps)


def test_large_random_game_solves():
    # D = 24, n = 40: far beyond any active-set enumeration
    rng = np.random.default_rng(0)
    base = random_quadratic_game(7, dims=[2] * 12, num_constraints=1)
    K = rng.standard_normal((40, 24))
    cs = ConstraintSet(K, rng.uniform(0.05, 0.5, size=40))  # a = 0 is strictly feasible
    game = QuadraticGame(base.A, base.b, cs, dims=base.dims)
    for eps in (0.0, 1e-3):
        sol = _solve(game, eps)
        assert len(sol.active_set) >= 5
        assert sol.stationarity_residual <= 1e-10
        assert sol.complementarity_residual <= 1e-10
        assert np.all(sol.dual >= 0)
        assert np.all(cs.value(sol.primal.flat) - eps * sol.dual <= 1e-9)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.1])
def test_matches_enumeration_bit_for_bit_when_strictly_complementary(
        eps, paper_game, random_games):
    for game in [paper_game, *random_games]:
        a, lam, active = enumerate_kkt(game, eps)
        sol = _solve(game, eps)
        assert np.array_equal(sol.primal.flat, a)
        assert np.array_equal(sol.dual, lam)
        assert sol.active_set == active


def _repeated_paper_row():
    # paper-example's constraint row three times: the multiplier splits evenly
    game = paper_example()
    cs = game.constraints
    return QuadraticGame(game.A, game.b, ConstraintSet(np.vstack([cs.K] * 3), np.tile(cs.l, 3)))


def _corner_with_sum_row():
    # P = I, q = (-1, -0.1): a* = 0 with rows (1,0), (0,1), (1,1) all tight. The
    # multipliers are (1-t, 0.1-t, t); the minimal-norm one (t = 11/30) is
    # negative, the minimal-norm nonnegative one has t = 0.1
    A = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    b = np.array([[-1.0, 0.0], [0.0, -0.1]])
    return QuadraticGame(A, b, ConstraintSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.zeros(3)))


@pytest.mark.parametrize("build, a_star, lam_star", [
    (_repeated_paper_row, [0.0, 1.0], [1.0 / 3.0] * 3),
    (_corner_with_sum_row, [0.0, 0.0], [0.9, 0.0, 0.1]),
])
def test_dependent_tight_rows_give_min_norm_multiplier(build, a_star, lam_star):
    game = build()
    sol = solve_vgne(game)
    assert sol.primal.flat == pytest.approx(a_star, abs=1e-12)
    assert sol.dual == pytest.approx(lam_star, abs=1e-12)
    assert enumerate_kkt(game)[1] == pytest.approx(lam_star, abs=1e-12)


def degenerate_game(seed, eps, dims, num_base, copies=(), num_weak=0,
                    repeat_weak=False, num_slack=0):
    """A small game with repeated, weakly active and slack rows, and its eps.

    The binding base rows come from random_quadratic_game, followed by
    positively scaled copies of them, (row, factor) for each entry of
    copies. Rows tight at the solution with zero multiplier (weakly active,
    the first one repeated if repeat_weak) are orthogonal to the base rows,
    so the tight rows stay well conditioned up to exact repeats and 1e-10 is
    a fair tolerance; slack rows point anywhere, with a margin of at least
    0.1 at the solution and at a point on the base rows. Every such set is
    strictly feasible, so ConstraintSet must accept it.
    """
    D = sum(dims)
    base = random_quadratic_game(seed, dims=dims, num_constraints=num_base)
    K, l = base_K, base_l = base.constraints.K, base.constraints.l
    if num_base:
        K = np.vstack([K] + [s * K[i] for i, s in copies])
        l = np.concatenate([l] + [[s * l[i]] for i, s in copies])
    a = enumerate_kkt(QuadraticGame(base.A, base.b, ConstraintSet(K, l), dims=dims), eps)[0]
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(np.column_stack([base_K.T, rng.standard_normal((D, D))]))
    weak = basis[:, num_base:num_base + num_weak].T * rng.uniform(0.5, 2.0, size=(num_weak, 1))
    if num_weak and repeat_weak:
        weak = np.vstack([weak, 2.0 * weak[0]])
    slack = rng.standard_normal((num_slack, D))
    # at eps > 0 the solution a violates the base rows by eps * lam; a_in, a
    # moved onto them, keeps the weak rows tight and the slack rows slack
    a_in = a - np.linalg.pinv(base_K) @ (base_K @ a - base_l)
    cs = ConstraintSet(np.vstack([K, weak, slack]), np.concatenate(
        [l, weak @ a, np.maximum(slack @ a, slack @ a_in)
         + rng.uniform(0.1, 1.0, size=len(slack))]))
    return QuadraticGame(base.A, base.b, cs, dims=dims), eps


@st.composite
def degenerate_games(draw):
    """degenerate_game with drawn seed, eps, dims and row counts."""
    seed = draw(st.integers(0, 2**16))
    eps = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=2, max_size=3)))
    D = sum(dims)
    num_base = draw(st.integers(0, min(D, 3)))
    copies = []
    if num_base:
        copies = draw(st.lists(st.tuples(st.integers(0, num_base - 1),
                                         st.sampled_from([1.0, 0.5, 3.0])), max_size=2))
    num_weak = draw(st.integers(0, min(2, D - num_base)))
    repeat_weak = bool(num_weak) and draw(st.booleans())
    num_rows = num_base + len(copies) + num_weak + repeat_weak
    num_slack = draw(st.integers(0, min(1, 8 - num_rows)))
    return degenerate_game(seed, eps, dims, num_base, copies, num_weak, repeat_weak, num_slack)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_games())
# one pinned case per degenerate class, whatever else Hypothesis draws
@example(degenerate_game(101, 0.0, (1, 2), 1, copies=[(0, 1.0)]))  # repeated binding row
@example(degenerate_game(101, 1e-3, (1, 2), 1, copies=[(0, 1.0)]))
@example(degenerate_game(102, 0.0, (2, 1), 1, num_weak=1))  # weakly active orthogonal row
@example(degenerate_game(102, 1e-3, (2, 1), 1, num_weak=1))
@example(degenerate_game(103, 0.0, (1, 1), 1, num_slack=1))  # slack row
@example(degenerate_game(103, 1e-3, (1, 1), 1, num_slack=1))
def test_matches_enumeration_on_degenerate_games(case):
    game, eps = case
    a, lam, _ = enumerate_kkt(game, eps)
    sol = _solve(game, eps)
    assert np.linalg.norm(sol.primal.flat - a) <= 1e-10
    tight = np.abs(game.constraints.value(a)) <= 1e-9
    if eps > 0 or np.linalg.matrix_rank(game.constraints.K[tight]) == int(tight.sum()):
        assert np.linalg.norm(sol.dual - lam) <= 1e-10  # the multiplier is unique
    else:
        assert abs(np.linalg.norm(sol.dual) - np.linalg.norm(lam)) <= 1e-10


# -- regularized solutions ------------------------------------------------------


def test_regularized_continuity_limit(paper_game, paper_solution):
    sol = solve_regularized_vi(paper_game, 1e-8)
    assert np.linalg.norm(sol.primal.flat - paper_solution.primal.flat) <= 1e-6
    assert np.linalg.norm(sol.dual - paper_solution.dual) <= 1e-6


def test_regularized_paper_game_closed_form(paper_game):
    # on the active branch the solution is a = [0, 1/(1+eps)], lam = 1/(1+eps)
    for eps in (0.5, 0.1, 0.01):
        sol = solve_regularized_vi(paper_game, eps)
        assert sol.primal.flat == pytest.approx([0.0, 1.0 / (1.0 + eps)], abs=1e-12)
        assert sol.dual == pytest.approx([1.0 / (1.0 + eps)], abs=1e-12)
        # dual stationarity on the active set: (K a - l)_j = eps lam_j
        g = paper_game.constraints.value(sol.primal.flat)
        assert g[0] == pytest.approx(eps * sol.dual[0], abs=1e-12)


def test_regularized_gap_bound_paper(paper_game, paper_solution):
    nu, L = paper_game.nu(), paper_game.lipschitz()
    norm_K = np.linalg.norm(paper_game.constraints.K, 2)
    lam_norm = np.linalg.norm(paper_solution.dual)
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        sol = solve_regularized_vi(paper_game, eps)
        gap = np.linalg.norm(sol.primal.flat - paper_solution.primal.flat)
        assert gap <= eps * lam_norm * L / (norm_K * nu) + 1e-12


def test_regularized_rejects_nonpositive_eps(paper_game):
    with pytest.raises(ValueError):
        solve_regularized_vi(paper_game, 0.0)
    with pytest.raises(ValueError):
        solve_vi_extragradient(paper_game, -0.5)


def test_one_solution_type_carries_epsilon(paper_game, paper_solution):
    assert type(paper_solution) is OracleSolution
    assert paper_solution.epsilon == 0.0
    for solve in (solve_regularized_vi, solve_vi_extragradient):
        sol = solve(paper_game, 1e-3)
        assert type(sol) is OracleSolution
        assert sol.epsilon == 1e-3
        assert not sol.primal.flat.flags.writeable


def test_extragradient_copies_its_blocks_out_of_the_iterate():
    sol = solve_vi_extragradient(random_quadratic_game(4, dims=[2] * 3, num_constraints=3), 1e-3)
    primal, dual = sol.primal.flat, sol.dual
    assert not primal.flags.writeable
    # each block owns its buffer, so no writable view of the stacked iterate
    # reaches the read-only primal
    assert primal.base is None and dual.base is None
    assert not np.may_share_memory(primal, dual)


# solve_vi_extragradient's evaluations of the extended operator at its default
# tol, the same whether the iterate is held as separate (a, lam) blocks or
# stacked, and whether the operator calls the game's pseudo-gradient or holds
# its affine part: a change to the step rule or the stopping rule moves a count
@pytest.mark.parametrize("build, eps, calls", [
    (paper_example, 0.1, 196),
    (lambda: random_quadratic_game(2, dims=[2] * 12, num_constraints=2), 1e-3, 1734),
    (lambda: random_quadratic_game(6, dims=[2] * 12, num_constraints=6), 1e-3, 452),
    (lambda: random_quadratic_game(12, dims=[2] * 12, num_constraints=12), 1e-3, 485),
    (lambda: softplus_game(0), 0.1, 145),
], ids=["paper-example", "random-n2", "random-n6", "random-n12", "softplus-0"])
def test_extragradient_pseudo_gradient_calls_are_pinned(monkeypatch, build, eps, calls):
    game = build()
    operator, count = oracles._operator, [0]

    def counted_operator(game, eps):
        F = operator(game, eps)

        def counted(z):
            count[0] += 1
            return F(z)

        return counted

    monkeypatch.setattr(oracles, "_operator", counted_operator)
    solve_vi_extragradient(game, eps)
    assert count[0] == calls


def _allocating_fbf(game, eps, tol=1e-8):
    """solve_vi_extragradient's loop with a new array per step: (z, F(z), F calls).

    The solver runs the same steps on buffers allocated once per solve; this
    copy of the loop as written before pins that its answers stay bit-equal.
    """
    K = game.constraints.K
    D, n = game.D, K.shape[0]
    tau0 = 1.0 / (2.0 * (game.lipschitz() + float(np.linalg.norm(K, 2)) + eps))
    tau, F, calls = oracles._STEP_START * tau0, _operator(game, eps), 0
    lo = np.concatenate([np.full(D, -np.inf), np.zeros(n)])
    z = np.zeros(D + n)
    for _ in range(oracles._MAX_ITER):
        Fz = F(z)
        calls += 1
        d = z - np.maximum(z - tau0 * Fz, lo)
        da, dlam = d[:D], d[D:]
        if math.sqrt(da @ da) + math.sqrt(dlam @ dlam) <= tol * tau0:
            return z, Fz, calls
        while True:
            y = np.maximum(z - tau * Fz, lo)
            dF = F(y) - Fz
            calls += 1
            dz = y - z
            if tau * tau * (dF @ dF) <= oracles._STEP_THETA ** 2 * (dz @ dz):
                break
            tau *= oracles._STEP_SHRINK
        z = np.maximum(y - tau * dF, lo)
        tau *= oracles._STEP_GROW
    raise AssertionError("the allocating loop did not converge")


@pytest.mark.parametrize("build, eps", [
    (paper_example, 0.1),
    (lambda: softplus_game(0), 0.1),
    *[(lambda n=n: random_quadratic_game(n, dims=[2] * 12, num_constraints=n), 1e-3)
      for n in range(2, 13)],
], ids=["paper-example", "softplus-0", *[f"random-n{n}" for n in range(2, 13)]])
def test_extragradient_buffers_match_the_allocating_loop(monkeypatch, build, eps):
    game = build()
    D, n = game.D, game.constraints.num_constraints
    z, Fz, calls = _allocating_fbf(game, eps)
    count = [0]

    def counted_operator(game, eps):
        F = _operator(game, eps)

        def counted(z):
            count[0] += 1
            return F(z)

        return counted

    monkeypatch.setattr(oracles, "_operator", counted_operator)
    sol = solve_vi_extragradient(game, eps)
    assert count[0] == calls
    assert np.array_equal(sol.primal.flat, z[:D]) and np.array_equal(sol.dual, z[D:])
    assert sol.stationarity_residual == float(np.linalg.norm(Fz[:D]))
    assert sol.complementarity_residual == (float(np.max(np.abs(z[D:] * Fz[D:]))) if n else 0.0)


def test_extragradient_calls_no_pseudo_gradient_on_a_quadratic_game():
    # the operator holds P and q itself, so a quadratic game is never called
    game = paper_example()
    exact = solve_regularized_vi(game, 0.1).primal.flat

    def fail(points):
        raise AssertionError("pseudo_gradient called")

    game.pseudo_gradient = fail
    sol = solve_vi_extragradient(game, 0.1)
    assert np.linalg.norm(sol.primal.flat - exact) <= 1e-5 * (1.0 + np.linalg.norm(exact))


_BAD_EPS = [float("nan"), float("inf")]
_BAD_TOL = [0.0, -1.0, float("nan"), float("inf"), True, "1e-3"]


@pytest.mark.parametrize("solve, kw", [
    *[(solve_vgne, dict(tol=tol)) for tol in _BAD_TOL],
    *[(solve_regularized_vi, dict(eps=eps)) for eps in _BAD_EPS],
    *[(solve_regularized_vi, dict(eps=0.1, tol=tol)) for tol in _BAD_TOL],
    *[(solve_vi_extragradient, dict(eps=eps)) for eps in _BAD_EPS],
    *[(solve_vi_extragradient, dict(eps=0.1, tol=tol)) for tol in _BAD_TOL],
], ids=lambda x: x.__name__ if callable(x) else ",".join(f"{k}={v}" for k, v in x.items()))
def test_solvers_reject_bad_eps_tol_and_max_iter(paper_game, solve, kw):
    with pytest.raises(ValueError, match="must be"):
        solve(paper_game, **kw)


def test_extragradient_cross_validates_active_set(random_games):
    for game in random_games:
        exact = solve_regularized_vi(game, 0.1)
        approx = solve_vi_extragradient(game, 0.1, tol=1e-10)
        gap = (np.linalg.norm(exact.primal.flat - approx.primal.flat)
               + np.linalg.norm(exact.dual - approx.dual))
        assert gap <= 1e-8


def test_extragradient_works_on_nonquadratic():
    game = softplus_game(0)
    sol = solve_vi_extragradient(game, 0.1, tol=1e-9)
    assert sol.stationarity_residual <= 1e-6 and sol.complementarity_residual <= 1e-6
    assert np.all(sol.dual >= 0)


def test_extragradient_tolerance_is_the_reference_step_residual(random_games):
    # tol bounds the fixed-point residual at the reference step
    # tau0 = 1 / (2 (L + ||K|| + eps)), whatever steps the iteration takes
    for game, eps in [(game, 1e-3) for game in random_games] + [(softplus_game(0), 0.1)]:
        tau0 = 1.0 / (2.0 * (game.lipschitz() + np.linalg.norm(game.constraints.K, 2) + eps))
        for tol in (1e-8, 1e-10):
            sol = solve_vi_extragradient(game, eps, tol=tol)
            a, lam = sol.primal.flat, sol.dual
            F = extended_pseudo_gradient(game, a, lam, eps)
            residual = (np.linalg.norm(a - (a - tau0 * F[:game.D]))
                        + np.linalg.norm(lam - np.maximum(lam - tau0 * F[game.D:], 0.0)))
            # the slack covers a recomputation in another summation order
            assert residual <= tol * tau0 * (1.0 + 1e-9)
            if isinstance(game, QuadraticGame):
                # the benchmark's agreement gate: 1e-5 relative to 1 + ||a_exact||
                exact = solve_regularized_vi(game, eps).primal.flat
                assert np.linalg.norm(a - exact) <= 1e-5 * (1.0 + np.linalg.norm(exact))


class _NaNGame(QuadraticGame):
    def _nonaffine_gradient(self, x):
        return np.full(np.shape(x), np.nan)


class _JumpGame(QuadraticGame):
    """Pseudo-gradient plus 10 sign(a): monotone, but not Lipschitz at a = 0."""

    def _nonaffine_gradient(self, x):
        return np.where(x > 0, 10.0, -10.0)


@pytest.mark.parametrize("build, max_iter, match", [
    (_NaNGame, oracles._MAX_ITER, "non-finite"),
    (_JumpGame, oracles._MAX_ITER, "step fell below"),
    (QuadraticGame, 3, "within 3 iterations"),
], ids=["nan-operator", "step-floor", "max-iter"])
def test_extragradient_stops_with_solver_error(paper_game, monkeypatch, build, max_iter, match):
    game = build(paper_game.A, paper_game.b, paper_game.constraints)
    monkeypatch.setattr(oracles, "_MAX_ITER", max_iter)
    with pytest.raises(SolverError, match=match):
        solve_vi_extragradient(game, 0.1)


def test_drift_ratios_bounded_along_schedule(paper_game):
    from gnezero.diagnostics import path_drift_ratios

    ts = np.arange(1, 201)
    eps_path = ts.astype(float) ** (-2.0 / 7.0)
    r_primal, r_dual = path_drift_ratios(paper_game, eps_path)
    for ratios in (r_primal, r_dual):
        assert np.max(ratios) <= 10.0 * np.median(ratios)


# the schedule path eps_t = t^(-2/7), t = 1..200, as drift_spread_report builds it
_SCHEDULE_EPS = 1.0 / np.arange(1, 201).astype(float) ** (2.0 / 7.0)
_PATH_GAMES = {
    "paper-example": paper_example,
    "random-D24-n12": lambda: random_quadratic_game(7, dims=[2] * 12, num_constraints=12),
    # its active set changes once along the schedule path
    "random-D12-n4": lambda: random_quadratic_game(3, dims=[2] * 6, num_constraints=4),
}


@pytest.mark.parametrize("name", sorted(_PATH_GAMES))
def test_regularized_path_equals_single_solves(name):
    game = _PATH_GAMES[name]()
    path = solve_regularized_path(game, _SCHEDULE_EPS)
    assert len(path) == len(_SCHEDULE_EPS)
    for eps, sol in zip(_SCHEDULE_EPS, path):
        single = solve_regularized_vi(game, eps)
        assert sol.epsilon == single.epsilon == eps
        assert np.array_equal(sol.primal.flat, single.primal.flat)
        assert np.array_equal(sol.dual, single.dual)
        assert sol.active_set == single.active_set
        assert sol.stationarity_residual == single.stationarity_residual
        assert sol.complementarity_residual == single.complementarity_residual


def test_regularized_path_starts_a_group_where_the_active_set_changes():
    path = solve_regularized_path(_PATH_GAMES["random-D12-n4"](), _SCHEDULE_EPS, tol=1e-10)
    assert len({sol.active_set for sol in path}) >= 2
    for sol in path:
        assert sol.stationarity_residual <= 1e-10
        assert sol.complementarity_residual <= 1e-10


@pytest.mark.parametrize("name", sorted(_PATH_GAMES))
def test_path_residuals_equal_the_per_solution_norms(name):
    # the verifier checks a group as one stack, with one gemv or dot call per
    # row, so every residual is bit-equal to the one computed on its
    # solution alone; a product like A @ K.T rounds differently
    game = _PATH_GAMES[name]()
    P, q, K, l = game.P, game.q, game.constraints.K, game.constraints.l
    for sol in [*solve_regularized_path(game, _SCHEDULE_EPS), solve_vgne(game)]:
        a, lam, eps = sol.primal.flat, sol.dual, sol.epsilon
        assert sol.stationarity_residual == np.linalg.norm(P @ a + q + K.T @ lam)
        assert sol.complementarity_residual == np.max(np.abs(lam * (K @ a - l - eps * lam)))


@pytest.mark.parametrize("name", sorted(_PATH_GAMES))
def test_regularized_path_names_the_first_eps_over_tol(name):
    game = _PATH_GAMES[name]()
    path = solve_regularized_path(game, _SCHEDULE_EPS)
    # the largest residual up to each eps, and its positive values
    worst = np.maximum.accumulate([max(s.stationarity_residual, s.complementarity_residual)
                                   for s in path])
    levels = np.unique(worst[worst > 0.0])
    assert len(levels) >= 2
    for tol in (levels[0] / 2, levels[0]):
        eps = path[int(np.argmax(worst > tol))].epsilon  # the first eps over tol
        with pytest.raises(SolverError, match=re.escape(f"at eps={eps:g} exceed tol={tol:g}")):
            solve_regularized_path(game, _SCHEDULE_EPS, tol=tol)


@pytest.mark.parametrize("name", sorted(_PATH_GAMES))
def test_drift_ratios_equal_the_per_pair_loop(name):
    from gnezero.diagnostics import _drift_ratios

    eps = [float(e) for e in _SCHEDULE_EPS]
    eps.insert(5, eps[5])  # one equal pair: zero drift by convention
    sols = solve_regularized_path(_PATH_GAMES[name](), eps)
    ref_primal, ref_dual = [], []
    for prev, cur, e_prev, e_cur in zip(sols, sols[1:], eps, eps[1:]):
        de = e_cur - e_prev
        da = float(np.sum((cur.primal.flat - prev.primal.flat) ** 2))
        dl = float(np.sum((cur.dual - prev.dual) ** 2))
        ref_primal.append(da * e_cur / de**2 if de else 0.0)
        ref_dual.append(dl * e_cur**2 / de**2 if de else 0.0)
    r_primal, r_dual = _drift_ratios(sols, eps)
    assert r_primal.tolist() == ref_primal
    assert r_dual.tolist() == ref_dual


@pytest.mark.parametrize("grid", [[0.1, 0.1], [1e-4, 1e-3, 1e-2, 1e-1, 1.0]])
def test_regularized_path_repeated_and_increasing_grids(paper_game, grid):
    path = solve_regularized_path(paper_game, grid)
    assert [sol.epsilon for sol in path] == grid
    for eps, sol in zip(grid, path):
        assert np.array_equal(sol.primal.flat, solve_regularized_vi(paper_game, eps).primal.flat)
    if grid[0] == grid[1]:
        assert np.array_equal(path[0].dual, path[1].dual)


def test_regularized_path_of_no_eps_is_empty(paper_game):
    assert solve_regularized_path(paper_game, []) == []


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_regularized_path_checks_every_eps_before_any_solve(paper_game, monkeypatch, bad):
    import gnezero.lcp
    import gnezero.oracles

    calls = []

    def counted(*args):
        calls.append(args)
        return gnezero.lcp._lemke(*args)

    monkeypatch.setattr(gnezero.oracles, "_lemke", counted)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        solve_regularized_path(paper_game, [0.1, 0.01, bad, 0.001])
    assert calls == []
    solve_regularized_path(paper_game, [0.1])  # the wrapper is the one in use
    assert len(calls) == 1
