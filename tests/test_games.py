import json
import pickle
import threading

import numpy as np
import pytest

from gnezero import diagnostics as diag
from gnezero import games
from gnezero.diagnostics import _BLOCK, SmoothingProbe, estimator_second_moment
from gnezero.games import (
    ConstraintSet,
    DimensionMismatchError,
    GameConfigError,
    GameSpec,
    InfeasibleConstraintsError,
    QuadraticGame,
    SoftplusQuadraticGame,
    builtin_game,
    game_from_config,
    load_game,
    paper_example,
    probe_lipschitz,
    probe_monotonicity,
    random_quadratic_game,
    softplus_game,
)
from gnezero.lcp import SolverError, _lemke
from gnezero.oracles import solve_regularized_vi, solve_vgne

from conftest import central_difference_gradient


def make_isotropic_game(scale=2.0):
    # two scalar players, J^i = scale/2 * (a^i)^2, so M(a) = scale * a
    A = np.stack([np.diag([scale, 0.0]), np.diag([0.0, scale])])
    b = np.zeros((2, 2))
    return QuadraticGame(A, b, ConstraintSet([[1.0, 1.0]], [10.0]))


# -- cost evaluation ----------------------------------------------------------


def test_cost_paper_game_hand_values(paper_game):
    # 3/2 * 1^2 + 1 * 1 = 2.5
    assert float(paper_game.costs_at([1.0, 1.0])[0, 0]) == pytest.approx(2.5, abs=1e-14)
    assert float(paper_game.costs_at([0.0, 0.0])[0, 1]) == 0.0


def test_cost_matches_bruteforce_summation():
    rng = np.random.default_rng(5)
    game = random_quadratic_game(21)
    for _ in range(20):
        a = rng.normal(size=game.D)
        for i in range(game.num_players):
            # independent elementwise summation of 0.5 a'A a + b'a
            expected = 0.0
            for j in range(game.D):
                for k in range(game.D):
                    expected += 0.5 * a[j] * game.A[i][j, k] * a[k]
                expected += game.b[i][j] * a[j]
            assert float(game.costs_at(a)[0, i]) == pytest.approx(expected, rel=1e-12)


def test_cost_dimension_mismatch_is_structured(paper_game):
    with pytest.raises(DimensionMismatchError) as exc:
        paper_game.costs_at([1.0, 2.0, 3.0])
    assert exc.value.expected == 2
    assert exc.value.given == 3
    for shape in [(2, 2, 2), (4, 1, 2)]:
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}, {shape[2]}\)"):
            paper_game.costs_at(np.zeros(shape))


# -- the Monte Carlo pass's row blocks ------------------------------------------


@pytest.fixture
def four_cpus(monkeypatch):
    """Spread the pass's blocks over four worker threads, whatever this machine has."""
    assert diag._available_cpus() >= 1
    monkeypatch.setattr(diag, "_available_cpus", lambda: 4)


BLOCK_TEST_GAMES = {
    "paper": paper_example,
    "softplus": lambda: softplus_game(0),
    "random-D5": lambda: random_quadratic_game(4, dims=(2, 1, 2), num_constraints=2),
    "random-D24": lambda: random_quadratic_game(3, dims=[2] * 12, num_constraints=4),
}


def two_probes(game, num_samples):
    """Two probes on one draw stream, at different points and spreads."""
    rng = np.random.default_rng(num_samples)
    mu = rng.normal(scale=0.5, size=game.D)
    lam = np.abs(rng.normal(scale=0.5, size=game.constraints.num_constraints))
    return [SmoothingProbe(mu, lam, 0.3, num_samples, seed=7),
            SmoothingProbe(2.0 * mu, 2.0 * lam, 0.1, num_samples, seed=7)]


@pytest.mark.parametrize("name", ["paper", "softplus", "random-D5"])
def test_thread_count_does_not_change_the_sums(monkeypatch, name):
    # a full chunk in twelve blocks, then a short one in four; the caller
    # adds the block sums in block order, whichever thread made them
    game = BLOCK_TEST_GAMES[name]()
    probes = two_probes(game, diag._CHUNK + 3 * _BLOCK + 17)
    sums = []
    for cpus in (1, 4):
        monkeypatch.setattr(diag, "_available_cpus", lambda: cpus)
        sums.append(diag._moments(game, probes))
    for got, want in zip(*sums, strict=True):
        assert np.array_equal(got, want)


def one_block_estimates(game, probes):
    """Every player's estimates, then the dual term K (-sigma xi), from the pass's draws:
    (k, blocks) per chunk and probe, each chunk evaluated in one piece on its
    transpose, rows innermost, with the column costs and the multiplier term
    of PayoffEnvironment._lagrangian."""
    K, l = game.constraints.K, game.constraints.l

    def payoffs(X, lam):
        return game._costs(X, True) + (((K @ X).T - l) @ lam[:, None]).T

    u_mu = [payoffs(p.mu[:, None], p.lam)[:, 0] for p in probes]
    for xi in diag._draws(probes[0].seed, probes[0].num_samples, game.D):
        xi = np.ascontiguousarray(xi.T)
        for k, p in enumerate(probes):
            X = p.mu[:, None] + p.sigma * xi
            U = payoffs(X, p.lam)
            yield k, [(U[i] - u_mu[k][i]) * (X[sl] - p.mu[sl, None]) / (p.sigma * p.sigma)
                      for i, sl in enumerate(game.slices)] + [K @ (-p.sigma * xi)]


def assert_pass_equals_one_block(game, probes):
    """_moments equals the one-piece estimates and dual terms reduced over the pass's
    row blocks, in order, each block's sums taken along its rows."""
    width = game.D + game.constraints.num_constraints
    columns = [*game.slices, slice(game.D, width)]
    sum_m = np.zeros((len(probes), width))
    sumsq_m = np.zeros((len(probes), width))
    for k, blocks in one_block_estimates(game, probes):
        size = blocks[0].shape[1]
        edges = [i * _BLOCK for i in range(max(1, size // _BLOCK))] + [size]
        for a, b in zip(edges, edges[1:]):
            for sl, m in zip(columns, blocks, strict=True):
                sum_m[k, sl] += m[:, a:b].sum(axis=1)
                sumsq_m[k, sl] += np.einsum("jk,jk->j", m[:, a:b], m[:, a:b])
    got_sum, got_sumsq = diag._moments(game, probes)
    assert np.array_equal(got_sum, sum_m)
    assert np.array_equal(got_sumsq, sumsq_m)


@pytest.mark.parametrize("rows", [2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK + 17])
@pytest.mark.parametrize("name", sorted(BLOCK_TEST_GAMES))
def test_blocked_costs_equal_one_shot_costs(four_cpus, name, rows):
    # a one-row last block would go through gemv and round differently
    game = BLOCK_TEST_GAMES[name]()
    assert_pass_equals_one_block(game, two_probes(game, rows))


@pytest.mark.parametrize("name", ["paper", "softplus", "random-D5"])
def test_blocked_pass_ends_in_a_one_row_chunk(four_cpus, name):
    # a full 1e5-row chunk in twelve blocks, then a one-row chunk in one;
    # random-D24 is left out: its one-piece reference chunk alone would
    # take a 230 MB (N, D, rows) temporary
    game = BLOCK_TEST_GAMES[name]()
    assert_pass_equals_one_block(game, two_probes(game, diag._CHUNK + 1))


def fail_on_the_last_block(game):
    """Make game's costs raise on a block of _BLOCK + 17 rows, the last of 3 * _BLOCK + 17."""
    costs = game._costs

    def fails_on_marked_rows(points, columns):
        if points.shape[1] == _BLOCK + 17:  # the pass evaluates (D, rows) columns
            raise RuntimeError("marked block")
        return costs(points, columns)

    game._costs = fails_on_marked_rows
    return game


def test_blocked_costs_leave_no_thread_behind(four_cpus, paper_game):
    before = threading.active_count()
    estimator_second_moment(paper_game, two_probes(paper_game, 3 * _BLOCK)[0])
    assert threading.active_count() == before
    # a full first chunk, then a failing block in the second
    probe = two_probes(paper_game, diag._CHUNK + 3 * _BLOCK + 17)[0]
    with pytest.raises(RuntimeError, match="marked block"):
        estimator_second_moment(fail_on_the_last_block(paper_example()), probe)
    assert threading.active_count() == before


def test_blocked_costs_raise_a_block_error(four_cpus):
    game = fail_on_the_last_block(paper_example())
    with pytest.raises(RuntimeError, match="marked block"):
        estimator_second_moment(game, two_probes(game, 3 * _BLOCK + 17)[0])


@pytest.mark.parametrize("rows", [10, 3 * _BLOCK])
def test_blocked_costs_keep_the_callers_errstate(four_cpus, paper_game, rows):
    # the mean's costs are zero; only the sampled rows, on the workers, overflow
    probe = SmoothingProbe(mu=[0.0, 0.0], lam=[0.0], sigma=1e200, num_samples=rows)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        estimator_second_moment(paper_game, probe)


# -- the column costs of the Monte Carlo pass ------------------------------------
# _costs(points, True) takes the transpose (D, P) and returns (N, P).


def product_and_sum_costs(game, X):
    """Every player's cost from the quadratic form as one elementwise product and sum."""
    AX3 = (X @ game._A_flat.T).reshape(X.shape[0], game.num_players, game.D)
    costs = 0.5 * (AX3 * X[:, None, :]).sum(axis=2) + X @ game.b.T
    if isinstance(game, SoftplusQuadraticGame):
        costs += game.delta * games._softplus(X @ game.W.T, game.beta) ** 2
    return costs


def column_costs(game, X):
    """game's column costs at the rows of X, as (P, N)."""
    return game._costs(np.ascontiguousarray(X.T), True).T


@pytest.mark.parametrize("rows", [1, 2, 10, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17])
@pytest.mark.parametrize("name", sorted(BLOCK_TEST_GAMES))
def test_default_costs_are_the_product_and_sum(name, rows):
    game = BLOCK_TEST_GAMES[name]()
    X = np.random.default_rng(rows).normal(scale=2.0, size=(rows, game.D))
    assert np.array_equal(game.costs_at(X), product_and_sum_costs(game, X))


@pytest.mark.parametrize("rows", [2, 10, _BLOCK, 3 * _BLOCK + 17])
@pytest.mark.parametrize("name", ["paper", "softplus"])
def test_column_costs_in_two_dimensions_equal_the_product_and_sum(name, rows):
    # the same products, and numpy adds a point's two terms once either way
    game = BLOCK_TEST_GAMES[name]()
    X = np.random.default_rng(rows).normal(scale=2.0, size=(rows, game.D))
    assert np.array_equal(column_costs(game, X), product_and_sum_costs(game, X))


@pytest.mark.parametrize("name", ["random-D5", "random-D24"])
def test_column_costs_in_more_dimensions_match_the_product_and_sum(name):
    # up to D = 7 numpy sums a row's D terms in order, as the column sum does:
    # the costs are equal. At D >= 8 a row sum is pairwise; measure the error
    # against the size of the summed terms, since a cost near zero can be a
    # sum of large terms.
    game = BLOCK_TEST_GAMES[name]()
    X = np.random.default_rng(5).normal(scale=2.0, size=(3 * _BLOCK + 17, game.D))
    if game.D <= 7:
        assert np.array_equal(column_costs(game, X), product_and_sum_costs(game, X))
    AX3 = (X @ game._A_flat.T).reshape(X.shape[0], game.num_players, game.D)
    magnitude = 0.5 * np.abs(AX3 * X[:, None, :]).sum(axis=2) + np.abs(X) @ np.abs(game.b.T)
    error = np.abs(column_costs(game, X) - product_and_sum_costs(game, X))
    assert np.all(error <= 1e-12 * magnitude)


@pytest.mark.parametrize("name", sorted(BLOCK_TEST_GAMES))
def test_column_costs_do_not_depend_on_the_batch(name):
    # rows 2 and 3 overflow. Like the pass's block edges, the cuts fall at
    # multiples of 8 columns: a BLAS gemm may round a batch's last
    # (columns mod 8) columns in another kernel (OpenBLAS does at D >= 16),
    # here the last 3 of the last part either way.
    game = BLOCK_TEST_GAMES[name]()
    X = np.random.default_rng(1).normal(scale=2.0, size=(_BLOCK + 3, game.D))
    X[2:4] *= 1e200
    with np.errstate(all="ignore"):
        whole = column_costs(game, X)
        parts = [column_costs(game, X[a:b])
                 for a, b in [(0, 8), (8, 16), (16, 24), (24, _BLOCK + 3)]]
    assert np.array_equal(whole, np.concatenate(parts), equal_nan=True)


def test_column_costs_report_an_overflow_under_the_callers_errstate(paper_game):
    X = np.random.default_rng(0).normal(size=(3 * _BLOCK, 2))
    X[_BLOCK:2 * _BLOCK] *= 1e200  # only the middle rows overflow
    with np.errstate(all="ignore"):
        expected = product_and_sum_costs(paper_game, X)
    assert np.isinf(expected[_BLOCK:2 * _BLOCK]).any()
    with pytest.warns(RuntimeWarning) as caught:
        costs = column_costs(paper_game, X)
    assert any("overflow" in str(w.message) for w in caught)
    np.testing.assert_array_equal(costs, expected)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        column_costs(paper_game, X)


@pytest.mark.parametrize("rows", [10, 3 * _BLOCK])
def test_the_pass_reports_an_underflow_that_leaves_the_costs_finite(four_cpus, paper_game, rows):
    # x'A x underflows to 0 at points of size 1e-200, a finite cost
    X = np.full((rows, 2), 1e-200)
    assert np.all(column_costs(paper_game, X) == 0.0)
    probe = SmoothingProbe(mu=[0.0, 0.0], lam=[0.0], sigma=1e-200, num_samples=rows)
    with np.errstate(under="raise"):
        for costs in (paper_game.costs_at, lambda X: column_costs(paper_game, X)):
            with pytest.raises(FloatingPointError):
                costs(X)
        # a worker's costs raise, before its estimates underflow as well
        with pytest.raises(FloatingPointError) as caught:
            estimator_second_moment(paper_game, probe)
    assert "_costs" in [entry.name for entry in caught.traceback]


# -- pseudo-gradient ----------------------------------------------------------


def test_pseudo_gradient_paper_game_hand_diff(paper_game):
    # dJ1/da1 = 3 a1 + a2 = 1, dJ2/da2 = a2 - a1 = 1 at a = [0, 1]
    assert paper_game.pseudo_gradient([0.0, 1.0]) == pytest.approx([1.0, 1.0])


def test_pseudo_gradient_identity_map():
    A = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    game = QuadraticGame(A, np.zeros((2, 2)), ConstraintSet([[1.0, 1.0]], [10.0]))
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=2)
        assert game.pseudo_gradient(a) == pytest.approx(a)


def test_pseudo_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for seed in (31, 32):
        game = random_quadratic_game(seed)
        a = rng.normal(size=game.D)
        exact = game.pseudo_gradient(a)
        fd = np.empty(game.D)
        for i, sl in enumerate(game.slices):
            fd[sl] = central_difference_gradient(lambda x: float(game.costs_at(x)[0, i]), a)[sl]
        assert np.max(np.abs(exact - fd)) <= 1e-6 * (1.0 + np.max(np.abs(exact)))


@pytest.mark.parametrize("build", [
    paper_example,
    lambda: random_quadratic_game(4, dims=(2, 1, 2), num_constraints=2),
    lambda: softplus_game(0),
], ids=["paper-example", "random-quadratic-4", "softplus-0"])
def test_pseudo_gradient_batch_rows_match_single_points(build):
    game = build()
    X = np.random.default_rng(12).normal(scale=2.0, size=(100, game.D))
    batch = game.pseudo_gradient(X)
    singles = np.stack([game.pseudo_gradient(x) for x in X])
    assert batch.shape == X.shape
    # a batch goes through a matrix-matrix product, a point through a
    # matrix-vector one, so rows may differ in the last bits of a D-term sum
    tol = 4 * game.D * np.finfo(float).eps * np.abs(singles).max()
    assert np.max(np.abs(batch - singles)) <= tol
    for wrong in (np.zeros(game.D + 1), np.zeros((3, game.D - 1))):
        with pytest.raises(DimensionMismatchError):
            game.pseudo_gradient(wrong)


@pytest.mark.parametrize("seed", range(4))
def test_softplus_pseudo_gradient_keeps_the_per_block_formula(seed):
    # the reference formula, bit for bit: P x + q, then block i's ridge
    # term delta_i (softplus_beta^2)'(w_i' x) w_i added in place, on the
    # package's one softplus kernel
    game = softplus_game(seed)
    X = np.random.default_rng(seed).normal(scale=2.0, size=(1000, game.D))
    X[:10] *= 1e-3  # near the ridge, where its curvature sits
    for x in (X, X[0], X[500]):
        expected = x @ game.P.T + game.q
        u = x @ game.W.T
        hp = 2.0 * games._softplus(u, game.beta) * (0.5 * (1.0 + np.tanh(0.5 * game.beta * u)))
        for i, sl in enumerate(game.slices):
            expected[..., sl] += game.delta[i] * hp[..., i:i + 1] * game.W[i, sl]
        assert np.array_equal(game.pseudo_gradient(x), expected)


def _ulps(a, b):
    """Distance in units in the last place between same-signed finite doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("beta", [1.0, 3.0, 400.0])
def test_softplus_is_within_4_ulp_of_logaddexp(beta):
    z = np.concatenate([np.linspace(-800.0, 800.0, 400_001)]
                       + [np.linspace(c - 1e-3, c + 1e-3, 2_001) for c in (0.0, -37.0, 37.0)]
                       + [np.linspace(c - 1.0, c + 1.0, 2_001) for c in (-745.0, 745.0)])
    u = z / beta
    with np.errstate(under="ignore"):
        got = games._softplus(u, beta)
        reference = np.logaddexp(0.0, beta * u) / beta
    assert got.shape == u.shape
    assert _ulps(got, reference).max() <= 4


def test_softplus_special_values():
    beta = 400.0
    u = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
    with np.errstate(all="raise"):
        got = games._softplus(u, beta)
    assert got[0] == np.inf
    assert got[1] == 0.0
    assert np.isnan(got[2])
    assert got[3] == got[4] == np.log(2.0) / beta


@pytest.mark.parametrize("build", [paper_example, lambda: softplus_game(0)],
                         ids=["quadratic", "softplus"])
def test_costs_of_a_nan_row_are_nan_without_a_signal(build):
    # a NaN entry gives NaN costs on its row and raises nothing, in both
    # families; an infinite entry still raises through the quadratic part
    game = build()
    X = np.random.default_rng(0).normal(size=(4, game.D))
    expected = game.costs_at(X)
    X[1, 0] = np.nan
    with np.errstate(invalid="raise"):
        got = game.costs_at(X)
    assert np.isnan(got[1]).all()
    assert np.array_equal(np.delete(got, 1, axis=0), np.delete(expected, 1, axis=0))
    for value in (np.inf, -np.inf):
        X[1, 0] = value
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            game.costs_at(X)


# -- constraints --------------------------------------------------------------


def test_constraint_value_paper_cases(paper_game):
    assert paper_game.constraints.value([0.0, 1.0]) == pytest.approx([0.0])
    assert paper_game.constraints.value([1.0, 1.0]) == pytest.approx([-1.0])


def test_constraint_value_boundary_zero():
    cs = ConstraintSet([[2.0, 0.0], [0.0, 1.0]], [4.0, 3.0])
    # K a = l exactly on the boundary point
    assert cs.value([2.0, 3.0]) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_constraint_value_is_affine():
    cs = ConstraintSet([[1.0, -2.0, 0.5]], [0.3])
    rng = np.random.default_rng(3)
    for _ in range(20):
        a1, a2 = rng.normal(size=3), rng.normal(size=3)
        alpha = rng.random()
        mix = alpha * a1 + (1 - alpha) * a2
        assert cs.value(mix) == pytest.approx(alpha * cs.value(a1) + (1 - alpha) * cs.value(a2))


def test_constraint_matrix_is_kept_c_ordered():
    # random_quadratic_game's K is a transposed QR factor, Fortran-ordered
    K = np.asfortranarray(np.linalg.qr(np.random.default_rng(0).normal(size=(24, 4)))[0].T)
    assert not K.flags.c_contiguous
    cs = ConstraintSet(K, np.ones(4))
    assert cs.K.flags.c_contiguous and np.array_equal(cs.K, K)
    assert random_quadratic_game(3, dims=[2] * 12, num_constraints=4).constraints.K.flags.c_contiguous


def test_slater_violation_raises():
    # x <= 0 and x >= 1 cannot both hold
    with pytest.raises(InfeasibleConstraintsError):
        ConstraintSet([[1.0], [-1.0]], [0.0, -1.0])


@pytest.mark.parametrize("rows", [3, 8, 30])
def test_polygons_with_many_rows_build(rows):
    # every polygon keeps (5, -3) at margin 0.05; a numeric interior-point
    # search rejected most of them, more often the more rows they had
    rng = np.random.default_rng(rows)
    for _ in range(20):
        K = rng.standard_normal((rows, 2))
        ConstraintSet(K, K @ [5.0, -3.0] + 0.05)


@pytest.mark.parametrize("gap", [0.5, 0.0], ids=["empty", "no-interior"])
@pytest.mark.parametrize("seed", range(5))
def test_sets_with_an_infeasibility_certificate_raise(seed, gap):
    # y >= 0 with K'y = 0 and l'y = -gap <= 0: summing y_j (K a - l)_j gives
    # l'y >= 0 for a feasible a, and l'y > 0 for a strictly feasible one
    rng = np.random.default_rng(seed)
    n, D = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    y = rng.uniform(0.1, 1.0, size=n)
    K = rng.standard_normal((n, D))
    K[-1] = -(y[:-1] @ K[:-1]) / y[-1]
    l = rng.standard_normal(n)
    l[-1] = -(y[:-1] @ l[:-1] + gap) / y[-1]
    assert np.allclose(y @ K, 0.0) and y @ l == pytest.approx(-gap)
    with pytest.raises(InfeasibleConstraintsError):
        ConstraintSet(K, l)


def test_zero_row_with_negative_offset_raises():
    # row 0 asks 0 <= -0.5
    with pytest.raises(InfeasibleConstraintsError):
        ConstraintSet([[0.0, 0.0], [1.0, 0.0]], [-0.5, 1.0])


def test_lemke_ray_carries_a_farkas_direction():
    # x <= -1 and -x <= 0: y = (1, 1) sums the rows to 0 <= -1
    K, r = np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0])
    with pytest.raises(SolverError, match="^complementary pivoting ended on a ray$") as err:
        _lemke(K @ K.T, r)
    y = err.value.ray
    assert y.shape == (2,) and games._is_farkas_vector(K, r, y)


# -x <= 1 and x <= 1 is feasible; each direction fails one of the three
# conditions: y >= 0, K'y = 0, (l - delta 1)'y < 0; None is the pivot cap
@pytest.mark.parametrize("ray", [np.array([-1.0, -1.0]), np.array([1.0, 0.0]),
                                 np.array([1.0, 1.0]), None],
                         ids=["negative", "K'y-nonzero", "l'y-positive", "no-ray"])
def test_a_ray_without_a_certificate_raises_solver_error(monkeypatch, ray):
    def failing_lemke(M, r):
        raise SolverError("complementary pivoting ended on a ray", ray=ray)

    monkeypatch.setattr(games, "_lemke", failing_lemke)
    with pytest.raises(SolverError, match="undecided: complementary pivoting failed") as err:
        ConstraintSet([[-1.0], [1.0]], [1.0, 1.0])
    assert not isinstance(err.value, InfeasibleConstraintsError)


def test_random_quadratic_game_draws_are_pinned():
    # the feasibility check draws nothing, so seeded games stay as they were
    game = random_quadratic_game(1)
    assert game.dims == (2, 2)
    assert game.constraints.l == pytest.approx(
        [-1.9319854865151025, -0.834017216605523, -1.126859425322022], rel=1e-12)
    assert game.q == pytest.approx(
        [-1.2273520542445742, -0.6832266617805622, -0.07204367972722743, -0.9447516230607774],
        rel=1e-12)


def test_empty_constraint_set_allowed():
    cs = ConstraintSet(np.zeros((0, 2)), np.zeros(0))
    assert cs.value([1.0, 2.0]).shape == (0,)


# -- probes -------------------------------------------------------------------


def test_probe_monotonicity_paper_game(paper_game):
    # symmetric part of [[3,1],[-1,1]] is diag(3,1), smallest eigenvalue 1
    est = probe_monotonicity(paper_game, 10_000, 3.0, seed=2)
    assert est > 0
    assert abs(est - 1.0) <= 0.1


def test_probe_monotonicity_isotropic():
    est = probe_monotonicity(make_isotropic_game(2.0), 2_000, 3.0, seed=0)
    assert est == pytest.approx(2.0, rel=1e-9)


def test_probe_monotonicity_flags_violation():
    A = np.stack([np.diag([-1.0, 0.0]), np.diag([0.0, 1.0])])
    # QuadraticGame rejects this A; a zero ridge keeps its costs quadratic, and
    # the ridge family has no monotonicity check of its own
    game = SoftplusQuadraticGame((1, 1), A, np.zeros((2, 2)), np.eye(2), np.zeros(2), 10.0,
                                 ConstraintSet([[1.0, 1.0]], [10.0]))
    est = probe_monotonicity(game, 2_000, 2.0, seed=0)
    assert est <= 0.0


def test_probe_lipschitz_values(paper_game):
    assert probe_lipschitz(make_isotropic_game(2.0), 2_000, 3.0, seed=0) == pytest.approx(2.0, rel=1e-9)
    # largest singular value of [[3,1],[-1,1]] is 1 + sqrt(5)
    est = probe_lipschitz(paper_game, 10_000, 3.0, seed=2)
    assert est == pytest.approx(1.0 + np.sqrt(5.0), rel=0.01)
    assert est <= 1.0 + np.sqrt(5.0) + 1e-9


def test_probes_reject_degenerate_sampling(paper_game):
    with pytest.raises(ValueError):
        probe_lipschitz(paper_game, 100, 0.0, seed=0)
    with pytest.raises(ValueError):
        probe_monotonicity(paper_game, 0, 1.0, seed=0)


def test_quadratic_monotonicity_inequality_on_pairs(random_games):
    rng = np.random.default_rng(11)
    for game in random_games[:4]:
        nu = game.nu()
        x1 = rng.normal(size=(1000, game.D))
        x2 = rng.normal(size=(1000, game.D))
        md = game.pseudo_gradient(x1) - game.pseudo_gradient(x2)
        diff = x1 - x2
        lhs = np.einsum("ij,ij->i", md, diff)
        rhs = nu * np.einsum("ij,ij->i", diff, diff)
        assert np.all(lhs >= rhs - 1e-10)


# -- joint actions -------------------------------------------------------------


def test_joint_action_immutable():
    ja = solve_vgne(paper_example()).primal
    with pytest.raises((ValueError, AttributeError)):
        ja.flat[0] = 9.0
    with pytest.raises(AttributeError):
        ja.flat = np.zeros(2)


# -- families and config --------------------------------------------------------


def test_quadratic_game_requires_monotone():
    A = np.stack([np.diag([-5.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(GameConfigError):
        QuadraticGame(A, np.zeros((2, 2)), ConstraintSet([[1.0, 1.0]], [10.0]))


def test_both_families_check_A_and_b():
    cs = ConstraintSet([[1.0, 1.0]], [10.0])
    A, b = paper_example().A, np.zeros((2, 2))
    for bad_A, bad_b in ((A[:, :, :1], b), (A, b[:, :1]), (A[:1], b[:1])):
        with pytest.raises(GameConfigError):
            QuadraticGame(bad_A, bad_b, cs, dims=(1, 1))
        with pytest.raises(GameConfigError):
            SoftplusQuadraticGame((1, 1), bad_A, bad_b, np.eye(2), np.ones(2), 10.0, cs)
    # the ridge: W and delta finite, delta >= 0 (a convex ridge), beta positive and finite
    W, delta = np.eye(2), np.ones(2)
    for bad, match in ((dict(W=[[np.nan, 0.0], [0.0, 1.0]]), "cost W has non-finite"),
                       (dict(delta=[1.0, np.inf]), "cost delta has non-finite"),
                       (dict(delta=[1.0, -5.0]), "cost delta must be >= 0")):
        with pytest.raises(GameConfigError, match=match):
            SoftplusQuadraticGame(**{"dims": (1, 1), "A": A, "b": b, "W": W, "delta": delta,
                                     "beta": 10.0, "constraints": cs, **bad})
    for beta in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            SoftplusQuadraticGame((1, 1), A, b, W, delta, beta, cs)
    # three coordinates do not split evenly between two players
    with pytest.raises(GameConfigError, match="cannot infer per-player dims"):
        QuadraticGame(np.zeros((2, 3, 3)), np.zeros((2, 3)),
                      ConstraintSet([[1.0, 1.0, 1.0]], [10.0]))


def test_random_quadratic_game_rejects_more_constraints_than_dimensions():
    with pytest.raises(GameConfigError, match="exceeds D=2"):
        random_quadratic_game(0, dims=[1, 1], num_constraints=3)
    assert random_quadratic_game(0, dims=[1, 1], num_constraints=2).constraints.num_constraints == 2


@pytest.mark.parametrize("kwargs, match", [
    (dict(dims=[1.5, 1.5]), "player dimension must be an integer >= 1, got 1.5"),
    (dict(dims=[1, 0]), "player dimension must be an integer >= 1, got 0"),
    (dict(dims=[1, 1], num_constraints=1.7), "num_constraints must be an integer >= 0"),
    (dict(dims=[1, 1], num_constraints=True), "num_constraints must be an integer >= 0"),
], ids=["fractional-dims", "zero-dim", "fractional-constraints", "bool-constraints"])
def test_random_quadratic_game_rejects_counts_that_are_not_integers(kwargs, match):
    # a fraction is not truncated to a smaller game
    with pytest.raises(ValueError, match=match):
        random_quadratic_game(0, **kwargs)


def test_random_quadratic_game_properties(random_games):
    for game in random_games:
        assert game.D <= 6
        assert game.constraints.num_constraints <= 3
        assert game.nu() > 0
        # orthogonal equal-norm constraint rows: K K' is a scaled identity
        K = game.constraints.K
        gram = K @ K.T
        assert gram == pytest.approx(gram[0, 0] * np.eye(K.shape[0]), abs=1e-10)


def test_softplus_game_monotone_and_nonquadratic():
    game = softplus_game(0)
    est = probe_monotonicity(game, 4_000, 2.0, seed=9)
    assert est > 0
    # pseudo-gradient is not affine: midpoint test
    a1 = np.array([0.5, -0.3])
    a2 = np.array([-0.4, 0.8])
    mid = 0.5 * (game.pseudo_gradient(a1) + game.pseudo_gradient(a2))
    assert not np.allclose(game.pseudo_gradient(0.5 * (a1 + a2)), mid, atol=1e-9)


def test_builtin_and_config_loading(tmp_path, paper_game):
    assert builtin_game("paper-example").name == "paper-example"
    with pytest.raises(GameConfigError):
        builtin_game("nope")

    cfg = {
        "players": 2,
        "dims": [1, 1],
        "A": paper_game.A.tolist(),
        "b": paper_game.b.tolist(),
        "K": paper_game.constraints.K.tolist(),
        "l": paper_game.constraints.l.tolist(),
        "name": "from-config",
    }
    game = game_from_config(cfg)
    assert game.name == "from-config"
    assert np.allclose(game.P, paper_game.P)

    path = tmp_path / "game.json"
    path.write_text(json.dumps(cfg))
    loaded = load_game(path)
    assert np.allclose(loaded.P, paper_game.P)

    bad = dict(cfg)
    del bad["K"]
    with pytest.raises(GameConfigError):
        game_from_config(bad)

    # integral floats are integers; fractions and booleans are not
    assert game_from_config({**cfg, "players": 2.0, "dims": [1.0, 1.0]}).dims == (1, 1)
    for key, value in (("players", 2.5), ("players", True), ("dims", [1, 1.5]),
                       ("dims", [False, True]), ("dims", [1, float("inf")])):
        with pytest.raises(GameConfigError, match=f"'{key}'"):
            game_from_config({**cfg, key: value})


@pytest.mark.parametrize("build", [paper_example, lambda: random_quadratic_game(40)],
                         ids=["paper-example", "random"])
def test_quadratic_game_constants_are_exact(build, monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("a quadratic game probed a constant it knows")

    monkeypatch.setattr(games, "probe_monotonicity", no_probe)
    monkeypatch.setattr(games, "probe_lipschitz", no_probe)
    game = build()
    P = game.P
    assert game.nu() == float(np.linalg.eigvalsh(0.5 * (P + P.T)).min())
    assert game.lipschitz() == float(np.linalg.svd(P, compute_uv=False).max())


@pytest.mark.parametrize("build", [
    lambda: solve_vgne(paper_example()).primal,
    lambda: solve_vgne(paper_example()),
    lambda: solve_regularized_vi(paper_example(), 0.1),
    lambda: random_quadratic_game(3),
    lambda: softplus_game(0),
], ids=["JointAction", "OracleSolution", "OracleSolution-eps",
        "QuadraticGame", "SoftplusQuadraticGame"])
def test_pickle_round_trip(build):
    obj = build()
    clone = pickle.loads(pickle.dumps(obj))
    assert type(clone) is type(obj)
    if isinstance(obj, GameSpec):
        # the game's arrays survive: costs and pseudo-gradient give the same bits
        x = np.linspace(-1.0, 1.0, obj.D)
        assert np.array_equal(clone.costs_at(x), obj.costs_at(x))
        assert np.array_equal(clone.pseudo_gradient(x), obj.pseudo_gradient(x))
    else:
        assert repr(clone) == repr(obj)
        # the primal stays read-only through the round trip
        assert not getattr(clone, "primal", clone).flat.flags.writeable
