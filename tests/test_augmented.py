import numpy as np
import pytest

from gnezero.augmented import _operator, extended_pseudo_gradient
from gnezero.games import (
    DimensionMismatchError,
    paper_example,
    random_quadratic_game,
    softplus_game,
)

from conftest import central_difference_gradient


def lagrangian(game, i, a, lam):
    """Primal player i's cost in the extended game: J^i(a) + <lam, K a - l>."""
    return float(game.costs_at(a)[0, i]) + lam @ game.constraints.value(a)


def dual_player_cost(game, a, lam):
    """The dual player's cost: -<lam, K a - l>."""
    return -(lam @ game.constraints.value(a))


def test_augmented_cost_paper_equilibrium(paper_game):
    # J^1(0,1) = 0 and the constraint is exactly active, so the cost is 0
    assert lagrangian(paper_game, 0, np.array([0.0, 1.0]), np.array([1.0])) == pytest.approx(
        0.0, abs=1e-14)


def test_augmented_cost_zero_dual_equals_cost(paper_game):
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=2)
        costs = paper_game.costs_at(a)[0]
        for i in range(2):
            assert lagrangian(paper_game, i, a, np.zeros(1)) == pytest.approx(float(costs[i]))


def test_augmented_cost_matches_summation_oracle():
    game = random_quadratic_game(17)
    rng = np.random.default_rng(1)
    n = game.constraints.num_constraints
    for _ in range(10):
        a = rng.normal(size=game.D)
        lam = np.abs(rng.normal(size=n))
        g = game.constraints.value(a)
        for i in range(game.num_players):
            expected = float(game.costs_at(a)[0, i]) + sum(lam[j] * g[j] for j in range(n))
            assert lagrangian(game, i, a, lam) == pytest.approx(expected, rel=1e-12)


def test_dual_cost_cases(paper_game):
    assert dual_player_cost(paper_game, np.array([3.0, -2.0]), np.array([0.0])) == 0.0
    assert dual_player_cost(paper_game, np.array([0.0, 1.0]), np.array([1.0])) == pytest.approx(
        0.0, abs=1e-14)


def test_lagrangian_terms_cancel(paper_game):
    # U^i + U^{N+1} = J^i: the multiplier term cancels exactly
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, lam = rng.normal(size=2), np.abs(rng.normal(size=1))
        for i in range(2):
            total = lagrangian(paper_game, i, a, lam) + dual_player_cost(paper_game, a, lam)
            assert total == pytest.approx(float(paper_game.costs_at(a)[0, i]), rel=1e-12)


def test_extended_pseudo_gradient_paper_equilibrium(paper_game):
    # stationarity at the equilibrium: primal block vanishes, constraint active
    w = extended_pseudo_gradient(paper_game, [0.0, 1.0], [1.0])
    assert w == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)


def test_extended_pseudo_gradient_zero_dual(paper_game):
    a = np.array([0.4, -0.7])
    w = extended_pseudo_gradient(paper_game, a, [0.0])
    assert w[:2] == pytest.approx(paper_game.pseudo_gradient(a))


def test_extended_pseudo_gradient_matches_finite_differences():
    game = random_quadratic_game(23)
    rng = np.random.default_rng(3)
    a = rng.normal(size=game.D)
    lam = np.abs(rng.normal(size=game.constraints.num_constraints))
    w = extended_pseudo_gradient(game, a, lam)
    for i, sl in enumerate(game.slices):
        fd = central_difference_gradient(lambda x: lagrangian(game, i, x, lam), a)
        assert w[sl] == pytest.approx(fd[sl], rel=1e-5, abs=1e-6)
    fd_dual = central_difference_gradient(lambda y: dual_player_cost(game, a, y), lam)
    assert w[game.D:] == pytest.approx(fd_dual, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.5])
def test_stacked_operator_matches_the_block_formula(eps):
    # F(z) = B z + c + [h(a); 0], with P and q in B and c, against
    # (M(a) + K' lam, -(K a - l) + eps lam)
    rng = np.random.default_rng(12)
    for game in (paper_example(), random_quadratic_game(5, dims=[2] * 6, num_constraints=4),
                 softplus_game(0), softplus_game(2)):
        K, l = game.constraints.K, game.constraints.l
        F = _operator(game, eps)
        for _ in range(5):
            a = 2.0 * rng.normal(size=game.D)
            lam = np.abs(rng.normal(size=K.shape[0]))
            expected = np.concatenate([game.pseudo_gradient(a) + K.T @ lam,
                                       -(K @ a - l) + eps * lam])
            z = np.concatenate([a, lam])
            got = F(z)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
            assert np.array_equal(z, np.concatenate([a, lam]))  # F leaves z alone
            assert np.array_equal(extended_pseudo_gradient(game, a, lam, eps), got)


@pytest.mark.parametrize("build", [paper_example, lambda: softplus_game(0)],
                         ids=["paper-example", "softplus-0"])
def test_operator_returns_a_fresh_array(build):
    # the extragradient loop overwrites F's result in place, so F must not
    # hand back z, a view of it, or storage it returned before
    game = build()
    F = _operator(game, 0.1)
    z = np.linspace(-1.0, 1.0, game.D + game.constraints.num_constraints)
    kept = z.copy()
    first, second = F(z), F(z)
    assert np.array_equal(z, kept)
    for out in (first, second):
        assert not np.may_share_memory(out, z)
    assert not np.may_share_memory(first, second)
    first[:] = np.nan  # writing into one result leaves the next alone
    assert np.array_equal(F(z), second)


def test_primal_block_cases(paper_game):
    # the first D coordinates are the primal block, the last n the dual one
    w = extended_pseudo_gradient(paper_game, [0.0, 1.0], [1.0])
    assert w.shape == (3,)
    assert w[:2] == pytest.approx([0.0, 0.0], abs=1e-14)
    with pytest.raises(DimensionMismatchError):
        extended_pseudo_gradient(paper_game, [1.0], [1.0])
    with pytest.raises(DimensionMismatchError):
        extended_pseudo_gradient(paper_game, [0.0, 1.0], [1.0, 2.0])


def test_regularized_pseudo_gradient(paper_game):
    a, lam = [0.0, 1.0], [1.0]
    base = extended_pseudo_gradient(paper_game, a, lam)
    assert extended_pseudo_gradient(paper_game, a, lam, 0.0) == pytest.approx(base)
    reg = extended_pseudo_gradient(paper_game, a, lam, 0.5)
    assert reg[:2] == pytest.approx(base[:2])
    assert reg[2] == pytest.approx(base[2] + 0.5 * 1.0)
    with pytest.raises(ValueError):
        extended_pseudo_gradient(paper_game, a, lam, -0.1)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), True, "0.1"])
def test_extended_pseudo_gradient_rejects_non_finite_eps(paper_game, eps):
    with pytest.raises(ValueError, match="finite"):
        extended_pseudo_gradient(paper_game, [0.0, 1.0], [1.0], eps)


def test_affine_in_dual(paper_game):
    rng = np.random.default_rng(4)
    a = rng.normal(size=2)
    l1, l2 = np.abs(rng.normal(size=1)), np.abs(rng.normal(size=1))
    for alpha in (0.0, 0.3, 1.0):
        mix = alpha * l1 + (1 - alpha) * l2
        w_mix = extended_pseudo_gradient(paper_game, a, mix)
        w1 = extended_pseudo_gradient(paper_game, a, l1)
        w2 = extended_pseudo_gradient(paper_game, a, l2)
        assert w_mix == pytest.approx(alpha * w1 + (1 - alpha) * w2)


def _sample_augmented_pairs(game, count, rng):
    D, n = game.D, game.constraints.num_constraints
    z1 = np.concatenate([rng.normal(size=(count, D)),
                         np.abs(rng.normal(size=(count, n)))], axis=1)
    z2 = np.concatenate([rng.normal(size=(count, D)),
                         np.abs(rng.normal(size=(count, n)))], axis=1)
    return z1, z2


def _extended_at(game, Z):
    D = game.D
    K, l = game.constraints.K, game.constraints.l
    primal = game.pseudo_gradient(Z[:, :D]) + Z[:, D:] @ K
    dual = -(Z[:, :D] @ K.T) + l
    return np.concatenate([primal, dual], axis=1)


def test_primal_strong_monotonicity_of_extended_map(random_games):
    rng = np.random.default_rng(8)
    for game in random_games[:5]:
        nu = game.nu()
        z1, z2 = _sample_augmented_pairs(game, 500, rng)
        dw = _extended_at(game, z1) - _extended_at(game, z2)
        dz = z1 - z2
        lhs = np.einsum("ij,ij->i", dw, dz)
        da = dz[:, :game.D]
        assert np.all(lhs >= nu * np.einsum("ij,ij->i", da, da) - 1e-12)


def test_regularized_strong_monotonicity_squared_form(random_games):
    # inequality with the squared dual distance, which the linear-in-dual
    # structure of the map makes algebraically exact
    rng = np.random.default_rng(9)
    eps = 0.37
    for game in random_games[:5]:
        nu = game.nu()
        z1, z2 = _sample_augmented_pairs(game, 500, rng)
        dw = _extended_at(game, z1) - _extended_at(game, z2)
        dz = z1 - z2
        dw[:, game.D:] += eps * dz[:, game.D:]
        lhs = np.einsum("ij,ij->i", dw, dz)
        da = dz[:, :game.D]
        dl = dz[:, game.D:]
        rhs = nu * np.einsum("ij,ij->i", da, da) + eps * np.einsum("ij,ij->i", dl, dl)
        assert np.all(lhs >= rhs - 1e-12)
