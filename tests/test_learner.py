import ast
import csv
import importlib.util
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_run

from gnezero.games import (
    ConstraintSet,
    DimensionMismatchError,
    GameSpec,
    PayoffEnvironment,
    QuadraticGame,
    random_quadratic_game,
    resolve_game,
)
from gnezero.harness import ExperimentConfig, run_experiment
from gnezero.learner import (
    DivergenceError,
    checkpoints,
    run,
    two_point_estimate,
)
from gnezero.schedules import ScheduleError, Schedules, validate_schedules


@pytest.fixture
def feedback_log(monkeypatch):
    """Every (X, lam, U, g) that run passes through the payoff boundary.

    run queries the stacked points X = [a; mu], so X[0] is the sampled action.
    """
    calls = []
    original = PayoffEnvironment.feedback

    def recording(self, X, lam):
        U, g = original(self, X, lam)
        calls.append((X.copy(), lam.copy(), U, g))
        return U, g

    monkeypatch.setattr(PayoffEnvironment, "feedback", recording)
    return calls


def scalar_env(K, l):
    # two scalar players with J^i = (a^i)^2, so M(a) = 2 a
    A = np.stack([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])])
    return PayoffEnvironment(QuadraticGame(A, np.zeros((2, 2)), ConstraintSet(K, l)))


# -- schedules ------------------------------------------------------------------


def test_validate_schedules_standard_exponents():
    rep = validate_schedules(Schedules(g=4 / 7, e=2 / 7, s=4 / 7))
    assert rep.valid
    assert rep.h == pytest.approx(8 / 7, rel=1e-12)
    assert rep.exponent == pytest.approx(4 / 7, rel=1e-12)


def test_validate_schedules_boundaries_excluded():
    rep = validate_schedules(Schedules(g=0.5, e=2 / 7, s=4 / 7))
    assert not rep.valid
    assert any("g>1/2" in name for name in rep.failing())

    rep = validate_schedules(Schedules(g=0.6, e=0.5, s=4 / 7))
    assert not rep.valid
    assert any("g+e<1" in name for name in rep.failing())

    rep = validate_schedules(Schedules(g=0.55, e=0.2, s=0.4))
    assert not rep.valid
    assert any("s+g>1" in name for name in rep.failing())


@pytest.mark.parametrize("field", ["G", "g", "E", "e", "S", "s"])
def test_schedules_reject_non_finite_values(field):
    for value in (float("nan"), float("inf"), True, "1"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Schedules(**{field: value})


def test_schedule_values():
    sched = Schedules(G=2.0, g=0.5, E=3.0, e=0.25, S=0.5, s=1.0)
    assert sched.gamma(4) == pytest.approx(1.0)
    assert sched.eps(16) == pytest.approx(1.5)
    assert sched.sigma(10) == pytest.approx(0.05)


# -- sampling --------------------------------------------------------------------


def test_sample_action_moments(feedback_log):
    # G = 0 freezes the mean at its start 0, so every step samples around it
    sigma = 0.1
    M = 100_000
    run(scalar_env([[1.0, 1.0]], [10.0]), Schedules(G=0.0, S=sigma, s=0.0), M, seeds=[123],
        record_every=M)
    draws = np.array([X[0, 0] for X, *_ in feedback_log])
    mean_tol = 4 * sigma / np.sqrt(M)
    assert np.all(np.abs(draws.mean(axis=0)) <= mean_tol)
    assert np.all(np.abs(draws.var(axis=0) / sigma**2 - 1.0) <= 0.05)


def test_sample_action_deterministic_stream(paper_game, feedback_log):
    run(PayoffEnvironment(paper_game), Schedules(S=0.3), 10, seeds=[7])
    run(PayoffEnvironment(paper_game), Schedules(S=0.3), 10, seeds=[7])
    draws = [X[0, 0] for X, *_ in feedback_log]
    assert len(draws) == 20
    assert all(np.array_equal(x, y) for x, y in zip(draws[:10], draws[10:]))


def test_sample_action_rejects_bad_sigma():
    # the spread reaches run only through Schedules, which keeps it positive
    with pytest.raises(ValueError):
        Schedules(S=0.0)
    with pytest.raises(ValueError):
        Schedules(S=-1.0)
    for sigma in (-1.0, 0.0, float("nan"), float("inf"), True, "1"):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            two_point_estimate(1.0, 0.0, [0.1], [0.0], sigma)


# -- two-point estimate ------------------------------------------------------------


def test_two_point_estimate_zero_for_equal_payoffs():
    assert two_point_estimate(1.3, 1.3, [0.5], [0.2], 0.1) == pytest.approx([0.0])


def test_two_point_estimate_hand_case():
    assert two_point_estimate(0.5, 0.0, [0.2], [0.0], 0.1) == pytest.approx([10.0])


def test_two_point_estimate_validations():
    with pytest.raises(ValueError):
        two_point_estimate(1.0, 0.0, [0.1], [0.0], 0.0)
    with pytest.raises(ValueError):
        two_point_estimate(1.0, 0.0, [0.1, 0.2], [0.0], 1.0)
    with pytest.raises(ValueError):
        two_point_estimate(np.ones((3, 1)), 0.0, np.zeros((3, 2)), [0.0], 1.0)


def test_two_point_estimate_batch_matches_rows():
    rng = np.random.default_rng(1)
    a, mu, u = rng.normal(size=(5, 2)), rng.normal(size=2), rng.normal(size=5)
    batch = two_point_estimate(u[:, None], 0.3, a, mu, 0.7)
    for k in range(5):
        assert np.array_equal(batch[k], two_point_estimate(u[k], 0.3, a[k], mu, 0.7))


def test_two_point_estimate_unbiased_for_quadratic(paper_game):
    # for quadratic costs the smoothed gradient equals the true gradient, so
    # the sample mean of the estimate must match the extended gradient block
    rng = np.random.default_rng(42)
    mu = np.array([0.3, -0.2])
    lam = np.array([0.7])
    sigma = 0.5
    M = 200_000
    K = paper_game.constraints.K
    X = mu + sigma * rng.standard_normal((M, 2))
    J = paper_game.costs_at(X)
    gX = X @ K.T - paper_game.constraints.l
    U = J + (gX @ lam)[:, None]
    u0 = paper_game.costs_at(mu)[0]
    u0 = u0 + float(lam @ paper_game.constraints.value(mu))
    target = paper_game.pseudo_gradient(mu) + K.T @ lam
    for i, sl in enumerate(paper_game.slices):
        m = (U[:, i] - u0[i])[:, None] * (X[:, sl] - mu[sl]) / sigma**2
        mean = m.mean(axis=0)
        se = m.std(axis=0, ddof=1) / np.sqrt(M)
        assert np.all(np.abs(mean - target[sl]) <= 4 * se)


# -- the primal-dual step ------------------------------------------------------------


def test_step_zero_gamma_freezes_point(paper_game):
    # paper-example's constraint a1 + a2 >= 1 is violated at 0 (g = 1), so
    # any nonzero step would raise the dual
    sched = Schedules(G=0.0, g=4 / 7, E=1.0, e=2 / 7, S=1.0, s=4 / 7)
    mus, lams = run(PayoffEnvironment(paper_game), sched, 5, seeds=[0])
    assert np.array_equal(mus[0, -1], [0.0, 0.0])
    assert np.array_equal(lams[0, -1], [0.0])


def test_step_interior_zero_dual_is_fixed_point(feedback_log):
    # the constraint a1 + a2 <= 10 is slack at every sampled point
    _, lams = run(scalar_env([[1.0, 1.0]], [10.0]), Schedules(), 50, seeds=[0])
    assert all(np.all(g[:, 0] < 0) for *_, g in feedback_log)
    assert lams[0, -1] == pytest.approx([0.0])


def test_step_dual_projection_hand_case():
    # g = 0 a - 2 = -2 everywhere: lam - gamma * (-g + eps lam) = 0 - (2 + 0)
    # projects to 0
    sched = Schedules(G=1.0, g=4 / 7, E=0.1, e=0.0, S=1.0, s=4 / 7)
    _, lams = run(scalar_env([[0.0, 0.0]], [2.0]), sched, 1, seeds=[0])
    assert lams[0, -1] == pytest.approx([0.0])


def test_step_uses_two_point_estimate(feedback_log):
    sched = Schedules(G=1.0, g=0.0, E=1.0, e=0.0, S=1.0, s=0.0)  # all params 1 at t=1
    mus, _ = run(scalar_env([[1.0, 1.0]], [10.0]), sched, 1, seeds=[0])
    [([(a, mu)], lam, [U], g)] = feedback_log  # one seed in the batch
    assert np.array_equal(mu, [0.0, 0.0])
    # m = du * (a - mu) / sigma^2, one block per player
    m = (U[0] - U[1]) * a
    assert mus[0, -1] == pytest.approx(-m, rel=1e-15)


# -- run ----------------------------------------------------------------------------


def test_run_single_step_trajectory(paper_game):
    mus, lams = run(PayoffEnvironment(paper_game), Schedules(), 1, seeds=[0])
    assert mus.shape == (1, 1, 2)  # one seed, one checkpoint (t = 1)
    assert lams.shape == (1, 1, 1)


def test_run_matches_manual_step_loop(paper_game, feedback_log):
    # every seed of a batched run follows its own per-seed reference loop
    sched = Schedules()
    T = 400
    seeds = [11, 12, 13]
    for game in [paper_game, random_quadratic_game(3, dims=(2, 1, 2), num_constraints=2)]:
        mus, lams = run(PayoffEnvironment(game), sched, T, seeds=seeds, record_every=1)
        assert mus.shape[:2] == lams.shape[:2] == (len(seeds), T)
        for r, seed in enumerate(seeds):  # rows in seed-list order
            mu, lam = reference_run(game, sched, T, seed=seed)
            assert np.array_equal(mu, mus[r, -1])
            assert np.array_equal(lam, lams[r, -1])
    assert all(np.all(lam >= 0.0) for _, lam, _, _ in feedback_log)


def test_run_record_does_not_depend_on_batch():
    # a seed's iterates are byte-equal alone and inside a batch of neighbours
    game = random_quadratic_game(3, dims=(2, 1, 2), num_constraints=2)
    kw = dict(record_every=1)
    s = 21
    alone = run(PayoffEnvironment(game), Schedules(), 300, seeds=[s], **kw)
    inside = run(PayoffEnvironment(game), Schedules(), 300, seeds=[s - 1, s, s + 1], **kw)
    for x, y in zip(alone, inside):
        assert x.dtype == y.dtype and x[0].tobytes() == y[1].tobytes()
    # 8,200 seeds make 16,400 cost rows per step, in one costs_at batch
    many = list(range(s - 1, s + 8199))
    inside = run(PayoffEnvironment(game), Schedules(), 5, seeds=many, **kw)
    for r in (0, 1, 8199):
        alone = run(PayoffEnvironment(game), Schedules(), 5, seeds=[many[r]], **kw)
        for x, y in zip(alone, inside):
            assert x[0].tobytes() == y[r].tobytes()


class _PayoffOnly:
    """An environment proxy that lets run read dims, num_constraints and feedback only."""

    def __init__(self, env):
        object.__setattr__(self, "_env", env)

    def __getattribute__(self, name):
        if name not in ("dims", "num_constraints", "feedback"):
            # not an AttributeError, which hasattr or a getattr default would swallow
            raise AssertionError(f"run read env.{name}")
        return getattr(object.__getattribute__(self, "_env"), name)


@pytest.mark.parametrize("build", [
    lambda: resolve_game("paper-example"),
    lambda: resolve_game("softplus-ridge"),
    lambda: random_quadratic_game(3, dims=[2] * 6, num_constraints=4),
], ids=["paper-example", "softplus-ridge", "D=12"])
def test_run_reads_only_the_payoff_view(build):
    env = PayoffEnvironment(build())
    want = run(env, Schedules(), 300, seeds=[0, 1])
    # the --workers process pool pickles the environment, through its game
    for view in (_PayoffOnly(env), pickle.loads(pickle.dumps(env))):
        got = run(view, Schedules(), 300, seeds=[0, 1])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(want, got))


def test_run_is_deterministic(paper_game):
    mus1, lams1 = run(PayoffEnvironment(paper_game), Schedules(), 300, seeds=[5])
    mus2, lams2 = run(PayoffEnvironment(paper_game), Schedules(), 300, seeds=[5])
    assert np.array_equal(mus1, mus2)
    assert np.array_equal(lams1, lams2)


def test_config_rejects_invalid_schedules_that_run_runs(paper_game):
    # the validity conditions are the experiment's policy; the iteration
    # itself steps any schedule
    bad = Schedules(g=0.5)
    with pytest.raises(ScheduleError) as exc:
        ExperimentConfig(game=paper_game, schedules=bad, T=10, seeds=[0])
    assert str(exc.value) == "schedules violate validity conditions: g>1/2 (g=0.5)"
    ExperimentConfig(game=paper_game, schedules=bad, T=10, seeds=[0],
                     allow_invalid_schedules=True)
    mus, _ = run(PayoffEnvironment(paper_game), bad, 10, seeds=[0])
    assert mus.shape[1] > 0


def test_run_schedule_columns(paper_game, tmp_path):
    # the raw CSV carries the schedule values of each checkpoint step
    sched = Schedules()
    run_experiment(ExperimentConfig(game=paper_game, schedules=sched, T=50, seeds=[1],
                                    record_every=10, outdir=tmp_path, label="cols"))
    with open(tmp_path / "cols_raw.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["t"]) for row in rows] == [10, 20, 30, 40, 50]
    for row in rows:
        t = int(row["t"])
        assert float(row["gamma"]) == pytest.approx(sched.gamma(t))
        assert float(row["eps"]) == pytest.approx(sched.eps(t))
        assert float(row["sigma"]) == pytest.approx(sched.sigma(t))


def test_checkpoints_grids():
    assert checkpoints(10, 1).tolist() == list(range(1, 11))
    assert checkpoints(10, 4).tolist() == [4, 8, 10]
    log_grid = checkpoints(100_000, "log")
    for t in (1, 10, 100, 1000, 10_000, 100_000):
        assert t in log_grid
    assert log_grid.shape[0] <= 210
    assert checkpoints(1, "log").tolist() == [1]
    assert checkpoints(10.0, 4.0).tolist() == [4, 8, 10]
    # the decades of T are exact: np.log10(10**15 - 1) rounds up to 15.0
    log_grid = checkpoints(10**15 - 1, "log")
    assert log_grid[0] == 1 and log_grid[-1] == 10**15 - 1 and 10**14 in log_grid
    # the cadence is a count: a fraction is not truncated, a string is not parsed
    for T, record_every in ((10, 2.7), (10, "5"), (10.5, 1), (True, 1), (10, False)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            checkpoints(T, record_every)
    # a float counts every step up to 2**53, the largest horizon
    assert checkpoints(2**53, "log")[-1] == 2**53
    for T in (2**53 + 1, 10**20, 10**400):
        with pytest.raises(ValueError, match=r"T must be at most 2\*\*53"):
            checkpoints(T, "log")


def test_update_decomposition_identity(paper_game, feedback_log):
    # the dual update rewritten through the sampling perturbation
    # S = K (mu - a) must coincide with the implemented projection step
    rng = np.random.default_rng(3)
    sched = Schedules()
    K = paper_game.constraints.K
    l = paper_game.constraints.l
    for trial in range(20):
        t = int(rng.integers(1, 50))
        mus, lams = run(PayoffEnvironment(paper_game), sched, t, seeds=[trial])
        [(a, mu)], [lam], [U], _ = feedback_log[-1]  # the last step, taken at t

        gamma, eps, sigma = sched.gamma(t), sched.eps(t), sched.sigma(t)
        du = U[0] - U[1]
        m = np.concatenate([
            [du[0] * (a[0] - mu[0]) / (sigma * sigma)],
            [du[1] * (a[1] - mu[1]) / (sigma * sigma)],
        ])
        assert np.array_equal(mus[0, -1], mu - gamma * m)

        S = K @ (mu - a)
        lam_expected = np.maximum(lam - gamma * (-(K @ mu) + S + l + eps * lam), 0.0)
        assert lams[0, -1] == pytest.approx(lam_expected, abs=1e-12)


def test_second_moment_growth_is_at_most_quadratic(paper_game):
    from gnezero.diagnostics import SmoothingProbe, second_moment_growth_report

    probe = SmoothingProbe(mu=np.array([0.4, -0.3]), lam=np.array([0.5]),
                           sigma=0.3, num_samples=100_000, seed=21)
    report = second_moment_growth_report(paper_game, probe)
    assert all(c.passed for c in report.cases), report.cases


def test_payoff_boundary_hides_structure(paper_game):
    # the boundary returns only payoff values and constraint values, one row
    # per queried joint action
    env = PayoffEnvironment(paper_game)
    X, lam = np.array([[0.1, 0.2], [0.0, 0.0], [-0.3, 0.4]]), np.array([0.5])
    U, g = env.feedback(X, lam)
    assert U.shape == (3, 2)
    assert g.shape == (3, 1)
    # feedback values match direct Lagrangian evaluation
    for p, x in enumerate(X):
        assert g[p] == pytest.approx(paper_game.constraints.value(x))
        for i in range(2):
            cost = 0.5 * x @ paper_game.A[i] @ x + paper_game.b[i] @ x
            assert U[p, i] == pytest.approx(cost + lam @ paper_game.constraints.value(x))
    # a leading batch axis with one multiplier row per batch: each batch as alone
    stack, lams = np.stack([X, X + 1.0]), np.array([[0.5], [0.2]])
    U2, g2 = env.feedback(stack, lams)
    assert U2.shape == (2, 3, 2) and g2.shape == (2, 3, 1)
    for r in range(2):
        Ur, gr = env.feedback(stack[r], lams[r])
        assert np.array_equal(U2[r], Ur) and np.array_equal(g2[r], gr)


def _arrays(items) -> list:
    """The arrays in a nested tuple of arrays, Nones and shapes."""
    if isinstance(items, np.ndarray):
        return [items]
    return [a for item in items if isinstance(item, (tuple, np.ndarray)) for a in _arrays(item)]


def test_buffered_feedback_returns_new_arrays(paper_game):
    # run rewrites one X in place every step; feedback reuses the buffers
    # bound to it, but U and g are new arrays that no later call overwrites
    env = PayoffEnvironment(paper_game)
    rng = np.random.default_rng(0)
    X, lam = rng.standard_normal((3, 2, 2)), rng.random((3, 1))
    first = env.feedback(X, lam)
    kept = [x.copy() for x in first]
    X[...] = rng.standard_normal(X.shape)
    second = env.feedback(X, lam)
    outputs = [*first, *second]
    for k, x in enumerate(outputs):
        for y in outputs[k + 1:] + [X] + _arrays(env._bound):
            assert not np.shares_memory(x, y)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(first, kept))
    fresh = PayoffEnvironment(paper_game).feedback(X.copy(), lam)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(second, fresh))


def test_feedback_on_another_X_equals_a_fresh_environment(paper_game):
    # a new X rebinds, whatever its shape; an X that reshapes to a copy (not
    # contiguous) is evaluated anew on every call, also after an in-place edit
    env = PayoffEnvironment(paper_game)
    rng = np.random.default_rng(1)
    env.feedback(rng.standard_normal((3, 2, 2)), rng.random((3, 1)))
    strided = rng.standard_normal((2, 4, 2)).transpose(1, 0, 2)  # (4, 2, 2)
    for X, lam in ((rng.standard_normal((5, 2)), rng.random(1)),
                   (rng.standard_normal((2, 4, 2)), rng.random((2, 1))),
                   (strided, rng.random((4, 1))),
                   (strided, rng.random((4, 1)))):
        got = env.feedback(X, lam)
        want = PayoffEnvironment(paper_game).feedback(X.copy(), lam)
        assert all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(got, want))
        strided += 1.0


def test_feedback_rejects_a_wrong_column_count_before_and_after_binding(paper_game):
    # the column check runs whenever X is not the bound array: on the first
    # call and on a call after buffers were bound, which stay bound to X
    env = PayoffEnvironment(paper_game)
    rng = np.random.default_rng(2)
    X, lam = rng.standard_normal((3, 2, 2)), rng.random((3, 1))
    for wrong in (np.zeros((3, 2, 3)), np.zeros((4, 1))):
        with pytest.raises(DimensionMismatchError) as exc:
            env.feedback(wrong, lam)
        assert (exc.value.expected, exc.value.given) == (2, wrong.shape[-1])
    want = [x.tobytes() for x in env.feedback(X, lam)]
    for wrong in (np.zeros((3, 2, 3)), np.zeros((4, 1))):
        with pytest.raises(DimensionMismatchError, match="expected dimension 2"):
            env.feedback(wrong, lam)
    assert env._X is X
    assert [x.tobytes() for x in env.feedback(X, lam)] == want


def test_an_environment_pickled_after_a_run_runs_the_same():
    game = resolve_game("softplus-ridge")
    env = PayoffEnvironment(game)
    want = run(env, Schedules(), 200, seeds=[0, 1])
    # the bound buffers stay behind: the pickle is a fresh environment's
    assert pickle.dumps(env) == pickle.dumps(PayoffEnvironment(game))
    for view in (pickle.loads(pickle.dumps(env)), env):
        got = run(view, Schedules(), 200, seeds=[0, 1])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(want, got))


@pytest.mark.parametrize("build", [
    lambda: resolve_game("paper-example"),
    lambda: resolve_game("softplus-ridge"),
    lambda: random_quadratic_game(3, dims=(2, 1, 2), num_constraints=2),
], ids=["paper-example", "softplus-ridge", "D=5"])
def test_each_step_makes_one_feedback_and_one_cost_call(monkeypatch, build):
    # the 2R points [a_r; mu_r] of a step are evaluated once, in one batch
    game, calls = build(), []
    for owner, name in ((PayoffEnvironment, "feedback"), (GameSpec, "_costs")):
        def spy(self, X, *args, _name=name, _original=getattr(owner, name), **kw):
            calls.append((_name, X.shape))
            return _original(self, X, *args, **kw)
        monkeypatch.setattr(owner, name, spy)
    T, R = 40, 3
    run(PayoffEnvironment(game), Schedules(), T, seeds=range(R))
    assert calls == [("feedback", (R, 2, game.D)), ("_costs", (2 * R, game.D))] * T


def test_a_sigma_that_underflows_to_zero_is_rejected_at_its_step(paper_game):
    # sigma_2 = 1e-300 / 2^80 is 0: step 2 raises two_point_estimate's error,
    # unless step 1's checkpoint has found the iterate non-finite (sigma_1^2
    # = 0 already divides by zero)
    sched = Schedules(S=1e-300, s=80.0)
    with pytest.raises(ValueError, match="^sigma must be positive and finite, got 0.0$"):
        run(PayoffEnvironment(paper_game), sched, 10, seeds=[0], record_every=5)
    with pytest.raises(DivergenceError, match="non-finite iterate at step 1 "):
        run(PayoffEnvironment(paper_game), sched, 10, seeds=[0], record_every=1)


@pytest.mark.parametrize("s, g, error, match", [
    # sigma_2 underflows to 0 before 3^1000 overflows the gamma schedule
    (80.0, 1000.0, ValueError, "^sigma must be positive and finite, got 0.0$"),
    # 2^1e300 overflows before sigma_3 = 1e-300 / 3^60 underflows to 0
    (60.0, 1e300, OverflowError, "^the gamma schedule overflows at step 2: "),
], ids=["sigma-first", "overflow-first"])
def test_the_earlier_of_a_vanishing_sigma_and_an_overflow_stops_the_run(paper_game, s, g,
                                                                         error, match):
    sched = Schedules(S=1e-300, s=s, g=g)
    with pytest.raises(error, match=match):
        run(PayoffEnvironment(paper_game), sched, 10, seeds=[0], record_every=5)


@pytest.mark.parametrize("seeds", [[1.5], [True], [-1], [0, -3], [], [None]],
                         ids=["fraction", "bool", "negative", "negative-second", "empty",
                              "none"])
def test_run_rejects_seeds_that_are_not_integers_at_least_zero(paper_game, seeds):
    with pytest.raises(ValueError, match="seed"):
        run(PayoffEnvironment(paper_game), Schedules(), 5, seeds=seeds)


def test_run_accepts_integral_seeds(paper_game):
    # numpy integers and integral floats name the same stream as the int
    want = run(PayoffEnvironment(paper_game), Schedules(), 20, seeds=[3, 4])
    for T, seeds in ((20, [np.int64(3), np.uint8(4)]), (20, [3.0, 4.0]), (20.0, [3, 4])):
        got = run(PayoffEnvironment(paper_game), Schedules(), T, seeds=seeds)
        assert all(np.array_equal(x, y) for x, y in zip(want, got))


def _package_imports(module: str) -> set[str]:
    """Names of the gnezero modules that gnezero.<module> imports, from its source."""
    tree = ast.parse(Path(importlib.util.find_spec(f"gnezero.{module}").origin).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import y
            names.update([f"gnezero.{node.module}"] if node.module
                         else [f"gnezero.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("gnezero.")}


def _names_imported(module: str, source: str) -> set[str]:
    """Names that gnezero.<module> imports from its sibling module source."""
    tree = ast.parse(Path(importlib.util.find_spec(f"gnezero.{module}").origin).read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module == source
            for alias in node.names}


def test_learner_sees_a_game_only_through_the_payoff_environment():
    # games.py owns the payoff boundary; the learner takes from it only the
    # environment and the count and scale checks, and reads nothing of a game
    assert _names_imported("learner", "games") == {"PayoffEnvironment", "_integer",
                                                   "_positive"}
    assert "PayoffEnvironment" in _names_imported("diagnostics", "games")
    assert "PayoffEnvironment" not in _names_imported("diagnostics", "learner")
    tree = ast.parse(Path(importlib.util.find_spec("gnezero.learner").origin).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"GameSpec", "QuadraticGame", "SoftplusQuadraticGame"}
    assert not attrs & {"constraints", "P", "q", "A", "b", "K", "l", "pseudo_gradient",
                        "costs_at", "_costs", "_game"}


def test_the_monte_carlo_pass_calls_the_estimator_core():
    # diagnostics estimates with run's unchecked core: its sigma and shapes
    # are fixed before the pass begins
    assert _names_imported("diagnostics", "learner") == {"_two_point"}


def test_run_is_the_bare_iteration():
    # run takes no schedule policy: the learner needs only the Schedules
    # type, and its one option is the recording cadence
    assert _names_imported("learner", "schedules") == {"Schedules"}
    assert list(inspect.signature(run).parameters) == ["env", "sched", "T", "seeds",
                                                       "record_every"]


def test_learner_never_imports_the_oracle():
    # one layering check in both directions: the learner sees payoff values
    # only (the reference belongs to the harness), the oracle reads no
    # learner or harness code, and the LCP solver, which games and oracles
    # share, stands on numpy alone
    learner, oracles, lcp = (_package_imports(m) for m in ("learner", "oracles", "lcp"))
    assert "games" in learner and "lcp" in oracles  # relative imports are seen
    assert "oracles" not in learner
    assert not oracles & {"learner", "harness"}
    assert lcp == set()


# -- divergence ---------------------------------------------------------------------


def test_divergence_raises_structured_error(paper_game, tmp_path):
    with pytest.raises(DivergenceError) as exc:
        run(PayoffEnvironment(paper_game), Schedules(G=1e300), 50, seeds=[4], record_every=1)
    err = exc.value
    assert err.seed == 4
    assert err.last_finite == (err.step - 1 if err.step > 1 else None)  # every step recorded
    assert f"seed 4: non-finite iterate at step {err.step}" in str(err)
    clone = pickle.loads(pickle.dumps(err))  # crosses the --workers process pool
    assert (clone.seed, clone.step, clone.last_finite, str(clone)) == (
        err.seed, err.step, err.last_finite, str(err))

    cfg = ExperimentConfig(game=paper_game, schedules=Schedules(G=1e300), T=50,
                           seeds=[0, 1], outdir=tmp_path, label="div", workers=2)
    with pytest.raises(DivergenceError):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


def test_divergence_in_a_batch_names_first_seed_in_list_order(paper_game, tmp_path):
    # both seeds leave the finite floats at the same checkpoint
    sched = Schedules(G=1e300)
    for seeds in ([4, 5], [5, 4]):
        with pytest.raises(DivergenceError) as exc:
            run(PayoffEnvironment(paper_game), sched, 50, seeds=seeds, record_every=1)
        assert exc.value.seed == seeds[0]

    cfg = ExperimentConfig(game=paper_game, schedules=sched, T=50, seeds=[4, 5],
                           outdir=tmp_path, label="div", workers=1)
    with pytest.raises(DivergenceError) as exc:
        run_experiment(cfg)
    assert exc.value.seed == 4
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, name", [("g", "gamma"), ("e", "eps"), ("s", "sigma")])
def test_schedule_overflow_names_the_schedule_and_the_step(paper_game, tmp_path, field, name):
    # t**1e300 is past the floats from t = 2 on
    sched = Schedules(**{field: 1e300})
    message = rf"^the {name} schedule overflows at step 2: t\^1e\+300 exceeds the largest float$"
    with pytest.raises(OverflowError, match=message):
        run(PayoffEnvironment(paper_game), sched, 10, seeds=[0, 1])
    if field == "s":  # a valid schedule; the error crosses the --workers process pool
        cfg = ExperimentConfig(game=paper_game, schedules=sched, T=10, seeds=[0, 1],
                               outdir=tmp_path, label="ovf", workers=2)
        with pytest.raises(OverflowError, match=message):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []
