import ast
import csv
import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_run

from gnezero.games import (
    ConstraintSet,
    DimensionMismatchError,
    QuadraticGame,
    random_quadratic_game,
)
from gnezero.harness import ExperimentConfig, run_experiment
from gnezero.learner import (
    DivergenceError,
    PayoffEnvironment,
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


def scalar_game(K, l):
    # two scalar players with J^i = (a^i)^2, so M(a) = 2 a
    A = np.stack([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])])
    return QuadraticGame(A, np.zeros((2, 2)), ConstraintSet(K, l))


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
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Schedules(**{field: value})


def test_schedule_values():
    sched = Schedules(G=2.0, g=0.5, E=3.0, e=0.25, S=0.5, s=1.0)
    assert sched.gamma(4) == pytest.approx(1.0)
    assert sched.eps(16) == pytest.approx(1.5)
    assert sched.sigma(10) == pytest.approx(0.05)


# -- sampling --------------------------------------------------------------------


def test_sample_action_moments(feedback_log):
    # G = 0 freezes the mean, so every step samples around the same point
    mu = np.array([0.0, 1.0])
    sigma = 0.1
    M = 100_000
    run(scalar_game([[1.0, 1.0]], [10.0]), Schedules(G=0.0, S=sigma, s=0.0), M, seeds=[123],
        record_every=M, mu0=mu, allow_invalid_schedules=True)
    draws = np.array([X[0, 0] for X, *_ in feedback_log])
    mean_tol = 4 * sigma / np.sqrt(M)
    assert np.all(np.abs(draws.mean(axis=0) - mu) <= mean_tol)
    assert np.all(np.abs(draws.var(axis=0) / sigma**2 - 1.0) <= 0.05)


def test_sample_action_deterministic_stream(paper_game, feedback_log):
    run(paper_game, Schedules(S=0.3), 10, seeds=[7])
    run(paper_game, Schedules(S=0.3), 10, seeds=[7])
    draws = [X[0, 0] for X, *_ in feedback_log]
    assert len(draws) == 20
    assert all(np.array_equal(x, y) for x, y in zip(draws[:10], draws[10:]))


def test_sample_action_rejects_bad_sigma():
    # the spread reaches run only through Schedules, which keeps it positive
    with pytest.raises(ValueError):
        Schedules(S=0.0)
    with pytest.raises(ValueError):
        Schedules(S=-1.0)
    for sigma in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
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
    sched = Schedules(G=0.0, g=4 / 7, E=1.0, e=2 / 7, S=1.0, s=4 / 7)
    mus, lams = run(paper_game, sched, 5, seeds=[0], mu0=[0.5, -0.5], lam0=[0.3])
    assert np.array_equal(mus[0, -1], [0.5, -0.5])
    assert np.array_equal(lams[0, -1], [0.3])


def test_step_interior_zero_dual_is_fixed_point(feedback_log):
    # the constraint a1 + a2 <= 10 is slack at every sampled point
    _, lams = run(scalar_game([[1.0, 1.0]], [10.0]), Schedules(), 50, seeds=[0], mu0=[0.1, 0.1])
    assert all(np.all(g[:, 0] < 0) for *_, g in feedback_log)
    assert lams[0, -1] == pytest.approx([0.0])


def test_step_dual_projection_hand_case():
    # g = 0 a - 2 = -2 everywhere: lam - gamma * (-g + eps lam) = 0.5 - (2 + 0.05)
    # projects to 0
    sched = Schedules(G=1.0, g=4 / 7, E=0.1, e=0.0, S=1.0, s=4 / 7)
    _, lams = run(scalar_game([[0.0, 0.0]], [2.0]), sched, 1, seeds=[0], lam0=[0.5],
                  allow_invalid_schedules=True)
    assert lams[0, -1] == pytest.approx([0.0])


def test_step_uses_two_point_estimate(feedback_log):
    sched = Schedules(G=1.0, g=0.0, E=1.0, e=0.0, S=1.0, s=0.0)  # all params 1 at t=1
    mus, _ = run(scalar_game([[1.0, 1.0]], [10.0]), sched, 1, seeds=[0],
                 allow_invalid_schedules=True)
    [([(a, mu)], lam, [U], g)] = feedback_log  # one seed in the batch
    assert np.array_equal(mu, [0.0, 0.0])
    # m = du * (a - mu) / sigma^2, one block per player
    m = (U[0] - U[1]) * a
    assert mus[0, -1] == pytest.approx(-m, rel=1e-15)


# -- run ----------------------------------------------------------------------------


def test_run_single_step_trajectory(paper_game):
    mus, lams = run(paper_game, Schedules(), 1, seeds=[0])
    assert mus.shape == (1, 1, 2)  # one seed, one checkpoint (t = 1)
    assert lams.shape == (1, 1, 1)


def test_run_matches_manual_step_loop(paper_game, feedback_log):
    # every seed of a batched run follows its own per-seed reference loop
    sched = Schedules()
    T = 400
    seeds = [11, 12, 13]
    for game, mu0, lam0 in [(paper_game, None, None),
                            (paper_game, [0.5, -0.2], [0.3]),
                            (random_quadratic_game(3, dims=(2, 1, 2), num_constraints=2),
                             [0.3, -0.1, 0.2, 0.5, -0.4], [0.2, 0.0])]:
        mus, lams = run(game, sched, T, seeds=seeds, record_every=1, mu0=mu0, lam0=lam0)
        assert mus.shape[:2] == lams.shape[:2] == (len(seeds), T)
        for r, seed in enumerate(seeds):  # rows in seed-list order
            mu, lam = reference_run(game, sched, T, seed=seed, mu0=mu0, lam0=lam0)
            assert np.array_equal(mu, mus[r, -1])
            assert np.array_equal(lam, lams[r, -1])
    assert all(np.all(lam >= 0.0) for _, lam, _, _ in feedback_log)


def test_run_record_does_not_depend_on_batch():
    # a seed's iterates are byte-equal alone and inside a batch of neighbours
    game = random_quadratic_game(3, dims=(2, 1, 2), num_constraints=2)
    kw = dict(record_every=1, mu0=[0.3, -0.1, 0.2, 0.5, -0.4], lam0=[0.2, 0.0])
    s = 21
    alone = run(game, Schedules(), 300, seeds=[s], **kw)
    inside = run(game, Schedules(), 300, seeds=[s - 1, s, s + 1], **kw)
    for x, y in zip(alone, inside):
        assert x.dtype == y.dtype and x[0].tobytes() == y[1].tobytes()
    # 8,200 seeds make 16,400 cost rows per step, in one costs_at batch
    many = list(range(s - 1, s + 8199))
    inside = run(game, Schedules(), 5, seeds=many, **kw)
    for r in (0, 1, 8199):
        alone = run(game, Schedules(), 5, seeds=[many[r]], **kw)
        for x, y in zip(alone, inside):
            assert x[0].tobytes() == y[r].tobytes()


def test_run_is_deterministic(paper_game):
    mus1, lams1 = run(paper_game, Schedules(), 300, seeds=[5])
    mus2, lams2 = run(paper_game, Schedules(), 300, seeds=[5])
    assert np.array_equal(mus1, mus2)
    assert np.array_equal(lams1, lams2)


def test_run_rejects_invalid_schedules(paper_game):
    bad = Schedules(g=0.5)
    with pytest.raises(ScheduleError) as exc:
        run(paper_game, bad, 10, seeds=[0])
    assert "g>1/2" in str(exc.value)
    mus, _ = run(paper_game, bad, 10, seeds=[0], allow_invalid_schedules=True)
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


def test_update_decomposition_identity(paper_game, feedback_log):
    # the dual update rewritten through the sampling perturbation
    # S = K (mu - a) must coincide with the implemented projection step
    rng = np.random.default_rng(3)
    sched = Schedules()
    K = paper_game.constraints.K
    l = paper_game.constraints.l
    for trial in range(20):
        t = int(rng.integers(1, 50))
        mus, lams = run(paper_game, sched, t, seeds=[trial], mu0=rng.normal(size=2),
                        lam0=np.abs(rng.normal(size=1)))
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
    assert report.passed, [c.case for c in report.failures()]


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


def test_learner_state_rejects_negative_dual(paper_game):
    with pytest.raises(ValueError):
        run(paper_game, Schedules(), 1, seeds=[0], lam0=[-0.1])


@pytest.mark.parametrize("kw", [dict(mu0=[1.0, 2.0, 3.0]), dict(lam0=[0.1, 0.2])],
                         ids=["mu0-length", "lam0-length"])
def test_run_checks_start_point_length(paper_game, kw):
    # a negative lam0 is test_learner_state_rejects_negative_dual
    with pytest.raises(DimensionMismatchError):
        run(paper_game, Schedules(), 5, seeds=[0], **kw)


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
        run(paper_game, Schedules(G=1e300), 50, seeds=[4], record_every=1)
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
            run(paper_game, sched, 50, seeds=seeds, record_every=1)
        assert exc.value.seed == seeds[0]

    cfg = ExperimentConfig(game=paper_game, schedules=sched, T=50, seeds=[4, 5],
                           outdir=tmp_path, label="div", workers=1)
    with pytest.raises(DivergenceError) as exc:
        run_experiment(cfg)
    assert exc.value.seed == 4
    assert list(tmp_path.iterdir()) == []
