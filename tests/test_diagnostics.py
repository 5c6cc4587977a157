import types

import numpy as np
import pytest
from conftest import reference_estimates

import gnezero.diagnostics as diag
from gnezero.cli import main
from gnezero.diagnostics import (
    SmoothingProbe,
    drift_spread_report,
    dual_perturbation_stats,
    estimator_second_moment,
    path_drift_ratios,
    regularization_path_report,
    second_moment_growth_report,
    smoothing_bias_stats,
    smoothing_bias_order_report,
)
from gnezero.games import (
    DimensionMismatchError,
    paper_example,
    random_quadratic_game,
    resolve_game,
    softplus_game,
)


def test_probe_validation():
    with pytest.raises(ValueError):
        SmoothingProbe(mu=[0.0], lam=[0.0], sigma=0.0)
    with pytest.raises(ValueError):
        SmoothingProbe(mu=[0.0], lam=[0.0], sigma=0.1, num_samples=0)
    for bad in [dict(sigma=np.inf), dict(mu=[np.nan]), dict(lam=[-np.inf])]:
        with pytest.raises(ValueError, match="finite"):
            SmoothingProbe(**{"mu": [0.0], "lam": [0.0], "sigma": 0.1, **bad})


@pytest.mark.parametrize("bad", [
    dict(num_samples=2.5), dict(num_samples=True), dict(num_samples=-3),
    dict(seed=1.5), dict(seed=-1), dict(seed=False),
], ids=["fractional-samples", "bool-samples", "negative-samples",
        "fractional-seed", "negative-seed", "bool-seed"])
def test_probe_rejects_non_integer_samples_and_seed(bad):
    field = next(iter(bad))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SmoothingProbe(**{"mu": [0.0], "lam": [0.0], "sigma": 0.1, **bad})


def test_probe_accepts_numpy_integers():
    probe = SmoothingProbe(mu=[0.0], lam=[0.0], sigma=0.1,
                           num_samples=np.int64(5), seed=np.uint32(0))
    assert probe.num_samples == 5 and probe.seed == 0


@pytest.mark.parametrize("fields, what, expected, given", [
    (dict(mu=[0.1, 0.2, 0.3], lam=[0.5]), "probe mu", 2, 3),
    (dict(mu=[0.1, 0.2], lam=[0.5, 0.5]), "probe lam", 1, 2),
], ids=["mu", "lam"])
def test_probe_that_does_not_fit_the_game_fails_before_any_draw(monkeypatch, paper_game,
                                                               fields, what, expected, given):
    def no_draws(*args):
        raise AssertionError("drew samples for a probe that does not fit the game")

    monkeypatch.setattr(diag, "_draws", no_draws)
    probe = SmoothingProbe(sigma=0.1, num_samples=100, **fields)
    for check in (smoothing_bias_stats, estimator_second_moment, dual_perturbation_stats):
        with pytest.raises(DimensionMismatchError, match=what) as exc:
            check(paper_game, probe)
        assert (exc.value.expected, exc.value.given) == (expected, given)


# -- estimator bias -----------------------------------------------------------------


def test_bias_zero_for_quadratic(paper_game):
    probe = SmoothingProbe(mu=[0.3, -0.2], lam=[0.7], sigma=0.5,
                           num_samples=200_000, seed=6)
    all_stats = smoothing_bias_stats(paper_game, probe)
    assert len(all_stats) == 2
    for stats in all_stats:
        assert np.all(np.abs(stats.bias) <= 4 * stats.stderr)


@pytest.mark.parametrize("make_game, rel", [
    (paper_example, 0.0),
    (lambda: softplus_game(0), 0.0),
    # mu's payoff comes from costs_at here and from game.cost in the
    # reference, which may round differently
    (lambda: random_quadratic_game(4, dims=(2, 1, 2), num_constraints=2), 1e-12),
])
def test_all_player_pass_matches_per_player_reference(make_game, rel):
    game = make_game()
    rng = np.random.default_rng(12)
    n = game.constraints.num_constraints
    probe = SmoothingProbe(mu=rng.normal(scale=0.5, size=game.D),
                           lam=np.abs(rng.normal(scale=0.5, size=n)),
                           sigma=0.3, num_samples=250_000, seed=13)
    all_stats = smoothing_bias_stats(game, probe)
    moments = estimator_second_moment(game, probe)
    assert len(all_stats) == game.num_players
    assert moments.shape == (game.num_players,)
    M = probe.num_samples
    exact = game.pseudo_gradient(probe.mu) + game.constraints.K.T @ probe.lam
    for i, sl in enumerate(game.slices):
        # the reductions of a one-player pass, chunk by chunk
        total, total_sq, second = 0.0, 0.0, 0.0
        for m in reference_estimates(game, probe, i):
            total = total + m.sum(axis=0)
            total_sq = total_sq + np.einsum("kj,kj->j", m, m)
            second += float(np.einsum("kj,kj->", m, m))
        mean = total / M
        stderr = np.sqrt(np.maximum(total_sq / M - mean**2, 0.0) / M)
        bias = mean - exact[sl]
        stats = all_stats[i]
        got = [stats.bias, stats.stderr, stats.norm_sq_debiased, moments[i]]
        want = [bias, stderr, float(bias @ bias - stderr @ stderr), second / M]
        for x, y in zip(got, want):
            if rel == 0.0:
                assert np.array_equal(x, y)
            else:
                assert np.allclose(x, y, rtol=rel, atol=0.0)


def test_bias_quarter_when_sigma_halved():
    game = softplus_game(0)
    common = dict(mu=np.zeros(2), lam=np.zeros(1), num_samples=400_000, seed=7)
    hi = SmoothingProbe(sigma=0.1, **common)
    lo = SmoothingProbe(sigma=0.05, **common)
    sq_hi = sum(stats.norm_sq_debiased for stats in smoothing_bias_stats(game, hi))
    sq_lo = sum(stats.norm_sq_debiased for stats in smoothing_bias_stats(game, lo))
    assert 3.0 <= sq_hi / sq_lo <= 5.5


def test_bias_order_report_slope_two():
    game = softplus_game(0)
    probe = SmoothingProbe(mu=np.zeros(2), lam=np.zeros(1), sigma=0.1,
                           num_samples=400_000, seed=8)
    report = smoothing_bias_order_report(game, probe)
    case = report.cases[0]
    assert abs(case.statistic - 2.0) <= 0.3, case


# -- sweeps over one shared draw stream --------------------------------------------------


def _random_probe(game, num_samples, seed):
    rng = np.random.default_rng(seed)
    return SmoothingProbe(mu=rng.normal(scale=0.5, size=game.D),
                          lam=np.abs(rng.normal(scale=0.5, size=game.constraints.num_constraints)),
                          sigma=0.3, num_samples=num_samples, seed=seed)


def test_sigma_sweep_equals_separate_calls_bit_for_bit():
    game = resolve_game("softplus-ridge")
    sigmas = [0.2, 0.1, 0.05, 0.025]
    # three chunks, the last one short
    base = _random_probe(game, 250_000, 21)
    probes = [SmoothingProbe(base.mu, base.lam, s, base.num_samples, base.seed) for s in sigmas]
    swept = diag._bias_stats(game, probes)
    assert len(swept) == len(sigmas)
    norms_sq = []
    for probe, per_player in zip(probes, swept):
        alone = smoothing_bias_stats(game, probe)
        assert len(per_player) == len(alone) == game.num_players
        for got, want in zip(per_player, alone):
            for name in ("bias", "stderr"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.norm_sq_debiased == want.norm_sq_debiased
        norms_sq.append(max(sum(stats.norm_sq_debiased for stats in alone), 1e-30))
    report = smoothing_bias_order_report(game, base)
    assert report.cases[0].statistic == diag._loglog_slope(sigmas, norms_sq)


@pytest.mark.parametrize("make_game", [
    paper_example,
    lambda: random_quadratic_game(4, dims=(2, 1, 2), num_constraints=2),
])
def test_scale_sweep_equals_separate_calls_bit_for_bit(make_game):
    game = make_game()
    probe = _random_probe(game, 250_000, 22)
    scales = (1.0, 2.0, 4.0, 8.0)
    swept = diag._second_moments(game, [probe.scaled(c) for c in scales])
    alone = np.array([estimator_second_moment(game, probe.scaled(c)) for c in scales])
    assert swept.shape == (len(scales), game.num_players)
    assert np.array_equal(swept, alone)
    report = second_moment_growth_report(game, probe)
    for i, case in enumerate(report.cases):
        assert case.statistic == diag._loglog_slope(scales, alone[:, i].tolist())


@pytest.mark.parametrize("change", [
    dict(seed=1), dict(num_samples=1_001), dict(mu=np.zeros(3)),
], ids=["seed", "num_samples", "dimension"])
def test_sweep_rejects_probes_with_different_streams(paper_game, change):
    first = SmoothingProbe(mu=[0.1, 0.2], lam=[0.3], sigma=0.2, num_samples=1_000, seed=0)
    fields = dict(mu=first.mu, lam=first.lam, sigma=0.1,
                  num_samples=first.num_samples, seed=first.seed)
    other = SmoothingProbe(**{**fields, **change})
    with pytest.raises(ValueError, match="share one seed, num_samples and dimension"):
        diag._bias_stats(paper_game, [first, other])
    with pytest.raises(ValueError, match="share one seed, num_samples and dimension"):
        diag._second_moments(paper_game, [first, other])


def test_bias_order_check_draws_each_chunk_once(monkeypatch, capsys):
    # diagnose runs the sigma sweep at 400,000 samples: four 1e5-row chunks
    # drawn once for all four sigmas, not once per sigma
    shapes = []

    class CountingGenerator:
        def __init__(self, seed):
            self._rng = np.random.default_rng(seed)

        def standard_normal(self, size):
            shapes.append(size)
            return self._rng.standard_normal(size)

    class NumpyWithCountingGenerator:
        random = types.SimpleNamespace(default_rng=CountingGenerator)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(diag, "np", NumpyWithCountingGenerator())
    assert main(["diagnose", "--checks", "smoothing-bias-order"]) == 0
    capsys.readouterr()
    assert shapes == [(100_000, 2)] * 4


def test_dual_perturbation_second_moment(paper_game):
    probe = SmoothingProbe(mu=[0.1, 0.9], lam=[0.5], sigma=0.3,
                           num_samples=100_000, seed=9)
    est, exact = dual_perturbation_stats(paper_game, probe)
    assert exact == pytest.approx(probe.sigma**2 * np.sum(paper_game.constraints.K**2))
    assert abs(est - exact) / exact <= 0.05

    # the estimate folds the probe's own default_rng(seed) stream chunk by
    # chunk; three chunks, the last one short
    probe = SmoothingProbe(mu=[0.1, 0.9], lam=[0.5], sigma=0.3,
                           num_samples=250_001, seed=9)
    K = paper_game.constraints.K
    rng = np.random.default_rng(probe.seed)
    total = 0.0
    for start in range(0, probe.num_samples, 100_000):
        size = min(100_000, probe.num_samples - start)
        S = -probe.sigma * rng.standard_normal((size, paper_game.D)) @ K.T
        total += float(np.einsum("kj,kj->", S, S))
    assert dual_perturbation_stats(paper_game, probe)[0] == total / probe.num_samples


# -- regularization path --------------------------------------------------------------


def test_regularization_path_report_paper(paper_game):
    report = regularization_path_report(paper_game, [1e-1, 1e-2, 1e-3, 1e-4])
    gap_cases = [c for c in report.cases if c.case.startswith("gap-bound")]
    assert len(gap_cases) == 4
    assert all(c.passed for c in gap_cases)


def test_regularization_path_report_random_games(random_games):
    for game in random_games:
        report = regularization_path_report(game, [1e-1, 1e-2, 1e-3, 1e-4])
        assert report.passed, [(c.case, c.statistic, c.bound) for c in report.failures()]


def test_degenerate_grid_reports_zero_drift(paper_game):
    r_primal, r_dual = path_drift_ratios(paper_game, [0.1, 0.1])
    assert r_primal.tolist() == [0.0]
    assert r_dual.tolist() == [0.0]
    report = regularization_path_report(paper_game, [0.1, 0.1])
    drift = [c for c in report.cases if "drift" in c.case]
    assert all(c.statistic == 0.0 for c in drift)


def test_drift_spread_report_schedule_path(paper_game):
    report = drift_spread_report(paper_game)
    assert report.passed
    for case in report.cases:
        assert case.statistic <= 10.0


def test_path_report_rejects_bad_grid(paper_game):
    with pytest.raises(ValueError):
        regularization_path_report(paper_game, [0.1, -0.2])


def test_reports_deterministic(paper_game):
    probe = SmoothingProbe(mu=[0.2, 0.1], lam=[0.4], sigma=0.3,
                           num_samples=20_000, seed=10)
    for s1, s2 in zip(smoothing_bias_stats(paper_game, probe),
                      smoothing_bias_stats(paper_game, probe)):
        assert np.array_equal(s1.bias, s2.bias)
        assert s1.norm_sq_debiased == s2.norm_sq_debiased
