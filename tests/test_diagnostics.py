import json
import re
import types
from itertools import combinations

import numpy as np
import pytest
from conftest import reference_estimates

import gnezero.diagnostics as diag
from gnezero.cli import main
from gnezero.diagnostics import (
    SmoothingProbe,
    drift_spread_report,
    dual_perturbation_report,
    dual_perturbation_stats,
    estimator_mean_report,
    estimator_second_moment,
    path_drift_ratios,
    regularization_path_report,
    second_moment_growth_report,
    smoothing_bias_stats,
    smoothing_bias_order_report,
)
from gnezero.games import (
    DimensionMismatchError,
    PayoffEnvironment,
    paper_example,
    random_quadratic_game,
    resolve_game,
    softplus_game,
)
from gnezero.learner import two_point_estimate


def test_probe_validation():
    with pytest.raises(ValueError):
        SmoothingProbe(mu=[0.0], lam=[0.0], sigma=0.0)
    with pytest.raises(ValueError):
        SmoothingProbe(mu=[0.0], lam=[0.0], sigma=0.1, num_samples=0)
    for bad in [dict(sigma=np.inf), dict(sigma=True), dict(sigma="0.1"), dict(mu=[np.nan]),
                dict(lam=[-np.inf])]:
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
    # integral floats count as well, as they do for seeds and game files
    probe = SmoothingProbe(mu=[0.0], lam=[0.0], sigma=0.1, num_samples=1000.0, seed=2.0)
    assert (probe.num_samples, probe.seed) == (1000, 2)
    assert type(probe.num_samples) is int and type(probe.seed) is int


def test_a_float32_sigma_is_stored_and_reported_as_a_float(paper_game):
    probe = SmoothingProbe(mu=[0.1, 0.9], lam=[0.5], sigma=np.float32(0.3), num_samples=1000)
    assert type(probe.sigma) is float and probe.sigma == float(np.float32(0.3))
    est, exact = dual_perturbation_stats(paper_game, probe)
    assert type(est) is float and type(exact) is float


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
        # the reductions of a one-player pass, chunk by chunk, each chunk
        # over the pass's row blocks in order
        total, total_sq = 0.0, 0.0
        for m in reference_estimates(game, probe, i):
            blocks = max(1, len(m) // diag._BLOCK)
            edges = [j * diag._BLOCK for j in range(blocks)] + [len(m)]
            for a, b in zip(edges, edges[1:]):
                total = total + m[a:b].sum(axis=0)
                total_sq = total_sq + np.einsum("kj,kj->j", m[a:b], m[a:b])
        second = total_sq.sum()
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


_SIGMAS = [0.2, 0.1, 0.05, 0.025]


def _bias_stats(game, probes, antithetic=False):
    """The probes' smoothing_bias_stats from one _moments pass over them all."""
    return diag._bias_stats_from(game, probes, diag._moments(game, probes, antithetic=antithetic))


def _sweep_norms(game, base, antithetic):
    """The sigma sweep's squared bias norms; asserts each row equals a one-sigma pass."""
    probes = [SmoothingProbe(base.mu, base.lam, s, base.num_samples, base.seed) for s in _SIGMAS]
    swept = _bias_stats(game, probes, antithetic)
    assert len(swept) == len(_SIGMAS)
    norms_sq = []
    for probe, per_player in zip(probes, swept):
        alone = (_bias_stats(game, [probe], antithetic=True)[0] if antithetic
                 else smoothing_bias_stats(game, probe))
        assert len(per_player) == len(alone) == game.num_players
        for got, want in zip(per_player, alone):
            for name in ("bias", "stderr"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.norm_sq_debiased == want.norm_sq_debiased
        norms_sq.append(max(sum(stats.norm_sq_debiased for stats in alone), 1e-30))
    return norms_sq


def test_sigma_sweep_equals_separate_calls_bit_for_bit():
    game = resolve_game("softplus-ridge")
    # three chunks, the last one short
    base = _random_probe(game, 250_000, 21)
    _sweep_norms(game, base, antithetic=False)
    # the report is the antithetic sweep at its own pair count, whatever the
    # probe's sigma and num_samples
    pairs = SmoothingProbe(base.mu, base.lam, base.sigma, diag._BIAS_PAIRS, base.seed)
    report = smoothing_bias_order_report(game, base)
    assert report.cases[0].statistic == diag._loglog_slope(
        _SIGMAS, _sweep_norms(game, pairs, antithetic=True))


def test_antithetic_sigma_sweep_equals_separate_calls_bit_for_bit():
    game = resolve_game("softplus-ridge")
    # three chunks of pairs, the last one short
    _sweep_norms(game, _random_probe(game, 250_000, 21), antithetic=True)


def _halves(game, probe):
    """Test-local reference: the two-point estimates at xi and at -xi, row by row.

    xi is one (num_samples, D) chunk of the probe's default_rng(seed)
    stream; each half is the learner's estimate around mu.
    """
    env = PayoffEnvironment(game)
    xi = np.random.default_rng(probe.seed).standard_normal((probe.num_samples, game.D))
    u_mu = env.feedback(probe.mu[None], probe.lam)[0][0]
    halves = []
    for sign in (1.0, -1.0):
        X = probe.mu + sign * probe.sigma * xi
        U = env.feedback(X, probe.lam)[0]
        halves.append(np.concatenate(
            [two_point_estimate(U[:, i, None], u_mu[i], X[:, sl], probe.mu[sl], probe.sigma)
             for i, sl in enumerate(game.slices)], axis=1))
    return halves


def test_antithetic_pair_estimate_is_the_mean_of_the_two_point_estimates():
    game = resolve_game("softplus-ridge")
    base = _random_probe(game, diag._BLOCK, 23)  # one block of pairs
    for sigma in _SIGMAS:
        probe = SmoothingProbe(base.mu, base.lam, sigma, base.num_samples, base.seed)
        plus, minus = _halves(game, probe)
        m = (plus + minus) / 2
        sum_m, sumsq_m = diag._moments(game, [probe], antithetic=True)
        # the estimate columns; the dual columns -sigma K xi follow them
        assert np.allclose(sum_m[0, :game.D], m.sum(axis=0), rtol=1e-12, atol=0.0)
        assert np.allclose(sumsq_m[0, :game.D], (m * m).sum(axis=0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("point", ["report", "random"])
def test_antithetic_stderr_is_the_spread_of_the_pair_means(point):
    game = resolve_game("softplus-ridge")
    M = diag._BIAS_PAIRS
    base = (_random_probe(game, M, 24) if point == "random" else
            SmoothingProbe(mu=np.zeros(2), lam=np.zeros(1), sigma=0.1, num_samples=M, seed=24))
    for sigma in _SIGMAS:
        probe = SmoothingProbe(base.mu, base.lam, sigma, M, base.seed)
        plus, minus = _halves(game, probe)
        stats = _bias_stats(game, [probe], antithetic=True)[0]
        stderr = np.concatenate([s.stderr for s in stats])
        assert np.allclose(stderr, ((plus + minus) / 2).std(axis=0) / np.sqrt(M),
                           rtol=1e-8, atol=0.0)
        if point == "report":
            # at the report's point, mu = 0, the halves of a pair are
            # negatively correlated, so the 2M single estimates, read as
            # independent, would overstate the error many times over
            naive = np.concatenate([plus, minus]).std(axis=0) / np.sqrt(2 * M)
            assert np.all(naive > 5 * stderr)


@pytest.mark.parametrize("make_game", [
    paper_example,
    lambda: random_quadratic_game(4, dims=(2, 1, 2), num_constraints=2),
])
def test_scale_sweep_equals_separate_calls_bit_for_bit(make_game):
    game = make_game()
    probe = _random_probe(game, 250_000, 22)
    scales = (1.0, 2.0, 4.0, 8.0)
    probes = [probe.scaled(c) for c in scales]
    swept = diag._second_moments_from(game, probes, diag._moments(game, probes))
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
    for antithetic in (False, True):
        with pytest.raises(ValueError, match="share one seed, num_samples and dimension"):
            diag._moments(paper_game, [first, other], antithetic=antithetic)


def test_bias_order_check_draws_each_chunk_once(monkeypatch, capsys):
    # diagnose runs the sigma sweep on 24,576 antithetic pairs: one chunk of
    # three whole row blocks, drawn once for all four sigmas, not once per sigma
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
    assert shapes == [(24_576, 2)]


def _counting_draws(monkeypatch):
    """Wrap diag._draws; the returned list collects the shape of every chunk drawn."""
    shapes, draws = [], diag._draws

    def counting(seed, num_samples, dim):
        for xi in draws(seed, num_samples, dim):
            shapes.append(xi.shape)
            yield xi

    monkeypatch.setattr(diag, "_draws", counting)
    return shapes


def _check_rows(capsys, argv, check):
    assert main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(check + ",")]


@pytest.fixture
def d5_game_file(tmp_path):
    game = random_quadratic_game(4, dims=(2, 1, 2), num_constraints=2)
    path = tmp_path / "d5.json"
    path.write_text(json.dumps({"players": 3, "dims": [2, 1, 2], "A": game.A.tolist(),
                                "b": game.b.tolist(), "K": game.constraints.K.tolist(),
                                "l": game.constraints.l.tolist()}))
    return str(path)


@pytest.mark.parametrize("game", ["paper-example", "d5"])
def test_all_checks_share_the_estimator_pass_byte_for_byte(capsys, d5_game_file, game):
    # the probe checks share one pass, at the scale sweep when
    # second-moment-growth runs; every check's rows, under every nonempty
    # subset of them and under --checks all, equal the check run alone
    flags = ["--game", d5_game_file if game == "d5" else game, "--seed", "3",
             "--num-samples", "20000"]
    alone = {check: _check_rows(capsys, ["diagnose", "--checks", check, *flags], check)
             for check in diag._PROBE_CHECKS}
    assert all(alone.values())
    subsets = [list(c) for r in (1, 2, 3) for c in combinations(diag._PROBE_CHECKS, r)]
    for checks in [*subsets, ["all"]]:
        assert main(["diagnose", "--checks", ",".join(checks), *flags]) == 0
        together = capsys.readouterr().out.splitlines()
        for check in (diag._PROBE_CHECKS if checks == ["all"] else checks):
            assert [line for line in together if line.startswith(check + ",")] == alone[check]


def test_all_checks_draw_one_chunk_fewer_than_the_checks_alone(monkeypatch, capsys):
    shapes = _counting_draws(monkeypatch)
    alone = 0
    for check in ("estimator-mean", "dual-perturbation", "second-moment-growth",
                  "smoothing-bias-order"):
        _check_rows(capsys, ["diagnose", "--checks", check], check)
        alone += len(shapes)
        shapes.clear()
    assert alone == 4  # one chunk each
    assert main(["diagnose", "--checks", "all"]) == 0
    capsys.readouterr()
    # one stream per game: the estimator pass that estimator-mean,
    # dual-perturbation and second-moment-growth share, then the sigma
    # sweep's pairs on softplus-ridge
    assert shapes == [(100_000, 2), (24_576, 2)]


def test_bias_order_check_passes_on_64_seeds(capsys):
    for seed in range(64):
        assert main(["diagnose", "--checks", "smoothing-bias-order", "--seed", str(seed)]) == 0
    capsys.readouterr()


def test_bias_order_case_names_its_pair_count(capsys):
    argv = ["diagnose", "--checks", "smoothing-bias-order"]
    rows = _check_rows(capsys, argv, "smoothing-bias-order")
    # the check ignores --num-samples and --sigma
    assert _check_rows(capsys, argv + ["--num-samples", "1", "--sigma", "3"],
                       "smoothing-bias-order") == rows
    case = smoothing_bias_order_report(
        softplus_game(0), SmoothingProbe(mu=np.zeros(2), lam=np.zeros(1), sigma=3.0,
                                         num_samples=1)).cases[0].case
    assert "24576 antithetic pairs" in case and "," not in case
    assert len(rows) == 1 and rows[0].split(",")[1] == case


def test_all_checks_reject_one_sample_before_any_draw(monkeypatch, capsys):
    shapes = _counting_draws(monkeypatch)
    assert main(["diagnose", "--num-samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("gnezero diagnose: error: the standard error needs "
                            "num_samples >= 2, got 1\n")
    assert shapes == []


def test_dual_perturbation_second_moment(paper_game):
    probe = SmoothingProbe(mu=[0.1, 0.9], lam=[0.5], sigma=0.3,
                           num_samples=100_000, seed=9)
    est, exact = dual_perturbation_stats(paper_game, probe)
    assert exact == pytest.approx(probe.sigma**2 * np.sum(paper_game.constraints.K**2))
    assert abs(est - exact) / exact <= 0.05

    # the estimate folds the probe's own default_rng(seed) stream chunk by
    # chunk, each chunk over the pass's row blocks in order, column by
    # column; three chunks, the last one short
    probe = SmoothingProbe(mu=[0.1, 0.9], lam=[0.5], sigma=0.3,
                           num_samples=250_001, seed=9)
    K = paper_game.constraints.K
    rng = np.random.default_rng(probe.seed)
    total = np.zeros(K.shape[0])
    for start in range(0, probe.num_samples, 100_000):
        size = min(100_000, probe.num_samples - start)
        xi = rng.standard_normal((size, paper_game.D))
        edges = [j * diag._BLOCK for j in range(max(1, size // diag._BLOCK))] + [size]
        for a, b in zip(edges, edges[1:]):
            S = -probe.sigma * xi[a:b] @ K.T
            total = total + np.einsum("kj,kj->j", S, S)
    assert dual_perturbation_stats(paper_game, probe)[0] == float(total.sum()) / probe.num_samples


# -- regularization path --------------------------------------------------------------


def test_regularization_path_report_paper(paper_game):
    report = regularization_path_report(paper_game, [1e-1, 1e-2, 1e-3, 1e-4])
    gap_cases = [c for c in report.cases if c.case.startswith("gap-bound")]
    assert len(gap_cases) == 4
    assert all(c.passed for c in gap_cases)


def test_regularization_path_report_random_games(random_games):
    for game in random_games:
        report = regularization_path_report(game, [1e-1, 1e-2, 1e-3, 1e-4])
        assert all(c.passed for c in report.cases), report.cases


def test_degenerate_grid_reports_zero_drift(paper_game):
    r_primal, r_dual = path_drift_ratios(paper_game, [0.1, 0.1])
    assert r_primal.tolist() == [0.0]
    assert r_dual.tolist() == [0.0]
    report = regularization_path_report(paper_game, [0.1, 0.1])
    drift = [c for c in report.cases if "drift" in c.case]
    assert all(c.statistic == 0.0 for c in drift)


def test_one_eps_grid_reports_the_gap_only(paper_game):
    report = regularization_path_report(paper_game, [0.1])
    assert [c.case for c in report.cases] == ["gap-bound eps=0.1"]


def test_drift_spread_report_schedule_path(paper_game):
    report = drift_spread_report(paper_game)
    assert all(c.passed for c in report.cases)
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


def _fail(*args, **kwargs):
    raise AssertionError("a check ran")


@pytest.mark.parametrize("report", [estimator_mean_report, dual_perturbation_report])
def test_probe_report_functions_equal_the_run_checks_reports(paper_game, report):
    # each public report is run_checks' report of its check, alone and
    # read off the shared pass of every probe check
    probe = SmoothingProbe(mu=[0.3, -0.2], lam=[0.4], sigma=0.2, num_samples=500, seed=7)
    want = report(paper_game, probe)
    for checks in ([want.check], diag._PROBE_CHECKS):
        reports, _ = diag.run_checks(paper_game, probe, [0.1], checks)
        assert [r for r in reports if r.check == want.check] == [want]


def test_run_checks_rejects_an_unknown_name_before_any_check(monkeypatch, paper_game):
    for name in ("_moments", "regularization_path_report", "drift_spread_report"):
        monkeypatch.setattr(diag, name, _fail)
    probe = SmoothingProbe(mu=[0.2, 0.1], lam=[0.4], sigma=0.3, num_samples=100)
    with pytest.raises(ValueError, match=r"unknown checks: \['bogus'\]; available: "
                                         + re.escape(str(list(diag.CHECKS)))):
        diag.run_checks(paper_game, probe, [0.1], ["reg-path", "bogus", "dual-perturbation"])


@pytest.mark.parametrize("game, skipped", [
    ("paper-example", []),
    ("softplus-ridge", ["reg-path", "estimator-mean"]),
])
def test_run_checks_reports_in_check_order_and_skips_quadratic_checks(game, skipped):
    game = resolve_game(game)
    probe = SmoothingProbe(mu=np.full(game.D, 0.1), lam=[0.2], sigma=0.3, num_samples=200)
    reports, got = diag.run_checks(game, probe, [0.1, 0.01], diag.CHECKS[::-1])
    assert got == skipped
    expected = {"reg-path": ["regularization-path", "drift-spread"]}
    assert [r.check for r in reports] == [name for check in diag.CHECKS if check not in skipped
                                          for name in expected.get(check, [check])]
