import json

import numpy as np
import pytest

from gnezero.games import PayoffEnvironment, _row_dots, random_quadratic_game
from gnezero.harness import (
    ExperimentConfig,
    MetricsTable,
    _aggregate,
    emit_plot_script,
    fit_rate,
    reproduce_fig1,
    run_experiment,
)
from gnezero.learner import checkpoints, run
from gnezero.schedules import Schedules


# -- rate fitting ------------------------------------------------------------------


def test_fit_rate_recovers_planted_exponent():
    t = np.unique(np.round(np.geomspace(10, 1e5, 60)).astype(int))
    err = 7.0 / t ** (4.0 / 7.0)
    fit = fit_rate(t, err, 10, 1e5)
    assert fit.slope == pytest.approx(-4.0 / 7.0, abs=1e-6)
    assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_constant_series():
    t = np.arange(1, 100)
    fit = fit_rate(t, np.full(t.shape, 3.0), 1, 99)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0
    # 82 log checkpoints on [1e3, 1e5]: the mean of these equal logs is off
    # by an ulp, which left ss_tot near 1e-29 and r^2 at 0, -8 or -5.3
    t = checkpoints(100_000, "log")
    for value in (28.62, 28.6234, 3.0, 5.5):
        fit = fit_rate(t, np.full(t.shape, value), 1e3, 1e5)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0, value


def test_fit_rate_validations():
    t = np.array([10, 20, 30, 40, 50])
    err = np.array([1.0, 0.5, 0.4, 0.3, 0.2])
    with pytest.raises(ValueError):
        fit_rate(t, err, 10, 30)  # only 3 checkpoints in window
    with pytest.raises(ValueError):
        fit_rate(t, np.array([1.0, 0.5, -0.4, 0.3, 0.2]), 10, 50)
    with pytest.raises(ValueError):
        fit_rate(t, err, 50, 10)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            fit_rate(t, np.array([1.0, 0.5, bad, 0.3, 0.2]), 10, 50)


@pytest.mark.parametrize("t_bad", [0, -2])
def test_fit_rate_rejects_a_non_positive_checkpoint_in_the_window(t_bad):
    t = np.array([t_bad, 1, 2, 3, 4, 5])
    err = np.array([1.0, 0.5, 0.4, 0.3, 0.2, 0.1])
    with pytest.raises(ValueError, match=f"checkpoints must be positive.*t = {t_bad}$"):
        fit_rate(t, err, -5, 10)
    assert fit_rate(t, err, 1, 10).slope < 0  # outside the window it is ignored


# -- experiments --------------------------------------------------------------------


def test_run_experiment_small(tmp_path):
    cfg = ExperimentConfig(game="paper-example", schedules=Schedules(), T=10,
                           seeds=[0], record_every=1, outdir=tmp_path, label="tiny")
    table = run_experiment(cfg)
    assert table.t.tolist() == list(range(1, 11))
    assert table.num_seeds == 1
    assert table.raw_csv.exists()
    assert table.agg_csv.exists()
    raw_lines = table.raw_csv.read_text().splitlines()
    assert raw_lines[0] == "t,seed,err_primal_sq,err_dual_sq,gamma,eps,sigma"
    assert len(raw_lines) == 11


def test_run_experiment_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = ExperimentConfig(game="paper-example", schedules=Schedules(), T=50,
                               seeds=[3, 4, 5], outdir=out, label="det")
        run_experiment(cfg)
    assert (out1 / "det_raw.csv").read_bytes() == (out2 / "det_raw.csv").read_bytes()
    assert (out1 / "det_agg.csv").read_bytes() == (out2 / "det_agg.csv").read_bytes()


def test_reference_solved_once_per_experiment(monkeypatch):
    import gnezero.oracles

    calls = []
    solve = gnezero.oracles.solve_vgne
    monkeypatch.setattr(gnezero.oracles, "solve_vgne",
                        lambda game: calls.append(game) or solve(game))
    run_experiment(ExperimentConfig(game="paper-example", schedules=Schedules(), T=10,
                                    seeds=[0, 1, 2]))
    assert len(calls) == 1


def test_nonquadratic_game_has_nan_errors_and_finite_iterates(tmp_path):
    # no oracle reference exists for softplus-ridge, so every error is NaN,
    # while the learner's own iterates stay finite
    from gnezero.games import PayoffEnvironment, resolve_game
    from gnezero.learner import run

    game = resolve_game("softplus-ridge")
    table = run_experiment(ExperimentConfig(game=game, schedules=Schedules(), T=20,
                                            seeds=[0], outdir=tmp_path, label="sp"))
    for column in (table.err_primal_sq, table.err_dual_sq,
                   table.mean_err_primal_sq, table.mean_err_dual_sq):
        assert np.all(np.isnan(column))
    raw = np.genfromtxt(tmp_path / "sp_raw.csv", delimiter=",", names=True)
    assert np.all(np.isnan(raw["err_primal_sq"])) and np.all(raw["sigma"] > 0)
    mus, lams = run(PayoffEnvironment(game), Schedules(), 20, seeds=[0])
    assert np.all(np.isfinite(mus)) and np.all(np.isfinite(lams))


def test_aggregation_permutation_invariant():
    base = ExperimentConfig(game="paper-example", schedules=Schedules(), T=40,
                            seeds=[1, 2, 3, 4])
    shuffled = ExperimentConfig(game="paper-example", schedules=Schedules(), T=40,
                                seeds=[4, 2, 1, 3])
    t1 = run_experiment(base)
    t2 = run_experiment(shuffled)
    assert np.array_equal(t1.mean_err_primal_sq, t2.mean_err_primal_sq)
    assert np.array_equal(t1.sem_err_primal_sq, t2.sem_err_primal_sq)
    assert np.array_equal(t1.mean_err_dual_sq, t2.mean_err_dual_sq)


@pytest.mark.parametrize("dim", [0, 1, 2, 5, 24, 48])
def test_sq_dists_equal_one_dot_per_point(dim):
    # _aggregate's squared distances are games._row_dots of the differences;
    # dim 0 is the error of an empty dual; the points span scales 1e-6 to 1e3
    rng = np.random.default_rng(dim)
    points = rng.standard_normal((5, 41, dim)) * 10.0 ** rng.uniform(-6, 3, (5, 41, 1))
    for ref in (rng.standard_normal(dim), np.full(dim, np.nan)):
        expected = np.array([[float(d @ d) for d in row - ref] for row in points])
        got = _row_dots(points - ref)
        assert got.shape == (5, 41)
        assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize("num_seeds", [1, 2, 20])
@pytest.mark.parametrize("D, n, num_checkpoints", [(2, 1, 1), (2, 1, 30), (24, 12, 30)])
def test_aggregate_equals_one_reduction_per_error(num_seeds, D, n, num_checkpoints):
    rng = np.random.default_rng([num_seeds, D, num_checkpoints])
    seeds = rng.permutation(10 * num_seeds)[:num_seeds].tolist()  # shuffled
    t = np.arange(1, num_checkpoints + 1)
    mus = rng.standard_normal((num_seeds, num_checkpoints, D))
    lams = rng.uniform(0.0, 2.0, (num_seeds, num_checkpoints, n))
    reference = rng.standard_normal(D), rng.uniform(0.0, 1.0, n)
    table = _aggregate("agg", seeds, t, mus, lams, reference)
    order = np.argsort(seeds, kind="stable")
    for points, ref, errs, mean, sem in (
            (mus, reference[0], table.err_primal_sq, table.mean_err_primal_sq,
             table.sem_err_primal_sq),
            (lams, reference[1], table.err_dual_sq, table.mean_err_dual_sq,
             table.sem_err_dual_sq)):
        # the two-copy computation: one dot per point, then each error reduced alone
        expected = np.array([[float(d @ d) for d in row - ref] for row in points])
        assert np.array_equal(errs, expected)  # in seed-list order
        ordered = expected[order]
        assert np.array_equal(mean, ordered.mean(axis=0))
        assert np.array_equal(sem, ordered.std(axis=0, ddof=1) / np.sqrt(num_seeds)
                              if num_seeds > 1 else np.zeros(num_checkpoints))
    assert (table.num_seeds, table.seeds) == (num_seeds, seeds)


def test_mean_error_decreases_beyond_transient():
    cfg = ExperimentConfig(game="paper-example", schedules=Schedules(), T=2_000,
                           seeds=list(range(5)))
    table = run_experiment(cfg)
    early = table.mean_err_primal_sq[np.searchsorted(table.t, 100)]
    late = table.mean_err_primal_sq[-1]
    assert late < early


def test_worker_pool_matches_sequential(tmp_path):
    # 5 seeds over 1, 2 and 3 workers: uneven contiguous batches, same bytes
    seeds = [0, 1, 2, 3, 4]
    shuffled = [3, 0, 4, 1, 2]
    agg = set()
    for order in (seeds, shuffled):
        raw = set()
        for workers in (1, 2, 3):
            out = tmp_path / f"{order[0]}_{workers}"
            run_experiment(ExperimentConfig(game="paper-example", schedules=Schedules(),
                                            T=30, seeds=order, outdir=out, label="w",
                                            workers=workers))
            raw.add((out / "w_raw.csv").read_bytes())
            agg.add((out / "w_agg.csv").read_bytes())
        assert len(raw) == 1  # the raw CSV lists seeds in seed-list order
    assert len(agg) == 1


def test_a_d24_json_game_runs_the_same_over_workers_and_batches(tmp_path):
    # D = 24 with 12 constraints: CSV bytes equal at 1 and 2 workers, and
    # seed 0's rows equal those of a run of seed 0 alone
    game = random_quadratic_game(7, dims=[2] * 12, num_constraints=12)
    path = tmp_path / "d24.json"
    path.write_text(json.dumps({
        "name": game.name, "players": game.num_players, "dims": list(game.dims),
        "A": game.A.tolist(), "b": game.b.tolist(),
        "K": game.constraints.K.tolist(), "l": game.constraints.l.tolist()}))
    sched = Schedules(G=0.138)
    raw = {}
    for label, seeds, workers in (("w1", range(20), 1), ("w2", range(20), 2), ("alone", [0], 1)):
        run_experiment(ExperimentConfig(game=str(path), schedules=sched, T=300, seeds=list(seeds),
                                        outdir=tmp_path, label=label, workers=workers))
        raw[label] = (tmp_path / f"{label}_raw.csv").read_text().splitlines()
    assert raw["w1"] == raw["w2"]
    assert (tmp_path / "w1_agg.csv").read_bytes() == (tmp_path / "w2_agg.csv").read_bytes()
    seed0 = [row for row in raw["w1"][1:] if row.split(",")[1] == "0"]
    assert seed0 == raw["alone"][1:] and len(seed0) > 1


def test_frozen_seeds_are_bit_identical_from_their_checkpoint_to_T():
    # at G = 1 the D = 24 game's iterates run away until sigma_t xi falls below
    # their float resolution. Which seeds freeze may depend on the BLAS, so
    # the test checks the rule on whatever seeds the run names.
    game = random_quadratic_game(7, dims=[2] * 12, num_constraints=12)
    seeds = list(range(20))
    table = run_experiment(ExperimentConfig(game=game, schedules=Schedules(), T=500,
                                            seeds=seeds))
    assert table.frozen
    assert list(table.frozen) == [seed for seed in seeds if seed in table.frozen]
    mus, _ = run(PayoffEnvironment(game), Schedules(), 500, seeds)
    last = len(table.t) - 1
    for r, seed in enumerate(seeds):
        same = [bool((mus[r, j] == mus[r, last]).all()) for j in range(last)]
        if seed in table.frozen:
            j = int(np.searchsorted(table.t, table.frozen[seed]))
            assert table.t[j] == table.frozen[seed] and j < last
            assert all(same[j:]) and (j == 0 or not same[j - 1])  # the earliest such t_j
        else:
            assert not same[-1]


def test_bad_outdir_fails_before_running(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = ExperimentConfig(game="paper-example", schedules=Schedules(), T=10,
                           seeds=[0], outdir=blocker)
    with pytest.raises((FileExistsError, NotADirectoryError, PermissionError)):
        run_experiment(cfg)


def test_config_validations():
    with pytest.raises(ValueError):
        ExperimentConfig(game="paper-example", schedules=Schedules(), T=10, seeds=[])
    with pytest.raises(ValueError):
        ExperimentConfig(game="paper-example", schedules=Schedules(), T=0, seeds=[1])


_BAD_SEEDS = "seed must be an integer >= 0"


@pytest.mark.parametrize("change, match", [
    ({"seeds": [1.5]}, _BAD_SEEDS),
    ({"seeds": [True]}, _BAD_SEEDS),
    ({"seeds": [-1]}, _BAD_SEEDS),
    ({"seeds": ["1"]}, _BAD_SEEDS),
    ({"T": 0}, "T must be an integer >= 1"),
    ({"T": 10.5}, "T must be an integer >= 1"),
    ({"T": True}, "T must be an integer >= 1"),
    ({"record_every": 0}, "record_every must be an integer >= 1"),
    ({"record_every": 2.7}, "record_every must be an integer >= 1"),
    ({"workers": 0}, "workers must be an integer >= 1"),
    ({"workers": 1.5, "seeds": [0, 1, 2, 3]}, "workers must be an integer >= 1"),
    ({"workers": True}, "workers must be an integer >= 1"),
    ({"schedules": Schedules(g=0.3)}, r"validity conditions: s\+g>1 .*, g>1/2"),
    ({"schedules": Schedules(G=0.0)}, "validity conditions: G>0"),
    ({"schedules": Schedules(E=0.0)}, "validity conditions: E>0"),
], ids=["fraction", "bool", "negative", "string", "T-0", "T-10.5", "T-bool",
        "record_every-0", "record_every-2.7", "workers-0", "workers-1.5", "workers-bool",
        "g-0.3", "G-0", "E-0"])
def test_config_rejects_bad_seeds_before_making_the_outdir(tmp_path, change, match):
    # and every other bad input: the config checks all of it when built
    outdir = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        run_experiment(ExperimentConfig(**{"game": "paper-example", "schedules": Schedules(),
                                           "T": 10, "seeds": [0], "outdir": outdir,
                                           **change}))
    assert not outdir.exists()


def test_reproduce_fig1_rejects_an_empty_s_list_before_writing(tmp_path):
    outdir = tmp_path / "out"
    with pytest.raises(ValueError, match="^need at least one s value$"):
        reproduce_fig1(outdir, s_values=())
    assert not outdir.exists()


def test_reproduce_fig1_rejects_a_fractional_seed_count_before_writing(tmp_path):
    outdir = tmp_path / "out"
    for num_seeds in (1.5, 0, True):
        with pytest.raises(ValueError, match="num_seeds must be an integer >= 1"):
            reproduce_fig1(outdir, T=10, num_seeds=num_seeds)
    assert not outdir.exists()


# -- plot script ------------------------------------------------------------------


def _table_with_csv(tmp_path, name):
    cfg = ExperimentConfig(game="paper-example", schedules=Schedules(), T=20,
                           seeds=[0], outdir=tmp_path, label=name)
    return run_experiment(cfg)


def test_emit_plot_script_three_variants(tmp_path):
    tables = [_table_with_csv(tmp_path, f"v{k}") for k in range(3)]
    script = emit_plot_script(tables, tmp_path / "plot.py")
    text = script.read_text()
    for k in range(3):
        assert f"v{k}_agg.csv" in text
    compile(text, str(script), "exec")  # the generated script must be valid python


def test_emit_plot_script_single_variant(tmp_path):
    tables = [_table_with_csv(tmp_path, "only")]
    script = emit_plot_script(tables, tmp_path / "plot.py")
    assert script.read_text().count("_agg.csv") == 1


def test_emit_plot_script_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_script([], tmp_path / "plot.py")


def test_emit_plot_script_requires_csv_on_disk():
    table = MetricsTable(label="x", t=np.array([1]), mean_err_primal_sq=np.array([1.0]),
                         sem_err_primal_sq=np.array([0.0]),
                         mean_err_dual_sq=np.array([1.0]),
                         sem_err_dual_sq=np.array([0.0]), num_seeds=1)
    with pytest.raises(ValueError):
        emit_plot_script([table], "plot.py")
