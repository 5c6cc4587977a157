import json
import warnings

import pytest
from conftest import fresh_python

import gnezero.cli
from gnezero.cli import main
from gnezero.diagnostics import CheckCase, CheckReport
from gnezero.games import random_quadratic_game
from gnezero.oracles import solve_vgne


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def test_oracle_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "oracle.csv"
    rc, out = run_cli(capsys, "oracle", "--game", "paper-example", "--csv", str(csv_path))
    assert rc == 0
    assert "a* = [" in out
    assert "active set: [0]" in out
    rows = dict(line.split(",", 1) for line in
                csv_path.read_text().splitlines()[1:])
    assert float(rows["a[0]"]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows["a[1]"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows["lambda[0]"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows["stationarity_residual"]) <= 1e-10


def test_oracle_regularized_mode(tmp_path, capsys):
    rc, out = run_cli(capsys, "oracle", "--eps", "0.1")
    assert rc == 0
    assert "regularized solution" in out
    assert "0.909090909091" in out


def test_oracle_csv_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "oracle", "--csv", str(p1))
    run_cli(capsys, "oracle", "--csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_learn_subcommand_writes_csvs(tmp_path, capsys):
    rc, out = run_cli(capsys, "learn", "--T", "200", "--num-seeds", "2",
                      "--outdir", str(tmp_path), "--label", "smoke",
                      "--record-every", "20")
    assert rc == 0
    raw = (tmp_path / "smoke_raw.csv").read_text().splitlines()
    assert raw[0] == "t,seed,err_primal_sq,err_dual_sq,gamma,eps,sigma"
    assert len(raw) == 1 + 2 * 10
    agg = (tmp_path / "smoke_agg.csv").read_text().splitlines()
    assert agg[0].startswith("t,mean_err_primal_sq,sem_err_primal_sq")


def test_learn_rejects_invalid_schedules(tmp_path, capsys):
    rc = main(["learn", "--g", "0.5", "--T", "10", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "g>1/2" in capsys.readouterr().err


_PAPER_CONFIG = {"players": 2, "dims": [1, 1],
                 "A": [[[3.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [-1.0, 1.0]]],
                 "b": [[0.0, 0.0], [0.0, 0.0]], "K": [[-1.0, -1.0]], "l": [-1.0]}

# game files of the wrong shape: each must be rejected as bad input
_BAD_GAME_FILES = {
    "top_level_list": [1, 2],
    "top_level_string": "paper-example",
    "dims_number": {**_PAPER_CONFIG, "dims": 5},
    "dims_nested": {**_PAPER_CONFIG, "dims": [[1], [1]]},
    "players_null": {**_PAPER_CONFIG, "players": None},
    "builtin_list": {"builtin": []},
    "dims_string": {**_PAPER_CONFIG, "dims": "11"},
    "K_three_axes": {**_PAPER_CONFIG, "K": [[[1.0]]]},
    # fractions and booleans are not truncated to integers
    "players_fraction": {**_PAPER_CONFIG, "players": 2.9},
    "dims_fractions": {**_PAPER_CONFIG, "dims": [1.7, 1.2]},
    "players_bool": {**_PAPER_CONFIG, "players": True, "dims": [2]},
    "dims_bools": {**_PAPER_CONFIG, "dims": [True, True]},
    "l_two_entries": {**_PAPER_CONFIG, "l": [-1.0, 2.0]},
    "dims_zero": {**_PAPER_CONFIG, "dims": [0, 2]},
    "K_three_columns": {**_PAPER_CONFIG, "K": [[-1.0, -1.0, 0.0]]},
    "players_three": {**_PAPER_CONFIG, "players": 3},
}


@pytest.mark.parametrize("argv", [
    ["learn", "--num-seeds", "0"],
    ["learn", "--T", "0"],
    ["learn", "--G", "-1"],
    ["oracle", "--game", "{tmp}/missing.json"],
    ["oracle", "--game", "softplus-ridge"],
    ["oracle", "--eps", "nan"],
    ["oracle", "--eps", "inf"],
    ["oracle", "--tol", "0"],
    ["oracle", "--tol", "-1"],
    ["oracle", "--tol", "nan"],
    ["oracle", "--tol", "inf", "--eps", "0.1"],
    ["rate-fit", "--csv", "{tmp}/missing.csv"],
    ["rate-fit", "--csv", "{tmp}/nan_agg.csv", "--t-min", "1", "--t-max", "5"],
    ["diagnose", "--sigma", "0"],
    ["diagnose", "--sigma", "nan", "--checks", "estimator-mean"],
    ["diagnose", "--sigma", "inf", "--game", "softplus-ridge"],
    ["diagnose", "--checks", "estimator-mean", "--num-samples", "1"],
    ["diagnose", "--eps-grid", "0.1,-1", "--checks", "reg-path"],
    ["diagnose", "--eps-grid", "0.1,nan", "--checks", "reg-path"],
    ["diagnose", "--eps-grid", "0.1,inf", "--checks", "reg-path"],
    # a malformed grid, even where no check uses it
    ["diagnose", "--eps-grid", "abc", "--game", "softplus-ridge"],
    ["diagnose", "--eps-grid", "abc", "--checks", "dual-perturbation"],
    ["diagnose", "--game", "softplus-ridge", "--eps-grid", "0.1,-1",
     "--checks", "dual-perturbation"],
    ["learn", "--S", "nan", "--T", "50"],
    ["learn", "--G", "inf", "--T", "50"],
    ["learn", "--T", "10", "--workers", "-3"],
    ["reproduce-fig1", "--T", "10", "--workers", "0"],
    *(["oracle", "--game", f"{{tmp}}/{name}.json"] for name in _BAD_GAME_FILES),
    ["oracle", "--game", "{tmp}/not_json.json"],
    ["rate-fit", "--csv", "{tmp}/empty.csv"],
    # both map to the label s_0p571429
    ["reproduce-fig1", "--s-values", "4/7,0.5714286", "--T", "10"],
    # a valid s first, then one that Schedules rejects or that fails s + g > 1
    ["reproduce-fig1", "--s-values", "4/7,-1", "--T", "10"],
    ["reproduce-fig1", "--s-values", "4/7,0.3", "--T", "10"],
    ["learn", "--seed-base", "-1", "--T", "10"],
    ["rate-fit", "--csv", "{tmp}/t0_agg.csv", "--t-min", "0", "--t-max", "5"],
    # a fraction with a zero denominator, in the lists the commands parse
    ["diagnose", "--eps-grid", "1/0", "--checks", "reg-path"],
    ["reproduce-fig1", "--s-values", "4/0", "--T", "10"],
    # checks the experiment config makes; run no longer repeats them
    ["learn", "--record-every", "0", "--T", "10"],
    ["learn", "--g", "0.3", "--T", "10"],
    ["learn", "--G", "0", "--T", "10"],
    ["learn", "--E", "0", "--T", "10"],
    ["diagnose", "--checks", "bogus"],
    # a label names the CSV files in outdir, so it cannot name a subdirectory
    ["learn", "--label", "a/b", "--T", "10"],
    # a row with one column where the header has two
    ["rate-fit", "--csv", "{tmp}/ragged.csv"],
    # a horizon past 2**53, where a float no longer counts every step
    ["learn", "--T", "100000000000000000000"],
    ["reproduce-fig1", "--T", "100000000000000000000"],
    pytest.param(["learn", "--T", "1" + "0" * 400], id="learn --T 400-digits"),
    pytest.param(["reproduce-fig1", "--T", "1" + "0" * 400], id="reproduce-fig1 --T 400-digits"),
], ids=lambda argv: " ".join(argv[:3]))
def test_input_errors_print_one_line_and_exit_2(tmp_path, capsys, argv):
    (tmp_path / "nan_agg.csv").write_text(
        "t,mean_err_primal_sq\n" + "".join(f"{t},nan\n" for t in range(1, 6)))
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "ragged.csv").write_text("t,mean_err_primal_sq\n1,0.5\n2\n3,0.2\n")
    (tmp_path / "t0_agg.csv").write_text(
        "t,mean_err_primal_sq\n" + "".join(f"{t},{1 / (t + 1)}\n" for t in range(6)))
    for name, cfg in _BAD_GAME_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    (tmp_path / "not_json.json").write_text("{players: 2}")
    outdir = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv] + (
        ["--outdir", str(outdir)] if argv[0] in ("learn", "reproduce-fig1") else [])
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"gnezero {argv[0]}: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # bad input is rejected before the output directory is made
    assert not outdir.exists()


@pytest.mark.parametrize("argv, message", [
    # numpy reports every bad row; the message keeps the first
    (["rate-fit", "--csv", "{tmp}/ragged.csv"],
     "malformed CSV {tmp}/ragged.csv: Line #3 (got 1 columns instead of 3)"),
    (["diagnose", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
], ids=["ragged-csv", "negative-seed"])
def test_bad_input_messages_name_the_input(tmp_path, capsys, argv, message):
    (tmp_path / "ragged.csv").write_text("t,a,b\n1,2,3\n4\n5,6\n7,8,9\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"gnezero {argv[0]}: error: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("name, names_key", [
    ("dims_string", "game config key 'dims'"),
    ("players_fraction", "game config key 'players'"),
    ("dims_fractions", "game config key 'dims'"),
    ("players_bool", "game config key 'players'"),
    ("dims_bools", "game config key 'dims'"),
    ("K_three_axes", "constraint K must be an (n, D) matrix, got shape (1, 1, 1)"),
])
def test_bad_game_file_errors_name_their_key(tmp_path, capsys, name, names_key):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_BAD_GAME_FILES[name]))
    assert main(["oracle", "--game", str(path)]) == 2
    assert names_key in capsys.readouterr().err


def test_learn_divergence_writes_no_csv(tmp_path, capsys):
    rc = main(["learn", "--G", "1e300", "--T", "50", "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert list(tmp_path.iterdir()) == []
    assert err.count("\n") == 1 and "seed 0: non-finite iterate at step" in err


@pytest.mark.parametrize("argv, start", [
    (["reproduce-fig1", "--s-values", "400", "--T", "10", "--num-seeds", "1"],
     "reproduce-fig1 diverged at s=400 (CSVs written: none): seed 0: non-finite iterate at step"),
    (["oracle", "--tol", "1e-20"],
     "gnezero oracle: solver failed: optimality residuals at eps=0 exceed tol=1e-20"),
], ids=["diverged", "solver-failed"])
def test_run_failures_print_one_line_and_exit_1(tmp_path, capsys, argv, start):
    outdir = ["--outdir", str(tmp_path)] if argv[0] == "reproduce-fig1" else []
    rc = main(argv + outdir)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(start)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_reproduce_fig1_divergence_names_its_s_and_the_csvs_kept(tmp_path, capsys):
    # the s values before the one that diverged have written their CSVs
    rc = main(["reproduce-fig1", "--s-values", "4/7,400", "--T", "10", "--num-seeds", "1",
               "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("reproduce-fig1 diverged at s=400 (CSVs written: s=0.571429): "
                          "seed 0: non-finite iterate at step")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["convergence_plot.py",
                                                         "s_0p571429_agg.csv",
                                                         "s_0p571429_raw.csv"]
    # the plot script draws the s values that finished, and only those
    assert "[('s=0.571429', 's_0p571429_agg.csv')]" in (
        tmp_path / "convergence_plot.py").read_text()


@pytest.mark.parametrize("argv, start, kept", [
    (["learn", "--T", "10", "--s", "1e300"],
     "learn diverged, no CSV written: the sigma schedule overflows at step 2", []),
    (["reproduce-fig1", "--s-values", "4/7,1e300", "--T", "10", "--num-seeds", "1"],
     "reproduce-fig1 diverged at s=1e+300 (CSVs written: s=0.571429): "
     "the sigma schedule overflows at step 2",
     ["convergence_plot.py", "s_0p571429_agg.csv", "s_0p571429_raw.csv"]),
], ids=["learn", "reproduce-fig1"])
def test_schedule_overflow_ends_like_a_divergence(tmp_path, capsys, argv, start, kept):
    # s = 1e300 passes validate_schedules, but 2**1e300 is past the floats
    rc = main(argv + ["--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(start)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == kept


def test_a_divergence_at_an_earlier_checkpoint_wins_over_a_schedule_overflow(tmp_path, capsys):
    # the sigma schedule overflows at step 2, but step 1's checkpoint already
    # holds a non-finite iterate (G = 1e308), and that is what learn reports
    rc = main(["learn", "--game", "paper-example", "--G", "1e308", "--S", "1e10",
               "--s", "1e300", "--T", "10", "--num-seeds", "2", "--allow-invalid-schedules",
               "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("learn diverged, no CSV written: seed 0: non-finite iterate at step 1 "
                   "(last finite checkpoint: none)\n")
    assert list(tmp_path.iterdir()) == []


def test_learn_allows_override(tmp_path, capsys):
    rc, _ = run_cli(capsys, "learn", "--g", "0.5", "--T", "10",
                    "--outdir", str(tmp_path), "--allow-invalid-schedules")
    assert rc == 0


def test_learn_fraction_flags(tmp_path, capsys):
    rc, _ = run_cli(capsys, "learn", "--g", "4/7", "--e", "2/7", "--s", "4/7",
                    "--T", "50", "--outdir", str(tmp_path), "--label", "frac")
    assert rc == 0


def test_rate_fit_subcommand(tmp_path, capsys):
    run_cli(capsys, "learn", "--T", "2000", "--num-seeds", "2",
            "--outdir", str(tmp_path), "--label", "fit")
    rc, out = run_cli(capsys, "rate-fit", "--csv", str(tmp_path / "fit_agg.csv"),
                      "--t-min", "50", "--t-max", "2000")
    assert rc == 0
    slope = float(next(line for line in out.splitlines()
                       if line.startswith("slope:")).split(":")[1])
    assert -1.2 <= slope <= 0.0


def test_diagnose_subcommand(tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc, out = run_cli(capsys, "diagnose", "--checks", "reg-path,dual-perturbation",
                      "--num-samples", "20000", "--out", str(report))
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "check,case,statistic,bound,passed"
    assert any(line.startswith("regularization-path,gap-bound") for line in lines)
    assert all(line.rsplit(",", 1)[1] == "True" for line in lines[1:])


def test_diagnose_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for p in (p1, p2):
        run_cli(capsys, "diagnose", "--checks", "estimator-mean",
                "--num-samples", "20000", "--out", str(p))
    assert p1.read_bytes() == p2.read_bytes()


def _ends_in_one_newline(path) -> str:
    data = path.read_bytes()
    assert data.endswith(b"\n") and not data.endswith(b"\n\n") and b"\r" not in data
    return data.decode()


def test_each_csv_ends_in_one_newline_and_equals_the_printed_block(tmp_path, capsys):
    # splitlines() cannot see a final newline that is lost or doubled; the
    # bytes can
    rc, _ = run_cli(capsys, "learn", "--T", "200", "--num-seeds", "2", "--outdir",
                    str(tmp_path), "--label", "bytes", "--record-every", "20")
    assert rc == 0
    assert len(_ends_in_one_newline(tmp_path / "bytes_raw.csv").split("\n")) == 1 + 2 * 10 + 1
    assert len(_ends_in_one_newline(tmp_path / "bytes_agg.csv").split("\n")) == 1 + 10 + 1
    for eps in ([], ["--eps", "0.1"]):
        rc, out = run_cli(capsys, "oracle", *eps, "--csv", str(tmp_path / "oracle.csv"))
        assert rc == 0
        text = _ends_in_one_newline(tmp_path / "oracle.csv")
        _, block = out.split("\n\n", 1)  # the summary, one blank line, the CSV block
        assert block == text and text.startswith("key,value\n")
    rc, out = run_cli(capsys, "diagnose", "--checks", "estimator-mean,reg-path",
                      "--num-samples", "20000", "--out", str(tmp_path / "report.csv"))
    assert rc == 0
    assert out == _ends_in_one_newline(tmp_path / "report.csv")


def test_diagnose_all_on_a_nonquadratic_game_skips_the_quadratic_checks(capsys):
    rc = main(["diagnose", "--game", "softplus-ridge", "--checks", "all"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "reg-path needs a quadratic game; skipping" in captured.err
    assert "estimator-mean needs a quadratic game; skipping" in captured.err
    checks = {line.split(",", 1)[0] for line in captured.out.splitlines()[1:]}
    assert checks == {"dual-perturbation", "second-moment-growth", "smoothing-bias-order"}


def test_a_json_game_without_shared_constraints_runs(tmp_path, capsys):
    # n = 0 is written "K": [], "l": [] by tolist(), which reads back as shape (0,)
    game = random_quadratic_game(1, dims=[1, 1], num_constraints=0)
    path = tmp_path / "no_constraints.json"
    path.write_text(json.dumps({
        "name": game.name, "players": game.num_players, "dims": list(game.dims),
        "A": game.A.tolist(), "b": game.b.tolist(),
        "K": game.constraints.K.tolist(), "l": game.constraints.l.tolist()}))
    assert '"K": [], "l": []' in path.read_text()
    rc, out = run_cli(capsys, "oracle", "--game", str(path))
    assert rc == 0
    rows = dict(line.split(",", 1) for line in out.splitlines() if "," in line)
    assert [float(rows[f"a[{k}]"]) for k in range(2)] == solve_vgne(game).primal.flat.tolist()
    assert not any(key.startswith("lambda[") for key in rows)
    rc, _ = run_cli(capsys, "learn", "--game", str(path), "--T", "200", "--num-seeds", "1",
                    "--outdir", str(tmp_path))
    assert rc == 0
    rc, _ = run_cli(capsys, "diagnose", "--game", str(path), "--checks", "all",
                    "--num-samples", "2000")
    assert rc == 0


def test_diagnose_on_a_constraint_that_never_binds(tmp_path, capsys):
    # K = 0 and l > 0: lam* = 0, so every regularized solution is the v-GNE
    path = tmp_path / "zero_row.json"
    path.write_text(json.dumps({"players": 2, "dims": [1, 1],
                                "A": [[[2, 0], [0, 0]], [[0, 0], [0, 2]]],
                                "b": [[0, 0], [0, 0]], "K": [[0, 0]], "l": [1]}))
    rc = main(["diagnose", "--game", str(path), "--checks", "all", "--num-samples", "20000"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert {row[0] for row in rows} >= {"regularization-path", "drift-spread"}
    assert all(row[-1] == "True" for row in rows)
    assert [row[2:4] for row in rows if row[1].startswith("gap-bound")] == [["0.0", "0.0"]] * 4


def test_diagnose_failed_case_exits_1_after_the_report(monkeypatch, capsys):
    def failing_reports(game, probe, checks):
        return [CheckReport("dual-perturbation", (CheckCase("forced", 2.0, 1.0, False),))]

    monkeypatch.setattr(gnezero.diagnostics, "_probe_reports", failing_reports)
    rc = main(["diagnose", "--checks", "dual-perturbation"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ("check,case,statistic,bound,passed\n"
                            "dual-perturbation,forced,2.0,1.0,False\n")
    assert captured.err == "1 check case(s) FAILED\n"


@pytest.mark.parametrize("argv, failed", [
    (["--checks", "dual-perturbation", "--sigma", "1e155"], ["dual-perturbation"]),
    (["--sigma", "1e200"], ["estimator-mean", "dual-perturbation", "second-moment-growth"]),
], ids=["dual-perturbation", "all"])
def test_diagnose_at_an_overflowing_sigma_reports_failed_rows(capsys, argv, failed):
    # sigma^2 overflows a float: the probe checks report nan rows and fail,
    # as a failed case does, with no traceback and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["diagnose", *argv])
    captured = capsys.readouterr()
    assert rc == 1
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert sorted({row[0] for row in rows if row[-1] == "False"}) == sorted(failed)
    assert all(row[2] == "nan" for row in rows if row[-1] == "False")
    assert [str(w.message) for w in caught] == []
    assert captured.err == f"{sum(row[-1] == 'False' for row in rows)} check case(s) FAILED\n"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="second-moment-growth's fixed slope bound 2.2 fails on this game's "
                          "exact statistic (ROADMAP item 18)")
def test_second_moment_growth_passes_where_the_estimator_grows_quadratically(tmp_path, capsys):
    # E||m||^2 grows quadratically along the probe ray, yet at seed 3 the
    # fitted player0 slope is 2.204 against the bound 2.2; mending the check
    # makes this pass, and the strict mark then fails until it is removed
    game = random_quadratic_game(3, dims=[2, 3], num_constraints=2)
    path = tmp_path / "growth.json"
    path.write_text(json.dumps({
        "players": game.num_players, "dims": list(game.dims),
        "A": game.A.tolist(), "b": game.b.tolist(),
        "K": game.constraints.K.tolist(), "l": game.constraints.l.tolist()}))
    rc, out = run_cli(capsys, "diagnose", "--game", str(path), "--checks",
                      "second-moment-growth", "--seed", "3", "--num-samples", "20000")
    assert rc == 0, out


def test_diagnose_unknown_check(capsys):
    rc, _ = run_cli(capsys, "diagnose", "--checks", "bogus")
    assert rc == 2


def test_reproduce_fig1_smoke(tmp_path, capsys):
    rc, out = run_cli(capsys, "reproduce-fig1", "--outdir", str(tmp_path),
                      "--T", "300", "--num-seeds", "2", "--s-values", "4/7,10")
    assert rc == 0
    script = tmp_path / "convergence_plot.py"
    assert script.exists()
    text = script.read_text()
    assert text.count("_agg.csv") == 2
    compile(text, str(script), "exec")


def test_game_file_argument(tmp_path, capsys):
    from gnezero.games import paper_example

    g = paper_example()
    cfg = {"players": 2, "dims": [1, 1], "A": g.A.tolist(), "b": g.b.tolist(),
           "K": g.constraints.K.tolist(), "l": g.constraints.l.tolist()}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(cfg))
    rc, out = run_cli(capsys, "oracle", "--game", str(path))
    assert rc == 0
    assert "a* = [" in out


@pytest.mark.parametrize("key, where, value", [
    ("l", (0,), float("nan")),
    ("K", (0, 1), float("inf")),
    ("A", (1, 0, 0), float("nan")),
])
def test_game_file_with_non_finite_entries_exits_2(tmp_path, capfd, key, where, value):
    # json reads NaN and Infinity; fd-level capture also sees any LAPACK output
    from gnezero.games import paper_example

    g = paper_example()
    cfg = {"players": 2, "dims": [1, 1], "A": g.A.tolist(), "b": g.b.tolist(),
           "K": g.constraints.K.tolist(), "l": g.constraints.l.tolist()}
    entry = cfg[key]
    for i in where[:-1]:
        entry = entry[i]
    entry[where[-1]] = value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(cfg))
    rc = main(["oracle", "--game", str(path)])
    err = capfd.readouterr().err
    assert rc == 2
    assert err == f"gnezero oracle: error: {'cost' if key == 'A' else 'constraint'} {key} " \
                  "has non-finite entries\n"


def test_outdir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GNEZERO_OUTDIR", str(tmp_path / "env-out"))
    rc, _ = run_cli(capsys, "learn", "--T", "20", "--label", "env")
    assert rc == 0
    assert (tmp_path / "env-out" / "env_agg.csv").exists()


# -- one parser per process ----------------------------------------------------


def test_oracle_flags_do_not_carry_over_to_the_next_call(capsys):
    rc, out = run_cli(capsys, "oracle", "--eps", "1e-3")
    assert rc == 0 and "eps,0.001" in out.splitlines()
    rc, out = run_cli(capsys, "oracle")
    assert rc == 0 and "variational equilibrium:" in out
    assert not any(line.startswith("eps,") for line in out.splitlines())


def test_diagnose_eps_grid_does_not_carry_over_to_the_next_call(capsys):
    def gap_cases(out):
        return [line.split(",")[1] for line in out.splitlines()
                if line.startswith("regularization-path,gap-bound")]

    rc, out = run_cli(capsys, "diagnose", "--checks", "reg-path", "--eps-grid", "1e-1,1e-2")
    assert rc == 0
    assert gap_cases(out) == ["gap-bound eps=0.1", "gap-bound eps=0.01"]
    rc, out = run_cli(capsys, "diagnose", "--checks", "reg-path")
    assert rc == 0
    assert gap_cases(out) == [f"gap-bound eps={e}" for e in ("0.1", "0.01", "0.001", "0.0001")]


def test_call_after_a_bad_flag_prints_what_a_fresh_process_prints(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "--eps", "not-a-number"])
    assert exit_info.value.code == 2
    rc, out = run_cli(capsys, "oracle", "--eps", "0.1")
    assert rc == 0
    assert out == fresh_python("-m", "gnezero.cli", "oracle", "--eps", "0.1")


@pytest.mark.parametrize("argv", [["learn", "--G", "1/0"], ["oracle", "--eps", "1/0"]])
def test_zero_denominator_flag_is_rejected_by_the_parser(capsys, argv):
    # argparse rejects a flag value its type function refuses with a usage
    # line, one error line and exit 2, as for any other malformed number
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.endswith(f"error: argument {argv[1]}: invalid _parse_number value: '1/0'\n")
    assert "Traceback" not in err and "ZeroDivisionError" not in err


def test_commands_are_looked_up_when_called(capsys, monkeypatch):
    # a function that replaces cmd_<name> after the parser was built (as a
    # tracing wrapper does) must be the one that runs
    run_cli(capsys, "oracle")
    monkeypatch.setattr(gnezero.cli, "cmd_oracle", lambda args: 7)
    assert main(["oracle"]) == 7
