"""Tests of the benchmark itself: span arithmetic, metric names, gates.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
from pathlib import Path

import pytest

import gates
import run
import tracing
import worker

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_times_subtract_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]


def test_layer_metrics_on_a_synthetic_round():
    # setup span with one game build, then a round: cli -> learner.run (T=2)
    # -> two payoff calls and one oracle solve holding a tallied linalg call
    names = ["bench.setup", "games.build.paper_example", "bench.round", "cli.main",
             "learner.run", "games.payoff", "games.payoff", "oracles.solve_vgne"]
    parents = [-1, 0, -1, 2, 3, 4, 4, 4]
    starts = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0, 4.0]
    ends = [1.0, 0.75, 9.0, 8.0, 7.5, 2.5, 3.5, 5.0]
    amounts = [0, 0, 0, 0, 2, 0, 0, 1]
    tallies = {("linalg", 7): 3, ("linalg", 1): 5}
    m = tracing.layer_metrics(names, parents, starts, ends, amounts, tallies, [7.0])
    assert m["games.build_setup_s"] == 0.25
    assert m["games.build_s"] == 0.0
    assert m["games.payoff_calls"] == 2
    assert m["games.payoff_us"] == pytest.approx(0.5e6)
    assert m["learner.steps"] == 2
    assert m["learner.self_us_per_step"] == pytest.approx(4.0 / 2 * 1e6)
    assert m["oracles.vgne_calls_in_learn"] == 1
    assert m["oracles.linear_solves"] == 3
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["bench.self_s"] == pytest.approx(1.0)
    assert m["trace.wall_s"] == 8.0
    assert m["trace.overhead_s"] == 1.0
    assert m["trace.accounted_frac"] == pytest.approx(7.0 / 8.0)
    assert set(m) == {name for name, _ in tracing.LAYER_METRICS}


def test_metric_names_and_units_are_well_formed_and_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert sorted(declared) == sorted(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.REPORTED_METRICS)
    names = [m["name"] for m in bench["end_to_end"]] + [n for n, _ in tracing.LAYER_METRICS]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit in list(run.END_TO_END) + list(tracing.LAYER_METRICS):
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_learn_csv_digest_gate_catches_a_flipped_byte(tmp_path):
    from gnezero import cli

    recorded = json.loads(worker.EXPECTED_CSV.read_text())
    assert recorded["config"] == worker.LEARN_CONFIG
    out = worker.invoke(cli.main, worker.learn_argv(0, tmp_path))
    assert worker.cli_failures(out) == []
    paths = {k: str(p) for k, p in worker.learn_csvs(tmp_path).items()}
    assert gates.csv_digest_failures(paths, recorded["digests"]["0"]) == []

    copy = tmp_path / "copy_raw.csv"
    shutil.copy(paths["raw"], copy)
    data = bytearray(copy.read_bytes())
    data[len(data) // 2] ^= 0x01
    copy.write_bytes(bytes(data))
    failures = gates.csv_digest_failures({"raw": str(copy)}, recorded["digests"]["0"])
    assert len(failures) == 1 and "raw CSV sha256" in failures[0]


@pytest.fixture(scope="module")
def oracle_case(tmp_path_factory):
    """A seeded oracle-scaling input with n = 4 and both oracle outputs."""
    import gnezero

    wl = worker.OracleScaling(gnezero, 0, tmp_path_factory.mktemp("oracle"))
    inputs = wl.prepare(0)[1:2]  # the n = 4 game
    game, path = inputs[0]
    assert game.constraints.num_constraints == 4
    outcomes = wl.run_round(inputs, worker.invoke)
    return wl, inputs, outcomes


def test_oracle_gates_pass_on_current_outputs(oracle_case):
    wl, inputs, outcomes = oracle_case
    assert wl.check(inputs, outcomes) == [[], [], []]


def test_kkt_gate_catches_a_perturbed_multiplier(oracle_case):
    _, inputs, outcomes = oracle_case
    game = inputs[0][0]
    data = (game.P.tolist(), game.q.tolist(),
            game.constraints.K.tolist(), game.constraints.l.tolist())
    for outcome, eps in ((outcomes[0], 0.0), (outcomes[1], worker.ORACLE_EPS)):
        a, lam = gates.parse_oracle_csv(outcome.stdout)
        assert gates.kkt_failures(*data, a, lam, eps=eps) == []
        bad = list(lam)
        bad[0] += 1e-3
        assert any("stationarity" in f for f in gates.kkt_failures(*data, a, bad, eps=eps))
        bad[0] = -1e-3
        assert any("negative multiplier" in f for f in gates.kkt_failures(*data, a, bad, eps=eps))


def test_extragradient_gate_catches_a_perturbed_primal(oracle_case):
    _, _, outcomes = oracle_case
    a_ref, _ = gates.parse_oracle_csv(outcomes[1].stdout)
    a = outcomes[2].result.primal.flat.tolist()
    assert gates.agreement_failures(a, a_ref) == []
    a[0] += 1e-3
    assert gates.agreement_failures(a, a_ref)


def test_clock_rescales_by_the_reference_kernel():
    clock = worker.Clock(scaled=True)
    out = clock.invoke(worker.reference_kernel)
    assert out.error is None and out.seconds > 0
    # the command is the reference kernel itself, so it reads about REF_SECONDS
    assert 0.25 * worker.REF_SECONDS < out.scaled < 4 * worker.REF_SECONDS
    assert worker.Clock(scaled=False).invoke(worker.reference_kernel).scaled is None


def test_diagnose_gate():
    report = "\n".join([gates.DIAGNOSE_HEADER] + [f"{c},case,1.0,2.0,True"
                                                  for c in sorted(gates.DIAGNOSE_CHECKS)])
    assert gates.diagnose_failures(0, report) == []
    assert gates.diagnose_failures(1, report) == ["exit code 1"]
    failed = report.replace("estimator-mean,case,1.0,2.0,True", "estimator-mean,case,3.0,2.0,False")
    assert any("not passed" in f for f in gates.diagnose_failures(0, failed))
    partial = report.replace("drift-spread,", "other-check,")
    assert any("missing" in f for f in gates.diagnose_failures(0, partial))


def test_tracer_wraps_import_sites_and_restores_them():
    import gnezero
    from gnezero import cli, diagnostics, oracles

    original = oracles.solve_vgne
    tracer = tracing.Tracer(gnezero)
    tracer.install()
    try:
        assert cli.solve_vgne is oracles.solve_vgne is diagnostics.solve_vgne
        assert oracles.solve_vgne is not original
        assert cli.main(["oracle"]) is not None
    finally:
        tracer.uninstall()
    assert cli.solve_vgne is original and oracles.solve_vgne is original
    assert "cli.main" in tracer.names and "oracles.solve_vgne" in tracer.names
    assert "games.build.resolve_game" in tracer.names
