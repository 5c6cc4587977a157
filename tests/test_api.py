import ast
import importlib
import json
import pkgutil
from pathlib import Path

import pytest
from conftest import fresh_python

import gnezero

MODULES = sorted(m.name for m in pkgutil.iter_modules(gnezero.__path__, "gnezero."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_each_package_name_is_declared_once():
    # gnezero._EXPORTS is the one list of package-level names: a module's
    # __all__ reads its entry and spells out only the names it exports alone
    for module, names in gnezero._EXPORTS.items():
        path = Path(gnezero.__file__).parent / f"{module}.py"
        literals = {node.value for assign in ast.parse(path.read_text()).body
                    if isinstance(assign, ast.Assign)
                    and [getattr(t, "id", None) for t in assign.targets] == ["__all__"]
                    for node in ast.walk(assign.value)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert literals & set(names) == set(), module
        assert set(names) <= set(importlib.import_module(f"gnezero.{module}").__all__)


def test_star_import():
    assert "gnezero.oracles" in MODULES
    namespace = {}
    exec("from gnezero import *", namespace)
    for name in ("solve_vgne", "OracleSolution", "extended_pseudo_gradient", "run"):
        assert name in namespace


def test_games_owns_the_count_and_scale_checks():
    # one definition of "a valid count", of "a positive finite scale" and
    # of "a finite scale >= 0": only games.py defines _integer, _positive
    # and _nonnegative, and no other module writes its own bool test
    checks = ("_integer", "_positive", "_nonnegative")
    sources = sorted(Path(gnezero.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    definers, bool_checks = set(), set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in checks:
                definers.add((path.name, node.name))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and "bool" in {n.id for n in ast.walk(node.args[1])
                                   if isinstance(n, ast.Name)}):
                bool_checks.add(path.name)
    assert definers == {("games.py", name) for name in checks}
    assert bool_checks == {"games.py"}


def test_softplus_has_one_implementation():
    # games._softplus is the one softplus kernel, serving the costs, the
    # pseudo-gradient and through it the extragradient oracle: no module
    # names the scalar-looping np.logaddexp in its code
    sources = sorted(Path(gnezero.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    users = {path.name for path in sources for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr == "logaddexp")
             or (isinstance(node, ast.Name) and node.id == "logaddexp")
             or (isinstance(node, ast.alias) and node.name == "logaddexp")}
    assert users == set()


def test_diagnose_policy_lives_in_diagnostics():
    # cli.cmd_diagnose parses flags, calls diagnostics.run_checks and prints:
    # no game-type test, no errstate and no private diagnostics name in it
    tree = ast.parse((Path(gnezero.__file__).parent / "cli.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "cmd_diagnose")
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(func)}
    private = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "diag"
               and node.attr.startswith("_")}
    assert "run_checks" in names
    assert {"isinstance", "errstate"} & names == set()
    assert private == set()


def test_only_the_monte_carlo_pass_draws():
    # diagnostics._moments is the one reader of the seeded draw stream:
    # every Monte Carlo figure comes from its pass, so no function in the
    # package calls _draws but it
    sources = sorted(Path(gnezero.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    callers = set()
    for path in sources:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, ast.Call)
                       and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_draws"
                       for node in ast.walk(func)):
                    callers.add((path.name, func.name))
    assert callers == {("diagnostics.py", "_moments")}


def test_only_the_csv_writer_joins_cells():
    # games._csv builds every CSV text the package writes or prints, so no
    # other function joins cells with commas; the one other comma join is
    # the --checks help, which lists check names, not a CSV row
    joiners = set()
    for path in sorted(Path(gnezero.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, ast.Attribute) and node.attr == "join"
                       and isinstance(node.value, ast.Constant) and node.value.value == ","
                       for node in ast.walk(func)):
                    joiners.add((path.name, func.name))
    assert joiners == {("games.py", "_csv"), ("cli.py", "_diagnose_arguments")}


# the names `from gnezero import *` has given since the package began exporting
EXPORTS = (
    "extended_pseudo_gradient", "CheckCase", "CheckReport", "SmoothingProbe",
    "drift_spread_report", "dual_perturbation_stats", "estimator_second_moment",
    "path_drift_ratios", "regularization_path_report", "smoothing_bias_stats",
    "ConstraintSet", "DimensionMismatchError", "GameConfigError", "GameSpec",
    "InfeasibleConstraintsError", "JointAction", "PayoffEnvironment", "QuadraticGame",
    "SoftplusQuadraticGame", "builtin_game", "game_from_config", "load_game",
    "paper_example", "probe_lipschitz", "probe_monotonicity", "random_quadratic_game",
    "resolve_game", "softplus_game", "ExperimentConfig", "MetricsTable", "RateFit",
    "emit_plot_script", "fit_rate", "reproduce_fig1", "run_experiment", "DivergenceError",
    "checkpoints", "run", "two_point_estimate", "OracleSolution", "SolverError",
    "solve_regularized_path", "solve_regularized_vi", "solve_vgne", "solve_vi_extragradient",
    "ScheduleError", "ScheduleReport", "Schedules", "validate_schedules",
)

_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
import gnezero, gnezero.cli

WATCHED = ("gnezero.diagnostics", "gnezero.harness", "gnezero.schedules",
           "multiprocessing", "concurrent.futures.process")
seen = {"dir": dir(gnezero)}
seen["import"] = [m for m in WATCHED if m in sys.modules]
for argv in (["oracle"], ["oracle", "--eps", "0.1"],
             ["learn", "--T", "20", "--num-seeds", "2", "--outdir", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert gnezero.cli.main(argv) == 0, argv
    seen[argv[0]] = [m for m in WATCHED if m in sys.modules]
namespace = {}
exec("from gnezero import *", namespace)
seen["star"] = sorted(namespace)
print(json.dumps(seen))
"""


def test_each_command_imports_only_what_it_runs(tmp_path):
    # a fresh interpreter: this test process has loaded every module
    seen = json.loads(fresh_python("-c", _IMPORTS_SCRIPT, str(tmp_path)))
    assert seen["import"] == []  # neither the pool nor a module no command needs yet
    assert seen["oracle"] == []
    assert seen["learn"] == ["gnezero.harness", "gnezero.schedules"]
    assert set(EXPORTS) <= set(seen["dir"])
    assert set(EXPORTS) <= set(seen["star"])
