import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gnezero

MODULES = sorted(m.name for m in pkgutil.iter_modules(gnezero.__path__, "gnezero."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


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
