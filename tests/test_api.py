import importlib
import pkgutil

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
