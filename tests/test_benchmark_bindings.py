"""The benchmark's tracer binds package names; each must still exist.

perfbench/tracing.py wraps package functions by name and skips a class
attribute that is not defined on its owner (it is wrapped where it is
defined). A renamed or deleted name would then silently read zero in a
per-layer metric, so this test fails first.
"""

import importlib.util
from pathlib import Path

import gnezero
import gnezero.cli  # noqa: F401  (the tracer binds cli functions)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracing()._targets(gnezero)
    assert targets
    bound = {(owner, attr) for owner, attr, _, _ in targets}
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner!r} has no callable {attr}"
        if isinstance(owner, type):
            # an inherited method is wrapped only where it is defined, so the
            # defining class must be a target too
            definer = next(c for c in owner.__mro__ if attr in vars(c))
            assert (definer, attr) in bound, f"{owner.__name__}.{attr} is never wrapped"
