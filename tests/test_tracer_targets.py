"""The benchmark's tracer wraps fastcolor functions by name; every name it
lists must still resolve to a callable of the package."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(target):
    mod_name, path, _, hook = target
    owner = importlib.import_module(f"fastcolor.{mod_name}")
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    # class attributes are read from the class's own dict, as install does
    found = owner.__dict__.get(attr) if owners else getattr(owner, attr, None)
    assert callable(found), f"fastcolor.{mod_name}.{path} does not resolve"
    assert hook is None or callable(hook)
