import importlib
import pkgutil

import pytest

import hdgelast

MODULES = ["hdgelast"] + [f"hdgelast.{m.name}" for m in pkgutil.iter_modules(hdgelast.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deleted definition must not leave its export behind
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), name
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], (name, missing)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
