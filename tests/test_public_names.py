"""Every name a module lists in `__all__` exists, so `import *` works."""

import importlib
import pkgutil

import pytest

import opinionlab

MODULES = ["opinionlab"] + [f"opinionlab.{m.name}" for m in pkgutil.iter_modules(opinionlab.__path__)]


@pytest.mark.parametrize("name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
