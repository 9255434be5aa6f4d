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


@pytest.mark.parametrize("name", ["simulate", "data", "baselines", "metrics"])
def test_numpy_layers_hold_no_autodiff(name):
    """The simulator, data, baseline and metric layers are plain numpy: they
    hold neither the autodiff module nor anything defined in it."""
    module = importlib.import_module(f"opinionlab.{name}")
    autodiff = importlib.import_module("opinionlab.autodiff")
    held = [attr for attr, value in vars(module).items()
            if value is autodiff or getattr(value, "__module__", None) == autodiff.__name__]
    assert held == []
