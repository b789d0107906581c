"""Every name a metaloc module exports is defined in it."""

import importlib
import pkgutil

import pytest

import metaloc

MODULES = [info.name for info in pkgutil.iter_modules(metaloc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"metaloc.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"metaloc.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"metaloc.{name}.__all__ names what it does not define: {missing}"


def test_the_exporting_modules_are_found():
    assert {"autodiff", "meta", "evaluation", "tasks"} <= {
        name for name in MODULES if hasattr(importlib.import_module(f"metaloc.{name}"), "__all__")
    }
