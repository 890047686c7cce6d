"""Every name a blocktau module exports through __all__ must resolve."""

import importlib
import pkgutil

import pytest

import blocktau

# __main__ runs the command line on import
MODULES = ["blocktau"] + [
    f"blocktau.{m.name}"
    for m in pkgutil.iter_modules(blocktau.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
