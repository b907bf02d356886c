import importlib
import pkgutil

import pytest

import cipherobs

MODULES = sorted(m.name for m in pkgutil.iter_modules(cipherobs.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cipherobs.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
