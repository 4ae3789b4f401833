import importlib
import pkgutil

import pytest

import zetalab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(zetalab.__path__) if m.name != "__main__")
MODULES = ["zetalab"] + [f"zetalab.{name}" for name in SUBMODULES]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a name deleted from a module but left in an __all__ fails here
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
