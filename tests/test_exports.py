"""The public surface: each module's ``__all__`` and the package imports."""

import ast
import importlib
from pathlib import Path

import pytest

import sddkit

INIT = Path(sddkit.__file__)
MODULES = sorted(f"sddkit.{p.stem}" for p in INIT.parent.glob("*.py")
                 if not p.stem.startswith("_") and p.stem != "cli")


def package_imports():
    """(module, name) for every name ``sddkit/__init__.py`` imports from a
    submodule."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [(f"sddkit.{node.module}", alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert imports
    unlisted = [(module, name) for module, name in imports
                if name not in importlib.import_module(module).__all__]
    assert not unlisted
