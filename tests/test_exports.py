"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cylfn

MODULES = sorted(m.name for m in pkgutil.iter_modules(cylfn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cylfn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"cylfn.{name}.__all__ names missing attributes"


def test_package_imports_resolve():
    # the package re-exports only names its modules export themselves
    tree = ast.parse(Path(cylfn.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cylfn.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"cylfn.{node.module}.{alias.name}"
            assert alias.name in module.__all__, f"cylfn.{node.module}.{alias.name}"
