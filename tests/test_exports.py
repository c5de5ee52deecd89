"""The package's export lists agree with what the modules define and what
``rotsurf4/__init__.py`` re-exports, so a deleted name leaves no stale
export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rotsurf4

MODULES = [importlib.import_module(f"rotsurf4.{m.name}")
           for m in pkgutil.iter_modules(rotsurf4.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_name_in_all_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(rotsurf4.__file__).read_text())
    stale = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"rotsurf4.{node.module}")
            exported = getattr(module, "__all__", ())
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert stale == []
