"""Every exported name resolves: each module's ``__all__`` and the package's imports."""

import ast
import importlib
from pathlib import Path

import pytest

import lokpde

MODULES = ["cli", "geometry", "kernels", "operator", "problems", "solver"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"lokpde.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(lokpde.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported  # the package re-exports its modules' names
    assert [attr for attr in imported if not hasattr(lokpde, attr)] == []
