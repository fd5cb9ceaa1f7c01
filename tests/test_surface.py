"""The package's public surface: each module's ``__all__`` names what it defines."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import spheremap

MODULES = sorted(m.name for m in pkgutil.iter_modules(spheremap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_defined_in_the_module(name):
    module = importlib.import_module(f"spheremap.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.__all__ lists {attr}, which does not exist"
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, (
                f"{name}.__all__ lists {attr}, which is defined in {obj.__module__}"
            )


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(spheremap.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"spheremap.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (
                f"spheremap imports {alias.name}, which {node.module}.__all__ does not list"
            )
