"""The public surface of jsrcert: every module's `__all__` and the package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jsrcert

MODULES = sorted(f"jsrcert.{info.name}" for info in pkgutil.iter_modules(jsrcert.__path__))


def _reexports():
    """(module, name) for every `from .module import name` in jsrcert/__init__.py."""
    tree = ast.parse(Path(jsrcert.__file__).read_text())
    return [
        (f"jsrcert.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # `import jsrcert` does not notice an `__all__` entry naming nothing;
    # `from jsrcert.<module> import *` does.
    module = importlib.import_module(name)
    assert isinstance(module.__all__, list) and module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_reexports_are_public_names_of_their_module():
    pairs = _reexports()
    assert len(pairs) > 30
    stray = [f"{m}.{n}" for m, n in pairs if n not in importlib.import_module(m).__all__]
    assert not stray, f"re-exported but not in their module's __all__: {stray}"
