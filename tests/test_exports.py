"""Every exported name resolves: a stale ``__all__`` entry only breaks ``import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import osp22

MODULES = sorted(m.name for m in pkgutil.iter_modules(osp22.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"osp22.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(osp22.__file__).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imports
    missing = [
        (module, name)
        for module, name in imports
        if not hasattr(importlib.import_module(f"osp22.{module}"), name) or not hasattr(osp22, name)
    ]
    assert not missing
