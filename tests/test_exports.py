"""Every exported name resolves, every name the benchmark trace wraps exists,
no module imports a name it never uses, and neither importing the package nor
running ``verify all`` loads scipy.

A stale ``__all__`` entry only breaks ``import *``; a stale import breaks
nothing; a renamed traced method breaks only traced benchmark runs, which
Tier-1 does not collect; so all three are caught here.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import osp22

ROOT = Path(__file__).resolve().parents[1]
# the package __init__ only re-exports, so every name it imports counts as used
SCANNED = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/osp22", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)
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


def _reexported(path: str) -> set:
    """Names the package ``__init__`` imports from the module at ``path``."""
    tree = ast.parse(Path(osp22.__file__).read_text(encoding="utf-8"))
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == Path(path).stem
        for alias in node.names
    }


def _unused_imports(source: str, reexported=()) -> list:
    """Names a module imports but never reads; ``__all__`` entries and re-exports count as reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used - set(reexported))


@pytest.mark.parametrize("path", SCANNED)
def test_no_unused_imports(path):
    reexported = _reexported(path) if path.startswith("src/") else ()
    assert not _unused_imports((ROOT / path).read_text(encoding="utf-8"), reexported)


def test_unused_import_scan_catches_a_stale_import():
    source = "import os\nfrom numpy import pi, e\n__all__ = ['e']\nprint(pi)\n"
    assert _unused_imports(source) == ["os"]
    assert _unused_imports(source, reexported={"os"}) == []


PARITY_STRINGS = {"even", "odd", "mixed"}


def _parity_strings(source: str) -> list:
    """String constants of ``source`` that spell a parity; the int 0/1 is the only spelling."""
    return sorted(
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in PARITY_STRINGS
    )


@pytest.mark.parametrize("path", [p for p in SCANNED if p.startswith("src/")] + ["src/osp22/__init__.py"])
def test_no_parity_strings(path):
    assert not _parity_strings((ROOT / path).read_text(encoding="utf-8"))


def test_parity_string_scan_catches_a_string_parity():
    source = 'ODD = "odd"\ndef f(p="even"):\n    """An even element."""\n    return p == "mixed" or 1\n'
    assert _parity_strings(source) == ["even", "mixed", "odd"]


def _traced_targets() -> tuple:
    """``TARGETS`` of the benchmark's layer trace, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_traced_names_resolve():
    """Every (owner, attribute) the benchmark trace wraps exists, so a rename shows here."""
    targets = _traced_targets()
    assert targets
    missing = []
    for _layer, _span, owner, attribute in targets:
        module, _, cls = owner.partition(":")
        holder = importlib.import_module(module)
        if cls:
            holder = getattr(holder, cls, None)
        if not callable(getattr(holder, attribute, None)):
            missing.append((owner, attribute))
    assert not missing


def test_import_loads_no_scipy(tmp_path):
    """scipy is an oracle of the tests alone: importing the package and running every suite
    through ``verify all`` load numpy and no scipy module."""
    src = str(Path(osp22.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    scipy = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = (
        f"import osp22, osp22.cli, sys; print({scipy}); "
        f"code = osp22.cli.main(['verify', 'all', '--out', {str(tmp_path)!r}]); print(code, {scipy})"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stdout.splitlines()[-1] == "0 []"
