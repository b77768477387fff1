"""Import discipline of the vz package, read from its source with ``ast``:
modules share only public names, and every imported name is used."""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "vz"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _vz_imports(tree):
    """(imported name, line) for each `from .x import name` or
    `from vz.x import name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "vz"):
            for alias in node.names:
                yield alias.name, node.lineno


def _bound_names(tree):
    """(name bound by an import, line), __future__ imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    private = [f"{path.name}:{line}: {name}"
               for name, line in _vz_imports(_tree(path)) if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    # annotations are parsed as expressions, so a name used only in one counts
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _bound_names(tree) if name not in used]
    assert unused == []
