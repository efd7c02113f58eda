"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import dupin

MODULES = sorted(Path(dupin.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names bound by the import statements of source that no other
    expression of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .frames import MCForm, orbit_frame\nx: MCForm = np.zeros(1)\n")
    assert unused_imports(source) == ["orbit_frame", "os"]
