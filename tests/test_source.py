"""Checks on the package source itself, for lack of a linter."""

import ast
from pathlib import Path

import pytest

import ffnet

MODULES = sorted(
    path for path in Path(ffnet.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads. ``__init__.py`` is left
    out: its imports are the package's exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import collections.abc\n"
        "import os, sys as system\n"
        "from .ff import fit, train as run\n"
        "x: collections.abc.Sequence = [fit, system]\n"
    )
    assert unused_imports(source) == ["os (line 3)", "run (line 4)"]
