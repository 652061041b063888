"""The package namespace: __all__ and the names __init__ imports agree."""

import ast
from pathlib import Path

import cliquecascade


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(cliquecascade.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in cliquecascade.__all__ if not hasattr(cliquecascade, name)]
    assert missing == []


def test_all_lists_every_imported_public_name():
    assert len(set(cliquecascade.__all__)) == len(cliquecascade.__all__)
    assert set(cliquecascade.__all__) == imported_public_names()
