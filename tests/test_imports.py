"""Every name an import binds is used in its module, and no private name crosses modules."""

import ast
from pathlib import Path

import pytest

import pcrkit

ROOT = Path(__file__).parents[1]
SOURCES = sorted(
    path for folder in ("src/pcrkit", "tests", "demos", "tools")
    for path in (ROOT / folder).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path == ROOT / "src/pcrkit/__init__.py":
        used.update(pcrkit.__all__)
    assert sorted(bound - used) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if ROOT / "src" in path.parents],
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_no_private_name_imported_from_another_module(path):
    # A helper two pcrkit modules share is public, as name_mismatch is.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "pcrkit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
