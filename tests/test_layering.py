"""Module boundaries of the package: no charvar module reads an underscore
name of another."""

import ast
from pathlib import Path

import charvar

SRC = Path(charvar.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path: Path) -> list[str]:
    """``module._name`` reads and ``from .module import _name`` imports of
    another charvar module in one source file."""
    tree = ast.parse(path.read_text())
    others = {p.stem for p in SRC.glob("*.py")} - {path.stem}
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
        if alias.name in others
    }
    reads = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        if node.value.id in bound and _private(node.attr)
    ]
    reads += [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in others
        for alias in node.names
        if _private(alias.name)
    ]
    return reads


def test_no_module_reads_a_private_name_of_another():
    found = {path.name: _private_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}
