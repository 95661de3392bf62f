"""Module boundaries of the package: no charvar module reads an underscore
name of another, the arithmetic core and the stream decoder sit at the
bottom of the import graph, the graph has no cycle, only the stream
decoder hands out a row's generator, and only the command line runs as a
script."""

import ast
import graphlib
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


def _imports(path: Path) -> set[str]:
    """The charvar modules one source file imports relatively:
    ``from . import module`` and ``from .module import name``."""
    modules = {p.stem for p in SRC.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found.update(name for name in names if name in modules)
    return found


def _graph() -> dict[str, set[str]]:
    return {path.stem: _imports(path) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def test_quat_imports_no_charvar_module():
    assert _graph()["quat"] == set()


def test_campaign_imports_only_quat_and_ziggurat():
    assert _graph()["campaign"] == {"quat", "ziggurat"}


def test_import_graph_has_no_cycle():
    graph = _graph()
    # static_order raises graphlib.CycleError on a cycle
    assert set(graphlib.TopologicalSorter(graph).static_order()) == set(graph)


def _calls_of(path: Path, attr: str) -> bool:
    """Whether one source file calls ``something.attr(...)``."""
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_only_campaign_hands_out_generators():
    # a row's generator is campaign's to set and draw; every other module
    # draws through campaign.random_draws
    assert [path.stem for path in sorted(SRC.glob("*.py")) if _calls_of(path, "generator")] == ["campaign"]


def _runs_as_script(path: Path) -> bool:
    """Whether one source file has an ``if __name__ == "__main__"`` block."""
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in ast.parse(path.read_text()).body
    )


def test_only_the_command_line_runs_as_a_script():
    assert [path.stem for path in sorted(SRC.glob("*.py")) if _runs_as_script(path)] == ["__main__", "cli"]
