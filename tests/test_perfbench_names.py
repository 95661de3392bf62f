"""The charvar names the benchmark reads resolve.  perfbench/worker.py
traces the functions it names in CALLS and SELF_TIMES, perfbench/tracing.py
tags ladder rungs by ``.branch`` and wraps the modules of LAYERS, and
perfbench/workloads.py calls charvar's modules by attribute; a traced run
looks each name up, so a deleted one fails the benchmark, not only
perfbench's own tests."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import charvar
from charvar import cover, morse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """A perfbench module loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _resolves(dotted: str) -> bool:
    obj = charvar
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _traced(name: str) -> bool:
    """Whether the tracer wraps ``layer.attr``: a public function that the
    layer module defines."""
    layer, attr = name.split(".")
    module = importlib.import_module(f"charvar.{layer}")
    obj = getattr(module, attr, None)
    return inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_traced_names_resolve():
    worker, tracing = _load("worker"), _load("tracing")
    names = [*worker.CALLS, *worker.SELF_TIMES]
    assert {name.split(".")[0] for name in names} <= set(tracing.LAYERS)
    assert [name for name in names if not _traced(name)] == []


def test_workload_reads_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "charvar"
        for alias in node.names
    }
    reads = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert {"cli.LEMMA_TOL", "variety.sample_point", "morse.sample_link"} <= reads
    assert sorted(name for name in reads if not _resolves(name)) == []


def test_result_fields_the_benchmark_reads():
    # tracing tags a lemma52_detailed result by its branch, and the solvers
    # workload reads the zs of each LinkPoint
    assert "branch" in {f.name for f in dataclasses.fields(cover.Lemma52Solution)}
    assert "zs" in {f.name for f in dataclasses.fields(morse.LinkPoint)}
