"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Each workload runs at smoke size (two jobs, or one certification at reduced
counts) through
run.py, untraced and traced, the way a benchmark harness runs it.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload: str, trace: int, again: bool = False) -> tuple[list[str], dict]:
        key = (workload, trace, again)
        if key not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            cache[key] = (lines, json.loads(lines[-1]))
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_unit(runs, workload, trace):
    lines, result = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(re.fullmatch(rf"{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])}", line) for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_fit(runs, workload):
    runs(workload, 1)
    with np.load(ROOT / ".perfbench-out" / f"spans-{workload}-{SEED}.npz") as data:
        spans = {key: data[key] for key in data.files}
    assert spans["name"].size > 0
    child = spans["parent"] >= 0
    parent = spans["parent"][child]
    assert np.all(spans["thread"][parent] == spans["thread"][child])
    assert np.all(spans["start"][parent] <= spans["start"][child])
    assert np.all(spans["end"][child] <= spans["end"][parent])
    assert np.all(spans["job"][parent] == spans["job"][child])
    dur = spans["end"] - spans["start"]
    selfs = dur - np.bincount(parent, weights=dur[child], minlength=dur.size)
    assert selfs.min() >= -1e-9
    for thread in np.unique(spans["thread"]):
        assert selfs[spans["thread"] == thread].sum() <= float(spans["wall"]) + 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_and_counts_repeat(runs, workload):
    # A traced run compares the output digests of its untraced and traced
    # passes and the counts of its two traced passes; a mismatch is a FAIL.
    lines, first = runs(workload, 1)
    assert first["correct"] and not any(line.startswith("FAIL") for line in lines)
    _, second = runs(workload, 1, again=True)
    for metric in SPEC["per_layer"]:
        if metric["unit"] in ("count", "B"):
            assert first["metrics"][metric["name"]] == second["metrics"][metric["name"]], metric["name"]


def test_budgets_match_acceptance_tests():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402

    text = (ROOT / "tests" / "test_acceptance.py").read_text()
    found = dict(re.findall(r"selftest\.(check_\w+), ([\d.]+)\)", text))
    from charvar import selftest

    by_function = {fn.__name__: name for name, fn in selftest.CHECKS}
    assert {by_function[fn]: float(b) for fn, b in found.items()} == workloads.BUDGETS_S


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_host_speed_factor_is_reference_over_window_median():
    speed = run.HostSpeed()
    speed.samples = [0.003, 0.012, 0.004, 0.008]
    assert speed.factor(-4, 3) == run.REFERENCE_CHUNK_S / 0.004
    assert speed.factor(1, 9) == run.REFERENCE_CHUNK_S / 0.008


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("solvers", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
