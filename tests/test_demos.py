"""Every narrative script under demos/ runs to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
