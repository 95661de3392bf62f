"""The verdicts of perfbench's certify warm-ups, pinned: the eleven checks of
a certification at reduced counts on the warm-up seeds 16 s + 15 of workload
seeds s = 0..9.  A draw path that raises or changes a byte fails here before
the benchmark reads it."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from charvar import selftest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
# sha256 of the verdict lines, one "seed PASS|FAIL name: detail" per check
PINNED = "aabd6843f67f629249f7313b8976a4175e8316eabd20728a91235557bbacebdd"


def _certify_checks():
    """perfbench's CERTIFY_CHECKS, its workloads module loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.CERTIFY_CHECKS


def warmup_lines() -> list[str]:
    lines, checks = [], _certify_checks()
    for seed in (16 * s + 15 for s in range(10)):
        for name, fn in checks:
            result = fn(selftest.REDUCED_COUNTS, seed)
            lines.append(f"{seed} {'PASS' if result.ok else 'FAIL'} {name}: {result.detail}")
    return lines


def test_certify_warmup_verdicts_are_pinned():
    lines = warmup_lines()
    assert len(lines) == 110 and all(" PASS " in line for line in lines), [l for l in lines if " PASS " not in l]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED
