"""The verdicts of perfbench's certify jobs, pinned: the eleven checks of a
certification at reduced counts on the warm-up seeds 16 s + 15 of workload
seeds s = 0..9, and at full counts on one seed, whose campaigns reach rows
that reduced counts may miss, such as normals off the ziggurat's fast path.
A draw path that raises or changes a byte fails here before the benchmark
reads it."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from charvar import selftest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
# sha256 of the verdict lines, one "seed PASS|FAIL name: detail" per check
PINNED = "aabd6843f67f629249f7313b8976a4175e8316eabd20728a91235557bbacebdd"
# the same at FULL_COUNTS on selftest seed FULL_SEED
FULL_SEED = 0
PINNED_FULL = "43ca614d42289e4c3baabc20a7cca000dba627de841096ce5066e65f05729488"


def _certify_checks():
    """perfbench's CERTIFY_CHECKS, its workloads module loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.CERTIFY_CHECKS


def verdict_lines(counts, seeds) -> list[str]:
    lines, checks = [], _certify_checks()
    for seed in seeds:
        for name, fn in checks:
            result = fn(counts, seed)
            lines.append(f"{seed} {'PASS' if result.ok else 'FAIL'} {name}: {result.detail}")
    return lines


def test_certify_warmup_verdicts_are_pinned():
    lines = verdict_lines(selftest.REDUCED_COUNTS, (16 * s + 15 for s in range(10)))
    assert len(lines) == 110 and all(" PASS " in line for line in lines), [l for l in lines if " PASS " not in l]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED


def test_full_count_verdicts_are_pinned():
    lines = verdict_lines(selftest.FULL_COUNTS, [FULL_SEED])
    assert len(lines) == 11 and all(" PASS " in line for line in lines), [l for l in lines if " PASS " not in l]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_FULL
