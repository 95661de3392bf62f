"""Byte sweep of charvar: one sha256 per group of outputs, as JSON.

    python3 bench/bytes.py

Imports charvar from src/ of the working directory and runs one fixed
sweep in process:

- every CLI command and format at five seeds, with ``lemma52 --count
  4000`` and ``link-sample --n 2``, ``3`` and ``4`` at ``--count 10000``
  (one group per command);
- the usage errors and the unwritable ``--out`` paths;
- the stdout of every script under demos/;
- the verdict lines of all twelve selftest checks at full counts, seeds
  0-199.

Each group hashes, in order, every run's argv, exit code, stdout and
stderr.  Two checkouts give the same bytes when they print the same JSON:
run the script at the root of each and compare the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from charvar import cli, selftest  # noqa: E402

SEEDS = (0, 7, 2**32, 25660265120, 2**64 + 7)
CHECK_SEEDS = range(200)

FORMATS = (["--format", "json"], ["--format", "csv"], ["--format", "csv", "--sorted"])
# the argv of each seeded command, per group, without its --seed
SEEDED = {
    "sample": [["sample", "--k", str(k), *fmt] for k in range(3, 17) for fmt in FORMATS],
    "cover push": [["cover", "push"], ["cover", "push", "--sorted"]],
    "cover extend": [["cover", "extend"]],
    "cover roundtrip": [["cover", "roundtrip"]],
    "cover fiber": [["cover", "fiber"]],
    "lemma52": [["lemma52", "--count", "4000"]],
    "link-sample": [
        ["link-sample", "--n", str(n), "--count", "10000", *fmt] for n in (2, 3, 4) for fmt in FORMATS[:2]
    ],
    "selftest": [["selftest"]],
}
# the commands that draw nothing, so take no seed
UNSEEDED = [["cover", "fiber", "--abelian-points"]] + [
    ["morse", "--n", spec, "--format", fmt] for spec in ("2", "2..8", "9..12") for fmt in ("json", "csv")
]

USAGE_ERRORS = [
    [],
    ["nonsense"],
    ["sample"],
    ["sample", "--k", "2"],
    ["sample", "--k", "17"],
    ["sample", "--k", "6", "--count", "0"],
    ["sample", "--k", "6", "--seed", "-1"],
    ["sample", "--k", "6", "--seed", "x"],
    ["sample", "--k", "6", "--format", "xml"],
    ["cover"],
    ["cover", "push", "--count", "-3"],
    ["morse"],
    ["morse", "--n", "1"],
    ["morse", "--n", "5..2"],
    ["morse", "--n", "2..x"],
    ["morse", "--n", str(cli.N_RANGE[1] + 1)],
    ["lemma52", "--count", "0"],
    ["link-sample", "--n", "2..3"],
    ["link-sample", "--n", "3", "--count", "0"],
    ["selftest", "--seed", "-2"],
]


def run_cli(argv: list[str]) -> bytes:
    """argv, the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return "\0".join([" ".join(argv), str(rc), out.getvalue(), err.getvalue()]).encode()


def _out_paths() -> list[bytes]:
    """Runs that write --out: a file that can be written, whose text is
    hashed too, and paths that cannot.  The temporary directory's name is
    replaced by a fixed one."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        written = os.path.join(tmp, "out.jsonl")
        for path in (written, os.path.join(tmp, "missing", "out.jsonl"), tmp):
            for argv in (["sample", "--k", "6"], ["morse", "--n", "2..3"], ["selftest", "--seed", "3"]):
                runs.append(run_cli([*argv, "--out", path]).replace(tmp.encode(), b"TMP"))
        runs.append(Path(written).read_bytes())
    return runs


def _demos() -> list[bytes]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(path)], capture_output=True, env=env, timeout=600)
        runs.append(b"\0".join([path.name.encode(), str(proc.returncode).encode(), proc.stdout]))
    return runs


def _checks() -> list[bytes]:
    """The full-count verdict lines of every check, one run per seed."""
    return [
        "\n".join([f"seed {seed}", *selftest.run_selftest(selftest.FULL_COUNTS, seed)[1]]).encode()
        for seed in CHECK_SEEDS
    ]


def _digest(runs: list[bytes]) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(len(run).to_bytes(8, "little"))
        h.update(run)
    return h.hexdigest()


def main() -> None:
    groups = {
        f"cli {group}": [run_cli([*argv, "--seed", str(seed)]) for seed in SEEDS for argv in argvs]
        for group, argvs in SEEDED.items()
    }
    groups["cli unseeded"] = [run_cli(argv) for argv in UNSEEDED]
    groups["usage errors"] = [run_cli(argv) for argv in USAGE_ERRORS]
    groups["--out paths"] = _out_paths()
    groups["demos"] = _demos()
    groups["checks at full counts"] = _checks()
    print(json.dumps({name: _digest(runs) for name, runs in groups.items()}, indent=1))


if __name__ == "__main__":
    main()
