"""The benchmark's workloads: job plans, job execution and output checks.

Each workload turns its seed into a deterministic job plan.  A job is
prepared outside the timed region, run (timed), and then checked by
`verify`, which returns an `Outcome` naming every failed operation by
the `(seed, job)` that replays it.  Checks call into charvar only while
the tracer is inactive.

* ``sample-k12``: ``charvar sample --k 12`` (default count) through
  ``cli.main``, serial, about 60 KB of JSON per job.  Fingerprints,
  sampling and output.
* ``cover-t2``: ``cover roundtrip``, ``lemma52`` and ``cover fiber`` at one
  seed with two CLI workers, each at a tenth of its default count, little
  output.  The only user of the CLI thread pool; section, case ladder and
  fiber.
* ``certify``: one job is a whole certification, the selftest checks at
  full counts but ``link-sampler`` (see CERTIFY_CHECKS).  Every layer
  weighted as the gates weight it.
* ``solvers``: ``variety.conjugator_search`` on conjugate and independent
  pairs at k = 4, 6, 8, and refined link samples.  No CLI campaign or gate
  reaches the conjugator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from charvar import cli, morse, quat, rep, selftest, variety

# CLI jobs draw their --seed from this pool, in an order set by the workload
# seed; reference.json holds the output digest of every pool seed.
POOL = 512
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Budgets of tests/test_acceptance.py, keyed by the check each criterion runs.
BUDGETS_S = {
    "abelian-census": 1.0,
    "cover-roundtrip": 10.0,
    "fiber-two-fold": 10.0,
    "lemma52-branches": 10.0,
    "hessian-exact": 1.0,
    "hessian-numeric": 5.0,
    "small-k-rigidity": 5.0,
    "submersion-certificates": 10.0,
    "chart-symmetries": 5.0,
    "bd-torus": 5.0,
}


# The checks of a certification: every selftest check but ``link-sampler``.
# At full counts its unrefined quadric defect exceeds the check's 1e-12
# tolerance on some seeds (1.2e-12 at selftest seed 13, 5.9e-12 at
# 25660265120), a defect of charvar that README.md records.  The benchmark's
# workloads hold only operations that succeed on every seed, so certify
# leaves the check out; refined link samples are timed and checked by
# ``solvers``.
CERTIFY_CHECKS = tuple((name, fn) for name, fn in selftest.CHECKS if name != "link-sampler")
CHECK_NAMES = tuple(name for name, _ in CERTIFY_CHECKS)


@dataclass
class Outcome:
    """What one job did: operations attempted, failures, the digest of its
    outputs, output bytes, counts that add up over jobs, and the seconds
    of its named parts (the checks of a certification)."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    output_bytes: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    parts: dict[str, float] = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass(frozen=True)
class Command:
    """A CLI command, the stderr line that reports its success, and any
    further test of that line's groups."""

    label: str
    argv: tuple[str, ...]
    verdict: re.Pattern
    accept: Callable[[re.Match], bool] = lambda match: True

    def out(self, out_dir: Path, workload: str) -> Path:
        return out_dir / f"{workload}-{self.label}.out"


def run_commands(commands, seed: int, out_dir: Path, workload: str) -> list[tuple[int, str]]:
    """Run each command through `cli.main`; returns exit codes and stderr."""
    results = []
    for command in commands:
        err = io.StringIO()
        argv = [*command.argv, "--seed", str(seed), "--out", str(command.out(out_dir, workload))]
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        results.append((rc, err.getvalue()))
    return results


def _lemma52_ok(match: re.Match) -> bool:
    """Worst residual within the CLI's own tolerance, every rung reached."""
    coverage = dict(pair.split(":") for pair in match.group(2).split())
    return float(match.group(1)) <= cli.LEMMA_TOL and all(int(coverage[str(b)]) > 0 for b in range(1, 8))


class CliWorkload:
    """Jobs of one or more `charvar` commands run in-process via `cli.main`."""

    def __init__(self, name: str, commands: tuple[Command, ...], seed: int, out_dir: Path):
        self.name = name
        self.commands = commands
        self.seed = seed
        self.out_dir = out_dir
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(POOL)]
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)[name]

    def prepare(self, j: int) -> int:
        return self.order[j % POOL]

    def run(self, job_seed: int, _between) -> list[tuple[int, str]]:
        return run_commands(self.commands, job_seed, self.out_dir, self.name)

    def verify(self, j: int, job_seed: int, results: list[tuple[int, str]]) -> Outcome:
        outcome = Outcome(attempted=len(self.commands))
        digests = []
        for command, (rc, err) in zip(self.commands, results):
            where = f"seed={self.seed} job={j} ({command.label} --seed {job_seed})"
            data = command.out(self.out_dir, self.name).read_bytes()
            outcome.output_bytes += len(data)
            digest = _sha(data)
            digests.append(digest)
            lines = err.strip().splitlines()
            match = command.verdict.fullmatch(lines[-1]) if len(lines) == 1 else None
            if rc != 0:
                outcome.failures.append(f"{where}: exit code {rc}")
            elif match is None or not command.accept(match):
                outcome.failures.append(f"{where}: stderr verdict {err.strip()!r}")
            elif digest != self.reference[command.label][job_seed]:
                outcome.failures.append(f"{where}: output sha256 {digest} differs from reference")
        outcome.digest = _sha(" ".join(digests).encode())
        return outcome


# `charvar sample --k 12` as a user runs it, at the default count of 10.
SAMPLE_COMMANDS = (
    Command(
        "sample",
        ("sample", "--k", "12"),
        re.compile(r"sample: k=12 count=10 max residual \S+ ok"),
    ),
)

# Every command at a tenth of its default count (roundtrip 100, lemma52
# 1000, fiber 100), so the bundle keeps the mix a user's default runs have
# (lemma52 sizes its per-rung families as count // 20) while a job takes
# about 0.15 s rather than 1.5 s, enough jobs in a run for the tail.
COVER_COMMANDS = (
    Command(
        "roundtrip",
        ("cover", "roundtrip", "--count", "10"),
        re.compile(r"cover roundtrip: count=10 max residual \S+ ok"),
    ),
    Command(
        "lemma52",
        ("lemma52", "--count", "100"),
        re.compile(r"lemma52: max residual (\S+), branch coverage ((?:\d:\d+ ?){7})"),
        _lemma52_ok,
    ),
    Command(
        "fiber",
        ("cover", "fiber", "--count", "10"),
        re.compile(r"cover fiber: 10 fibers, branch fraction \S+"),
    ),
)


# ---------------------------------------------------------------------------
# certification


class CertifyWorkload:
    """One job is one certification: the checks of CERTIFY_CHECKS.  Job j of
    workload seed s certifies with seed 16 s + j; the warm-up certifies at
    reduced counts with seed 16 s + 15, which no timed job reaches."""

    name = "certify"

    def __init__(self, seed: int, counts: dict[str, int]):
        self.seed = seed
        self.counts = counts

    def prepare(self, j: int) -> tuple[dict[str, int], int]:
        if j < 0:
            return selftest.REDUCED_COUNTS, 16 * self.seed + 15
        return self.counts, 16 * self.seed + j

    def run(self, job, between: Callable[[], None]) -> list[tuple[str, bool, str, float]]:
        """Each check with its seconds; `between` runs between checks."""
        counts, seed = job
        results = []
        for i, (name, fn) in enumerate(CERTIFY_CHECKS):
            if i:
                between()
            start = time.perf_counter()
            # Through the module attribute, so a traced run sees the check.
            result = getattr(selftest, fn.__name__)(counts, seed)
            results.append((name, result.ok, result.detail, time.perf_counter() - start))
        return results

    def verify(self, j: int, job, results) -> Outcome:
        outcome = Outcome(attempted=len(results))
        verdicts = []
        for name, ok, detail, seconds in results:
            verdicts.append(f"{name} {ok} {detail}")
            outcome.parts[name] = seconds
            if not ok:
                outcome.failures.append(f"seed={self.seed} job={j} ({name}, selftest seed {job[1]}): {detail}")
        outcome.digest = _sha("\n".join(verdicts).encode())
        return outcome


def budget_share_max(seconds: dict[str, float]) -> float:
    """Largest elapsed / budget over acceptance criteria 1-10."""
    return max(seconds[name] / budget for name, budget in BUDGETS_S.items())


# ---------------------------------------------------------------------------
# solvers


@dataclass(frozen=True)
class SolverJob:
    pairs: tuple[tuple[int, bool, rep.PuncturedSphereRep, rep.PuncturedSphereRep], ...]
    link_seed: tuple[int, ...]


class SolversWorkload:
    """Library-level jobs: one conjugate and one independent pair at each k,
    then refined samples of the n = 3 link."""

    name = "solvers"
    KS = (4, 6, 8)
    LINK_POINTS = 3

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, j: int) -> SolverJob:
        rng = np.random.default_rng((self.seed, j % 2**32))
        pairs = []
        for k in self.KS:
            a = variety.sample_point(k, rng)
            pairs.append((k, True, a, rep.conjugate_rep(quat.random_unit(rng), a)))
            pairs.append((k, False, a, variety.sample_point(k, rng)))
        return SolverJob(tuple(pairs), (self.seed, j % 2**32, 1))

    def run(self, job: SolverJob, _between):
        found = [variety.conjugator_search(a, b) for _, _, a, b in job.pairs]
        points = morse.sample_link(3, self.LINK_POINTS, np.random.default_rng(job.link_seed), refine=True)
        return found, points

    def verify(self, j: int, job: SolverJob, results) -> Outcome:
        found, points = results
        outcome = Outcome(attempted=len(job.pairs) + 1)
        where = f"seed={self.seed} job={j}"
        conjugate_tried = conjugate_found = 0
        h = hashlib.sha256()
        for (k, conjugate, a, b), g in zip(job.pairs, found):
            h.update(b"none" if g is None else np.asarray(g).tobytes())
            if not conjugate:
                if g is not None:
                    outcome.failures.append(f"{where}: k={k} independent pair returned a conjugator")
                continue
            conjugate_tried += 1
            if g is None:
                outcome.failures.append(f"{where}: k={k} conjugate pair returned None")
                continue
            conjugate_found += 1
            residual = max(
                float(np.linalg.norm(quat.conjugate(g, qa) - qb))
                for qa, qb in zip(a.meridians, b.meridians)
            )
            if residual > 1e-7:
                outcome.failures.append(f"{where}: k={k} conjugator residual {residual:.3e} > 1e-07")
        worst = max(abs(morse.eval_chart_g(3, pt.zs)) for pt in points)
        if len(points) != self.LINK_POINTS or worst > 1e-10:
            outcome.failures.append(f"{where}: refined link residual {worst:.3e} > 1e-10")
        for pt in points:
            h.update(pt.zs.tobytes())
        outcome.digest = h.hexdigest()
        outcome.counts = {"conjugate_tried": conjugate_tried, "conjugate_found": conjugate_found}
        return outcome


# ---------------------------------------------------------------------------

CLI_COMMANDS = {"sample-k12": SAMPLE_COMMANDS, "cover-t2": COVER_COMMANDS}


def make(name: str, seed: int, out_dir: Path, smoke: bool = False):
    if name in CLI_COMMANDS:
        return CliWorkload(name, CLI_COMMANDS[name], seed, out_dir)
    if name == "certify":
        return CertifyWorkload(seed, selftest.REDUCED_COUNTS if smoke else selftest.FULL_COUNTS)
    if name == "solvers":
        return SolversWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
