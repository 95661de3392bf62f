"""Benchmark worker: runs one workload as a closed loop with one client in
this process and prints its raw result as one JSON line.

Started by run.py, once per set-up probe (``--setup-only``) and once for
the measurement.  Numeric library threads are pinned to one before numpy
loads, and CHARVAR_THREADS is set per workload.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("sample-k12", "cover-t2", "certify", "solvers")
THREADS = {"sample-k12": 1, "cover-t2": 2, "certify": 1, "solvers": 1}
# Jobs in each pass of a traced run: fixed, so that counts repeat exactly.
TRACE_JOBS = {"sample-k12": 48, "cover-t2": 24, "certify": 1, "solvers": 24}
SMOKE_JOBS = {"sample-k12": 2, "cover-t2": 2, "certify": 1, "solvers": 2}

CALLS = (
    "quat.qmul",
    "quat.gprod",
    "quat.commutator_defect",
    "rep.fingerprint",
    "rep.make_rep",
    "variety.sample_point",
    "variety.conjugator_search",
    "cover.pushforward",
    "cover.extend",
    "cover.lemma52_detailed",
    "morse.eval_chart_g",
    "morse.refine_chart_zero",
    "cli.main",
)
SELF_TIMES = (
    "rep.fingerprint",
    "rep.fingerprint_digest",
    "rep.make_rep",
    "rep.make_surface_rep",
    "rep.complete_rep",
    "variety.sample_point",
    "variety.classify_locus",
    "variety.conjugator_search",
    "variety.submersion_certificate",
    "variety.local_dimension",
    "cover.pushforward",
    "cover.extend",
    "cover.lemma52_detailed",
    "cover.fiber",
    "morse.refine_chart_zero",
    "morse.sample_link",
    "morse.certify_hessian_numeric",
    "morse.certify_hessian_combinatorics",
)


def use_checkout(workload: str) -> bool:
    """Pin numeric threads before numpy loads and import charvar from this
    checkout's src/; False if charvar resolves anywhere else."""
    os.environ.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        CHARVAR_THREADS=str(THREADS[workload]),
    )
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import charvar
    except ImportError as exc:
        print(f"cannot import charvar from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if Path(charvar.__file__).resolve().parent != ROOT / "src" / "charvar":
        print(f"charvar imported from {charvar.__file__}, not from this checkout", file=sys.stderr)
        return False
    return True


# Iterations of one host-speed sample, and the seconds such a sample takes
# at the reference speed that timings are scaled to: the typical speed of
# the 2-core host on which the benchmark was defined.
CHUNK = 50_000
REFERENCE_CHUNK_S = 0.006
# Samples on each side of a job that, with those taken during it, give the
# host's speed while the job ran.
SPAN = 4


class HostSpeed:
    """Samples the host's speed with a fixed pure-Python loop, outside every
    timed region.  A shared host's speed swings by up to 2x over seconds to
    minutes, and this loop slows and speeds up with charvar's jobs; a job's
    time multiplied by the factor for the samples around it compares across
    such swings."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(CHUNK):
            acc += i * i % 7
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.total += elapsed

    def median(self) -> float:
        return statistics.median(self.samples)

    def factor(self, lo: int, hi: int) -> float:
        """Reference over actual speed, from the median of samples lo..hi-1."""
        return REFERENCE_CHUNK_S / statistics.median(self.samples[max(0, lo) : hi])


class Tally:
    """Outcomes and latencies of the jobs of one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.counts: Counter[str] = Counter()
        self.digests: list[str] = []
        self.latencies: list[float] = []
        self.speed_windows: list[tuple[int, int]] = []  # host-speed samples beside each job
        self.parts: list[dict[str, float]] = []

    def add(self, outcome, latency: float | None = None) -> None:
        self.attempted += outcome.attempted
        self.failures += outcome.failures
        self.output_bytes += outcome.output_bytes
        self.counts.update(outcome.counts)
        self.digests.append(outcome.digest)
        if latency is not None:
            self.latencies.append(latency)
            if outcome.parts:
                self.parts.append(outcome.parts)


def run_pass(workload, jobs, tally: Tally, speed: HostSpeed, tracer=None, until: float | None = None) -> None:
    """Run jobs back to back, each prepared before its clock starts and
    checked after it stops, with a host-speed sample before each job (and
    between the checks of a certification, not counted in its time).  With
    `until`, start a further job only if one as long as the last would end
    by then: a run of long jobs (a certification takes 11-24 s on a 2-core
    host) then always holds the same number of them, rather than one or two
    by host speed."""
    for j, job in enumerate(jobs):
        speed.probe()
        if tracer is not None:
            tracer.job = j
            tracer.active = True
        paused, first = speed.total, len(speed.samples)
        start = time.perf_counter()
        result = workload.run(job, speed.probe)
        latency = time.perf_counter() - start - (speed.total - paused)
        if tracer is not None:
            tracer.active = False
        tally.add(workload.verify(j, job, result), latency)
        tally.speed_windows.append((first - 1, len(speed.samples)))
        if until is not None and time.perf_counter() + latency > until:
            break


def warm_up(workload, tally: Tally, speed: HostSpeed) -> None:
    """One untimed job on an input the timed jobs do not reach."""
    job = workload.prepare(-1)
    tally.add(workload.verify(-1, job, workload.run(job, speed.probe)))


def mean_parts(tallies) -> dict[str, float]:
    """Mean seconds of each named part over every job of the tallies."""
    parts = [p for tally in tallies for p in tally.parts]
    return {name: statistics.fmean(p[name] for p in parts) for name in parts[0]} if parts else {}


def measure(workload, seconds: float, max_jobs: int | None, speed: HostSpeed) -> dict:
    """After one warm-up job, run new jobs, each once, for about `seconds`
    and at least one job (or `max_jobs` jobs)."""
    tally = Tally()
    warm_up(workload, tally, speed)
    jobs = (workload.prepare(j) for j in (itertools.count() if max_jobs is None else range(max_jobs)))
    run_pass(workload, jobs, tally, speed, until=None if max_jobs else time.perf_counter() + seconds)
    printed = {}
    if tally.parts:
        import workloads

        printed["certify_s"] = (statistics.median(tally.latencies), "s")
        shares = [workloads.budget_share_max(parts) for parts in tally.parts]
        printed["budget_share_max"] = (statistics.median(shares), "ratio")
    return {
        "latencies": tally.latencies,
        "scaled": [t * speed.factor(lo - SPAN, hi + SPAN) for t, (lo, hi) in zip(tally.latencies, tally.speed_windows)],
        "attempted": tally.attempted,
        "failures": tally.failures,
        "printed": printed,
    }


def layer_metrics(names, tally: Tally, spans, rungs, checks: dict[str, float]) -> dict:
    import numpy as np

    import workloads
    from tracing import LAYERS, self_times

    selfs = self_times(spans)
    ids = {name: i for i, name in enumerate(names)}
    calls = np.bincount(spans["name"], minlength=len(names))
    self_s = np.bincount(spans["name"], weights=selfs, minlength=len(names))
    metrics: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (int(calls[ids[name]]), "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (float(self_s[ids[name]]), "s")
    for layer in LAYERS:
        total = sum(float(self_s[i]) for i, name in enumerate(names) if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total, "s")

    for branch in range(1, 8):
        metrics[f"cover.ladder.rung{branch}"] = (rungs[f"cover.ladder.rung{branch}"], "count")
    solves = sum(rungs.values())
    # Rung b tried b pairs; rung 7 tried all six and fell back to the axis.
    attempts = sum(min(b, 6) * rungs[f"cover.ladder.rung{b}"] for b in range(1, 8))
    metrics["cover.ladder.pairs_per_solve"] = (attempts / solves if solves else 0.0, "ratio")

    tried = tally.counts["conjugate_tried"]
    found = tally.counts["conjugate_found"]
    metrics["variety.conjugator_search.found_ratio"] = (found / tried if tried else 0.0, "ratio")

    refine = ids["morse.refine_chart_zero"]
    parents = spans["parent"]
    in_refine = (spans["name"] == ids["morse.eval_chart_g"]) & (parents >= 0)
    in_refine[in_refine] = spans["name"][parents[in_refine]] == refine
    refines = int(calls[refine])
    metrics["morse.eval_chart_g.calls_per_refine"] = (
        int(in_refine.sum()) / refines if refines else 0.0,
        "ratio",
    )

    for check in workloads.CHECK_NAMES:
        metrics[f"selftest.{check}.s"] = (checks.get(check, 0.0), "s")
    metrics["selftest.budget_share_max"] = (workloads.budget_share_max(checks) if checks else 0.0, "ratio")
    metrics["cli.output_bytes"] = (tally.output_bytes, "B")
    metrics["trace.spans"] = (int(spans["name"].shape[0]), "count")
    return metrics


def trace(workload, n_jobs: int, seed: int, speed: HostSpeed) -> dict:
    """Run a fixed job set untraced, twice traced, then untraced again;
    per-layer metrics come from the first traced pass, whose outputs and
    counts the other passes must repeat."""
    import numpy as np

    import tracing

    jobs = [workload.prepare(j) for j in range(n_jobs)]
    untraced = [Tally(), Tally()]
    warm_up(workload, untraced[0], speed)
    run_pass(workload, jobs, untraced[0], speed)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = []
    for _ in range(2):
        tally = Tally()
        run_pass(workload, jobs, tally, speed, tracer)
        spans = tracer.spans()
        if not traced:
            wall = sum(tally.latencies)
            np.savez(OUT_DIR / f"spans-{workload.name}-{seed}.npz", names=np.array(tracer.names), wall=wall, **spans)
        traced.append((tally, spans, tracer.tags()))
        tracer.reset()
    tracer.active = False
    run_pass(workload, jobs, untraced[1], speed)

    # Self times come from the traced passes, the checks' seconds from the
    # untraced ones.
    checks = mean_parts(untraced)
    metrics, again = (layer_metrics(tracer.names, *pass_, checks) for pass_ in traced)
    first, second = (pass_[0] for pass_ in traced)
    passes = [untraced[0], first, second, untraced[1]]
    failures = [f for tally in passes for f in tally.failures]
    for j, digests in enumerate(zip(*(tally.digests[-n_jobs:] for tally in passes))):
        if len(set(digests)) != 1:
            failures.append(f"seed={seed} job={j}: traced output differs from untraced output")
    moved = [name for name, (value, unit) in metrics.items() if unit in ("count", "B") and again[name][0] != value]
    if moved:
        failures.append(f"seed={seed}: counts differ between two traced passes: {moved}")
    attempted = sum(tally.attempted for tally in passes)
    traced_wall = statistics.fmean(sum(tally.latencies) for tally in (first, second))
    untraced_wall = statistics.fmean(sum(tally.latencies) for tally in untraced)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["fail_ratio"] = (len(failures) / attempted, "ratio")
    return {"metrics": metrics, "attempted": attempted, "failures": failures}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout(args.workload):
        return 3
    import numpy as np

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT_DIR, smoke=args.smoke)
    workload.prepare(0)
    if args.setup_only:
        return 0

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "charvar_threads": THREADS[args.workload],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    speed = HostSpeed()
    smoke_jobs = SMOKE_JOBS[args.workload]
    if args.trace:
        result = trace(workload, smoke_jobs if args.smoke else TRACE_JOBS[args.workload], args.seed, speed)
    else:
        result = measure(workload, args.seconds, smoke_jobs if args.smoke else None, speed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env["chunk_s"] = speed.median()
    env["chunks"] = len(speed.samples)
    result["env"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
