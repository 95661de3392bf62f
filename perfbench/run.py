"""charvar benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload sample-k12 --seed 0 --seconds 15 --trace 0

Workloads (see workloads.py): sample-k12, cover-t2, certify, solvers.  Each
runs as a closed loop with one client in one worker process.  Set-up is
timed over fresh worker processes that import charvar and build the
inputs, half of them before the measurement and half after, and reported
as their median.  Every job's output is checked; a failed check names the
(seed, job) that replays it.  End-to-end times are scaled to a reference
host speed, sampled with a fixed pure-Python loop beside the work they time
(see worker.HostSpeed); the raw times are printed too.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 a fixed job set runs untraced, twice
traced and untraced again, and the result holds the per-layer metrics.  Lines before
it restate every metric with its unit.  Exit code 0 means a result was
printed; any other code means the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_CHUNK_S, WORKLOADS, HostSpeed

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 10
SPEED_SAMPLES = 5  # host-speed samples taken just before each set-up probe
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class RunFailed(Exception):
    pass


def call_worker(args: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            cwd=BENCH.parent,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {' '.join(args)} timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it, and
    that percentile; the slowest job (p100) when there are too few jobs."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(raw: dict, setup: list[float], setup_raw: list[float]) -> tuple[dict, dict, list[str]]:
    """The JSON metrics, from times scaled to the reference host speed;
    metrics printed only (they exist on one workload or can be zero); and
    notes with the unscaled figures."""
    latencies, scaled = raw["latencies"], raw["scaled"]
    tail_s, pct = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    failed = len(raw["failures"])
    printed = {"fail_ratio": (failed / raw["attempted"], "ratio"), **{k: tuple(v) for k, v in raw["printed"].items()}}
    notes = [
        f"setup_s: median of {len(setup)} fresh processes; unscaled {statistics.median(setup_raw):.4f} s",
        f"job_p50_s, jobs_per_s: {len(scaled)} jobs, each run once; unscaled "
        f"{statistics.median(latencies):.6f} s and {len(latencies) / sum(latencies):.4f} 1/s",
        f"job_tail_s: p{pct:.1f} of {len(scaled)} jobs; unscaled {tail(latencies)[0]:.6f} s",
    ]
    return metrics, printed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="two jobs (one reduced certification), one set-up probe")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    setup: list[float] = []
    setup_raw: list[float] = []
    speed = HostSpeed()

    def probe_setup(times: int) -> None:
        for _ in range(times):
            for _ in range(SPEED_SAMPLES):
                speed.probe()
            t0 = time.perf_counter()
            call_worker([*common, "--setup-only"], 60.0)
            setup_raw.append(time.perf_counter() - t0)
            n = len(speed.samples)
            setup.append(setup_raw[-1] * speed.factor(n - SPEED_SAMPLES, n))

    try:
        probe_setup(1 if args.smoke else SETUP_PROBES // 2)
        out = call_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            DEADLINE_S - (time.perf_counter() - started),
        )
        probe_setup(0 if args.smoke else SETUP_PROBES - SETUP_PROBES // 2)
        raw = json.loads(out.strip().splitlines()[-1])
    except (RunFailed, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    env = raw["env"]
    print(
        f"host: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
        f"numpy={env['numpy']} CHARVAR_THREADS={env['charvar_threads']} "
        f"BLAS threads={env['blas_threads']} calibration_s={env['chunk_s']:.6f} "
        f"(median of {env['chunks']} samples, reference {REFERENCE_CHUNK_S})"
    )
    if args.trace:
        metrics = {name: tuple(v) for name, v in raw["metrics"].items()}
        metrics["host.calibration_s"] = (env["chunk_s"], "s")
        printed = {}
        notes = ["per-layer times are unscaled; self times are measured under tracing; selftest.*.s untraced"]
    else:
        metrics, printed, notes = end_to_end(raw, setup, setup_raw)
    failed = len(raw["failures"])
    for failure in raw["failures"]:
        print(f"FAIL {failure}")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name} {value} {unit}")
    notes.append(f"fail_ratio: {failed} failed / {raw['attempted']} attempted operations")
    for note in notes:
        print(f"note: {note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": raw["attempted"],
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
