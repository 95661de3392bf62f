"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py --workloads sample-k12,solvers --seeds 0-9 --trace 0 \
        [--out perfbench/results/NAME.json] [--label TEXT]

For every workload and metric it prints the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
With --out it also writes every run's result and that summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"label": args.label, "trace": args.trace, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            host = next((line for line in lines if line.startswith("host:")), "")
            runs.append({"seed": seed, "host": host, **result})
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            summary[metric] = summarise([run["metrics"][metric]["value"] for run in runs])
            s = summary[metric]
            if args.trace == 0:
                spread = s.get("spread")
                bound = bounds.get(metric)
                print(f"  {metric:14s} median {s['median']:.5g}  spread {spread if spread is None else round(spread, 4)}  bound {bound}")
        record["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
