"""Record the sha256 of every CLI job output over the seed pool.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json, the bytes that CLI jobs must reproduce.
Run it only at a commit whose CLI output is the accepted reference.
"""

import hashlib
import json
import sys

import worker


def main() -> int:
    reference = {}
    for name in ("sample-k12", "cover-t2"):
        if not worker.use_checkout(name):
            return 3
        import workloads

        worker.OUT_DIR.mkdir(exist_ok=True)
        commands = workloads.CLI_COMMANDS[name]
        digests = {command.label: [] for command in commands}
        for seed in range(workloads.POOL):
            for command, (rc, err) in zip(
                commands, workloads.run_commands(commands, seed, worker.OUT_DIR, name)
            ):
                if rc != 0:
                    print(f"{name} {command.label} --seed {seed}: exit {rc}: {err}", file=sys.stderr)
                    return 1
                data = command.out(worker.OUT_DIR, name).read_bytes()
                digests[command.label].append(hashlib.sha256(data).hexdigest())
        reference[name] = digests
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
