#!/usr/bin/env python3
"""Check one perfbench run's stdout (read from stdin) for a workload.

    python3 perfbench/run.py --workload rpc --seed 1 --seconds 1 --trace 0 \
      | python3 ci/check_perfbench.py rpc ci/perfbench_digests.json

The result line (last on stdout) must read "correct": true with "failed": 0,
and the fingerprint's digest must equal the one pinned for the workload:
the sim clock is deterministic, so a digest that moves means simulated
behaviour changed.
"""

import json
import sys


def main():
    workload, pinned_path = sys.argv[1], sys.argv[2]
    lines = sys.stdin.read().splitlines()
    if not lines:
        sys.exit(f"perfbench {workload}: no output")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"perfbench {workload} failed its checks: {lines[-1]}")
    prefix = "fingerprint "
    fingerprint = next((json.loads(line[len(prefix):]) for line in lines
                        if line.startswith(prefix)), None)
    if fingerprint is None:
        sys.exit(f"perfbench {workload}: no fingerprint line")
    with open(pinned_path) as f:
        pinned = json.load(f)["digests"][workload]
    if fingerprint["digest"] != pinned:
        sys.exit(f"perfbench {workload}: digest {fingerprint['digest']} != pinned "
                 f"{pinned} ({pinned_path}); the sim clock moved")
    print(f"perfbench {workload}: ok, digest {pinned}")


if __name__ == "__main__":
    main()
