#!/usr/bin/env python3
"""Smoke gate for the discovery-to-decision benchmark (perfbench/).

Runs every workload twice, short: once untraced and once traced,

    python3 perfbench/run.py --workload <w> --seed 1 --seconds 1 --trace 0
    python3 perfbench/run.py --workload <w> --seed 1 --seconds 1 --trace 1

The untraced run fails unless it reports "correct": true and a pass_share
of 1.0. The traced run, which drives the per-layer probes, fails unless it
reports "correct": true and positive values for the per-layer counts
PER_LAYER_COUNTS names. Nothing is timed or compared: the gate only keeps
perfbench/driver.cpp building against the library API it drives, its runs
replaying the digests of fresh reference runs, and its probe path
producing the counts. Run from the root of a checkout:

    python3 tools/check_perfbench_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("membership-cold", "scale-committees")
PER_LAYER_COUNTS = ("sim.events_per_run", "protocol.evals_per_run",
                    "protocol.bytes_per_run", "crypto.verifies_per_run")


def run(workload: str, trace: int):
    """The result object of one run, or None if run.py failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} (trace {trace}): run.py exited with "
              f"{proc.returncode}")
        return None
    return json.loads(lines[-1])


def smoke(workload: str) -> bool:
    result = run(workload, 0)
    if result is None:
        return False
    share = result["metrics"]["pass_share"]["value"]
    ok = result["correct"] is True and share == 1.0
    print(f"{workload}: correct={result['correct']} pass_share={share} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"-> {'ok' if ok else 'FAIL'}")
    return ok


def smoke_traced(workload: str) -> bool:
    result = run(workload, 1)
    if result is None:
        return False
    metrics = result["metrics"]
    counts = {name: metrics.get(name, {}).get("value") for name in
              PER_LAYER_COUNTS}
    positive = all(isinstance(v, (int, float)) and v > 0
                   for v in counts.values())
    ok = result["correct"] is True and positive
    shown = " ".join(f"{name}={value}" for name, value in counts.items())
    print(f"{workload} (traced): correct={result['correct']} {shown} "
          f"-> {'ok' if ok else 'FAIL'}")
    return ok


def main() -> int:
    results = []
    for workload in WORKLOADS:
        results.append(smoke(workload))
        results.append(smoke_traced(workload))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
