#!/usr/bin/env python3
"""Smoke gate for the discovery-to-decision benchmark (perfbench/).

Runs every workload once, short and untraced:

    python3 perfbench/run.py --workload <w> --seed 1 --seconds 1 --trace 0

and fails unless each run reports "correct": true and a pass_share of 1.0.
Nothing is timed or compared: the gate only keeps perfbench/driver.cpp
building against the library API it drives, and its runs replaying the
digests of fresh reference runs. Run from the root of a checkout:

    python3 tools/check_perfbench_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("membership-cold", "scale-committees")


def smoke(workload: str) -> bool:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: run.py exited with {proc.returncode}")
        return False
    result = json.loads(lines[-1])
    share = result["metrics"]["pass_share"]["value"]
    ok = result["correct"] is True and share == 1.0
    print(f"{workload}: correct={result['correct']} pass_share={share} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"-> {'ok' if ok else 'FAIL'}")
    return ok


def main() -> int:
    results = [smoke(workload) for workload in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
