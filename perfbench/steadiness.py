#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 --out set1.json
    python3 perfbench/steadiness.py --compare set1.json set2.json

The first form runs perfbench/run.py (--trace 0, BENCHMARK.json's
run_seconds) once per seed and workload, one at a time, and reports for each
end-to-end metric its median and its quartile spread (Q3 - Q1 over the
median) against the metric's bound. setup_s is exempt from the spread rule.
The second form checks that the second set's median of every metric is not
worse than the first's by more than its bound: run it on two sets of the same
seeds to test repeatability, or on a held-out seed set to test that a claim
carries to seeds it was not tuned on. Exit status 1 means a bound was broken.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}


def run_set(workloads, seeds):
    samples = {w: {} for w in workloads}
    for workload in workloads:
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
                 "--trace", "0"],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks",
                      file=sys.stderr)
            for name, m in result["metrics"].items():
                samples[workload].setdefault(name, []).append(m["value"])
            values = ", ".join(f"{k}={v['value']:.5g}"
                               for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)
    return samples


def summarize(samples):
    ok = True
    report = {}
    for workload, metrics in samples.items():
        report[workload] = {}
        for name, values in metrics.items():
            bound = METRICS[name]["bound"]
            spread = stats.quartile_spread(values) if len(values) >= 2 else 0.0
            exempt = name == "setup_s"
            verdict = "ok" if exempt or spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
            ok &= exempt or spread <= bound
            report[workload][name] = {"median": statistics.median(values),
                                      "spread": spread, "bound": bound,
                                      "values": values, "verdict": verdict}
            print(f"{workload:18} {name:12} median {statistics.median(values):12.5g} "
                  f"spread {spread:7.2%} bound {bound:.0%}  {verdict}")
    return report, ok


def compare(first, second):
    ok = True
    for workload, metrics in first.items():
        for name, a in metrics.items():
            b = second[workload][name]
            worse = METRICS[name]["better"] == "lower"
            change = (b["median"] - a["median"]) / a["median"]
            regression = change if worse else -change
            broken = regression > a["bound"]
            ok &= not broken
            print(f"{workload:18} {name:12} {a['median']:12.5g} -> {b['median']:12.5g} "
                  f"({change:+.2%}, bound {a['bound']:.0%}) "
                  f"{'BROKEN' if broken else 'ok'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.exit(0 if compare(first, second) else 1)
    if not args.seeds:
        parser.error("--seeds is required unless --compare is given")
    report, ok = summarize(run_set(args.workloads, args.seeds))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
