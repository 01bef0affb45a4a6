#!/usr/bin/env python3
"""Discovery-to-decision benchmark of the BFT-CUP reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds perfbench/ (Release) into
.bench_build/perfbench, refuses an unoptimised or sanitized build, runs the
closed-loop driver for the workload and prints, as its last stdout line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones (targets.json names the
end-to-end metric and workload each should move). Provenance, and p90 where
at least ten samples lie beyond it, are printed on the lines before it; the
whole result, with the raw samples, is written to
.bench_build/perfbench/results/ and the traced run's spans, as Chrome trace
JSON, to .bench_build/perfbench/traces/.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("membership-cold", "scale-committees")
DRIVER_TIMEOUT_S = 170


def die(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def self_check():
    """The benchmark's statistics must pass their own tests before any timing."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    if not result.wasSuccessful():
        die("statistics self-check failed; refusing to report", 3)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "cup").is_dir():
        die(f"no program sources under {ROOT}; run from a full checkout", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cup_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed", 2)
    cache = (BUILD / "CMakeCache.txt").read_text()
    entries = dict(line.split("=", 1) for line in cache.splitlines()
                   if "=" in line and not line.startswith(("//", "#")))
    flags = " ".join(v for k, v in entries.items()
                     if k.startswith(("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")))
    build_type = entries.get("CMAKE_BUILD_TYPE:STRING", "")
    optimised = build_type in ("Release", "RelWithDebInfo") and "-O0" not in flags
    if not optimised or "-fsanitize" in flags:
        die(f"refusing to time build type '{build_type}' with flags '{flags}'", 4)
    return BUILD / "cup_perfbench"


def source_fingerprint():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    if out.returncode != 0:
        return "unavailable (not a git checkout)"
    return out.stdout.strip()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, raw, load_at_start):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": load_at_start,
        "git_commit": git_commit(),
        "source_sha256_16": source_fingerprint(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["type"],
        "cxx_flags": raw["build"]["flags"].strip(),
        "inputs": raw["inputs"],
        "passes": raw["passes"],
        "scale_n": raw["scale_n"],
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    run_ms = raw["run_ms"]
    attempted = raw["attempted"]
    return {
        "setup_s": metric(stats.nearest_rank(raw["setup_s"], 50), "s"),
        "runs_per_s": metric(len(run_ms) / (sum(run_ms) / 1e3), "1/s"),
        "run_ms_p50": metric(stats.nearest_rank(run_ms, 50), "ms"),
        "peak_rss_mb": metric(raw["peak_rss_bytes"] / 2**20, "MiB"),
        "pass_share": metric((attempted - raw["failed"]) / attempted, "share"),
    }


SPAN_METRICS = {
    # metric: (span name, divisor from ns, unit)
    "graph.scc_us": ("graph.scc", 1e3, "us"),
    "graph.kappa_us": ("graph.kappa", 1e3, "us"),
    "protocol.sink_search_us": ("protocol.sink_search", 1e3, "us"),
    "crypto.sign_ns": ("crypto.sign", 1, "ns"),
    "crypto.verify_ns": ("crypto.verify", 1, "ns"),
    "msg.encode_ns": ("msg.encode", 1, "ns"),
    "msg.decode_ns": ("msg.decode", 1, "ns"),
    "sim.dispatch_ns": ("sim.dispatch", 1, "ns"),
    "cup.run_overhead_us": ("cup.run_overhead", 1e3, "us"),
    "cup.digest_us": ("cup.digest", 1e3, "us"),
    "cup.registry_build_ms": ("cup.registry_build", 1e6, "ms"),
    "graph.generate_ms": ("graph.generate", 1e6, "ms"),
}


def per_layer(raw):
    c = raw["counts"]
    runs = c["runs"]
    out = {
        "sim.events_per_run": metric(c["sim_events"] / runs, "count"),
        "protocol.discovery_msgs_per_run": metric(c["discovery_msgs"] / runs, "count"),
        "protocol.pbft_msgs_per_run": metric(c["pbft_msgs"] / runs, "count"),
        "protocol.bytes_per_run": metric(c["bytes"] / runs, "bytes"),
        "protocol.evals_per_run": metric(c["evals"] / runs, "count"),
        "crypto.verifies_per_run": metric(
            (c["sig_verified"] + c["sig_cached"]) / runs, "count"),
        "cup.arena_peak_kb": metric(c["arena_peak_bytes"] / 1024, "KiB"),
    }
    hit, _ = stats.ratio_with_base(c["eval_hits"], c["evals"])
    out["protocol.eval_hit_ratio"] = metric(hit, "ratio")
    hit, _ = stats.ratio_with_base(c["sig_cached"], c["sig_cached"] + c["sig_verified"])
    out["crypto.verify_hit_ratio"] = metric(hit, "ratio")

    selfs = stats.self_times(raw["spans"])
    for name, (span, divisor, unit) in SPAN_METRICS.items():
        self_ns, calls, _ = selfs.get(span, (0, 0, 0))
        out[name] = metric(self_ns / calls / divisor if calls else 0.0, unit)

    passes = raw["passes_ms"]
    untraced, traced, off = passes["untraced"], passes["traced"], passes["metrics_off"]
    share, base = stats.ratio_with_base(traced - untraced, untraced)
    out["obs.trace_overhead_share"] = metric(share, "ratio")
    out["obs.untraced_pass_ms"] = metric(base, "ms")
    share, base = stats.ratio_with_base(traced - off, off)
    out["obs.metrics_cost_share"] = metric(share, "ratio")
    out["obs.metrics_off_pass_ms"] = metric(base, "ms")
    rss = raw["rss_per_node_basis"]
    out["cup.rss_per_node_kb"] = metric(
        max(0, rss["peak"] - rss["before"]) / 1024 / max(1, raw["n_max"]), "KiB")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    load_at_start = list(os.getloadavg())

    self_check()
    driver = build()

    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "traces").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(BUILD / "traces" / f"{stem}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver exceeded {DRIVER_TIMEOUT_S} s", 5)
    if proc.returncode != 0:
        die(f"driver exited with {proc.returncode}", 5)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if not raw["build"]["optimized"] or raw["build"]["sanitized"]:
        die("refusing to report: driver built unoptimised or with sanitizers", 4)

    prov = provenance(args, raw, load_at_start)
    prov["driver_wall_s"] = round(time.monotonic() - started, 3)
    failures = list(raw["failures"]) + list(raw.get("probe_failures", []))
    info = {"provenance": prov, "failures": failures}
    if args.trace:
        metrics = per_layer(raw)
        targets = json.loads((HERE / "targets.json").read_text())["per_layer"]
        info["targets"] = {name: targets[name] for name in metrics}
    else:
        metrics = end_to_end(raw)
        count = len(raw["run_ms"])
        if stats.tail_supported(count, 90):
            info["run_ms_p90"] = {"value": stats.nearest_rank(raw["run_ms"], 90),
                                  "unit": "ms", "samples": count,
                                  "beyond": stats.samples_beyond(count, 90)}
        else:
            info["run_ms_p90"] = (f"not reported: {count} samples leave fewer than "
                                  f"{stats.MIN_BEYOND} beyond p90")
    result = {
        "correct": raw["failed"] == 0 and raw.get("probe_failed", 0) == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    (BUILD / "results" / f"{stem}.json").write_text(
        json.dumps({**info, "result": result, "raw": raw}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
