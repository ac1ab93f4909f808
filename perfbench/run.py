#!/usr/bin/env python3
"""End-to-end benchmark of the WCET analyzer.

Builds perfbench/ (a standalone CMake package that compiles ../src) in
Release mode on first use, runs one workload, checks its outputs and
prints every metric by name and unit. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
it carries the end-to-end metrics listed in BENCHMARK.json, or with
--trace 1 the per-layer metrics of the traced run.

  python3 perfbench/run.py --workload wide_cold --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke            # every workload, a few requests
  python3 perfbench/run.py --describe         # workloads and layer map
  python3 perfbench/run.py --compare A.json B.json

Each run also writes a recording (metadata plus every metric) under
<build>/recordings/ and, when traced, Chrome trace-event JSON under
<build>/traces/. <build> is $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, relative to the checkout root.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide_cold", "deep_facts_cold", "serve_edit_mix")
DEFAULT_SEED = 1   # the seed whose bounds reference.txt pins
HELD_OUT_SEED = 2  # a seed no pinned value was taken from
RUN_TIMEOUT_S = 170

# The end-to-end metrics the benchmark defines, by workload kind. The
# per-outcome latencies exist only where a server classifies requests.
E2E_ALL = ("setup_s", "latency_ms_p50", "latency_ms_p90", "requests_per_s",
           "cpu_ms_per_request", "peak_rss_mb", "failed_share", "bound_mismatches",
           "unsound_bounds", "tightness_x1000")
E2E_SERVE = ("hit_ms_p50", "warm_ms_p50", "cold_ms_p50")
MUST_BE_ZERO = ("failed_share", "bound_mismatches", "unsound_bounds")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the benchmark; returns the binary or None."""
    if not (ROOT / "src" / "wcet" / "analyzer.hpp").is_file():
        log("perfbench: analyzer sources not found under", ROOT / "src")
        return None
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    binary = out / "wcetbench"
    return binary if binary.is_file() else None


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the binary's result object or None."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--reference", str(HERE / "reference.txt"), *extra]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        got = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with code {got.returncode}")
        return None
    return json.loads(lines[-1])


def finite(metric):
    value = metric.get("value") if metric else None
    return isinstance(value, (int, float)) and math.isfinite(value)


def print_table(result):
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"correct {result['correct']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    meta = result["meta"]
    print(f"  num_cpus {meta['num_cpus']}  threads {meta['threads']}  "
          f"build {meta['build_type']}  compiler {meta['compiler']}  commit {meta['commit']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']!s:>22} {metric['unit']}")


def record(result):
    """Writes the run's recording: metadata next to every metric."""
    out = build_dir() / "recordings"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def run_one(args):
    spec = benchmark_spec()
    binary = build()
    if binary is None:
        return 2
    result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    result["meta"].update(seed=args.seed, commit=git_commit(), run_seconds=args.seconds)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        got = result["metrics"].get(entry["name"])
        if not finite(got) or got["unit"] != entry["unit"]:
            log(f"perfbench: metric {entry['name']} missing, non-finite or in the wrong unit: {got}")
            return 1
        metrics[entry["name"]] = got
    record(result)
    print_table(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def smoke():
    """A few requests of every workload, untraced and traced, on the pinned
    seed and a held-out one. Fails on a missing or non-finite metric, or on
    any nonzero correctness count."""
    spec = benchmark_spec()
    binary = build()
    if binary is None:
        return 2
    failures = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in WORKLOADS:
            for trace in (False, True):
                # Serving needs one whole stream cycle to see every outcome.
                requests = "40" if workload == "serve_edit_mix" else "4"
                result = run_binary(binary, workload, seed, 60, trace,
                                    ("--max-requests", requests, "--setup-reps", "1"))
                tag = f"{workload} seed {seed} trace {int(trace)}"
                if result is None:
                    failures.append(f"{tag}: did not run")
                    continue
                names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
                if not trace:
                    names += list(E2E_ALL)
                    if workload == "serve_edit_mix":
                        names += list(E2E_SERVE)
                bad = [n for n in names if not finite(result["metrics"].get(n))]
                bad += [n for n in MUST_BE_ZERO if result["metrics"].get(n, {}).get("value") != 0]
                if not result["correct"]:
                    bad.append("correct=false")
                status = "ok" if not bad else "FAIL " + ", ".join(sorted(set(bad)))
                print(f"smoke {tag}: {status}")
                if bad:
                    failures.append(tag)
    print("smoke:", "passed" if not failures else f"{len(failures)} failed")
    return 0 if not failures else 1


def compare(paths):
    """Compares two recordings metric by metric against the bounds in
    BENCHMARK.json. Refuses recordings from different CPU or thread
    counts, and non-Release builds."""
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    for key in ("num_cpus", "threads"):
        if a["meta"][key] != b["meta"][key]:
            log(f"perfbench: refusing to compare: {key} differs "
                f"({a['meta'][key]} vs {b['meta'][key]})")
            return 2
    for rec in (a, b):
        if rec["meta"]["build_type"] != "Release":
            log(f"perfbench: refusing to compare a {rec['meta']['build_type']} recording")
            return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("perfbench: refusing to compare different workloads or trace modes")
        return 2
    bounds = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    worse = 0
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None or not finite(ma) or not finite(mb):
            continue
        line = f"  {name:<28} {ma['value']:>14.6g} -> {mb['value']:<14.6g} {ma['unit']}"
        spec = bounds.get(name)
        if spec and ma["value"]:
            change = (mb["value"] - ma["value"]) / abs(ma["value"])
            loss = change if spec["better"] == "lower" else -change
            verdict = "WORSE" if loss > spec["bound"] else "ok"
            worse += verdict == "WORSE"
            line += f"  {change:+.1%} (bound {spec['bound']:.0%}) {verdict}"
        print(line)
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORDING")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    if args.smoke:
        return smoke()
    if args.describe:
        binary = build()
        if binary is None:
            return 2
        return subprocess.run([str(binary), "--describe"]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
