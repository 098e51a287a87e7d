#!/usr/bin/env python3
"""End-to-end benchmark of psc: checked runs of two workloads.

Run from the root of a checkout:

    python3 psc_bench/run.py --workload rw_clock_reads --seed 1 --seconds 55 --trace 0

The first call configures and builds psc_bench/ (which compiles ../src) into
.bench_build/psc_bench; later calls only re-check the build. The script then
runs psc_bench iterations of the workload, each in a fresh process, for
--seconds (one warm-up and at least MIN_ITERATIONS timed ones), and checks
every iteration's outputs plus the determinism fingerprint across iterations.

The first iteration warms up the page cache and the CPU: its outputs are
checked but its figures are not used. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, each the mean over the other iterations.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics, medians over the traced ones, plus obs.trace_overhead.
The last line of standard output is the JSON result; the lines before it
print every metric with its unit and stamp the run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "psc_bench"
BINARY = BUILD_DIR / "psc_bench"

# Every workload's default seed, and its held-out seed for checking that a
# claim holds on inputs not used while the claimed change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Counts that must repeat exactly across iterations of one seed.
FINGERPRINT = (
    "runtime.events",
    "runtime.time_advances",
    "rw.spec.states",
    "channel.sent",
    "transform.received",
    "mmt.ticks",
)

MIN_ITERATIONS = 3  # timed ones, after the warm-up
ITERATION_TIMEOUT_S = 150


def fail(msg):
    print(f"psc_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / ("build.ninja" if generator else "Makefile")).exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "psc_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def iterate(workload, seed, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out after {ITERATION_TIMEOUT_S}s")
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def stamp(workload, seed, trace, iterations):
    sha = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "workload": workload, "seed": seed,
            "held_out_seed": HELD_OUT_SEED,
            "trace": trace, "iterations": iterations}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()

    # Trace mode interleaves untraced and traced iterations (ABAB...), so
    # the overhead ratio compares runs made under the same conditions.
    # Iteration 0 is the warm-up; the run stops before an iteration of the
    # usual length would end past --seconds.
    min_iterations = 1 + (2 * MIN_ITERATIONS if args.trace else MIN_ITERATIONS)
    runs = []  # (traced, result)
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if len(runs) >= min_iterations and (
                elapsed + elapsed / len(runs) > args.seconds):
            break
        traced = bool(args.trace) and len(runs) % 2 == 0
        runs.append((traced, iterate(args.workload, args.seed, traced)))
        v = runs[-1][1]["values"]
        print(f"iteration {len(runs)} traced={int(traced)} "
              + " ".join(f"{m['name']}={v[m['name']]:.6g}"
                         for m in spec["end_to_end"]), file=sys.stderr)

    attempted = failed = 0
    for _, r in runs:
        for name, ok in r["checks"].items():
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}", file=sys.stderr)
    reference = runs[0][1]["values"]
    for _, r in runs[1:]:
        for key in FINGERPRINT:
            attempted += 1
            if r["values"][key] != reference[key]:
                failed += 1
                print(f"fingerprint mismatch: {key} {r['values'][key]} != "
                      f"{reference[key]}", file=sys.stderr)

    def med(results, key):
        return statistics.median(r["values"][key] for r in results)

    timed = runs[1:]
    metrics = {}
    if args.trace:
        plain = [r for traced, r in timed if not traced]
        traced = [r for traced, r in timed if traced]
        for m in spec["per_layer"]:
            if m["name"] == "obs.trace_overhead":
                value = med(traced, "run_s") / med(plain, "run_s") - 1
            else:
                value = med(traced, m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = statistics.fmean(r["values"][m["name"]] for _, r in timed)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"stamp": stamp(args.workload, args.seed, args.trace,
                                     len(runs))}))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
