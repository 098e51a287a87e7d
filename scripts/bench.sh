#!/usr/bin/env bash
# Perf gate: build RelWithDebInfo (no sanitizers) and run the perf bench
# binaries with fixed seeds, writing BENCH_*.json (median-of-5 ns/event
# rows) into the repo root so PRs can diff performance against the
# committed baselines.
#
# Usage: scripts/bench.sh [build-dir]   (default: build-bench)
#
# Observability pass-through (see bench/common.hpp, docs/OBSERVABILITY.md):
#   PSC_METRICS_OUT=metrics.jsonl   aggregate probe metrics across the sweep
#   PSC_CHROME_TRACE=trace.json     Chrome/Perfetto trace of the first run
#   PSC_CAUSAL_TRACE=dag.jsonl      happens-before DAG of the first run
# The variables are forwarded to the bench binaries untouched; unset means
# zero instrumentation.
#
# Conformance overhead (see docs/ANALYSIS.md):
#   PSC_LINT=1   bench_executor adds a third arm per config — the scheduler
#                loop with the online invariant probe attached — and gates
#                its overhead < 5% ns/event on configs >= 128 machines.
#
# Flight recorder (see docs/OBSERVABILITY.md "Flight recorder"):
#   PSC_FLIGHT=1 bench_executor adds a flight-recorder arm to the machine
#                sweep — the scheduler loop writing every event into the
#                binary ring — and gates its overhead < 25% ns/event at
#                >= 65,536 machines, < 50% above 262,144 (measured ~18%
#                at 65,536, ~30% at 1M while the recorder also fed
#                latency histograms, vs ~78% for the record_events trace
#                stream; see
#                docs/OBSERVABILITY.md "Flight recorder"). psc-sim
#                exposes the same recorder as --flight[=PATH].
#
# Microprofiler (see docs/OBSERVABILITY.md "Microprofiler"):
#   PSC_PROFILE=1    bench_executor adds a profiler arm to the machine
#                    sweep — the scheduler loop with the sampling
#                    microprofiler attached (1-in-64 iterations by
#                    default; PSC_PROF_SAMPLE=N overrides, though the
#                    gates assume the default) — prints the executor
#                    self-time table for the largest profiled cell,
#                    writes a per-cell "prof" block into the JSON, dumps
#                    folded stacks to BENCH_executor.json.folded
#                    (flamegraph.pl-compatible), and gates: profiler
#                    overhead < 10% ns/event at >= 65,536 machines
#                    (< 15% above 262,144), corrected phase sums covering
#                    90-120% of the profiled run's thread CPU time, and
#                    direct flight attribution (record + flight phases)
#                    within 5 points plus the run's measured A/B noise
#                    floor of its A/B arm delta. Lint's A/B delta is
#                    reported (lint_ab / lint_induced in the JSON) but
#                    not gated: that arm's 65k-channel in-flight map
#                    makes its wall time cache-layout-dominated.
#   PSC_PROFILE=PATH same, but the folded stacks go to PATH.
#
# Sweep size (see docs/EXECUTOR.md "Memory layout & timing wheel"):
#   PSC_BENCH_MAX_MACHINES=N   caps the flood 1k->1M machine sweep at N
#                              registered machines (default 1048576; CI
#                              uses 65536; 0 skips the sweep). The wheel
#                              flatness gate needs N >= 65536. N must be 0
#                              or a power of two: the sweep doubles from
#                              512, so any other value silently rounds the
#                              sweep down — rejected here instead.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
REPEATS="${PSC_BENCH_REPEATS:-5}"

MAX_MACHINES="${PSC_BENCH_MAX_MACHINES:-}"
if [[ -n "$MAX_MACHINES" ]]; then
  if ! [[ "$MAX_MACHINES" =~ ^[0-9]+$ ]] ||
     { [[ "$MAX_MACHINES" -ne 0 ]] &&
       [[ $((MAX_MACHINES & (MAX_MACHINES - 1))) -ne 0 ]]; }; then
    echo "bench.sh: PSC_BENCH_MAX_MACHINES=$MAX_MACHINES must be 0 or a" \
         "power of two (the sweep doubles 512 -> 1M)" >&2
    exit 2
  fi
fi

cmake -B "$BUILD_DIR" -S . -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo

cmake --build "$BUILD_DIR" -j --target bench_executor

BENCH_BIN="$BUILD_DIR/bench/bench_executor"
if [[ ! -x "$BENCH_BIN" ]]; then
  echo "bench.sh: $BENCH_BIN missing after a successful build —" \
       "cmake target 'bench_executor' did not produce it (stale cache?" \
       "try removing $BUILD_DIR and re-running)" >&2
  exit 2
fi

# PSC_METRICS_OUT / PSC_CHROME_TRACE / PSC_CAUSAL_TRACE / PSC_FLIGHT /
# PSC_PROFILE / PSC_PROF_SAMPLE reach the binary through the environment
# as-is (empty/unset = off).
"$BENCH_BIN" --repeats "$REPEATS" \
  --json BENCH_executor.json
