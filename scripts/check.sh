#!/usr/bin/env bash
# The repo's pre-merge gate, four lanes:
#   1. ASan+UBSan: warning-free (-DPSC_WERROR=ON) full build + full test
#      suite + bench smoke under the sanitizers.
#   2. ThreadSanitizer: the executor/observability/fuzzer tests under TSan
#      (build-tsan). The executor is single-threaded by design; this lane
#      exists to keep it that way.
#   3. clang-tidy (skipped when the binary is absent): the src/ tree against
#      .clang-tidy (bugprone-*, concurrency-*, performance-*, ...).
#   3b. clang static analyzer (skipped when the binary is absent): the
#      path-sensitive CSA checks over src/, driven file-by-file from the
#      TSan lane's compile_commands.json; any analyzer warning fails.
#   4. psc-lint: run the flood/rw-clock/rw-mmt/queue harnesses with --lint
#      (static composition lint + online invariant probe), dump their
#      traces, and replay them offline through psc-lint — any
#      error-severity PSC diagnostic fails the lane. rw-mmt is the run that
#      reaches the MMT boundmap (PSC105) and the ell-widened PSC106 band.
#   4b. certify: psc-lint --certify derives interference graphs and bound
#      certificates for the same three harnesses (PSC2xx, any error
#      fails), and psc-sim --certify re-runs them with the online
#      CertificateProbe checking every delivery against its derived window
#      (PSC206).
#   5. psc-report: the CI sweep (configs/rw_sweep_smoke.cfg) with the
#      bound-slack observatory attached — any cell with negative bound
#      slack or a linearizability failure makes psc-report exit nonzero.
#   6. flight replay: record flood, rw-clock and rw-mmt windows into the
#      binary flight ring (psc-sim --flight), decode each with psc-flight,
#      check the decoded JSONL byte-for-byte against the same run's live
#      trace (raw message uids included), and replay the decoded window
#      through psc-lint — all under ASan+UBSan, so the record path, the
#      snapshot codec, and the decoder are sanitizer-clean and the
#      recorded window lints like a live trace.
#   7. microprofiler overhead gate: the capped machine sweep with the
#      sampling profiler attached, in a separate *plain* RelWithDebInfo
#      build (build-bench-prof) — timing under sanitizers is meaningless.
#      bench_executor itself enforces the gates: profile-on <= 1.10x
#      profile-off ns/event at >= 65,536 machines at default 1-in-64
#      sampling, corrected phase sums covering 90-120% of the profiled
#      run's thread CPU time, and direct flight attribution (record +
#      flight phases) within 5 points plus the run's own measured A/B
#      noise floor of its A/B arm delta; lint's A/B delta is reported but
#      not gated (see docs/OBSERVABILITY.md "Microprofiler").
#
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"

# --- lane 1: ASan+UBSan ------------------------------------------------------

# Warnings are errors here as in the main CI build: -O2 plus the sanitizers
# lets GCC see paths (e.g. -Wmaybe-uninitialized) a plain build does not.
cmake -B "$BUILD_DIR" -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPSC_WERROR=ON \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"

cmake --build "$BUILD_DIR" -j

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Smoke the perf bench under the sanitizers (tiny sweep, no timing claims):
# catches memory errors on the scheduler hot path that tests may not reach.
# The smoke run includes the capped flood sweep, so the timing wheel's
# cascade path executes under ASan+UBSan at 1k+ machines.
# PSC_PROFILE=1 attaches the sampling microprofiler so its record path,
# report assembly, and exporters also run sanitizer-clean (the smoke run
# skips the timing gates — no timing claims under ASan).
PSC_PROFILE=1 "$BUILD_DIR"/bench/bench_executor --smoke

# --- lane 2: ThreadSanitizer -------------------------------------------------

TSAN_DIR=build-tsan
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"

cmake -B "$TSAN_DIR" -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"

cmake --build "$TSAN_DIR" -j

ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -R 'Executor|Scheduler|Wheel|Probes|Causal|Chrome|Metrics|Determinism|FuzzSeeds|Lint|TraceCheck|TraceJsonl|HarnessClean|TimeSeries|BoundSlack|Experiment|Profiler|Flight'

# --- lane 3: clang-tidy ------------------------------------------------------

if command -v clang-tidy >/dev/null 2>&1; then
  # Reuse the TSan lane's compile_commands.json (any configured build works).
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "$TSAN_DIR" --quiet --warnings-as-errors='*'
else
  echo "clang-tidy not found; skipping the tidy lane" >&2
fi

# --- lane 3b: clang static analyzer ------------------------------------------

# Path-sensitive analysis (core.*, cplusplus.*, deadcode.*, unix.*) over the
# library tree. Driven per-file through --analyze so no scan-build wrapper
# or build-system interposition is needed; compile flags come from the TSan
# lane's compile_commands.json via -p. Any emitted warning fails the lane.
if command -v clang >/dev/null 2>&1 && command -v jq >/dev/null 2>&1; then
  CSA_LOG="$(mktemp)"
  jq -r '.[] | select(.file | test("/src/.*\\.cpp$")) | .file' \
    "$TSAN_DIR/compile_commands.json" | sort -u |
    while read -r f; do
      clang --analyze --analyzer-output text \
        -Xclang -analyzer-checker=core,cplusplus,deadcode,unix \
        -std=c++20 -Isrc "$f" 2>>"$CSA_LOG" || true
    done
  if grep -q "warning:" "$CSA_LOG"; then
    cat "$CSA_LOG" >&2
    rm -f "$CSA_LOG"
    echo "clang --analyze reported issues" >&2
    exit 1
  fi
  rm -f "$CSA_LOG"
else
  echo "clang/jq not found; skipping the static-analyzer lane" >&2
fi

# --- lane 4: psc-lint over the shipped harnesses -----------------------------

cmake --build "$BUILD_DIR" -j --target psc-sim psc-lint

LINT_TMP="$(mktemp -d)"
trap 'rm -rf "$LINT_TMP"' EXIT

# Online: --lint attaches the composition linter (PSC0xx, aborts on error)
# and the invariant probe (PSC1xx, nonzero exit on error). Each run also
# dumps its trace for the offline replay below.
"$BUILD_DIR"/tools/psc-sim flood --nodes=4 --lint \
  --trace="$LINT_TMP/flood.jsonl" >/dev/null
"$BUILD_DIR"/tools/psc-sim rw-clock --nodes=3 --ops=10 --lint \
  --trace="$LINT_TMP/rw_clock.jsonl" >/dev/null
"$BUILD_DIR"/tools/psc-sim rw-mmt --nodes=3 --ops=10 --lint \
  --trace="$LINT_TMP/rw_mmt.jsonl" >/dev/null
"$BUILD_DIR"/tools/psc-sim queue --nodes=3 --ops=8 --lint \
  --trace="$LINT_TMP/queue.jsonl" >/dev/null

# Offline: replay the dumped JSONL traces against the same bounds the
# scenarios ran with (psc-sim defaults: d1=20us d2=300us eps=50us, and
# ell=10us for rw-mmt).
"$BUILD_DIR"/tools/psc-lint --trace="$LINT_TMP/flood.jsonl" \
  --d1_us=20 --d2_us=300 --nodes=4
"$BUILD_DIR"/tools/psc-lint --trace="$LINT_TMP/rw_clock.jsonl" \
  --d1_us=20 --d2_us=300 --eps_us=50 --nodes=3
"$BUILD_DIR"/tools/psc-lint --trace="$LINT_TMP/rw_mmt.jsonl" \
  --d1_us=20 --d2_us=300 --eps_us=50 --ell_us=10 --nodes=3
"$BUILD_DIR"/tools/psc-lint --trace="$LINT_TMP/queue.jsonl" \
  --d1_us=20 --d2_us=300 --eps_us=50 --nodes=3

# --- lane 4b: bound certificates + online certificate probe ------------------

# Static: derive the interference graph and per-hop/per-path certificates
# for each harness; any PSC2xx error (vacuous window, zero-lookahead cycle,
# eps-inconsistent path, declaration contradiction) exits nonzero. The
# JSONL certificates land under the mktemp dir and are round-trip-checked
# by the versioned header line.
"$BUILD_DIR"/tools/psc-lint --certify=flood --nodes=4 \
  --d1_us=20 --d2_us=300 --jsonl="$LINT_TMP/cert_flood.jsonl"
"$BUILD_DIR"/tools/psc-lint --certify=rw-clock --nodes=3 \
  --d1_us=20 --d2_us=300 --eps_us=50 --jsonl="$LINT_TMP/cert_rw.jsonl"
"$BUILD_DIR"/tools/psc-lint --certify=queue --nodes=3 \
  --d1_us=20 --d2_us=300 --eps_us=50 --jsonl="$LINT_TMP/cert_queue.jsonl"
head -1 "$LINT_TMP/cert_flood.jsonl" | grep -q '"format":"bound-cert"' || {
  echo "certify JSONL missing versioned header line" >&2
  exit 1
}

# Online: re-run the harnesses with the CertificateProbe attached — each
# delivery is checked against its *derived* per-edge window, a strictly
# tighter check than the declared [d1, d2] envelope (--lint alone).
"$BUILD_DIR"/tools/psc-sim flood --nodes=4 --lint --certify >/dev/null
"$BUILD_DIR"/tools/psc-sim rw-clock --nodes=3 --ops=10 --lint --certify \
  >/dev/null
"$BUILD_DIR"/tools/psc-sim queue --nodes=3 --ops=8 --lint --certify \
  >/dev/null

# --- lane 5: psc-report sweep smoke ------------------------------------------

cmake --build "$BUILD_DIR" -j --target psc-report

# Every cell runs under the bound-slack observatory; psc-report exits
# nonzero when any cell observes negative slack (a run escaped a
# theoretical bound) or fails the linearizability check.
"$BUILD_DIR"/tools/psc-report --sweep=configs/rw_sweep_smoke.cfg \
  --markdown="$LINT_TMP/report_rw.md" --json="$LINT_TMP/BENCH_rw.json" --quiet

# --- lane 6: flight-recorder replay ------------------------------------------

cmake --build "$BUILD_DIR" -j --target psc-flight

# Record a window into the binary ring (sanitizers watch the record path),
# decode the snapshot back to a JSONL trace, require it to equal the run's
# live JSONL trace byte for byte (the ring holds the whole run, and message
# uids are the executor's own, so nothing needs remapping), and lint the
# decoded window against the same bounds lane 4 used for the live trace.
# The run is clean, so the snapshot here is the run-end dump, not a
# violation dump. The .fly lands under the build dir (not the mktemp dir)
# so CI can upload it as an artifact when a later step fails.
FLY_DIR="$BUILD_DIR/flight"
mkdir -p "$FLY_DIR"
"$BUILD_DIR"/tools/psc-sim flood --nodes=4 --lint \
  --flight="$FLY_DIR/flood.fly" --trace="$FLY_DIR/flood_live.jsonl" >/dev/null
"$BUILD_DIR"/tools/psc-flight "$FLY_DIR/flood.fly" --jsonl \
  --out="$FLY_DIR/flood_flight.jsonl"
cmp "$FLY_DIR/flood_live.jsonl" "$FLY_DIR/flood_flight.jsonl"
"$BUILD_DIR"/tools/psc-lint --trace="$FLY_DIR/flood_flight.jsonl" \
  --d1_us=20 --d2_us=300 --nodes=4

# The same replay for the clock and MMT models (Simulation 1's buffer legs,
# TICK/MMTSTEP). A default rw-mmt run records 8,779 events, more than the
# default 8,192-record ring, so both runs size the ring to hold the run.
for sc in rw-clock rw-mmt; do
  "$BUILD_DIR"/tools/psc-sim "$sc" --lint --flight="$FLY_DIR/$sc.fly" \
    --flight-ring=16384 --trace="$FLY_DIR/${sc}_live.jsonl" >/dev/null
  "$BUILD_DIR"/tools/psc-flight "$FLY_DIR/$sc.fly" --jsonl \
    --out="$FLY_DIR/${sc}_flight.jsonl"
  cmp "$FLY_DIR/${sc}_live.jsonl" "$FLY_DIR/${sc}_flight.jsonl"
done
"$BUILD_DIR"/tools/psc-lint --trace="$FLY_DIR/rw-clock_flight.jsonl" \
  --d1_us=20 --d2_us=300 --eps_us=50 --nodes=3
"$BUILD_DIR"/tools/psc-lint --trace="$FLY_DIR/rw-mmt_flight.jsonl" \
  --d1_us=20 --d2_us=300 --eps_us=50 --ell_us=10 --nodes=3

# --- lane 7: microprofiler overhead gate --------------------------------------

# A plain (non-sanitized) optimized build: the profiler's <= 1.10x
# self-overhead claim is about the real hot loop, and ASan's ~3x slowdown
# would drown it. The sweep is capped at 65,536 machines — the smallest
# cell where the gates apply — and bench_executor exits nonzero when the
# profiled arm exceeds 1.10x the bare wheel, when the corrected per-phase
# sums fail 90-120% conservation against the profiled run's thread CPU
# time, or when the direct record-path flight attribution disagrees with
# its A/B arm delta by more than 5 points plus the run's own measured A/B
# noise floor (a second identical baseline arm's null delta). Lint's A/B
# delta is reported but not gated — its 65k-channel in-flight map makes
# that arm's wall time cache-layout-dominated.
PROF_DIR=build-bench-prof
cmake -B "$PROF_DIR" -S . -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$PROF_DIR" -j --target bench_executor
PSC_PROFILE=1 PSC_BENCH_MAX_MACHINES=65536 \
  "$PROF_DIR"/bench/bench_executor --repeats 2 \
  --json "$LINT_TMP/BENCH_prof.json"

echo "check.sh: all lanes passed"
