#!/usr/bin/env bash
# CI-style check: build and run the full test suite four times —
# plain, with telemetry compiled out (-DPERFDMF_TELEMETRY=OFF), under
# ThreadSanitizer, and under AddressSanitizer+UBSan — then run the
# perfguard stage: every bench a bench/baselines/gated.txt rule names,
# each run stored as a PerfDMF trial and gated against the median of the
# recorded runs of its machine class in bench/baselines/<class>/ (a class
# with none is reported UNGATED). Before perfguard, the pipeline benchmark
# is smoke-run: every workload at tiny scale, outputs verified. First of
# all, the PERFDMF_* variables src/ and bench/ read are matched against
# README's "Runtime configuration" table.
#
# Usage:
#   scripts/check.sh            # all four configurations + perfguard
#   scripts/check.sh quick      # sanitizers run only the thread-heavy
#                               # (-L concurrency), executor-parity
#                               # (-L parity), and telemetry
#                               # (-L observability) suites
#   scripts/check.sh knobs      # only the runtime-configuration
#                               # inventory (README table vs src/, bench/)
#   scripts/check.sh perfguard  # only the perfguard stage
#   scripts/check.sh perfguard --record-baseline
#                               # add a fresh run of every gated bench to
#                               # bench/baselines/<this machine's class>/
#                               # (run it 5 times for a full baseline)
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-}"
JOBS="$(nproc)"

run_suite() {
  local dir="$1" label_filter="$2" label_exclude="$3"
  shift 3
  local extra=()
  [ -n "$label_filter" ] && extra+=(-L "$label_filter")
  [ -n "$label_exclude" ] && extra+=(-LE "$label_exclude")
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" "${extra[@]}"
}

# A skipped test is not a safety net: fail when the last ctest run in
# build dir $1 had any gtest case report [  SKIPPED ], other than the
# cases named in the remaining arguments (Suite.Name).
check_no_skips() {
  local dir="$1"
  shift
  local skipped unexpected
  skipped="$(grep -oE '^\[  SKIPPED \] [^ ]+ \(' \
               "$dir/Testing/Temporary/LastTest.log" |
             sed -E 's/^\[  SKIPPED \] //; s/ \($//' | sort -u || true)"
  unexpected="$(comm -23 <(printf '%s\n' "$skipped" | sed '/^$/d') \
                         <(printf '%s\n' "$@" | sort -u))"
  if [ -n "$unexpected" ]; then
    echo "unexpected skipped tests in $dir:" >&2
    echo "$unexpected" >&2
    return 1
  fi
}

# Every bench a gated.txt rule names, at the scale a CI stage affords
# (~1 min in all), then the gate; --record-baseline adds the runs to the
# baseline of this machine's class instead.
run_perfguard() {
  echo "=== perfguard (gated benches + regression gate) ==="
  cmake -B build-check -S . >/dev/null
  cmake --build build-check -j "$JOBS" \
    --target bench_workload bench_scale bench_query bench_sqldb perfguard
  (cd build-check &&
     ./bench/bench_workload --quick &&
     ./bench/bench_scale --quick &&
     ./bench/bench_query &&
     ./bench/bench_sqldb --benchmark_filter=NONE)
  ./build-check/bench/perfguard --baseline-dir bench/baselines "$@" \
    build-check/BENCH_{workload,scale,query,sqldb}.json
}

# Knob inventory: every PERFDMF_* environment variable src/ or bench/
# reads (through getenv or an env_* helper) has a row in README's
# "Runtime configuration" table, and every row names a variable read.
check_knobs() {
  echo "=== runtime configuration inventory ==="
  local read documented missing stale
  read="$(grep -rhoE '(getenv|env_[a-z_]+)\("PERFDMF_[A-Z0-9_]+"' src bench |
          grep -oE 'PERFDMF_[A-Z0-9_]+' | sort -u)"
  documented="$(sed -n '/^## Runtime configuration/,/^## /p' README.md |
                grep -oE '^\| `PERFDMF_[A-Z0-9_]+`' |
                grep -oE 'PERFDMF_[A-Z0-9_]+' | sort -u)"
  missing="$(comm -23 <(echo "$read") <(echo "$documented"))"
  stale="$(comm -13 <(echo "$read") <(echo "$documented"))"
  if [ -n "$missing" ]; then
    echo "read in src/ or bench/ but missing from README's Runtime configuration:" >&2
    echo "$missing" >&2
  fi
  if [ -n "$stale" ]; then
    echo "in README's Runtime configuration but read nowhere in src/ or bench/:" >&2
    echo "$stale" >&2
  fi
  [ -z "$missing" ] && [ -z "$stale" ]
}

if [ "$MODE" = "perfguard" ]; then
  shift
  run_perfguard "$@"
  exit 0
fi

check_knobs
if [ "$MODE" = "knobs" ]; then
  exit 0
fi

# ASan/UBSan additionally runs the executor parity harness (optimized
# hash-join/group-by/Top-K paths vs forced fallbacks); the TSan sweep
# covers the shared plan cache through the -L concurrency suites.
SAN_FILTER=""
ASAN_FILTER=""
if [ "$MODE" = "quick" ]; then
  SAN_FILTER="concurrency|observability"
  ASAN_FILTER="concurrency|parity|observability"
fi

echo "=== plain build ==="
run_suite build-check "" ""
check_no_skips build-check

echo "=== telemetry compiled out ==="
# The kill switch must keep the whole suite green: system tables exist
# but serve zeros, and recording compiles to nothing.
run_suite build-notel "" "" -DPERFDMF_TELEMETRY=OFF
# Only the recording-dependent cases may skip, each by name.
check_no_skips build-notel \
  Histogram.PercentilesTrackExactQuantiles \
  SystemTableTest.SlowQueryTraceEndToEnd \
  ExplainAnalyze.OperatorMicrosSumWithinRingTotal

echo "=== telemetry compiled out: introspection smoke ==="
# Explicit gate on the introspection surface with the kill switch
# thrown: EXPLAIN ANALYZE must still report real per-operator stats
# (its clocks are independent of telemetry) and the live system tables
# must stay queryable, with the counter-backed columns frozen at zero.
ctest --test-dir build-notel --output-on-failure -j "$JOBS" -L observability

echo "=== ThreadSanitizer ==="
# The fork-based crash-recovery harness (-L crash) is excluded: fork()
# does not carry TSan's internal threads into the child. The zipfian
# statistics suite (-L workload) is excluded from both sanitizers: its
# sampling tolerances assume uninstrumented execution; the plain and
# telemetry-off builds run it in full. The governance/chaos suites
# (-L robustness) assert wall-clock bounds (deadline delivery, queue
# timeouts) that TSan's timing distortion breaks; they get their own
# dedicated ASan stage below instead.
run_suite build-tsan "$SAN_FILTER" "crash|workload|robustness" \
  -DPERFDMF_SANITIZE=thread

echo "=== AddressSanitizer + UBSan ==="
run_suite build-asan "$ASAN_FILTER" "workload|robustness" \
  -DPERFDMF_SANITIZE=address,undefined
check_no_skips build-asan

echo "=== chaos (robustness suites under ASan, fixed seed) ==="
# Governance + 220 randomized chaos schedules, memory-checked. The seed
# is pinned so CI failures reproduce exactly; a failing schedule prints
# its own "replay with PERFDMF_SEED=..." line. Override PERFDMF_SEED to
# explore different schedules locally.
PERFDMF_SEED="${PERFDMF_SEED:-3405691582}" ctest --test-dir build-asan \
  --output-on-failure -j "$JOBS" -L robustness

echo "=== pipeline benchmark smoke ==="
# Every pipebench workload (miranda, archive, explore) at tiny scale,
# untraced and traced, with output verification on — which includes the
# archive agreeing with itself after close/reopen and after WAL recovery
# — zero failed operations, and the metric set BENCHMARK.json declares.
python3 pipebench/smoke_test.py

run_perfguard

echo "all checks passed"
