#!/usr/bin/env bash
# Single-entry CI gate: runs the acceptance stages in sequence and
# prints a summary table. Any stage failing makes the script exit nonzero,
# but later stages still run so one CI invocation reports everything.
#
#   1. tier-1    — default `ctest` suite (fast correctness tests)
#   2. metrics   — tools/stats: end-to-end observability smoke (durable
#                  workload with the registry attached; every instrumented
#                  family must collect nonzero data)
#   3. perf      — scripts/check_perf.sh --smoke: bench JSON artifacts
#                  round-trip through the regression gate
#   4. serve     — bench/serve_load in smoke mode: short load through the
#                  query-serving layer; the binary itself gates on nonzero
#                  qps, zero batched-vs-serial equivalence mismatches, and
#                  IoStats conservation (wall-clock speedup gates are
#                  skipped in the smoke run — they belong to full perf runs)
#   5. swap      — snapshot store: the 8-reader swap hammer, a quick
#                  mid-swap crashsim sweep over every snapshot.* failpoint
#                  (recovery must land on exactly the old or exactly the
#                  new version), and bench/swap_availability emitting
#                  BENCH_swap_availability.json (reader p99 during reorg
#                  vs quiesced — scripts/check_perf.sh diffs it)
#   6. shard     — sharded network file: the differential oracle + reader
#                  hammer suite (tests/shard_test), the ccam_cli shard
#                  subcommand's sharded-vs-unsharded check, and
#                  bench/shard_scaling emitting BENCH_shard_scaling.json
#                  (route results and the 1-shard accounting are gated in
#                  the binary; the artifact is diffed by check_perf.sh)
#   7. chaos     — scripts/check_chaos.sh: request-lifecycle chaos battery
#                  (serve hammer under deadline pressure with disk fault
#                  schedules, quarantine/read-retry suite, delta-log
#                  recovery fuzz under a concurrent reader)
#   8. faults    — scripts/check_faults.sh: fault-injection + crash
#                  consistency sweeps, differential oracle, strict durable
#                  crashsim with JSON gating
#   9. bench     — perfbench/run.py: builds the standalone benchmark program
#                  (it compiles src/ on its own, so this is the only stage
#                  that compiles perfbench/) and runs each of the four
#                  workloads for one second, plus one traced run; every
#                  workload checks its answers against the benchmark's own
#                  oracle and exits nonzero on a mismatch
#  10. tsan      — scripts/check_tsan.sh: concurrency suites under
#                  ThreadSanitizer (separate build directory)
#
# Usage: scripts/ci.sh [build-dir] [tsan-build-dir]
#        (defaults: build, build-tsan)
set -uo pipefail

BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
cd "$(dirname "$0")/.."

declare -a STAGE_NAMES=() STAGE_RESULTS=()
FAILED=0

run_stage() {
  local name="$1"; shift
  echo
  echo "=== ci: $name ==="
  if "$@"; then
    STAGE_RESULTS+=("PASS")
  else
    STAGE_RESULTS+=("FAIL")
    FAILED=1
  fi
  STAGE_NAMES+=("$name")
}

tier1() {
  cmake -B "$BUILD" -S . &&
  cmake --build "$BUILD" -j "$(nproc)" &&
  ctest --test-dir "$BUILD" --output-on-failure
}

metrics() {
  cmake --build "$BUILD" --target stats -j "$(nproc)" &&
  "$BUILD/tools/stats" > /dev/null
}

serve_smoke() {
  cmake --build "$BUILD" --target serve_load -j "$(nproc)" &&
  CCAM_SERVE_DURATION_MS=400 CCAM_SERVE_QPS=8000 CCAM_SERVE_SKIP_GATE=1 \
    "$BUILD/bench/serve_load"
}

shard_stage() {
  cmake --build "$BUILD" --target shard_test ccam_cli shard_scaling \
    -j "$(nproc)" || return 1
  "$BUILD/tests/shard_test" || return 1
  local net="${TMPDIR:-/tmp}/ccam_ci_shard.net"
  "$BUILD/tools/ccam_cli" generate --out "$net" --rows 16 --cols 16 \
    --seed 5 > /dev/null || return 1
  "$BUILD/tools/ccam_cli" shard --net "$net" --page-size 512 --shards 4 \
    --routes 32 || return 1
  CCAM_SHARD_ROUTES=60 "$BUILD/bench/shard_scaling"
}

swap_stage() {
  cmake --build "$BUILD" --target snapshot_swap_test crashsim \
    swap_availability -j "$(nproc)" || return 1
  "$BUILD/tests/snapshot_swap_test" || return 1
  local fp
  for fp in snapshot.log.append snapshot.log.flush snapshot.build \
            snapshot.publish snapshot.retire; do
    "$BUILD/tools/crashsim" --snapshot --failpoint="$fp" --points=6 \
      --dir="${TMPDIR:-/tmp}/ccam_ci_swap_${fp//./_}" || return 1
  done
  CCAM_SWAP_BENCH_OPS=4000 CCAM_SWAP_BENCH_SWAPS=4 \
    "$BUILD/bench/swap_availability"
}

bench_stage() {
  local w
  for w in route_agg path_search update_mix serve_mix; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
      --trace 0 || return 1
  done
  python3 perfbench/run.py --workload path_search --seed 1 --seconds 1 \
    --trace 1
}

run_stage "tier-1 (ctest)" tier1
run_stage "metrics (tools/stats)" metrics
run_stage "perf (check_perf.sh --smoke)" scripts/check_perf.sh --smoke "$BUILD"
run_stage "serve (serve_load smoke)" serve_smoke
run_stage "swap (hammer + mid-swap crashsim)" swap_stage
run_stage "shard (oracle + hammer + bench)" shard_stage
run_stage "chaos (check_chaos.sh)" scripts/check_chaos.sh "$BUILD"
run_stage "faults (check_faults.sh)" scripts/check_faults.sh "$BUILD"
run_stage "bench (perfbench oracles)" bench_stage
run_stage "tsan (check_tsan.sh)" scripts/check_tsan.sh "$TSAN_BUILD"

echo
echo "=== ci summary ==="
printf '%-28s %s\n' "stage" "result"
printf '%-28s %s\n' "-----" "------"
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-28s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done

exit "$FAILED"
