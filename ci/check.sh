#!/usr/bin/env bash
# ci/check.sh — the full pre-merge gate:
#   1. plain build with every compiler warning an error + entire ctest
#      suite;
#   2. runtime determinism check: every registered bench at --jobs 1 vs
#      --jobs 8 must produce byte-identical JSON and stdout outside the
#      "timing" lines and the per-bench wall-time footers;
#   3. perf-regression smoke gate: ci/perf_gate.sh with a short per-case
#      budget and the baseline's 25% tolerance band (the --perf cases with
#      their zero-allocation and fp32 speedup gates, the campus throughput
#      floor and the loc lookup-rate floor);
#   4. the gated suites: `ci/gate.sh NAME` for fidelity (paper-shape
#      statistics), fault (graceful degradation under export loss), trace
#      (bitwise record/replay), campus (shard invariance across 1/4/16
#      partitionings) and loc (fingerprint localization + mobility-gated
#      refresh). Each checks its report against ci/NAME_baseline.json, diffs
#      the --jobs 1 vs --jobs 8 reports, and proves its negative baseline
#      still fails;
#   5. AddressSanitizer + UndefinedBehaviorSanitizer build
#      (-DMOBIWLAN_SANITIZE=address,undefined) running every non-soak ctest
#      test with halt_on_error=1;
#   6. ThreadSanitizer build (-DMOBIWLAN_SANITIZE=thread) running the
#      runtime thread-pool, experiment, and parallel_for tests, the
#      campus mailbox stress test (concurrent SPSC producers against a
#      live consumer), the campus worker-count invariance cases (shard
#      passes running beside the parallel arrival builds) and the pool
#      churn test (fresh sessions constructed in slab slots on pool
#      workers).
#   7. the benchmark's own correctness checks (`perfbench/run.py --test`):
#      every BENCHMARK.json workload at a tiny size must report correct,
#      including the pinned default-seed link-trace record/frame counts.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== build (RelWithDebInfo, warnings are errors) =="
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j"${JOBS}"

echo "== ctest =="
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "== determinism: --jobs 1 vs --jobs 8, every registered bench =="
# Text-only benches put nothing in the JSON, so stdout is diffed too; only
# the "timing": JSON lines and the [NAME: ... wall ...] footers may differ.
for jobs in 8 1; do
  ./build/bench/mobiwlan-bench --jobs "${jobs}" \
    --json /tmp/mobiwlan_bench.json >/tmp/mobiwlan_j"${jobs}".txt
  grep -v '"timing":' /tmp/mobiwlan_bench.json >/tmp/mobiwlan_j"${jobs}".json
  sed -i '/^\[[a-z0-9_]*: .* wall/d' /tmp/mobiwlan_j"${jobs}".txt
done
if ! diff /tmp/mobiwlan_j8.json /tmp/mobiwlan_j1.json ||
   ! diff /tmp/mobiwlan_j8.txt /tmp/mobiwlan_j1.txt; then
  echo "FAIL: bench results differ between --jobs 8 and --jobs 1" >&2
  exit 1
fi
echo "ok: results byte-identical modulo timing"

echo "== perf gate: channel hot loops =="
PERF_MIN_TIME="${PERF_MIN_TIME:-0.2}" ./ci/perf_gate.sh

for suite in fidelity fault trace campus loc; do
  echo "== ${suite} gate =="
  ./ci/gate.sh "${suite}"
done

echo "== AddressSanitizer + UBSan: non-soak ctest suite =="
cmake -B build-asan -S . -DMOBIWLAN_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j"${JOBS}"
ASAN_OPTIONS="halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -j"${JOBS}" -LE soak

echo "== ThreadSanitizer: runtime tests =="
cmake -B build-tsan -S . -DMOBIWLAN_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j"${JOBS}" \
  --target thread_pool_test experiment_test parallel_for_test \
           mailbox_stress_test shard_invariance_test pool_churn_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/thread_pool_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/experiment_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_for_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/mailbox_stress_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/shard_invariance_test \
  --gtest_filter='ShardInvariance.*WorkerCounts'
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/pool_churn_test

echo "== benchmark self-test: perfbench/run.py --test =="
python3 perfbench/run.py --test

echo "== all checks passed =="
