#!/usr/bin/env bash
# ci/check.sh — the full pre-merge gate, and the only gate script:
#   1. plain build with every compiler warning an error + entire ctest
#      suite, which carries every gated-suite verdict (`ctest -L NAME` for
#      fidelity, fault, trace, campus and loc: the check against
#      ci/NAME_baseline.json at --jobs 8 and --jobs 1, the untimed diff of
#      the two reports, the negative baseline that must fail and the wrong
#      seed that must be refused);
#   2. runtime determinism check: every registered bench at --jobs 1 vs
#      --jobs 8 must produce byte-identical JSON and stdout outside the
#      "timing" lines and the per-bench wall-time footers;
#   3. AddressSanitizer + UndefinedBehaviorSanitizer build
#      (-DMOBIWLAN_SANITIZE=address,undefined) running every non-soak ctest
#      test with halt_on_error=1;
#   4. ThreadSanitizer build (-DMOBIWLAN_SANITIZE=thread) running the
#      runtime thread-pool, experiment, and parallel_for tests, the
#      campus mailbox stress test (concurrent SPSC producers against a
#      live consumer), the campus worker-count invariance cases (shard
#      passes running beside the parallel arrival builds) and the pool
#      churn test (fresh sessions constructed in slab slots on pool
#      workers) and the PER grid's concurrent first use of a cold row;
#      both sanitizer trees also build with warnings as errors;
#   5. the benchmark's own correctness checks (`perfbench/run.py --test`):
#      every BENCHMARK.json workload at a tiny size must report correct,
#      including the pinned default-seed link-trace record/frame counts;
#   6. wall-clock perf gate, last because its ns bounds are pinned to one
#      reference host: `mobiwlan-bench --perf --check` holds every case
#      (among them the campus session-step rate, campus_matrix, and the loc
#      lookup rate, loc_lookup) to ci/perf_baseline.json in one loop, at
#      PERF_MIN_TIME seconds per case (default 0.2).
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

echo "== AddressSanitizer + UBSan: non-soak ctest suite =="
cmake -B build-asan -S . -DMOBIWLAN_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
  >/dev/null
cmake --build build-asan -j"${JOBS}"
ASAN_OPTIONS="halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -j"${JOBS}" -LE soak

echo "== ThreadSanitizer: runtime tests =="
cmake -B build-tsan -S . -DMOBIWLAN_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
  >/dev/null
cmake --build build-tsan -j"${JOBS}" \
  --target thread_pool_test experiment_test parallel_for_test \
           mailbox_stress_test shard_invariance_test pool_churn_test \
           per_grid_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/thread_pool_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/experiment_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_for_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/mailbox_stress_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/shard_invariance_test \
  --gtest_filter='ShardInvariance.*WorkerCounts'
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/pool_churn_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/per_grid_test \
  --gtest_filter='PerGridTest.ConcurrentFirstUseIsRaceFree:PerGridTest.SharedLookupConcurrentFirstUse'

echo "== benchmark self-test: perfbench/run.py --test =="
python3 perfbench/run.py --test

echo "== perf gate: --perf --check against ci/perf_baseline.json =="
./build/bench/mobiwlan-bench --perf --check \
  --perf-min-time "${PERF_MIN_TIME:-0.2}" --out build/BENCH_perf_check.json

echo "== all checks passed =="
