#!/usr/bin/env bash
# ci/check.sh — the full pre-merge gate:
#   1. plain build + entire ctest suite;
#   2. runtime determinism check: mobiwlan-bench at --jobs 1 vs --jobs 8
#      must produce byte-identical JSON outside the "timing" lines;
#   3. perf-regression smoke gate: ci/perf_gate.sh with a short per-case
#      budget and the baseline's 25% tolerance band (microbench cases, the
#      AP-scale throughput bench and its bitwise-agreement/alloc gates, the
#      campus throughput floor and the loc lookup-rate floor);
#   4. the gated suites: `ci/gate.sh NAME` for fidelity (paper-shape
#      statistics), fault (graceful degradation under export loss), trace
#      (bitwise record/replay), campus (shard invariance across 1/4/16
#      partitionings) and loc (fingerprint localization + mobility-gated
#      refresh). Each checks its report against ci/NAME_baseline.json, diffs
#      the --jobs 1 vs --jobs 8 reports, and proves its negative baseline
#      still fails;
#   5. scale determinism: the AP-scale bench JSON at --jobs 1 vs --jobs 8
#      must be byte-identical outside the timing_* lines;
#   6. AddressSanitizer + UndefinedBehaviorSanitizer build
#      (-DMOBIWLAN_SANITIZE=address,undefined) running every non-soak ctest
#      test with halt_on_error=1;
#   7. ThreadSanitizer build (-DMOBIWLAN_SANITIZE=thread) running the
#      runtime thread-pool, experiment, and parallel_for tests plus the
#      campus mailbox stress test (concurrent SPSC producers against a
#      live consumer).
#   8. the benchmark's own correctness checks (`perfbench/run.py --test`):
#      every BENCHMARK.json workload at a tiny size must report correct,
#      including the pinned default-seed link-trace record/frame counts.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== build (RelWithDebInfo) =="
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"

echo "== ctest =="
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "== determinism: --jobs 1 vs --jobs 8 =="
./build/bench/mobiwlan-bench --filter table1 --jobs 8 --json /tmp/mobiwlan_a.json >/dev/null
./build/bench/mobiwlan-bench --filter table1 --jobs 1 --json /tmp/mobiwlan_b.json >/dev/null
if ! diff <(grep -v '"timing":' /tmp/mobiwlan_a.json) \
          <(grep -v '"timing":' /tmp/mobiwlan_b.json); then
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

echo "== scale determinism: --jobs 1 vs --jobs 8 =="
./build/bench/mobiwlan-bench --scale --jobs 8 --perf-min-time 0.05 \
  --out /tmp/mobiwlan_scale_a.json >/dev/null
./build/bench/mobiwlan-bench --scale --jobs 1 --perf-min-time 0.05 \
  --out /tmp/mobiwlan_scale_b.json >/dev/null
if ! diff <(grep -v '"timing' /tmp/mobiwlan_scale_a.json) \
          <(grep -v '"timing' /tmp/mobiwlan_scale_b.json); then
  echo "FAIL: scale results differ between --jobs 8 and --jobs 1" >&2
  exit 1
fi
echo "ok: scale results byte-identical modulo timing"

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
           mailbox_stress_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/thread_pool_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/experiment_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_for_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/mailbox_stress_test

echo "== benchmark self-test: perfbench/run.py --test =="
python3 perfbench/run.py --test

echo "== all checks passed =="
