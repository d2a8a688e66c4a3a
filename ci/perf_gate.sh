#!/usr/bin/env bash
# ci/perf_gate.sh — perf-regression gate for the channel hot loops.
#
# Bench runs against the wall-clock gate_* values:
#   1. mobiwlan-bench --perf: the per-op microbench cases, failing on any
#      case past the baseline's tolerance band (default 25%) or any hot
#      loop that starts allocating;
#   2. mobiwlan-bench --scale: the AP-scale throughput bench (64 APs x 512
#      clients), gating the batched sample time, the zero-allocation steady
#      state and the fp32 synthesis speedup. The bench also enforces
#      bitwise agreement between sample_range and per-link sample_link
#      calls on every run;
#   3. one campus suite run: the session-steps/s floor;
#   4. one loc suite run: the single-thread lookup-rate floor.
# The deterministic halves of the campus and loc suites are gated exactly
# by `ci/gate.sh NAME`; only their timing-quarantined rates are held here.
# The gate values are wall-clock numbers from one reference host; the
# tolerance absorbs normal host-to-host and run-to-run variance, so a
# failure means a real regression, not noise. Refresh after an intentional
# perf change with:
#   ./build/bench/mobiwlan-bench --perf
#   ./build/bench/mobiwlan-bench --scale
# and copy the new values into ci/perf_baseline.json as gate_*.
#
# PERF_MIN_TIME sets seconds per case/measurement (default 0.2 for a quick
# CI smoke run; use >= 1.0 when refreshing the baseline).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-./build/bench/mobiwlan-bench}"
MIN_TIME="${PERF_MIN_TIME:-0.2}"
OUT="${PERF_OUT:-/tmp/mobiwlan_perf.json}"
SCALE_OUT="${SCALE_OUT:-/tmp/mobiwlan_scale.json}"

if [[ ! -x "${BENCH}" ]]; then
  echo "FAIL: ${BENCH} not built (run cmake --build build first)" >&2
  exit 1
fi

"${BENCH}" --perf --check \
  --perf-min-time "${MIN_TIME}" \
  --out "${OUT}" \
  --baseline ci/perf_baseline.json

"${BENCH}" --scale --check \
  --perf-min-time "${MIN_TIME}" \
  --out "${SCALE_OUT}" \
  --baseline ci/perf_baseline.json

# ---- fp32 precision-tier section ------------------------------------------
# The scale bench publishes the paired (interleaved, drift-immune) fp32-vs-
# fp64 wideband batched-synthesis ratio at the host's active SIMD tier. On
# AVX2-capable hosts that ratio must clear gate_f32_min_speedup; hosts
# without the wider ISA tiers skip the corresponding check LOUDLY rather
# than silently passing.
flat_key() { grep -o "\"$2\": *-\?[0-9.eE+-]*" "$1" | head -1 | awk '{print $NF}'; }

HOST_AVX2="$(flat_key "${SCALE_OUT}" timing_host_avx2)"
HOST_AVX512="$(flat_key "${SCALE_OUT}" timing_host_avx512)"

if [[ "${HOST_AVX2}" != "1" ]]; then
  echo "fp32-check: SKIPPED — host lacks AVX2+FMA; the avx2 and avx512" \
       "tiers cannot be exercised here and the >=1.6x speedup gate does" \
       "not apply to the scalar tier" >&2
else
  if [[ "${HOST_AVX512}" != "1" ]]; then
    echo "fp32-check: NOTE — host lacks AVX-512 (f/dq/vl); the avx512 tier" \
         "falls back to avx2 and the ratio below is gated at the avx2 tier" >&2
  fi
  SPEEDUP="$(flat_key "${SCALE_OUT}" timing_f32_synthesis_speedup)"
  MIN_SPEEDUP="$(flat_key ci/perf_baseline.json gate_f32_min_speedup)"
  if [[ -z "${SPEEDUP}" || -z "${MIN_SPEEDUP}" ]]; then
    echo "FAIL: fp32 speedup keys missing (scale json ${SCALE_OUT})" >&2
    exit 1
  fi
  if awk -v s="${SPEEDUP}" -v m="${MIN_SPEEDUP}" 'BEGIN { exit !(s >= m) }'; then
    echo "fp32-check: batched synthesis fp32 speedup ${SPEEDUP}x >= ${MIN_SPEEDUP}x (active tier)"
  else
    echo "FAIL: fp32 batched synthesis speedup ${SPEEDUP}x below the" \
         "${MIN_SPEEDUP}x floor (ci/perf_baseline.json gate_f32_min_speedup)" >&2
    exit 1
  fi
fi

# ---- campus throughput section --------------------------------------------
# One full campus suite matrix (four runs of the identical 100k-session
# workload). The throughput gate divides the fixed per-run step count
# (campus_steps_per_run) by timing.median_wall_s — the median of the four
# run walls — so a single descheduled run cannot flip the verdict. The
# floor gate_campus_session_steps_per_s is the 3x mark over the
# pre-streaming engine (168,480 steps/s); 15% grace separates host noise
# (observed ~505-580k) from the nearest real regression plateau (~312k
# with the fused pass alone, ~265k without the slab pool). The hot loop's
# allocs-per-op contract is gated separately by the --perf campus_step
# case above and exactly (campus.hot_allocs) by `ci/gate.sh campus`.
CAMPUS_PERF_OUT="${CAMPUS_PERF_OUT:-/tmp/mobiwlan_campus_perf.json}"
"${BENCH}" --suite campus --out "${CAMPUS_PERF_OUT}" >/dev/null

MEDIAN_WALL="$(flat_key "${CAMPUS_PERF_OUT}" timing.median_wall_s)"
STEPS_PER_RUN="$(flat_key ci/perf_baseline.json campus_steps_per_run)"
STEPS_FLOOR="$(flat_key ci/perf_baseline.json gate_campus_session_steps_per_s)"
if [[ -z "${MEDIAN_WALL}" || -z "${STEPS_PER_RUN}" || -z "${STEPS_FLOOR}" ]]; then
  echo "FAIL: campus throughput keys missing (campus json ${CAMPUS_PERF_OUT})" >&2
  exit 1
fi
if awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" -v f="${STEPS_FLOOR}" \
     'BEGIN { exit !(w > 0 && n / w >= 0.85 * f) }'; then
  THR="$(awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" 'BEGIN { printf "%.0f", n / w }')"
  echo "campus-check: ${THR} session-steps/s (median wall ${MEDIAN_WALL}s) >= 0.85 * ${STEPS_FLOOR} floor"
else
  THR="$(awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" 'BEGIN { printf "%.0f", n / w }')"
  echo "FAIL: campus throughput ${THR} session-steps/s below 0.85 *" \
       "${STEPS_FLOOR} (ci/perf_baseline.json gate_campus_session_steps_per_s)" >&2
  exit 1
fi

# ---- loc lookup-rate section ----------------------------------------------
# One loc suite run. Its single-thread lookup rate (timing_loc_lookups_per_s,
# median of five 20k-lookup blocks) must clear 85% of the committed
# gate_loc_lookups_per_s in ci/loc_baseline.json, and never the 10^5/s
# requirement itself.
LOC_PERF_OUT="${LOC_PERF_OUT:-/tmp/mobiwlan_loc_perf.json}"
"${BENCH}" --suite loc --out "${LOC_PERF_OUT}" >/dev/null

RATE="$(flat_key "${LOC_PERF_OUT}" timing_loc_lookups_per_s)"
RATE_FLOOR="$(flat_key ci/loc_baseline.json gate_loc_lookups_per_s)"
if ! awk -v r="${RATE}" -v f="${RATE_FLOOR}" \
     'BEGIN { exit !(r != "" && f != "" && r >= 100000 && r >= 0.85 * f) }'; then
  echo "FAIL: loc lookup rate ${RATE}/s below max(1e5, 0.85 * ${RATE_FLOOR})/s" \
       "(ci/loc_baseline.json gate_loc_lookups_per_s)" >&2
  exit 1
fi
echo "loc-check: ${RATE} lookups/s >= max(1e5, 0.85 * ${RATE_FLOOR})"
