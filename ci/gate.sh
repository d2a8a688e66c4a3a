#!/usr/bin/env bash
# ci/gate.sh NAME — one gated suite (`mobiwlan-bench --suite NAME`).
#
# The same three steps for every suite in the driver's registry (fidelity,
# fault, trace, campus, loc):
#   1. run the suite at --jobs 8 and check it against ci/NAME_baseline.json;
#   2. re-run at --jobs 1: the report must match byte for byte outside lines
#      matching `"timing` (the determinism contract);
#   3. negative control: re-check the report against
#      ci/NAME_baseline_negative.json, which MUST fail — proof that the gate
#      can catch a regression at all.
#
# Refresh a baseline after an intentional behaviour change with
#   ./build/bench/mobiwlan-bench --suite NAME
# and re-derive its bounds from BENCH_NAME.json per EXPERIMENTS.md; the
# negative baseline must keep failing.
set -euo pipefail
cd "$(dirname "$0")/.."

NAME="${1:?usage: ci/gate.sh NAME (see mobiwlan-bench --list)}"
BENCH="${BENCH:-./build/bench/mobiwlan-bench}"
OUT="${GATE_OUT_DIR:-/tmp}/mobiwlan_${NAME}.json"
OUT_J1="${OUT%.json}_j1.json"
BASELINE="ci/${NAME}_baseline.json"
NEGATIVE="ci/${NAME}_baseline_negative.json"

if [[ ! -x "${BENCH}" ]]; then
  echo "FAIL: ${BENCH} not built (run cmake --build build first)" >&2
  exit 1
fi
for f in "${BASELINE}" "${NEGATIVE}"; do
  if [[ ! -f "${f}" ]]; then
    echo "FAIL: ${f} missing" >&2
    exit 1
  fi
done

"${BENCH}" --suite "${NAME}" --check --jobs 8 \
  --out "${OUT}" --baseline "${BASELINE}"

echo "-- ${NAME} determinism: --jobs 1 vs --jobs 8 --"
"${BENCH}" --suite "${NAME}" --check --jobs 1 \
  --out "${OUT_J1}" --baseline "${BASELINE}" >/dev/null
if ! diff <(grep -v '"timing' "${OUT}") <(grep -v '"timing' "${OUT_J1}"); then
  echo "FAIL: ${NAME} report differs between --jobs 8 and --jobs 1" >&2
  exit 1
fi
echo "ok: ${NAME} report byte-identical modulo timing"

echo "-- ${NAME} gate negative control --"
if "${BENCH}" --suite "${NAME}" --check-only "${OUT}" \
     --baseline "${NEGATIVE}" >/dev/null 2>&1; then
  echo "FAIL: negative baseline passed — the gate cannot catch regressions" >&2
  exit 1
fi
echo "ok: negative baseline fails as intended"
