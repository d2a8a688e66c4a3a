# docs_drift_negative.cmake — the negative control of docs_drift.cmake:
# copies DESIGN.md and EXPERIMENTS.md into OUT_DIR with every number the
# check reads moved up by one, then runs the check over the copies. It
# must report each of the three as drift (the ctest registering this
# matches all three messages).
#
#   cmake -DCTEST=ctest -DBUILD_DIR=build -DDESIGN=DESIGN.md \
#         -DEXPERIMENTS=EXPERIMENTS.md -DBASELINE=ci/campus_baseline.json \
#         -DOUT_DIR=build/docs_drift_negative -P tests/docs_drift_negative.cmake

# Copies `path` to OUT_DIR with the first match of `pattern` rewritten:
# of its three groups (before, number, after) the number, digit-group
# spaces removed, goes one higher. Sets `out` to the copy.
function(copy_off_by_one out path pattern)
  file(READ "${path}" text)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "docs_drift_negative: /${pattern}/ not in ${path}")
  endif()
  set(found "${CMAKE_MATCH_0}")
  set(before "${CMAKE_MATCH_1}")
  set(after "${CMAKE_MATCH_3}")
  string(REPLACE " " "" n "${CMAKE_MATCH_2}")
  math(EXPR n "${n} + 1")
  string(REPLACE "${found}" "${before}${n}${after}" text "${text}")
  get_filename_component(name "${path}" NAME)
  file(WRITE "${OUT_DIR}/${name}" "${text}")
  set(${out} "${OUT_DIR}/${name}" PARENT_SCOPE)
endfunction()

set(pool "(campus\\.pool_sessions[^0-9]*)([0-9][0-9 ]*[0-9])([^0-9])")
copy_off_by_one(DESIGN "${DESIGN}" "( )([0-9]+)( ctest tests)")
copy_off_by_one(DESIGN "${DESIGN}" "${pool}")
copy_off_by_one(EXPERIMENTS "${EXPERIMENTS}" "${pool}")
include("${CMAKE_CURRENT_LIST_DIR}/docs_drift.cmake")
