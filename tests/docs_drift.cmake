# docs_drift.cmake — deterministic numbers the docs restate must match the
# source they restate:
#   * DESIGN.md §2's "N ctest tests" against `ctest -N`'s total in BUILD_DIR;
#   * campus.pool_sessions as DESIGN.md and EXPERIMENTS.md give it (e.g.
#     "14 466", digit groups split by spaces) against
#     campus.pool_sessions.min in ci/campus_baseline.json.
#
#   cmake -DCTEST=ctest -DBUILD_DIR=build -DDESIGN=DESIGN.md \
#         -DEXPERIMENTS=EXPERIMENTS.md -DBASELINE=ci/campus_baseline.json \
#         -P tests/docs_drift.cmake
#
# Every mismatch is reported, then the check fails. Timing numbers are not
# checked here: the docs give them with their host instead.
set(drift "")

# The first number after `pattern` in `path`, digit-group spaces removed.
function(doc_number out path pattern)
  file(READ "${path}" text)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "docs_drift: ${path} states no number for /${pattern}/")
  endif()
  string(REPLACE " " "" n "${CMAKE_MATCH_1}")
  set(${out} "${n}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND "${CTEST}" -N WORKING_DIRECTORY "${BUILD_DIR}"
                OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT listing MATCHES "Total Tests: ([0-9]+)")
  message(FATAL_ERROR "docs_drift: `ctest -N` in ${BUILD_DIR} gave no total")
endif()
set(counted "${CMAKE_MATCH_1}")
doc_number(stated "${DESIGN}" "([0-9][0-9 ]*) ctest tests")
if(NOT stated EQUAL counted)
  string(APPEND drift "\n  ${DESIGN} says ${stated} ctest tests; "
                      "ctest -N counts ${counted}")
endif()

file(READ "${BASELINE}" baseline)
if(NOT baseline MATCHES "\"campus\\.pool_sessions\\.min\": ([0-9]+)")
  message(FATAL_ERROR "docs_drift: ${BASELINE} has no campus.pool_sessions.min")
endif()
set(pool "${CMAKE_MATCH_1}")
foreach(doc "${DESIGN}" "${EXPERIMENTS}")
  doc_number(stated "${doc}"
             "campus\\.pool_sessions[^0-9]*([0-9][0-9 ]*[0-9])")
  if(NOT stated EQUAL pool)
    string(APPEND drift "\n  ${doc} says campus.pool_sessions = ${stated}; "
                        "${BASELINE} pins ${pool}")
  endif()
endforeach()

if(drift)
  message(FATAL_ERROR "docs_drift: the docs restate stale numbers:${drift}")
endif()
message(STATUS "docs_drift: ${counted} ctest tests and "
               "campus.pool_sessions = ${pool} match the docs")
