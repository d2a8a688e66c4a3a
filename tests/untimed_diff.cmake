# untimed_diff.cmake — the determinism contract of the gated-suite reports:
# two reports must match byte for byte outside lines containing `"timing`.
#
#   cmake -DA=first.json -DB=second.json -P tests/untimed_diff.cmake
#
# A missing report fails too. To see the lines that differ, run
#   diff <(grep -v '"timing' A) <(grep -v '"timing' B)
foreach(side A B)
  file(READ "${${side}}" text)
  string(REGEX REPLACE "[^\n]*\"timing[^\n]*\n?" "" untimed_${side} "${text}")
endforeach()
if(NOT untimed_A STREQUAL untimed_B)
  message(FATAL_ERROR "untimed_diff: reports differ outside timing: ${A} ${B}")
endif()
message(STATUS "untimed_diff: ${A} and ${B} match outside timing")
