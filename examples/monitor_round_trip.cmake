# Round trip of the mobility_monitor example: `record` a short live trial
# into an MWTR trace, `classify` it back through strict replay, and require
# the two CSVs to be byte-identical.
#
#   cmake -DMONITOR=<mobility_monitor> -DWORK=<scratch dir> \
#         -P monitor_round_trip.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(trace ${WORK}/walk.mwtr)

execute_process(COMMAND ${MONITOR} record ${trace} macro 12
                OUTPUT_FILE ${WORK}/live.csv RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mobility_monitor record exited ${rc}")
endif()
execute_process(COMMAND ${MONITOR} classify ${trace}
                OUTPUT_FILE ${WORK}/replay.csv RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mobility_monitor classify exited ${rc}")
endif()

file(READ ${WORK}/live.csv live)
file(READ ${WORK}/replay.csv replay)
string(REGEX MATCHALL "\n" rows "${live}")
list(LENGTH rows n_rows)
if(n_rows LESS 12)  # header + one row per second from t = 1 s
  message(FATAL_ERROR "live CSV has ${n_rows} lines:\n${live}")
endif()
if(NOT live STREQUAL replay)
  message(FATAL_ERROR "replayed CSV differs from the live one:\n"
                      "--- live\n${live}--- replay\n${replay}")
endif()
file(REMOVE_RECURSE ${WORK})
