# Passes when a tool run is rejected cleanly: exit code exactly 1 (not an
# abort or a signal) and EXPECT, a plain substring, on stderr.
#
# Driven as: cmake -DTOOL=<binary> "-DARGS=<space-separated flags>"
#                  "-DEXPECT=<substring>" -P expect_rejection.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${rc}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
