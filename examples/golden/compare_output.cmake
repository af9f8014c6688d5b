# Runs PROGRAM and fails unless it exits 0 and its standard output equals
# the committed GOLDEN file byte for byte.
#
#   cmake -DPROGRAM=<binary> -DGOLDEN=<file> -P compare_output.cmake
execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output of ${PROGRAM} differs from ${GOLDEN}:\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
