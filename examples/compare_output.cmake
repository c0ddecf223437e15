# Runs EXE, writes its stdout to ACTUAL and fails unless it equals EXPECTED.
# Usage: cmake -DEXE=... -DEXPECTED=... -DACTUAL=... -P compare_output.cmake
execute_process(COMMAND ${EXE} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${ACTUAL} differs from ${EXPECTED}")
endif()
