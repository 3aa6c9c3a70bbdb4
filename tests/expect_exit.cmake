# Runs the command after "--" and passes iff it exits with EXPECT_EXIT and
# its combined stdout/stderr matches the regex EXPECT_OUTPUT:
#   cmake -DEXPECT_EXIT=1 -DEXPECT_OUTPUT=regex -P expect_exit.cmake -- cmd...
set(command)
set(after_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator ON)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT code EQUAL EXPECT_EXIT OR NOT output MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "exit ${code} (expected ${EXPECT_EXIT}); output "
                      "(expected to match '${EXPECT_OUTPUT}'):\n${output}")
endif()
