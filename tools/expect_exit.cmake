# cmake -DEXPECT_EXIT=N [-DEXPECT_STDERR=REGEX] -P expect_exit.cmake CMD ARGS...
#
# Runs CMD ARGS... and fails unless it exits with status N and, when
# EXPECT_STDERR is given, its stderr matches REGEX.
set(cmd)
set(first -1)  # index of CMD among cmake's own arguments
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(first GREATER_EQUAL 0 AND i GREATER_EQUAL first)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "-P")
    math(EXPR first "${i} + 2")
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_EXIT}: ${cmd}\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr lacks '${EXPECT_STDERR}': ${cmd}\n${err}")
endif()
