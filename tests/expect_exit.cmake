# Runs the command given after `--` and fails unless it exits with
# status EXPECT exactly and prints something on stderr. A crash, a
# timeout or any other status is a failure.
#
#   cmake -DEXPECT=2 -P tests/expect_exit.cmake -- <program> [args...]
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT DEFINED EXPECT OR NOT cmd)
  message(FATAL_ERROR
    "usage: cmake -DEXPECT=<status> -P expect_exit.cmake -- <program> ...")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT "${status}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${cmd}\nexpected exit status ${EXPECT}, got "
                      "'${status}'\n--- stdout\n${out}--- stderr\n${err}")
endif()
if("${err}" STREQUAL "")
  message(FATAL_ERROR "${cmd}\nexited ${status} without a message on stderr")
endif()
message(STATUS "exit ${status} as expected: ${err}")
