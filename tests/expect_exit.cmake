# Run a command and fail unless it exits with the code EXPECT:
#
#   cmake -DEXPECT=<code> [-DFILE=<path> -DMATCH=<regex>]
#         -P expect_exit.cmake <command> [args...]
#
# ctest's own pass/fail only tells zero from non-zero; the tools' exit
# codes distinguish a failed run (1) from bad input (2). With FILE, the
# command must also (re)write that file so that it matches MATCH.
set(cmd)
set(after_script FALSE)
foreach(i RANGE 1 ${CMAKE_ARGC})
  if(i EQUAL CMAKE_ARGC)
    break()
  endif()
  if(after_script)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL CMAKE_SCRIPT_MODE_FILE)
    set(after_script TRUE)
  endif()
endforeach()
if(DEFINED FILE)
  file(REMOVE "${FILE}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${rc}: ${cmd}")
endif()
if(DEFINED FILE)
  file(READ "${FILE}" text)
  if(NOT text MATCHES "${MATCH}")
    message(FATAL_ERROR "${FILE} does not match '${MATCH}'")
  endif()
endif()
