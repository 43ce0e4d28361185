# Runs a command-line tool once and checks how it ends. Invoked by ctest as
#   cmake -DTOOL=<binary> -DARGS=<flags joined by '|'> [-DEXPECT_RC=<code>]
#         [-DEXPECT_STDOUT=<text>] [-DEXPECT_STDERR=<text>]
#         [-DSAME_AS=<flags joined by '|'>]
#         [-DUVREPORT=<uvreport> -DGOLDEN=<golden.json> -DREPORT=<out.json>]
#         -P cli_test.cmake
# The exit code must equal EXPECT_RC (default 0): a crash reports a signal,
# never a matching code. EXPECT_STDOUT / EXPECT_STDERR must appear
# verbatim. With SAME_AS, a second run with those flags must end with the
# same code and print the same stdout and stderr byte for byte. With
# GOLDEN, the run writes its metrics report to REPORT and
# `uvreport --diff GOLDEN REPORT` must find no meaningful shift.
string(REPLACE "|" ";" args "${ARGS}")
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()
if(DEFINED GOLDEN)
  list(APPEND args "--metrics=${REPORT}")
endif()

execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${TOOL} ${args}: exit ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()
foreach(stream STDOUT STDERR)
  if(stream STREQUAL "STDOUT")
    set(text "${out}")
  else()
    set(text "${err}")
  endif()
  if(DEFINED EXPECT_${stream})
    string(FIND "${text}" "${EXPECT_${stream}}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${TOOL} ${args}: ${stream} lacks '${EXPECT_${stream}}'\n${text}")
    endif()
  endif()
endforeach()

if(DEFINED SAME_AS)
  string(REPLACE "|" ";" same_args "${SAME_AS}")
  execute_process(COMMAND "${TOOL}" ${same_args}
                  RESULT_VARIABLE same_rc OUTPUT_VARIABLE same_out ERROR_VARIABLE same_err)
  foreach(part rc out err)
    if(NOT "${same_${part}}" STREQUAL "${${part}}")
      message(FATAL_ERROR "${TOOL} ${same_args}: ${part} differs from ${TOOL} ${args}\n"
              "--- ${args}:\n${${part}}\n--- ${same_args}:\n${same_${part}}")
    endif()
  endforeach()
endif()

if(DEFINED GOLDEN)
  execute_process(COMMAND "${UVREPORT}" --diff "${GOLDEN}" "${REPORT}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "uvreport --diff ${GOLDEN} ${REPORT}: exit ${rc}\n${out}${err}")
  endif()
endif()
