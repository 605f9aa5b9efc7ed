# Runs one tool with a bad argument list and requires the shared
# parser's usage-error contract: exit status 2 and a message on stderr
# that names the offending flag.
#
#   cmake -DTOOL=path/to/tool "-DARGS=--flag|value" -DFLAG=--flag \
#         -P usage_error.cmake
#
# ARGS separates words with '|' so that they survive add_test().
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${TOOL} ${args}: exit '${rc}', want 2\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${TOOL} ${args}: stderr does not name "
                        "${FLAG}:\n${err}")
endif()
