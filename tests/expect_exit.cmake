# One expected-failure run (registered by dgi_expect_exit in
# tests/CMakeLists.txt):
#   cmake -DBIN=<exe> "-DARGS=<args>" -DEXIT=<code> -DSTDERR=<text>
#         -P expect_exit.cmake
#
# Passes only when BIN exits with EXIT and names STDERR on its stderr.
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "exit ${rc}, expected ${EXIT}\n${err}")
endif()
string(FIND "${err}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${STDERR}:\n${err}")
endif()
