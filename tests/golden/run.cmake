# One golden-output run (registered by dgi_golden in tests/CMakeLists.txt):
#   cmake -DNAME=<run> -DBIN=<bench> "-DARGS=<args>" -DEXIT=<code>
#         -DDIGESTS=<digest file> -DROOT=<build>/golden -P run.cmake
#
# Runs BIN in ROOT/NAME, then compares the SHA-256 of its stdout and of
# every `*.json` argument (the files it wrote) with the NAME/ lines of
# DIGESTS. On a mismatch it records the actual lines in ROOT/NAME/actual,
# writes ROOT/digests.txt (DIGESTS with every recorded run swapped in) and
# prints the one `cp` that accepts them.
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
set(dir "${ROOT}/${NAME}")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
execute_process(COMMAND "${BIN}" ${args}
  WORKING_DIRECTORY "${dir}"
  OUTPUT_FILE "${dir}/stdout.txt"
  ERROR_FILE "${dir}/stderr.txt"
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT)
  file(READ "${dir}/stderr.txt" err)
  message(FATAL_ERROR "${NAME}: exit ${rc}, expected ${EXIT}\n${err}")
endif()

set(outputs stdout.txt)
foreach(a IN LISTS args)
  if(a MATCHES "\\.json$")
    list(APPEND outputs "${a}")
  endif()
endforeach()
set(actual "")
foreach(f IN LISTS outputs)
  if(NOT EXISTS "${dir}/${f}")
    message(FATAL_ERROR "${NAME}: did not write ${f}")
  endif()
  file(SHA256 "${dir}/${f}" h)
  list(APPEND actual "${NAME}/${f} ${h}")
endforeach()
list(SORT actual)

file(STRINGS "${DIGESTS}" lines)
set(expected "")
foreach(l IN LISTS lines)
  if(l MATCHES "^${NAME}/")
    list(APPEND expected "${l}")
  endif()
endforeach()
if(actual STREQUAL expected)
  return()
endif()

string(REPLACE ";" "\n" text "${actual}")
file(WRITE "${dir}/actual" "${text}\n")
# The accepted file: DIGESTS with the lines of every run that recorded a
# mismatch replaced by what that run actually wrote.
file(GLOB recorded RELATIVE "${ROOT}" "${ROOT}/*/actual")
set(merged "")
foreach(l IN LISTS lines)
  string(REGEX MATCH "^[^/]+" run "${l}")
  if(NOT "${run}/actual" IN_LIST recorded)
    list(APPEND merged "${l}")
  endif()
endforeach()
foreach(r IN LISTS recorded)
  file(STRINGS "${ROOT}/${r}" more)
  list(APPEND merged ${more})
endforeach()
list(SORT merged)
string(REPLACE ";" "\n" merged "${merged}")
file(WRITE "${dir}/digests.tmp" "${merged}\n")
file(RENAME "${dir}/digests.tmp" "${ROOT}/digests.txt")

string(REPLACE ";" "\n  " expected "${expected}")
string(REPLACE ";" "\n  " actual "${actual}")
message(FATAL_ERROR
  "${NAME}: output differs from the golden digests (outputs in ${dir})\n"
  "expected:\n  ${expected}\nactual:\n  ${actual}\n"
  "If the change is intended, say why in CHANGES.md and accept with:\n"
  "  cp ${ROOT}/digests.txt ${DIGESTS}")
