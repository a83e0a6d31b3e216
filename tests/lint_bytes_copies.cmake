# Byte-copy lint (the ctest lint_bytes_copies in tests/CMakeLists.txt):
#   cmake -DSRC=<repo>/src -P lint_bytes_copies.cmake
#
# Fails, naming each file:line, where src/ copies a range into a `Bytes`
# with a range insert at end() or a range construction. libstdc++ does
# those one byte per iteration for a vector whose allocator is not
# std::allocator, as `Bytes`'s CountingAllocator is; `append` and
# `to_bytes` in common/buffer.hpp copy with one memcpy. src/telemetry/ is
# not scanned: its rings hold vectors of other types.
cmake_minimum_required(VERSION 3.16)

# Two patterns, each matched within one line: a range insert at the end,
# `.insert(<name>.end(), ...`, or a range construction,
# `Bytes[ <name>](... .begin() ...`. Either member access may be `->`, as
# in `p->insert(p->end(), ...`.
string(CONCAT copy_re
  "(\\.|->)insert\\([ \t]*[A-Za-z_.>-]+(\\.|->)end\\(\\)"
  "|Bytes([ \t]+[A-Za-z_]+)?[({][^;\n]*(\\.|->)begin\\(\\)")

file(GLOB_RECURSE files RELATIVE "${SRC}" "${SRC}/*.hpp" "${SRC}/*.cpp")
list(FILTER files EXCLUDE REGEX "^telemetry/")
list(SORT files)

set(hits "")
foreach(f IN LISTS files)
  file(READ "${SRC}/${f}" rest)
  # Walk the matches left to right; `line` counts the newlines consumed.
  set(line 1)
  while(TRUE)
    string(REGEX MATCH "${copy_re}" m "${rest}")
    if(m STREQUAL "")
      break()
    endif()
    # The leftmost occurrence of the matched text is the match itself.
    string(FIND "${rest}" "${m}" at)
    string(SUBSTRING "${rest}" 0 ${at} before)
    string(REGEX REPLACE "[^\n]" "" newlines "${before}")
    string(LENGTH "${newlines}" n)
    math(EXPR line "${line} + ${n}")
    list(APPEND hits "src/${f}:${line}")
    string(LENGTH "${m}" len)
    math(EXPR next "${at} + ${len}")
    string(SUBSTRING "${rest}" ${next} -1 rest)
  endwhile()
endforeach()

if(hits)
  list(REMOVE_DUPLICATES hits)
  list(LENGTH hits count)
  string(REPLACE ";" "\n  " listing "${hits}")
  message(FATAL_ERROR
    "${count} byte-at-a-time Bytes copies; use append() or to_bytes() "
    "from common/buffer.hpp:\n  ${listing}")
endif()
