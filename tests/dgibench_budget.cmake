# One seed-1 dgibench pass of WORKLOAD (registered per workload in
# tests/CMakeLists.txt):
#   cmake -DBIN=<dgibench> -DWORKLOAD=<name> -DBUDGET=<allocations>
#         -P dgibench_budget.cmake
#
# Passes only when dgibench exits 0 (every output check of the pass held)
# and its run-phase heap allocation count, `repro.alloc.run` in the JSON
# line it prints, is at most BUDGET.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(COMMAND "${BIN}" --workload ${WORKLOAD} --seed 1
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dgibench --workload ${WORKLOAD} exited ${rc}\n"
                      "${out}${err}")
endif()
string(JSON allocs GET "${out}" repro alloc.run)
if(allocs GREATER BUDGET)
  message(FATAL_ERROR "${WORKLOAD}: alloc.run ${allocs} exceeds its budget "
                      "of ${BUDGET}")
endif()
message(STATUS "${WORKLOAD}: alloc.run ${allocs}, budget ${BUDGET}")
