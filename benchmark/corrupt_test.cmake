# benchmark.corrupt: corrupting one expected value must fail every op
# (failed_ratio 1) and exit nonzero — a checked failure, not a crash. Both
# wfens_bench itself and run.sh are checked: run.sh must still run every
# workload and end its output with a result line reading correct = false,
# traced or not.
#   cmake -DBENCH=<wfens_bench> -DSOURCE_DIR=<benchmark/> -DWORK_DIR=<dir>
#         -P corrupt_test.cmake
file(READ "${SOURCE_DIR}/expected.json" text)
string(REGEX MATCH "\"events\": [0-9]+" first "${text}")
if(NOT first)
  message(FATAL_ERROR "no events value to corrupt in expected.json")
endif()
string(FIND "${text}" "${first}" at)
string(LENGTH "${first}" length)
string(SUBSTRING "${text}" 0 ${at} head)
math(EXPR rest "${at} + ${length}")
string(SUBSTRING "${text}" ${rest} -1 tail)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/expected.json" "${head}\"events\": 1${tail}")

execute_process(
  COMMAND "${BENCH}" --workload paper-replay --ops 3 --setups 1
          --expected "${WORK_DIR}/expected.json" --out-dir "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${out}${err}")
endif()
if(NOT out MATCHES "failed_ratio +1 "
   OR NOT out MATCHES "\"correct\": false, \"attempted\": 3, \"failed\": 3")
  message(FATAL_ERROR "expected every op to fail:\n${out}")
endif()
message(STATUS "corrupted expected value: ${err}")

# run.sh in a copy of the tree whose expected.json is the corrupted one.
# It uses the build under test (--no-build, WFENS_BENCH_BUILD_DIR) and the
# copy's own BENCHMARK.json; the empty CMakeLists.txt and src/ make the copy
# look like a checkout.
set(tree "${WORK_DIR}/tree")
file(MAKE_DIRECTORY "${tree}/benchmark" "${tree}/src")
file(WRITE "${tree}/CMakeLists.txt" "")
file(COPY "${SOURCE_DIR}/../BENCHMARK.json" DESTINATION "${tree}")
file(COPY "${SOURCE_DIR}/run.sh" "${SOURCE_DIR}/benchlib.py"
          "${SOURCE_DIR}/trace_summary.py" "${WORK_DIR}/expected.json"
     DESTINATION "${tree}/benchmark")
get_filename_component(build "${BENCH}" DIRECTORY)

# last_line(<var> <text>): the last nonempty line of <text>.
function(last_line var text)
  string(STRIP "${text}" text)
  string(REGEX REPLACE "^.*\n" "" text "${text}")
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

# Every workload, untraced: only paper-replay's 2 ops fail, and the other
# three workloads still run (4 x 2 ops attempted).
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "WFENS_BENCH_BUILD_DIR=${build}"
          bash "${tree}/benchmark/run.sh" --no-build --seed 1 --ops 2
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
last_line(last "${out}")
if(status EQUAL 0 OR NOT last MATCHES
   "^{\"correct\": false, \"attempted\": 8, \"failed\": 2, \"metrics\": {")
  message(FATAL_ERROR "run.sh over every workload: status '${status}', "
                      "last line:\n${last}\n${err}")
endif()

# One workload, traced: the per-layer result line still closes the output.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "WFENS_BENCH_BUILD_DIR=${build}"
          bash "${tree}/benchmark/run.sh" --no-build --seed 1 --ops 2
          --workload paper-replay --trace 1
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
last_line(last "${out}")
if(status EQUAL 0 OR NOT last MATCHES
   "^{\"correct\": false, \"attempted\": [0-9]+, \"failed\": [0-9]+, "
   OR NOT last MATCHES "\"runtime.replay_s\": {\"value\": ")
  message(FATAL_ERROR "run.sh --trace 1: status '${status}', last line:\n"
                      "${last}\n${err}")
endif()
