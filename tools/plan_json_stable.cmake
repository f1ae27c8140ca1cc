# wfens_plan --json is a plan document: the same command must print the
# same bytes (ctest -R cli.plan_json_is_byte_stable). Wall-clock counters
# (sched.w<k>.busy_s) belong in --trace-out, not here. bai-search on
# jittered probes exercises the seeded samples and the worker counters.
set(args 4 1 4 --probe-samples 2 --probe-jitter 0.1 --scheduler bai-search
         --json)
foreach(run 1 2)
  execute_process(COMMAND ${PLAN_BIN} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out${run} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "wfens_plan exited ${rc}:\n${err}")
  endif()
endforeach()
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR "two identical plans printed different JSON:\n"
                      "${out1}\n---\n${out2}")
endif()
if(NOT out1 MATCHES "\"sched.evaluations\"")
  message(FATAL_ERROR "the plan JSON lost its search counters:\n${out1}")
endif()
