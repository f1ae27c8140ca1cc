# Trace tooling smoke test (ctest -R cli.trace_smoke).
#
# wfens_run records a run as a Chrome trace and as a .jsonl span log, next
# to its .wfet stage traces; wfens_report --timeline must then render both
# the span log and a stage trace that wfens_run wrote. Every command must
# exit 0. The span log is empty in a WFENS_OBS=OFF build, so only the
# stage-trace timeline is checked for content.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}")
  endif()
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

run_step(${RUN_BIN} Cf run.wfet --steps 6 --trace-out run.json)
run_step(${RUN_BIN} Cf run2.wfet --steps 6 --trace-out run.jsonl)
foreach(file run.wfet run.json run2.wfet run.jsonl)
  if(NOT EXISTS ${WORK_DIR}/${file})
    message(FATAL_ERROR "wfens_run did not write ${file}")
  endif()
endforeach()

run_step(${REPORT_BIN} run.jsonl --timeline --width 60)
run_step(${REPORT_BIN} run.wfet --timeline --width 60)
if(NOT step_out MATCHES "sim0 +\\|[^\n]*S")
  message(FATAL_ERROR "stage-trace timeline has no simulation track:\n"
                      "${step_out}")
endif()
