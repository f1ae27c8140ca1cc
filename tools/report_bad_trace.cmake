# wfens_report over a corrupt trace (ctest -R cli.report_rejects_bad_trace).
#
# The one record names analysis -7 of member 0; only -1 (the simulation)
# and 0.. (its analyses) name components. The reader must reject the file,
# so wfens_report exits 1 with the reader's "WFET:" message before it
# prints any table.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/bad.wfet "WFET 1\nrecord 0 -7 0 A 0 1 0 0 0 0\nend 1\n")

execute_process(COMMAND ${REPORT_BIN} bad.wfet
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "wfens_report exited ${rc}, expected 1:\n${out}")
endif()
if(NOT out MATCHES "WFET:")
  message(FATAL_ERROR "wfens_report did not report the reader error:\n${out}")
endif()
if(out MATCHES "Table 1")
  message(FATAL_ERROR "wfens_report printed a table for a bad trace:\n${out}")
endif()
