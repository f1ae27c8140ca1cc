# Campaign over an unreadable cache (ctest -R cli.campaign_bad_cache).
#
# A torn format-3 file (the header promises two 40-byte records, the body
# holds 10 bytes) must not abort the campaign: it reports the file on
# stderr, runs cold (fresh simulations), exits 0 and leaves the file's
# bytes as they were.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(cache ${WORK_DIR}/cache)
file(WRITE ${cache} "wfens-eval-cache 3 2\n0123456789")
file(SHA256 ${cache} before)

execute_process(
  COMMAND ${CAMPAIGN_BIN} --units set1 --cache ${cache}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign over a torn cache failed (${rc}):\n${out}${err}")
endif()
if(NOT err MATCHES "cache: [^\n]* unreadable \\(.*\\); running cold, file left as found")
  message(FATAL_ERROR "torn cache should be reported on stderr:\n${err}")
endif()
if(NOT out MATCHES "campaign total: [1-9][0-9]* fresh simulations")
  message(FATAL_ERROR "campaign over a torn cache should run cold:\n${out}")
endif()
if(out MATCHES "entries saved")
  message(FATAL_ERROR "campaign saved over an unreadable cache:\n${out}")
endif()
file(SHA256 ${cache} after)
if(NOT before STREQUAL after)
  message(FATAL_ERROR "campaign changed the unreadable cache file")
endif()
