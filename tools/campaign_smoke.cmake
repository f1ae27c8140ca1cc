# Campaign smoke test (ctest -R campaign.smoke).
#
# Runs wfens_campaign twice against a fresh cache file: the first pass must
# simulate, the second must be served entirely from the persisted cache
# (0 fresh simulations). A third run without --cache must not cache at
# all. Uses the smallest unit (set1) to stay quick.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(cache ${WORK_DIR}/cache)

execute_process(
  COMMAND ${CAMPAIGN_BIN} --units set1 --cache ${cache}
          --out ${WORK_DIR}/campaign1.json
  RESULT_VARIABLE rc1 OUTPUT_VARIABLE out1 ERROR_VARIABLE out1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "first campaign run failed (${rc1}):\n${out1}")
endif()
if(NOT out1 MATCHES "campaign total: [1-9][0-9]* fresh simulations")
  message(FATAL_ERROR "first run should simulate:\n${out1}")
endif()
if(NOT EXISTS ${cache})
  message(FATAL_ERROR "campaign did not persist its cache to ${cache}")
endif()

execute_process(
  COMMAND ${CAMPAIGN_BIN} --units set1 --cache ${cache}
          --out ${WORK_DIR}/campaign2.json
  RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2 ERROR_VARIABLE out2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "second campaign run failed (${rc2}):\n${out2}")
endif()
if(NOT out2 MATCHES "campaign total: 0 fresh simulations")
  message(FATAL_ERROR "warm cache should serve everything:\n${out2}")
endif()

# Without --cache the campaign touches no state outside its arguments: with
# HOME pointed at an empty directory it must report the cache disabled and
# leave no .wfens_cache there.
set(home ${WORK_DIR}/home)
file(MAKE_DIRECTORY ${home})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env HOME=${home}
          ${CAMPAIGN_BIN} --units set1 --out ${WORK_DIR}/campaign3.json
  WORKING_DIRECTORY ${home}
  RESULT_VARIABLE rc3 OUTPUT_VARIABLE out3 ERROR_VARIABLE out3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "cache-less campaign run failed (${rc3}):\n${out3}")
endif()
if(NOT out3 MATCHES "cache: disabled")
  message(FATAL_ERROR "campaign without --cache should not cache:\n${out3}")
endif()
if(EXISTS ${home}/.wfens_cache)
  message(FATAL_ERROR "campaign without --cache wrote ${home}/.wfens_cache")
endif()
