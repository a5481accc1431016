# Smoke test of fleet_eval's resume path: a campaign with a coordinator
# restart, then a second run on the same journal, which must find every
# test already journaled. fleet_eval exits 1 unless the journal holds
# exactly one row per test, so both runs must exit 0.
#
#   cmake -DFLEET_EVAL=<fleet_eval binary> -DWORK_DIR=<scratch dir> \
#         -P fleet_eval_smoke.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(run first second)
  execute_process(
    COMMAND "${FLEET_EVAL}" --tests 40 --workers 2 --restart-at 15
            --journal "${WORK_DIR}/j.csv"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fleet_eval ${run} run exited with ${rc}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
