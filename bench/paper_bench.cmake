# Runs one paper bench as a ctest: a fresh working directory (the bench keeps
# its peak traces there, and campaign_1250 resumes from a journal there, so
# leftovers would replay traces or report records from an older build),
# then the binary, which exits non-zero when any of its verdicts printed
# CHECK.
#
#   cmake -DBENCH=<bench binary> -DWORK_DIR=<scratch dir> -P paper_bench.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
