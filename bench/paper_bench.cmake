# Runs one paper bench as a ctest: a fresh working directory (campaign_1250
# resumes from a journal in its working directory, so a leftover journal
# would report records measured by an older build), then the binary, which
# exits non-zero when any of its verdicts printed CHECK.
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
