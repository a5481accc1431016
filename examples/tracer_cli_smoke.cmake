# Smoke test of tracer_cli: two tests over the line protocol, then the
# results export, which must be a campaign journal (header ending in
# row_checksum) with exactly one row per test.
#
#   cmake -DTRACER_CLI=<tracer_cli binary> -DWORK_DIR=<scratch dir> \
#         -P tracer_cli_smoke.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

file(WRITE "${WORK_DIR}/commands.txt"
  "CONFIGURE_TEST rs=16K rnd=50 rd=25 load=60\n"
  "START_TEST\n"
  "CONFIGURE_TEST rs=4K rnd=100 rd=0 load=100\n"
  "START_TEST\n"
  "STOP_TEST\n")
execute_process(
  COMMAND "${TRACER_CLI}"
  INPUT_FILE "${WORK_DIR}/commands.txt"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tracer_cli exited with ${rc}")
endif()

set(results "${WORK_DIR}/tracer_results.csv")
if(NOT EXISTS "${results}")
  message(FATAL_ERROR "tracer_cli wrote no ${results}")
endif()
file(STRINGS "${results}" lines)
list(LENGTH lines count)
if(NOT count EQUAL 3)
  message(FATAL_ERROR "expected a header and 2 rows, got ${count} lines")
endif()
list(GET lines 0 header)
if(NOT header MATCHES ",row_checksum$")
  message(FATAL_ERROR "header does not end in row_checksum: ${header}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
