# Smoke test of the trace_tools pipeline commands: gen-web, then filter,
# then scale, then info on the result. Every step must exit 0.
#
#   cmake -DTRACE_TOOLS=<trace_tools binary> -DWORK_DIR=<scratch dir> \
#         -P trace_tools_smoke.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(step)
  execute_process(COMMAND "${TRACE_TOOLS}" ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(JOIN " " command ${ARGN})
    message(FATAL_ERROR "trace_tools ${command} exited with ${rc}")
  endif()
endfunction()

step(gen-web "${WORK_DIR}/web.replay" 20)
step(filter "${WORK_DIR}/web.replay" "${WORK_DIR}/filtered.replay" 50)
step(scale "${WORK_DIR}/filtered.replay" "${WORK_DIR}/scaled.replay" 2)
step(info "${WORK_DIR}/scaled.replay")
file(REMOVE_RECURSE "${WORK_DIR}")
