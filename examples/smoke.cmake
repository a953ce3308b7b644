# Runs each example program once and fails unless it exits 0
# (sweep_runner is driven by the sweep smoke ctests instead).
#
#   cmake -DBIN_DIR=<dir of the example binaries> -DWORK_DIR=<scratch dir>
#         -P examples/smoke.cmake
#
# game_runner needs a host file, so it first writes its own --demo instance
# into WORK_DIR and then solves it.
function(run_example)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output)
  if(NOT status EQUAL 0)
    list(JOIN ARGN " " command)
    message(FATAL_ERROR "'${command}' exited with ${status}:\n${output}")
  endif()
endfunction()

foreach(example quickstart fiber_network dynamics_lab poa_explorer)
  run_example(${BIN_DIR}/${example})
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${BIN_DIR}/game_runner --demo
                RESULT_VARIABLE status
                OUTPUT_FILE ${WORK_DIR}/demo_host.txt)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "'game_runner --demo' exited with ${status}")
endif()
run_example(${BIN_DIR}/game_runner ${WORK_DIR}/demo_host.txt 2.0
            --out ${WORK_DIR}/demo_profile.txt --dot ${WORK_DIR}/demo.dot)
