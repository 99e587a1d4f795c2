# cli-smoke: malformed switches and numbers end in a clear error and a
# documented exit status, never in a silently different run, a crash or a
# vacuous pass.
#
#   1. control: qasm_runner on the GHZ example exits 0;
#   2. SVSIM_SCHED=on exits 1 and names SVSIM_SCHED on stderr (it must not
#      run the per-gate loop as if the variable said 0);
#   3. SVSIM_HTTP=yes exits 1 and serves no telemetry;
#   4. --shots -5 exits 1 with an error naming --shots;
#   5. svsim_diffcheck --circuits abc exits non-zero without ALL CLEAN;
#   6. svsim_top --port abc exits 1 with an error naming --port.
# Driven from tests/CMakeLists.txt via:
#   cmake -DRUNNER=... -DDIFFCHECK=... -DTOP=... -DQASM=... -DWORK_DIR=...
#         -P cli_smoke.cmake

foreach(var RUNNER DIFFCHECK TOP QASM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke: missing -D${var}=...")
  endif()
endforeach()

# Run one command; fail unless it exits with `want_rc` ("nonzero" accepts
# any failure status) and its stderr matches `err_regex` (when non-empty).
# Leaves the output in cli_out / cli_err.
function(expect_exit name want_rc err_regex)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(want_rc STREQUAL "nonzero")
    set(ok FALSE)
    if(rc MATCHES "^[0-9]+$" AND NOT rc EQUAL 0)
      set(ok TRUE)
    endif()
  else()
    set(ok FALSE)
    if(rc STREQUAL "${want_rc}")
      set(ok TRUE)
    endif()
  endif()
  if(NOT ok)
    message(FATAL_ERROR "cli_smoke: ${name}: exit ${rc}, want ${want_rc}\n"
            "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err_regex STREQUAL "" AND NOT err MATCHES "${err_regex}")
    message(FATAL_ERROR "cli_smoke: ${name}: stderr does not match "
            "'${err_regex}':\n${err}")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
  set(cli_err "${err}" PARENT_SCOPE)
endfunction()

expect_exit("control run" 0 "" "${RUNNER}" "${QASM}" --shots 8)

expect_exit("SVSIM_SCHED=on" 1 "SVSIM_SCHED=\"on\""
  "${CMAKE_COMMAND}" -E env SVSIM_SCHED=on "${RUNNER}" "${QASM}" --shots 8)

expect_exit("SVSIM_HTTP=yes" 1 "SVSIM_HTTP=\"yes\""
  "${CMAKE_COMMAND}" -E env SVSIM_HTTP=yes "${RUNNER}" "${QASM}" --shots 8)
if(cli_out MATCHES "serving telemetry")
  message(FATAL_ERROR "cli_smoke: SVSIM_HTTP=yes still served:\n${cli_out}")
endif()

expect_exit("--shots -5" 1 "--shots=\"-5\"" "${RUNNER}" "${QASM}" --shots -5)

expect_exit("diffcheck --circuits abc" nonzero "--circuits=\"abc\""
  "${DIFFCHECK}" --circuits abc --roundtrips 0)
if(cli_out MATCHES "ALL CLEAN")
  message(FATAL_ERROR
          "cli_smoke: diffcheck --circuits abc reported clean:\n${cli_out}")
endif()

expect_exit("svsim_top --port abc" 1 "--port=\"abc\""
  "${TOP}" --port abc --once)

message(STATUS "cli_smoke: every malformed input was refused")
