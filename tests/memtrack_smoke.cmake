# memtrack-smoke: end-to-end check of the memory observability plane.
#
# Four legs, all on in-repo binaries (no python/jq dependency):
#   1. qasm_runner on the GHZ example (shmem x4) with --report-json; the
#      report's memory section must validate under trace_check --memory
#      (plane enabled, tracked peak > 0, analytic estimate within 10% of
#      the tracked peak, sampled RSS >= tracked peak).
#   2. qasm_runner --estimate with no limit must exit 0 and print a
#      "fits" verdict.
#   3. qasm_runner --estimate under a 1 KiB SVSIM_MEM_LIMIT must exit 4
#      and print "would NOT fit".
#   4. a real run under the same tiny limit must fail fast (exit 1 with
#      the memory-limit refusal) instead of allocating.
# Driven from tests/CMakeLists.txt via:
#   cmake -DRUNNER=... -DTRACE_CHECK=... -DQASM=... -DWORK_DIR=...
#         -P memtrack_smoke.cmake

foreach(var RUNNER TRACE_CHECK QASM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "memtrack_smoke: missing -D${var}=...")
  endif()
endforeach()

set(REPORT "${WORK_DIR}/memtrack_smoke_report.json")
file(REMOVE "${REPORT}")

# Leg 1: run + report memory section. The report samples RSS itself
# (fold_memory), so even this short run carries a real peak.
execute_process(
  COMMAND "${RUNNER}" "${QASM}" --backend shmem --workers 4
          --report-json "${REPORT}" --shots 64
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "memtrack_smoke: qasm_runner failed (rc=${run_rc})\n"
          "stdout:\n${run_out}\nstderr:\n${run_err}")
endif()
if(NOT EXISTS "${REPORT}")
  message(FATAL_ERROR "memtrack_smoke: no report written at ${REPORT}\n"
          "stdout:\n${run_out}")
endif()

execute_process(
  COMMAND "${TRACE_CHECK}" --memory "${REPORT}"
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR
          "memtrack_smoke: memory-section validation failed (rc=${check_rc})\n"
          "${check_out}${check_err}")
endif()

# The report must also pass the generic schema check and carry the
# per-tag breakdown (shmem runs allocate under the symmetric-heap tag).
file(READ "${REPORT}" report_text)
if(NOT report_text MATCHES "\"memory\":{\"enabled\":true")
  message(FATAL_ERROR "memtrack_smoke: report has no enabled memory section")
endif()
if(NOT report_text MATCHES "\"tag\":\"shmem_heap\"")
  message(FATAL_ERROR "memtrack_smoke: shmem heap not tracked in report")
endif()

# Leg 2: --estimate with room must fit and exit 0.
execute_process(
  COMMAND "${RUNNER}" "${QASM}" --backend shmem --workers 4 --estimate
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE est_rc
  OUTPUT_VARIABLE est_out
  ERROR_VARIABLE est_err)
if(NOT est_rc EQUAL 0)
  message(FATAL_ERROR "memtrack_smoke: --estimate exited ${est_rc}\n"
          "${est_out}${est_err}")
endif()
if(NOT est_out MATCHES "verdict: fits")
  message(FATAL_ERROR "memtrack_smoke: --estimate printed no fits verdict:\n"
          "${est_out}")
endif()

# Leg 3: --estimate under a 1 KiB budget must exit 4 (the scheduler gate).
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env SVSIM_MEM_LIMIT=1K
          "${RUNNER}" "${QASM}" --backend shmem --workers 4 --estimate
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE over_rc
  OUTPUT_VARIABLE over_out
  ERROR_VARIABLE over_err)
if(NOT over_rc EQUAL 4)
  message(FATAL_ERROR
          "memtrack_smoke: over-budget --estimate exited ${over_rc}, want 4\n"
          "${over_out}${over_err}")
endif()
if(NOT over_out MATCHES "would NOT fit")
  message(FATAL_ERROR "memtrack_smoke: over-budget estimate verdict wrong:\n"
          "${over_out}")
endif()

# Leg 4: a real run under the same budget must refuse before allocating.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env SVSIM_MEM_LIMIT=1K
          "${RUNNER}" "${QASM}" --backend shmem --workers 4 --shots 1
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE deny_rc
  OUTPUT_VARIABLE deny_out
  ERROR_VARIABLE deny_err)
if(NOT deny_rc EQUAL 1)
  message(FATAL_ERROR
          "memtrack_smoke: over-budget run exited ${deny_rc}, want 1\n"
          "${deny_out}${deny_err}")
endif()
if(NOT deny_err MATCHES "memory limit")
  message(FATAL_ERROR
          "memtrack_smoke: over-budget run did not cite the memory limit:\n"
          "${deny_err}")
endif()

message(STATUS "memtrack_smoke: ${check_out}")
