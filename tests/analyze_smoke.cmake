# analyze-smoke: end-to-end check of the scale-out telemetry path.
#
# Runs the QFT example on the shmem and peer backends (4 PEs each, traced),
# validates both svsim-report-v1 documents with trace_check --report and
# asserts the new waitstate section is present, then drives
# tools/svsim_analyze over them: breakdown + heatmap, run-ledger growth to
# two lines, a cross-run --compare, and a --merge-trace whose output
# trace_check accepts. Four negative controls: a report whose
# wall_seconds overflows to infinity is refused (exit 1, ledger
# untouched), a corrupted ledger line makes --compare exit 3, a merged
# trace holding an overflowing "dur" still passes trace_check (the writer
# renders it as null), and a fractional pid is refused (exit 1). Two
# traces at the largest int pid merge onto exact, disjoint 64-bit pids.
# Driven from tests/CMakeLists.txt via:
#   cmake -DRUNNER=... -DANALYZE=... -DTRACE_CHECK=... -DQASM=...
#         -DWORK_DIR=... -P analyze_smoke.cmake

foreach(var RUNNER ANALYZE TRACE_CHECK QASM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "analyze_smoke: missing -D${var}=...")
  endif()
endforeach()

set(LEDGER "${WORK_DIR}/analyze_smoke_ledger.jsonl")
file(REMOVE "${LEDGER}")

# --- 1. one traced, reported run per distributed backend -------------------
foreach(backend shmem peer)
  set(REPORT "${WORK_DIR}/analyze_smoke_${backend}.json")
  set(TRACE "${WORK_DIR}/analyze_smoke_${backend}.trace.json")
  file(REMOVE "${REPORT}" "${TRACE}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env SVSIM_WAITSTATS=1 SVSIM_HEALTH=1
            "${RUNNER}" "${QASM}" --backend ${backend} --workers 4
            --profile "${TRACE}" --report-json "${REPORT}" --shots 32
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "analyze_smoke: ${backend} run failed (rc=${run_rc})\n"
            "stdout:\n${run_out}\nstderr:\n${run_err}")
  endif()

  # The summary must already surface the breakdown and the critical path.
  if(NOT run_out MATCHES "wait-state per PE")
    message(FATAL_ERROR
            "analyze_smoke: ${backend} summary lacks the wait-state table\n"
            "${run_out}")
  endif()
  if(NOT run_out MATCHES "critical path: PE")
    message(FATAL_ERROR
            "analyze_smoke: ${backend} summary lacks a critical path line\n"
            "${run_out}")
  endif()

  # Schema check plus the additive waitstate fields.
  execute_process(
    COMMAND "${TRACE_CHECK}" --report "${REPORT}"
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
  if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR "analyze_smoke: ${backend} report invalid "
            "(rc=${check_rc})\n${check_out}${check_err}")
  endif()
  file(READ "${REPORT}" report_text)
  foreach(field "\"waitstate\":{\"enabled\":true" "\"imbalance\":"
          "\"critical_pe\":" "\"circuit_hash\":")
    if(NOT report_text MATCHES "${field}")
      message(FATAL_ERROR
              "analyze_smoke: ${backend} report lacks ${field}")
    endif()
  endforeach()

  # --- 2. breakdown + ledger append through svsim_analyze ------------------
  execute_process(
    COMMAND "${ANALYZE}" --ledger "${LEDGER}" "${REPORT}"
    RESULT_VARIABLE an_rc
    OUTPUT_VARIABLE an_out
    ERROR_VARIABLE an_err)
  if(NOT an_rc EQUAL 0)
    message(FATAL_ERROR "analyze_smoke: ledger append for ${backend} failed "
            "(rc=${an_rc})\n${an_out}${an_err}")
  endif()
  execute_process(
    COMMAND "${ANALYZE}" "${REPORT}"
    RESULT_VARIABLE an_rc
    OUTPUT_VARIABLE an_out
    ERROR_VARIABLE an_err)
  if(NOT an_rc EQUAL 0 OR NOT an_out MATCHES "wait-state per PE"
     OR NOT an_out MATCHES "imbalance ")
    message(FATAL_ERROR "analyze_smoke: breakdown for ${backend} failed "
            "(rc=${an_rc})\n${an_out}${an_err}")
  endif()
endforeach()

# --- 3. ledger grew to exactly one line per run, all schema-stamped --------
file(STRINGS "${LEDGER}" ledger_lines)
list(LENGTH ledger_lines n_lines)
if(NOT n_lines EQUAL 2)
  message(FATAL_ERROR
          "analyze_smoke: ledger has ${n_lines} lines, expected 2")
endif()
foreach(line IN LISTS ledger_lines)
  if(NOT line MATCHES "svsim-ledger-v1")
    message(FATAL_ERROR "analyze_smoke: unstamped ledger line: ${line}")
  endif()
endforeach()

# --- 3b. negative control: a non-finite wall time is refused --------------
# 1e999 parses as infinity; appending it would leave a line no later
# --compare can read.
file(READ "${WORK_DIR}/analyze_smoke_shmem.json" good_report)
string(REGEX REPLACE "\"wall_seconds\":[^,]*" "\"wall_seconds\":1e999"
       inf_report "${good_report}")
if(NOT inf_report MATCHES "\"wall_seconds\":1e999")
  message(FATAL_ERROR "analyze_smoke: could not build the 1e999 report")
endif()
set(INF_REPORT "${WORK_DIR}/analyze_smoke_inf.json")
file(WRITE "${INF_REPORT}" "${inf_report}")
file(READ "${LEDGER}" ledger_before)
execute_process(
  COMMAND "${ANALYZE}" --ledger "${LEDGER}" "${INF_REPORT}"
  RESULT_VARIABLE inf_rc
  OUTPUT_VARIABLE inf_out
  ERROR_VARIABLE inf_err)
if(NOT inf_rc EQUAL 1)
  message(FATAL_ERROR "analyze_smoke: a report with wall_seconds 1e999 was "
          "appended (rc=${inf_rc}), expected a refusal with exit 1\n"
          "${inf_out}${inf_err}")
endif()
file(READ "${LEDGER}" ledger_after)
file(STRINGS "${LEDGER}" ledger_lines)
list(LENGTH ledger_lines n_lines)
if(NOT ledger_after STREQUAL ledger_before OR NOT n_lines EQUAL 2)
  message(FATAL_ERROR "analyze_smoke: the refused append changed the "
          "ledger (${n_lines} lines)\n${ledger_after}")
endif()

# --- 4. cross-run compare over the ledger ----------------------------------
execute_process(
  COMMAND "${ANALYZE}" --compare --ledger "${LEDGER}"
  RESULT_VARIABLE cmp_rc
  OUTPUT_VARIABLE cmp_out
  ERROR_VARIABLE cmp_err)
if(NOT cmp_rc EQUAL 0 OR NOT cmp_out MATCHES ":shmem:w4:"
   OR NOT cmp_out MATCHES ":peer:w4:")
  message(FATAL_ERROR "analyze_smoke: --compare failed (rc=${cmp_rc})\n"
          "${cmp_out}${cmp_err}")
endif()

# --- 5. negative control: a corrupted line must exit 3 ---------------------
file(APPEND "${LEDGER}" "{this is not a ledger line\n")
execute_process(
  COMMAND "${ANALYZE}" --compare --ledger "${LEDGER}"
  RESULT_VARIABLE bad_rc
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(NOT bad_rc EQUAL 3)
  message(FATAL_ERROR "analyze_smoke: corrupted ledger line exited "
          "${bad_rc}, expected 3\n${bad_out}${bad_err}")
endif()
if(NOT bad_err MATCHES "corrupted ledger line")
  message(FATAL_ERROR "analyze_smoke: corrupt-line diagnostic missing\n"
          "${bad_err}")
endif()

# --- 6. merge the two per-process traces, revalidate -----------------------
set(MERGED "${WORK_DIR}/analyze_smoke_merged.json")
file(REMOVE "${MERGED}")
execute_process(
  COMMAND "${ANALYZE}" --merge-trace "${MERGED}"
          "${WORK_DIR}/analyze_smoke_shmem.trace.json"
          "${WORK_DIR}/analyze_smoke_peer.trace.json"
  RESULT_VARIABLE mg_rc
  OUTPUT_VARIABLE mg_out
  ERROR_VARIABLE mg_err)
if(NOT mg_rc EQUAL 0)
  message(FATAL_ERROR "analyze_smoke: --merge-trace failed (rc=${mg_rc})\n"
          "${mg_out}${mg_err}")
endif()
execute_process(
  COMMAND "${TRACE_CHECK}" "${MERGED}"
  RESULT_VARIABLE mv_rc
  OUTPUT_VARIABLE mv_out
  ERROR_VARIABLE mv_err)
if(NOT mv_rc EQUAL 0)
  message(FATAL_ERROR "analyze_smoke: merged trace invalid (rc=${mv_rc})\n"
          "${mv_out}${mv_err}")
endif()
file(READ "${MERGED}" merged_text)
if(NOT merged_text MATCHES "\"cat\":\"wait\"")
  message(FATAL_ERROR "analyze_smoke: merged trace has no wait spans")
endif()

# --- 7. negative control: an overflowing duration merges as null ---------
set(INF_TRACE "${WORK_DIR}/analyze_smoke_inf.trace.json")
set(INF_MERGED "${WORK_DIR}/analyze_smoke_inf_merged.json")
file(REMOVE "${INF_MERGED}")
file(WRITE "${INF_TRACE}"
     "{\"traceEvents\":[{\"name\":\"h\",\"cat\":\"gate\",\"ph\":\"X\","
     "\"ts\":5,\"dur\":1e999,\"pid\":0,\"tid\":0}]}\n")
execute_process(
  COMMAND "${ANALYZE}" --merge-trace "${INF_MERGED}" "${INF_TRACE}"
  RESULT_VARIABLE im_rc
  OUTPUT_VARIABLE im_out
  ERROR_VARIABLE im_err)
if(NOT im_rc EQUAL 0)
  message(FATAL_ERROR "analyze_smoke: --merge-trace of the 1e999 trace "
          "failed (rc=${im_rc})\n${im_out}${im_err}")
endif()
execute_process(
  COMMAND "${TRACE_CHECK}" "${INF_MERGED}"
  RESULT_VARIABLE iv_rc
  OUTPUT_VARIABLE iv_out
  ERROR_VARIABLE iv_err)
file(READ "${INF_MERGED}" inf_merged_text)
if(NOT iv_rc EQUAL 0 OR NOT inf_merged_text MATCHES "\"dur\":null")
  message(FATAL_ERROR "analyze_smoke: merged 1e999 trace invalid "
          "(rc=${iv_rc})\n${iv_out}${iv_err}${inf_merged_text}")
endif()

# --- 8. control: the largest int pid in two traces merges exactly ----------
# Each file's pid offset is 64-bit and checked, so the second file's lane
# lands at 2147483648 + 2147483647 instead of overflowing an int.
set(MAXPID_TRACE "${WORK_DIR}/analyze_smoke_maxpid.trace.json")
set(MAXPID_MERGED "${WORK_DIR}/analyze_smoke_maxpid_merged.json")
file(REMOVE "${MAXPID_MERGED}")
file(WRITE "${MAXPID_TRACE}"
     "{\"traceEvents\":[{\"name\":\"h\",\"cat\":\"gate\",\"ph\":\"X\","
     "\"ts\":5,\"dur\":1,\"pid\":2147483647,\"tid\":0}]}\n")
execute_process(
  COMMAND "${ANALYZE}" --merge-trace "${MAXPID_MERGED}" "${MAXPID_TRACE}"
          "${MAXPID_TRACE}"
  RESULT_VARIABLE xp_rc
  OUTPUT_VARIABLE xp_out
  ERROR_VARIABLE xp_err)
if(NOT xp_rc EQUAL 0)
  message(FATAL_ERROR "analyze_smoke: --merge-trace of two pid 2147483647 "
          "traces failed (rc=${xp_rc})\n${xp_out}${xp_err}")
endif()
execute_process(
  COMMAND "${TRACE_CHECK}" "${MAXPID_MERGED}"
  RESULT_VARIABLE xv_rc
  OUTPUT_VARIABLE xv_out
  ERROR_VARIABLE xv_err)
file(READ "${MAXPID_MERGED}" maxpid_text)
if(NOT xv_rc EQUAL 0 OR NOT maxpid_text MATCHES "\"pid\":2147483647[,}]"
   OR NOT maxpid_text MATCHES "\"pid\":4294967295[,}]")
  message(FATAL_ERROR "analyze_smoke: merged max-pid trace is wrong "
          "(rc=${xv_rc})\n${xv_out}${xv_err}${maxpid_text}")
endif()

# --- 9. negative control: a fractional pid is refused with exit 1 ---------
set(BADPID_TRACE "${WORK_DIR}/analyze_smoke_badpid.trace.json")
file(WRITE "${BADPID_TRACE}"
     "{\"traceEvents\":[{\"name\":\"h\",\"cat\":\"gate\",\"ph\":\"X\","
     "\"ts\":5,\"dur\":1,\"pid\":2.5,\"tid\":0}]}\n")
execute_process(
  COMMAND "${ANALYZE}" --merge-trace "${WORK_DIR}/analyze_smoke_badpid.json"
          "${BADPID_TRACE}"
  RESULT_VARIABLE bp_rc
  OUTPUT_VARIABLE bp_out
  ERROR_VARIABLE bp_err)
if(NOT bp_rc EQUAL 1 OR NOT bp_err MATCHES "pid = 2.5 is not an integer")
  message(FATAL_ERROR "analyze_smoke: a pid of 2.5 exited ${bp_rc}, "
          "expected a refusal with exit 1\n${bp_out}${bp_err}")
endif()

message(STATUS "analyze_smoke: OK (reports, ledger x2, inf refused, compare, "
        "corrupt->3, merged trace, inf dur->null, max pid merged, "
        "fractional pid refused)")
