# trace_tools record writes a trace bpsio_report reads: record a small run,
# then check that bpsio_report exits 0 and reports the B trace_tools record
# printed. trace_tools csv must fail (exit 1) when its output cannot be
# written, and the analysis commands bpsio_report replaced are unknown.
#   cmake -DTRACE_TOOLS=<bin> -DREPORT=<bin> -DWORK_DIR=<dir> -P record_report.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/recorded.bpstrace")

execute_process(COMMAND "${TRACE_TOOLS}" record "${trace}" --procs=2 --file=1M
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0 OR NOT out MATCHES "B=([0-9]+) blocks")
  message(FATAL_ERROR "trace_tools record exited '${rc}' without a B:\n${out}${err}")
endif()
set(recorded_b "${CMAKE_MATCH_1}")

execute_process(COMMAND "${REPORT}" "${trace}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bpsio_report exited '${rc}', want 0:\n${out}${err}")
endif()
if(NOT out MATCHES "\n  B +([0-9]+) blocks")
  message(FATAL_ERROR "bpsio_report printed no B:\n${out}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL recorded_b)
  message(FATAL_ERROR "bpsio_report B=${CMAKE_MATCH_1}, trace_tools record B=${recorded_b}")
endif()

# bpsio_report is the analysis tool; trace_tools has no analyze or timeline.
foreach(gone analyze timeline)
  execute_process(COMMAND "${TRACE_TOOLS}" ${gone} "${trace}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown command '${gone}'")
    message(FATAL_ERROR "trace_tools ${gone} exited '${rc}', want 2 and an unknown command:\n${out}${err}")
  endif()
endforeach()

# A full device takes the open but not the bytes.
if(EXISTS /dev/full)
  execute_process(COMMAND "${TRACE_TOOLS}" csv "${trace}" /dev/full
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot write /dev/full")
    message(FATAL_ERROR "trace_tools csv to /dev/full exited '${rc}', want 1 and \"cannot write /dev/full\":\n${out}${err}")
  endif()
endif()
file(REMOVE "${trace}")
