# trace_tools record writes a trace bpsio_report reads: record a small run,
# then check that bpsio_report exits 0 and reports the B that
# trace_tools analyze prints.
#   cmake -DTRACE_TOOLS=<bin> -DREPORT=<bin> -DWORK_DIR=<dir> -P record_report.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/recorded.bpstrace")

execute_process(COMMAND "${TRACE_TOOLS}" record "${trace}" --procs=2 --file=1M
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_tools record exited '${rc}':\n${out}${err}")
endif()

execute_process(COMMAND "${TRACE_TOOLS}" analyze "${trace}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0 OR NOT out MATCHES "B=([0-9]+) blocks")
  message(FATAL_ERROR "trace_tools analyze exited '${rc}' without a B:\n${out}${err}")
endif()
set(analyze_b "${CMAKE_MATCH_1}")

execute_process(COMMAND "${REPORT}" "${trace}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bpsio_report exited '${rc}', want 0:\n${out}${err}")
endif()
if(NOT out MATCHES "\n  B +([0-9]+) blocks")
  message(FATAL_ERROR "bpsio_report printed no B:\n${out}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL analyze_b)
  message(FATAL_ERROR "bpsio_report B=${CMAKE_MATCH_1}, trace_tools analyze B=${analyze_b}")
endif()
file(REMOVE "${trace}")
