# trace_tools record writes a trace bpsio_report reads: record a small run,
# then check that bpsio_report exits 0 and reports the B trace_tools record
# printed. trace_tools merge of the trace with itself reports twice that B,
# also with more inputs than a soft descriptor limit of 16 (each input
# holds a descriptor; a source out of descriptors lifts the soft limit to
# the hard one), and a merge whose output is one of its inputs fails (exit
# 1) and leaves that input intact. trace_tools csv and merge must fail
# (exit 1) when their output cannot be written, and a failed merge leaves
# a device or a symlink named as its output in place. The analysis
# commands bpsio_report replaced are unknown.
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

set(merged "${WORK_DIR}/merged.bpstrace")
math(EXPR twice_b "2 * ${recorded_b}")
execute_process(COMMAND "${TRACE_TOOLS}" merge "${trace}" "${trace}" "${merged}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0 OR NOT out MATCHES "merged 2 traces")
  message(FATAL_ERROR "trace_tools merge exited '${rc}', want 0:\n${out}${err}")
endif()
execute_process(COMMAND "${TRACE_TOOLS}" merge "${trace}" "${merged}" "${merged}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 1 OR NOT err MATCHES "is also an input")
  message(FATAL_ERROR "trace_tools merge into an input exited '${rc}', want 1 and \"is also an input\":\n${out}${err}")
endif()
execute_process(COMMAND "${REPORT}" "${merged}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\n  B +([0-9]+) blocks"
   OR NOT CMAKE_MATCH_1 STREQUAL twice_b)
  message(FATAL_ERROR "bpsio_report on the merge exited '${rc}', want 0 and B=${twice_b}:\n${out}${err}")
endif()
file(REMOVE "${merged}")

set(inputs "")
foreach(i RANGE 1 24)
  list(APPEND inputs "'${trace}'")
endforeach()
list(JOIN inputs " " inputs)
execute_process(COMMAND sh -c "ulimit -S -n 16 && exec '${TRACE_TOOLS}' merge ${inputs} '${merged}'"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 0 OR NOT out MATCHES "merged 24 traces")
  message(FATAL_ERROR "trace_tools merge of 24 inputs under a soft limit of 16 descriptors exited '${rc}', want 0:\n${out}${err}")
endif()
file(REMOVE "${merged}")

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
  # Through a symlink first: a merge that removed its failed output would
  # remove only the link here, before the device itself is named.
  set(full_link "${WORK_DIR}/full-link.bpstrace")
  file(REMOVE "${full_link}")
  file(CREATE_LINK /dev/full "${full_link}" SYMBOLIC)
  foreach(output "${full_link}" /dev/full)
    execute_process(COMMAND "${TRACE_TOOLS}" merge "${trace}" "${trace}" "${output}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                    TIMEOUT 60)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot merge into")
      message(FATAL_ERROR "trace_tools merge into ${output} exited '${rc}', want 1 and \"cannot merge into\":\n${out}${err}")
    endif()
    if(NOT IS_SYMLINK "${full_link}" OR NOT EXISTS /dev/full)
      message(FATAL_ERROR "trace_tools merge into ${output} removed ${full_link} or /dev/full")
    endif()
  endforeach()
  file(REMOVE "${full_link}")
endif()
file(REMOVE "${trace}")
