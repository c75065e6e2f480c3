# Runs each example named in NAMES (comma-separated, binaries in BIN_DIR)
# with a flag no example has and with --help:
#   cmake -DBIN_DIR=<dir> -DNAMES=a,b -P reject_unknown_flags.cmake
string(REPLACE "," ";" names "${NAMES}")
foreach(name IN LISTS names)
  execute_process(COMMAND ${BIN_DIR}/${name} --no-such-flag
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "${name} --no-such-flag exited '${rc}', want 2")
  endif()
  if(NOT "${out}${err}" MATCHES "unknown option")
    message(SEND_ERROR "${name} --no-such-flag did not say 'unknown option':\n${out}${err}")
  endif()
  execute_process(COMMAND ${BIN_DIR}/${name} --help
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} --help exited '${rc}', want 0:\n${out}${err}")
  endif()
endforeach()
