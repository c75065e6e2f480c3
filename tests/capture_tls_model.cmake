# Fails when libbpsio_capture.so imports __tls_get_addr: every thread_local
# the interposer reads per recorded call must be initial-exec (one
# %fs-relative access), and a general-dynamic one would quietly bring a
# __tls_get_addr call back onto that path.
#
#   cmake -DNM=<nm> -DLIB=<libbpsio_capture.so> -P capture_tls_model.cmake
if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<library> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
execute_process(
  COMMAND "${NM}" -D --undefined-only "${LIB}"
  OUTPUT_VARIABLE imports
  ERROR_VARIABLE nm_error
  RESULT_VARIABLE nm_result)
if(NOT nm_result EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIB}: ${nm_error}")
endif()
if(imports MATCHES "__tls_get_addr")
  message(FATAL_ERROR
    "${LIB} imports __tls_get_addr: a thread_local in the capture library "
    "is not initial-exec (see DESIGN.md §9)")
endif()
message(STATUS "${LIB}: no __tls_get_addr import")
