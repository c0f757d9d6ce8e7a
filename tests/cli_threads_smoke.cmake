# Runs one exact `staq_cli query` at --threads 1 and at --threads 2 and
# fails unless both print the same answer. Only the wall-clock line may
# differ. Invoked by ctest as:
#   cmake -DSTAQ_CLI=<path to staq_cli> -P cli_threads_smoke.cmake
set(query_args query --synth brindale --scale 0.05 --seed 5 --poi school
    --exact)
foreach(threads 1 2)
  execute_process(
    COMMAND ${STAQ_CLI} ${query_args} --threads ${threads}
    OUTPUT_VARIABLE out_${threads}
    RESULT_VARIABLE rc_${threads})
  if(NOT rc_${threads} EQUAL 0)
    message(FATAL_ERROR "query --threads ${threads} exited ${rc_${threads}}")
  endif()
  string(REGEX REPLACE "answered in[^\n]*" "" out_${threads}
         "${out_${threads}}")
endforeach()
if(NOT out_1 STREQUAL out_2)
  message(FATAL_ERROR "--threads 2 answer differs from --threads 1:\n"
                      "${out_1}\n---\n${out_2}")
endif()
message(STATUS "identical answers:\n${out_1}")
