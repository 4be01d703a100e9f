# Trace determinism smoke (ctest tier1): two identical traced runs of
# atlc_run (cached LCC) and of atlc_serve must write byte-identical Chrome
# traces. Trace timestamps are virtual seconds from the fixed cost model,
# so any run-to-run difference is a determinism bug.
#
# Driven as: cmake -DATLC_RUN=... -DATLC_SERVE=... -DWORK_DIR=...
#                  -P trace_repeatable.cmake

foreach(var ATLC_RUN ATLC_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_repeatable: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(rep 1 2)
  foreach(cmd
      "run;${ATLC_RUN};--rmat-scale;10;--algo;lcc;--ranks;4;--cache;--stats-only"
      "serve;${ATLC_SERVE};--rmat-scale;8;--epochs;2")
    list(POP_FRONT cmd tool)
    execute_process(COMMAND ${cmd} --trace ${WORK_DIR}/${tool}_${rep}.json
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "trace_repeatable: ${tool} run ${rep} failed "
                          "(${rc})")
    endif()
  endforeach()
endforeach()

foreach(tool run serve)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/${tool}_1.json ${WORK_DIR}/${tool}_2.json
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_repeatable: two identical atlc_${tool} runs "
                        "wrote different traces")
  endif()
endforeach()

message(STATUS "trace_repeatable: atlc_run and atlc_serve traces repeat")
