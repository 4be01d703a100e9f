# End-to-end ingest smoke (ctest tier1): R-MAT -> v1 binary -> atlc_ingest
# (spill path forced by a tiny memory budget) -> atlc_run --input g.v2, and
# the resulting LCC/TC CSVs must be byte-identical to the in-memory
# load+clean path on the same input and seed, across partition kinds.
#
# Driven as: cmake -DATLC_RUN=... -DATLC_INGEST=... -DWORK_DIR=...
#                  -P ingest_smoke.cmake

foreach(var ATLC_RUN ATLC_INGEST WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ingest_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ingest_smoke: command failed (${rc}): ${ARGV}")
  endif()
endfunction()

set(seed 3)
set(ranks 8)

# A seeded R-MAT proxy, snapshotted to the v1 binary format.
run_checked(${ATLC_RUN} --rmat-scale 8 --rmat-ef 8 --seed ${seed}
            --convert ${WORK_DIR}/g.bin)

# Ingest with a deliberately tiny budget (10 KiB against a ~32 KiB edge
# stream) so the spill/merge path runs.
run_checked(${ATLC_INGEST} --input ${WORK_DIR}/g.bin
            --output ${WORK_DIR}/g.v2 --ranks ${ranks} --seed ${seed}
            --mem-budget-mb 0.01)

# Re-ingesting a snapshot must be rejected.
execute_process(COMMAND ${ATLC_INGEST} --input ${WORK_DIR}/g.v2
                --output ${WORK_DIR}/twice.v2 RESULT_VARIABLE rc
                ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "ingest_smoke: re-ingesting a v2 snapshot succeeded")
endif()

# Converting a snapshot back to a v1 edge list must be rejected.
execute_process(COMMAND ${ATLC_RUN} --input ${WORK_DIR}/g.v2
                --convert ${WORK_DIR}/back.bin RESULT_VARIABLE rc
                ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "ingest_smoke: --convert of a v2 snapshot was not "
                      "rejected (${rc})")
endif()

# The out-of-core path must reproduce the in-memory path bit-for-bit.
foreach(combo "lcc;block" "lcc;grid2d" "tc;cyclic")
  list(GET combo 0 algo)
  list(GET combo 1 part)
  run_checked(${ATLC_RUN} --input ${WORK_DIR}/g.bin --seed ${seed}
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/mem_${algo}_${part}.csv)
  run_checked(${ATLC_RUN} --input ${WORK_DIR}/g.v2
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/ooc_${algo}_${part}.csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/mem_${algo}_${part}.csv
                  ${WORK_DIR}/ooc_${algo}_${part}.csv
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ingest_smoke: ${algo}/${part} CSVs differ between the "
            "in-memory and snapshot paths")
  endif()
endforeach()

message(STATUS "ingest_smoke: all snapshot-path CSVs bit-identical")
