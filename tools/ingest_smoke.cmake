# End-to-end ingest smoke (ctest tier1): R-MAT -> v1 binary -> atlc_ingest
# (spill path forced by a tiny memory budget) -> atlc_run --input g.v2, and
# the resulting LCC/TC CSVs must be byte-identical to the in-memory
# load+clean path on the same input and seed, across partition kinds. A
# hand-written SNAP text file takes the same two paths.
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

# A SNAP text file: comment lines of any length, '%' comments and CRLF line
# ends must mean the same graph to atlc_run's loader and to atlc_ingest. The
# '#' line is 255 bytes before its "1 3" tail, so a reader with a fixed line
# buffer would load that tail as an extra edge (closing two triangles).
string(REPEAT " " 235 pad)
file(WRITE ${WORK_DIR}/t.txt
  "# SNAP header, long:${pad}1 3\n% konect-style comment\n"
  "0 1\n0 2\n0 3\n1 2\r\n2 3\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n"
  "3 4\n7 8\n8 9\n9 7\n2 9")
run_checked(${ATLC_INGEST} --input ${WORK_DIR}/t.txt
            --output ${WORK_DIR}/t.v2 --ranks ${ranks} --seed ${seed})

# The out-of-core path must reproduce the in-memory path bit-for-bit.
foreach(combo "g.bin;lcc;block" "g.bin;lcc;grid2d" "g.bin;tc;cyclic"
              "t.txt;lcc;block")
  list(GET combo 0 input)
  list(GET combo 1 algo)
  list(GET combo 2 part)
  get_filename_component(g ${input} NAME_WE)
  run_checked(${ATLC_RUN} --input ${WORK_DIR}/${input} --seed ${seed}
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/mem_${g}_${algo}_${part}.csv)
  run_checked(${ATLC_RUN} --input ${WORK_DIR}/${g}.v2
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/ooc_${g}_${algo}_${part}.csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/mem_${g}_${algo}_${part}.csv
                  ${WORK_DIR}/ooc_${g}_${algo}_${part}.csv
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ingest_smoke: ${input} ${algo}/${part} CSVs differ between the "
            "in-memory and snapshot paths")
  endif()
endforeach()

message(STATUS "ingest_smoke: all snapshot-path CSVs bit-identical")
