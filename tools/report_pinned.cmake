# cmake -DREPORT=PSC_REPORT -DSOURCE_DIR=DIR -DWORK_DIR=DIR
#       -P report_pinned.cmake
#
# Regenerates the committed Section 6.3 cost table: runs PSC_REPORT on
# configs/rw_sweep.cfg with --update on a WORK_DIR copy of EXPERIMENTS.md
# and with --json, and fails unless both outputs are byte-identical to the
# committed EXPERIMENTS.md and BENCH_rw.json under SOURCE_DIR.
file(MAKE_DIRECTORY ${WORK_DIR})
configure_file(${SOURCE_DIR}/EXPERIMENTS.md ${WORK_DIR}/EXPERIMENTS.md COPYONLY)
execute_process(
  COMMAND ${REPORT} --sweep=${SOURCE_DIR}/configs/rw_sweep.cfg
          --update=${WORK_DIR}/EXPERIMENTS.md
          --json=${WORK_DIR}/BENCH_rw.json --quiet
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "psc-report exited ${rc}\n${err}")
endif()
foreach(f EXPERIMENTS.md BENCH_rw.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/${f}
            ${SOURCE_DIR}/${f}
    RESULT_VARIABLE same)
  if(NOT same STREQUAL "0")
    message(FATAL_ERROR "${WORK_DIR}/${f} differs from the committed "
                        "${SOURCE_DIR}/${f}: regenerate it with psc-report "
                        "--sweep=configs/rw_sweep.cfg --update=EXPERIMENTS.md "
                        "--json=BENCH_rw.json")
  endif()
endforeach()
