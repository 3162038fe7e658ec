# Aggregate every BENCH_*.json a bench run left behind into a single
# BENCH_summary.json, keyed by bench file stem. A smoke that reruns a
# bench under other settings writes from its own subdirectory (e.g.
# scalar_block/), and its record is keyed <stem>_<subdirectory>, so no
# smoke overwrites another's. Each bench binary writes
# its own machine-readable record (bench_util's contract); this script
# only collates — it never re-runs anything, so it is cheap enough for
# every ctest invocation and safe when no bench has run yet (empty glob
# -> a summary with "count": 0, still a pass).
#
# Usage: cmake -DBENCH_DIR=<dir with BENCH_*.json> -P bench_report.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "bench_report: pass -DBENCH_DIR=<dir>")
endif()

get_filename_component(BENCH_DIR "${BENCH_DIR}" ABSOLUTE)
file(GLOB bench_files "${BENCH_DIR}/BENCH_*.json" "${BENCH_DIR}/*/BENCH_*.json")
list(REMOVE_ITEM bench_files "${BENCH_DIR}/BENCH_summary.json")
list(SORT bench_files)

set(entries "")
set(count 0)
foreach(path IN LISTS bench_files)
  get_filename_component(stem "${path}" NAME_WE)
  get_filename_component(dir "${path}" DIRECTORY)
  if(NOT dir STREQUAL BENCH_DIR)
    get_filename_component(subdir "${dir}" NAME)
    set(stem "${stem}_${subdir}")
  endif()
  file(READ "${path}" body)
  string(STRIP "${body}" body)
  if(body STREQUAL "")
    message(STATUS "bench_report: skipping empty ${path}")
    continue()
  endif()
  # Indent the embedded record so the summary stays readable.
  string(REPLACE "\n" "\n    " body "${body}")
  if(count GREATER 0)
    string(APPEND entries ",\n")
  endif()
  string(APPEND entries "    \"${stem}\": ${body}")
  math(EXPR count "${count} + 1")
endforeach()

set(summary "{\n  \"report\": \"bench_summary\",\n  \"count\": ${count},\n  \"benches\": {\n${entries}\n  }\n}\n")
if(count EQUAL 0)
  set(summary "{\n  \"report\": \"bench_summary\",\n  \"count\": 0,\n  \"benches\": {}\n}\n")
endif()

file(WRITE "${BENCH_DIR}/BENCH_summary.json" "${summary}")
message(STATUS "bench_report: ${count} bench record(s) -> ${BENCH_DIR}/BENCH_summary.json")
