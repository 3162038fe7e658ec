# AddressSanitizer drill for the trace store's zero-copy mmap replay
# path, run as a ctest entry (store_asan). On the shared scratch ASan +
# UBSan build (asan_ubsan_build.cmake) it drives a capture plus replays
# through the CLI: every chunk-CRC walk over the mapped file, every column
# view handed to the folding kernels, and the refusal paths for a
# corrupted and a truncated store must stay inside the mapping. The
# same tree also runs binio_framed_test (every CRC kernel over every
# length and alignment, so each unaligned and short-tail load is
# bounds-checked) and store_test (gather-written stores, the byte pins
# and the per-region corruption table). An out-of-bounds read aborts
# the process (halt_on_error=1, exitcode=66) and fails the test. Skips
# gracefully when the toolchain cannot link ASan + UBSan.
#
# Usage: cmake -DREPO=<source root> -DWORKDIR=<scratch dir>
#        -DCXX=<C++ compiler> -P store_asan.cmake

include(${CMAKE_CURRENT_LIST_DIR}/asan_ubsan_build.cmake)
if(NOT san_build)
  message(STATUS "store asan: toolchain cannot link -fsanitize=address,undefined, skipping")
  return()
endif()

set(scratch ${WORKDIR}/store_asan)
file(MAKE_DIRECTORY ${scratch})
set(slm ${san_build}/tools/slm)

foreach(test binio_framed_test store_test)
  execute_process(COMMAND ${san_build}/tests/${test}
                  WORKING_DIRECTORY ${scratch}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "asan ${test} -> rc=${rc} (rc 66 means AddressSanitizer "
            "reported a memory error)\n${out}\n${err}")
  endif()
endforeach()

function(run_slm expect_rc)
  execute_process(COMMAND ${slm} ${ARGN}
                  WORKING_DIRECTORY ${scratch}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
            "asan slm ${ARGN} -> rc=${rc} (expected ${expect_rc}; rc 66 "
            "means AddressSanitizer reported a memory error)\n${out}\n${err}")
  endif()
endfunction()

set(common --circuit alu --mode tdc --traces 1500 --key-byte 3)
set(store ${scratch}/asan.trc)
file(REMOVE ${store})

# Capture under ASan (writer path), then replay twice: single-byte and
# TVLA both walk the full chunk index and fold straight out of the
# mapping. 1500 traces may or may not disclose the byte — the drill is
# about memory safety, so accept rc 0 or 4 by replaying with the engine
# that was captured and only pinning the refusal codes below.
execute_process(COMMAND ${slm} capture --store-out ${store} ${common}
                WORKING_DIRECTORY ${scratch}
                RESULT_VARIABLE cap_rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT (cap_rc EQUAL 0 OR cap_rc EQUAL 4))
  message(FATAL_ERROR "asan capture -> rc=${cap_rc}\n${out}\n${err}")
endif()
run_slm(${cap_rc} attack --from-store ${store} ${common})

# Refusal paths under ASan: the corrupted-chunk CRC walk and the
# truncated-mapping bounds checks must reject without touching memory
# past the file.
set(bad ${scratch}/asan_bad.trc)
configure_file(${store} ${bad} COPYONLY)
file(WRITE ${scratch}/patch.bin "ZQ")
execute_process(COMMAND dd if=${scratch}/patch.bin of=${bad}
                        bs=1 seek=2000 count=2 conv=notrunc
                RESULT_VARIABLE dd_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT dd_rc EQUAL 0)
  message(FATAL_ERROR "dd corruption patch failed (rc=${dd_rc})")
endif()
run_slm(13 attack --from-store ${bad} ${common})

set(short ${scratch}/asan_short.trc)
execute_process(COMMAND dd if=${store} of=${short} bs=1024 count=12
                RESULT_VARIABLE dd_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT dd_rc EQUAL 0)
  message(FATAL_ERROR "dd truncation failed (rc=${dd_rc})")
endif()
run_slm(13 attack --from-store ${short} ${common})

run_slm(14 attack --from-store ${store} --circuit alu --mode tdc
        --key-byte 5)

file(REMOVE ${store} ${bad} ${short})
message(STATUS "store asan: CRC kernels, store tests, mmap replay and refusal paths are clean under AddressSanitizer")
