# UndefinedBehaviorSanitizer drill for the integer-exact fold engine,
# run as a ctest entry (fold_ubsan). The engine's whole correctness
# story rests on int64 accumulation never wrapping inside the
# kMaxFoldTraces x kMaxAbsReading budget (sca/fold_kernels.hpp); on the
# shared scratch ASan + UBSan build (sanitizer_build.cmake) this drill
# drives the arithmetic that has to be overflow-free:
#   1. fold_dispatch_test at every runnable SLM_SIMD level — the block
#      kernels (stage / sum_cols2 / scatter), budget guards, the
#      property oracles, and the Walsh-Hadamard class fold against its
#      direct-loop oracle, including a loaded accumulator at
#      n = kMaxFoldTraces whose class difference reaches 2^42
#      (ClassFoldExactAtBudgetEdge); the int32 class-tile kernel
#      against the int64 class-sum oracle
#      (ClassTileKernelMatchesOracleAtEveryLevel), including a whole
#      sub-block of +-2^20 readings in one class, whose tile cells reach
#      +-2047 * 2^20 just below 2^31 (ClassTileExactAtSubBlockEdge); and
#      chunk-sized blocks refused in their last sub-block
#      (TiledBlockRefusedInLastSubBlockLeavesStateUntouched) — all
#      execute under UBSan;
#   2. rng_test's lane-block draw cases at every runnable level
#      (Rng.FillLanesMatchesFillBitForBit,
#      Rng.FillBytesLanesMatchesNextBitForBit,
#      Rng.FillLanesRefusesOverlappingLanes) — the AVX2 xoshiro shifts,
#      the table gather indices and the scalar reference loops they are
#      compared against, for lane and draw counts around the four-lane
#      groups;
#   3. aes_datapath_test's victim core cases (AesDatapathCore.*) — the
#      AES-NI four-lane body and one-trace path, the portable T-table
#      core and the byte-wise oracle; each case forces every runnable
#      victim level itself;
#   4. the benign-HW read-out: benign_sensor_test's BenignSensorBank
#      cases (the capture's staged read and the block kernel against
#      per-call reads, four-lane and scalar) and
#      compiled_capture_equiv_test (the four-lane evaluator per lane,
#      including gridded endpoints, whose instants become bucket
#      indices through double-to-integer conversions);
#   5. a capture plus the fused one-pass replay (`slm attack
#      --from-store --fused-tvla` and `slm analyze`) — the end-to-end
#      path from mmap'd store columns through every fold.
# Any signed overflow, misaligned load, or invalid shift aborts the
# process (halt_on_error=1, exitcode=66) and fails the test. Skips
# gracefully when the toolchain cannot link ASan + UBSan.
#
# Usage: cmake -DREPO=<source root> -DWORKDIR=<scratch dir>
#        -DCXX=<C++ compiler> -P fold_ubsan.cmake

include(${CMAKE_CURRENT_LIST_DIR}/sanitizer_build.cmake)
sanitizer_build(asan_ubsan_build address,undefined san_build
                slm fold_dispatch_test rng_test aes_datapath_test
                binio_framed_test store_test benign_sensor_test
                compiled_capture_equiv_test)
if(NOT san_build)
  message(STATUS "fold ubsan: toolchain cannot link -fsanitize=address,undefined, skipping")
  return()
endif()

set(scratch ${WORKDIR}/fold_ubsan)
file(MAKE_DIRECTORY ${scratch})

# 1. The kernel property suite at every dispatch level. Unsupported
# levels are skipped inside the test (force_dispatch refuses levels the
# CPU lacks), so driving all three spellings is safe everywhere.
foreach(simd 0 sse2 avx2 auto)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env SLM_SIMD=${simd}
                          ${san_build}/tests/fold_dispatch_test
                  WORKING_DIRECTORY ${scratch}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ubsan fold_dispatch_test (SLM_SIMD=${simd}) -> rc=${rc} (rc 66 "
            "means UBSan reported undefined behavior)\n${out}\n${err}")
  endif()
endforeach()

# 2. The lane-block draws. Each case forces every runnable level itself,
# so one run covers scalar, SSE2 and AVX2.
execute_process(COMMAND ${san_build}/tests/rng_test
                        --gtest_filter=Rng.*
                WORKING_DIRECTORY ${scratch}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "ubsan rng_test -> rc=${rc} (rc 66 means UBSan reported undefined "
          "behavior)\n${out}\n${err}")
endif()

# 3. The victim core at every runnable level (each case forces them).
execute_process(COMMAND ${san_build}/tests/aes_datapath_test
                        --gtest_filter=AesDatapathCore.*
                WORKING_DIRECTORY ${scratch}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "ubsan aes_datapath_test -> rc=${rc} (rc 66 means UBSan reported "
          "undefined behavior)\n${out}\n${err}")
endif()

# 4. The benign-HW read-out, four-lane and scalar.
foreach(test benign_sensor_test compiled_capture_equiv_test)
  execute_process(COMMAND ${san_build}/tests/${test}
                  WORKING_DIRECTORY ${scratch}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ubsan ${test} -> rc=${rc} (rc 66 means UBSan reported "
            "undefined behavior)\n${out}\n${err}")
  endif()
endforeach()

# 5. End-to-end fused replay under UBSan: capture a store, then the
# fused attack+TVLA read-out and the three-section analyze verb. 1500
# traces may or may not disclose the byte, so accept the capture's rc
# from the replay as well (bit-identity is the store suite's job — here
# only UBSan's verdict matters).
set(slm ${san_build}/tools/slm)
set(common --circuit alu --mode tdc --traces 1500 --key-byte 3)
set(store ${scratch}/ubsan.trc)
file(REMOVE ${store})

execute_process(COMMAND ${slm} capture --store-out ${store} ${common}
                WORKING_DIRECTORY ${scratch}
                RESULT_VARIABLE cap_rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT (cap_rc EQUAL 0 OR cap_rc EQUAL 4))
  message(FATAL_ERROR "ubsan capture -> rc=${cap_rc}\n${out}\n${err}")
endif()

execute_process(COMMAND ${slm} attack --from-store ${store} --fused-tvla
                        ${common}
                WORKING_DIRECTORY ${scratch}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL ${cap_rc})
  message(FATAL_ERROR
          "ubsan fused attack -> rc=${rc} (expected ${cap_rc})\n${out}\n${err}")
endif()

# analyze exits 0 only when the FULL key is recovered; at 1500 traces
# a single-byte store will usually report 4. Both are clean runs — only
# rc 66 (a UBSan report) or a hard error may fail the drill.
execute_process(COMMAND ${slm} analyze --from-store ${store}
                WORKING_DIRECTORY ${scratch}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT (rc EQUAL 0 OR rc EQUAL 4))
  message(FATAL_ERROR "ubsan analyze -> rc=${rc}\n${out}\n${err}")
endif()

file(REMOVE ${store})
message(STATUS
        "fold ubsan: kernels, lane draws, victim core, benign read-out and fused replay are clean under UBSan")
