# ThreadSanitizer drill for the capture engine, run as a ctest entry
# (pipeline_tsan). On the shared scratch TSan build of the CLI
# (tsan_build.cmake) it drives two short benign-HW campaigns: one shard
# on the calling thread (--threads 1) and four shards over the worker
# pool (--threads 4), whose lane-parallel capture shares the read-only
# setup, sensor plan and store writer. Both runs halt at a checkpoint
# (rc 5) so the drill is deterministic and also covers snapshot writing
# under the sanitizer. Any data race aborts the process
# (halt_on_error=1, exitcode=66) and fails the test. Skips gracefully
# when the toolchain cannot link TSan.
#
# Usage: cmake -DREPO=<source root> -DWORKDIR=<scratch dir>
#        -DCXX=<C++ compiler> -P pipeline_tsan.cmake

include(${CMAKE_CURRENT_LIST_DIR}/tsan_build.cmake)
if(NOT slm)
  message(STATUS "pipeline tsan: toolchain cannot link -fsanitize=thread, skipping")
  return()
endif()

set(scratch ${WORKDIR}/pipeline_tsan)
file(MAKE_DIRECTORY ${scratch})

function(run_tsan label)
  set(ckpt ${scratch}/ckpt_${label})
  file(REMOVE_RECURSE ${ckpt})
  execute_process(COMMAND ${slm} attack --circuit alu --mode hw
                          --key-byte 3 --traces 4000
                          --halt-after 1000 --checkpoint-dir ${ckpt}
                          ${ARGN}
                  WORKING_DIRECTORY ${scratch}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 5)
    message(FATAL_ERROR
            "tsan ${label} run -> rc=${rc} (expected halt rc 5; rc 66 "
            "means ThreadSanitizer reported a data race)\n${out}\n${err}")
  endif()
  file(REMOVE_RECURSE ${ckpt})
endfunction()

# One shard on the calling thread.
run_tsan(one_shard --threads 1 --block 64)
# Four shards, contiguous-chunk lane-parallel capture.
run_tsan(sharded --threads 4 --block 64)

message(STATUS "pipeline tsan: one-shard and sharded capture are race-clean")
