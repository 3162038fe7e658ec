# ThreadSanitizer drill for the fabric coordinator, run as a ctest
# entry (fabric_tsan). On the shared scratch TSan build of the CLI
# (tsan_build.cmake) it drives one short `slm coordinate` campaign with
# a killed worker: the per-worker JSONL monitor threads write
# the shared FabricProgress view while the coordinator's reap loop reads
# total_covered() concurrently — exactly the locking fabric_smoke never
# stresses, because there the workers finish too fast to overlap the
# polls. Any data race aborts the process (halt_on_error=1, exitcode=66)
# and fails the test. Skips gracefully when the toolchain lacks TSan.
#
# Usage: cmake -DREPO=<source root> -DWORKDIR=<scratch dir>
#        -DCXX=<C++ compiler> -P fabric_tsan.cmake

include(${CMAKE_CURRENT_LIST_DIR}/tsan_build.cmake)
if(NOT slm)
  message(STATUS "fabric tsan: toolchain cannot link -fsanitize=thread, skipping")
  return()
endif()

set(scratch ${WORKDIR}/fabric_tsan)
file(MAKE_DIRECTORY ${scratch})

# Note the coordinator process runs under TSan; the worker subprocesses
# do too (same binary), so snapshot writing under the sanitizer rides
# along. --snapshot-every 100 makes the workers emit fabric_snapshot
# events continuously, keeping the monitor threads' progress updates
# and the reap loop's concurrent reads overlapping for the whole run.
set(workdir ${scratch}/coord)
file(REMOVE_RECURSE ${workdir})
execute_process(COMMAND ${slm} coordinate --circuit alu --mode tdc
                        --key-byte 3 --traces 1200
                        --shards 3 --snapshot-every 100
                        --kill-shard 1 --kill-after 200
                        --work-dir ${workdir}
                        --trace-out ${workdir}.jsonl
                WORKING_DIRECTORY ${scratch}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "tsan coordinate run -> rc=${rc} (rc 66 means ThreadSanitizer "
          "reported a data race)\n${out}\n${err}")
endif()
if(NOT EXISTS ${workdir}/merged.snap)
  message(FATAL_ERROR "tsan coordinate run left no merged snapshot")
endif()

file(REMOVE_RECURSE ${workdir})
message(STATUS "fabric tsan: coordinator progress tracking is race-clean under a killed worker")
