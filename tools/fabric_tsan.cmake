# ThreadSanitizer drill for the fabric coordinator, run as a ctest
# entry (fabric_tsan). Configures a scratch build of the CLI with
# -fsanitize=thread and drives one short `slm coordinate` campaign with
# a killed worker through it: the per-worker JSONL monitor threads write
# the shared FabricProgress view while the coordinator's reap loop reads
# total_covered() concurrently — exactly the locking fabric_smoke never
# stresses, because there the workers finish too fast to overlap the
# polls. Any data race aborts the process (halt_on_error=1, exitcode=66)
# and fails the test. Skips gracefully when the toolchain lacks TSan.
#
# Usage: cmake -DREPO=<source root> -DWORKDIR=<scratch dir>
#        -DCXX=<C++ compiler> -P fabric_tsan.cmake

set(scratch ${WORKDIR}/fabric_tsan)
file(MAKE_DIRECTORY ${scratch})

# Probe: can the toolchain compile and link a TSan binary at all?
file(WRITE ${scratch}/probe.cpp "int main() { return 0; }\n")
execute_process(COMMAND ${CXX} -fsanitize=thread ${scratch}/probe.cpp
                        -o ${scratch}/probe
                RESULT_VARIABLE probe_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT probe_rc EQUAL 0)
  message(STATUS "fabric tsan: toolchain cannot link -fsanitize=thread, skipping")
  return()
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -S ${REPO} -B ${scratch}/build
                        -DCMAKE_BUILD_TYPE=RelWithDebInfo
                        "-DCMAKE_CXX_FLAGS=-fsanitize=thread -O1 -g"
                        -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan configure failed:\n${out}\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} --build ${scratch}/build
                        --target slm --parallel 4
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan build failed:\n${out}\n${err}")
endif()

set(slm ${scratch}/build/tools/slm)
set(ENV{TSAN_OPTIONS} "halt_on_error=1 exitcode=66")

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
