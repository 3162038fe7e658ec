# ThreadSanitizer drill for the capture engine, run as a ctest entry
# (pipeline_tsan). Configures a scratch build of the CLI with
# -fsanitize=thread and drives two short benign-HW campaigns through it:
# one shard on the calling thread (--threads 1) and four shards over the
# worker pool (--threads 4), whose lane-parallel capture shares the
# read-only setup, sensor plan and store writer. Both runs halt at a
# checkpoint (rc 5) so the drill is deterministic and also covers
# snapshot writing under the sanitizer. Any data race aborts the process
# (halt_on_error=1, exitcode=66) and fails the test. Skips gracefully
# when the toolchain cannot link TSan.
#
# Usage: cmake -DREPO=<source root> -DWORKDIR=<scratch dir>
#        -DCXX=<C++ compiler> -P pipeline_tsan.cmake

set(scratch ${WORKDIR}/pipeline_tsan)
file(MAKE_DIRECTORY ${scratch})

# Probe: can the toolchain compile and link a TSan binary at all?
file(WRITE ${scratch}/probe.cpp "int main() { return 0; }\n")
execute_process(COMMAND ${CXX} -fsanitize=thread ${scratch}/probe.cpp
                        -o ${scratch}/probe
                RESULT_VARIABLE probe_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT probe_rc EQUAL 0)
  message(STATUS "pipeline tsan: toolchain cannot link -fsanitize=thread, skipping")
  return()
endif()

# Scratch configure + build of just the CLI target (pulls in slm_core
# and slm_atpg; test and bench binaries are not built).
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
