# Shared scratch -fsanitize=thread build of the CLI for the TSan drills
# (pipeline_tsan, serve_tsan, fabric_tsan). Included, not run: the
# caller sets REPO, WORKDIR and CXX; this sets `slm` to the TSan binary,
# or to "" when the toolchain cannot link TSan (the caller then skips).
# Every drill builds into the same directory, so only the first one to
# run compiles; the rest reconfigure and find the target up to date.
# The drills hold the ctest RESOURCE_LOCK tsan_build so that no two of
# them configure or build it at once.

set(tsan_dir ${WORKDIR}/tsan_build)
file(MAKE_DIRECTORY ${tsan_dir})
set(slm "")

# Probe: can the toolchain compile and link a TSan binary at all?
file(WRITE ${tsan_dir}/probe.cpp "int main() { return 0; }\n")
execute_process(COMMAND ${CXX} -fsanitize=thread ${tsan_dir}/probe.cpp
                        -o ${tsan_dir}/probe
                RESULT_VARIABLE probe_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT probe_rc EQUAL 0)
  return()
endif()

# Configure + build of just the CLI target (pulls in slm_core and
# slm_atpg; test and bench binaries are not built).
execute_process(COMMAND ${CMAKE_COMMAND} -S ${REPO} -B ${tsan_dir}/build
                        -DCMAKE_BUILD_TYPE=RelWithDebInfo
                        "-DCMAKE_CXX_FLAGS=-fsanitize=thread -O1 -g"
                        -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan configure failed:\n${out}\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} --build ${tsan_dir}/build
                        --target slm --parallel 4
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan build failed:\n${out}\n${err}")
endif()

set(slm ${tsan_dir}/build/tools/slm)
set(ENV{TSAN_OPTIONS} "halt_on_error=1 exitcode=66")
