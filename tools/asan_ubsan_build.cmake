# Shared scratch -fsanitize=address,undefined build for the ASan and
# UBSan drills (store_asan, fold_ubsan). Included, not run: the caller
# sets REPO, WORKDIR and CXX; this sets `san_build` to the build tree
# (binaries under tools/ and tests/), or to "" when the toolchain cannot
# link both sanitizers (the caller then skips). It builds the union of
# both drills' targets, so only the first drill to run compiles; the
# other reconfigures and finds every target up to date. The drills hold
# the ctest RESOURCE_LOCK asan_ubsan_build so that no two of them
# configure or build it at once. Any memory error or undefined behavior
# aborts the process with exit code 66.

set(san_dir ${WORKDIR}/asan_ubsan_build)
file(MAKE_DIRECTORY ${san_dir})
set(san_build "")

# Probe: can the toolchain compile and link an ASan + UBSan binary?
file(WRITE ${san_dir}/probe.cpp "int main() { return 0; }\n")
execute_process(COMMAND ${CXX} -fsanitize=address,undefined
                        ${san_dir}/probe.cpp -o ${san_dir}/probe
                RESULT_VARIABLE probe_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT probe_rc EQUAL 0)
  return()
endif()

# -O1, the level AddressSanitizer is meant to run at, set through the
# build type's own flags so RelWithDebInfo's -O2 does not override it:
# both sanitizers at -O2 took about twice the compile time. Ninja, where
# installed, compiles every target's objects in parallel instead of one
# library after another, which roughly halves the wall time on 4 cores.
set(san_generator "")
find_program(san_ninja ninja)
if(san_ninja)
  set(san_generator -G Ninja)
endif()
execute_process(COMMAND ${CMAKE_COMMAND} ${san_generator}
                        -S ${REPO} -B ${san_dir}/build
                        -DCMAKE_BUILD_TYPE=RelWithDebInfo
                        "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-omit-frame-pointer"
                        "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O1 -g -DNDEBUG"
                        -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asan+ubsan configure failed:\n${out}\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} --build ${san_dir}/build
                        --target slm fold_dispatch_test rng_test
                                 aes_datapath_test binio_framed_test
                                 store_test
                        --parallel 4
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asan+ubsan build failed:\n${out}\n${err}")
endif()

set(san_build ${san_dir}/build)
set(ENV{ASAN_OPTIONS} "halt_on_error=1 exitcode=66")
set(ENV{UBSAN_OPTIONS} "halt_on_error=1 exitcode=66 print_stacktrace=1")
