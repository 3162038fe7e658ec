# Shared scratch sanitizer builds for the sanitizer drills. Included,
# not run: the caller sets REPO, WORKDIR and CXX, then calls
#
#   sanitizer_build(<name> <sanitizers> <out_var> <target>...)
#
# which builds <target>... of the repository with -fsanitize=<sanitizers>
# into ${WORKDIR}/<name>/build and sets <out_var> to that build tree
# (binaries under tools/ and tests/), or to "" when the toolchain cannot
# link the sanitizers (the caller then skips). Drills that share a
# <name> pass the union of their targets, so only the first one to run
# compiles; the rest reconfigure and find every target up to date. They
# hold a ctest RESOURCE_LOCK of that name so that no two configure or
# build it at once. The two builds in use:
#   tsan_build        thread             pipeline_tsan, serve_tsan
#   asan_ubsan_build  address,undefined  store_asan, fold_ubsan
# A data race, memory error or undefined behavior aborts the process
# with exit code 66.

function(sanitizer_build name sanitizers out_var)
  set(dir ${WORKDIR}/${name})
  file(MAKE_DIRECTORY ${dir})
  set(${out_var} "" PARENT_SCOPE)

  # Probe: can the toolchain compile and link a sanitized binary at all?
  file(WRITE ${dir}/probe.cpp "int main() { return 0; }\n")
  execute_process(COMMAND ${CXX} -fsanitize=${sanitizers} ${dir}/probe.cpp
                          -o ${dir}/probe
                  RESULT_VARIABLE probe_rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT probe_rc EQUAL 0)
    return()
  endif()

  # -O1, set through the build type's own flags so RelWithDebInfo's -O2
  # does not override it: the sanitizers at -O2 took about twice the
  # compile time. Ninja, where installed, compiles every target's
  # objects in parallel instead of one library after another, which
  # roughly halves the wall time on 4 cores.
  set(generator "")
  find_program(san_ninja ninja)
  if(san_ninja)
    set(generator -G Ninja)
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} ${generator}
                          -S ${REPO} -B ${dir}/build
                          -DCMAKE_BUILD_TYPE=RelWithDebInfo
                          "-DCMAKE_CXX_FLAGS=-fsanitize=${sanitizers} -fno-omit-frame-pointer"
                          "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O1 -g -DNDEBUG"
                          -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=${sanitizers}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} configure failed:\n${out}\n${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} --build ${dir}/build
                          --target ${ARGN} --parallel 4
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} build failed:\n${out}\n${err}")
  endif()

  set(${out_var} ${dir}/build PARENT_SCOPE)
  set(ENV{TSAN_OPTIONS} "halt_on_error=1 exitcode=66")
  set(ENV{ASAN_OPTIONS} "halt_on_error=1 exitcode=66")
  set(ENV{UBSAN_OPTIONS} "halt_on_error=1 exitcode=66 print_stacktrace=1")
endfunction()
